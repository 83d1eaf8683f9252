"""CSV form of column arrays: the one writer of every CSV the CLI emits."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def to_csv(columns: Sequence[str], arrays: Sequence[np.ndarray], fmt: str,
           header_lines: Iterable[str]) -> str:
    """Render equal-length ``arrays`` as CSV under the header ``columns``.

    Comma separated, dot decimal, one ``# `` line per entry of
    ``header_lines`` before the header row.  ``fmt`` is the per-value printf
    format; ``"%r"`` keeps the shortest round-trip representation.
    """
    lines = [f"# {line}\n" for line in header_lines]
    lines.append(",".join(columns) + "\n")
    row = ",".join([fmt] * len(columns)) + "\n"
    # tolist() yields Python floats, whose repr is the plain shortest form
    lines.extend(row % values for values in zip(*(a.tolist() for a in arrays)))
    return "".join(lines)
