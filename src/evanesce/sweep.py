"""CSV form of column arrays: the one writer of every CSV the CLI emits."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def to_csv(columns: Sequence[str], arrays: Sequence[np.ndarray], fmt: str) -> str:
    """Render equal-length ``arrays`` as CSV under the header ``columns``.

    Comma separated, dot decimal.  ``fmt`` is the per-value printf format;
    ``"%r"`` keeps the shortest round-trip representation.
    """
    lines = [",".join(columns) + "\n"]
    row = ",".join([fmt] * len(columns)) + "\n"
    # tolist() yields Python floats, whose repr is the plain shortest form
    lines.extend(row % values for values in zip(*(a.tolist() for a in arrays)))
    return "".join(lines)
