"""CSV form of column arrays: the one writer of every CSV the CLI emits,
and the finite-value check of every CSV and text output."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def require_finite(columns: Sequence[str], values) -> None:
    """Raise ``ValueError`` (exit 2) naming the first of ``columns`` whose
    value, a float or an array, holds a NaN or an infinity: CSV and text
    output, like JSON, carry finite numbers only."""
    for name, value in zip(columns, values):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite value in {name}; nothing was written")


def to_csv(columns: Sequence[str], arrays: Sequence[np.ndarray], fmt: str) -> str:
    """Render equal-length finite ``arrays`` as CSV under the header ``columns``.

    Comma separated, dot decimal.  ``fmt`` is the per-value printf format;
    ``"%r"`` keeps the shortest round-trip representation.
    """
    require_finite(columns, arrays)
    lines = [",".join(columns) + "\n"]
    row = ",".join([fmt] * len(columns)) + "\n"
    # tolist() yields Python floats, whose repr is the plain shortest form
    lines.extend(row % values for values in zip(*(a.tolist() for a in arrays)))
    return "".join(lines)
