"""The one CSV format every output file shares.

Floats carry 17 significant digits so they read back exactly; files are
UTF-8 with LF line endings and a trailing newline.  :func:`cell` is the
rule for one value.  ``"%.17g" % x`` gives ``cell(x)`` for a float x, so
writers of long files format a whole row with one ``%`` call.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


def cell(v) -> str:
    """A float with 17 significant digits, a bool as true/false, None as an
    empty cell, an array as its entries' cells joined by ';', anything else
    by ``str``."""
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, np.ndarray):
        return ";".join(map(cell, v.ravel().tolist()))
    return "" if v is None else str(v)


def write_csv(path, header: str, rows) -> None:
    """Write ``header`` and the ``rows``, creating the parent directory: a
    row is a line, or a tuple of values written by :func:`cell`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = (r if isinstance(r, str) else ",".join(map(cell, r)) for r in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *lines]) + "\n")
