"""The one CSV format every output file shares.

Floats carry 17 significant digits so they read back exactly; files are
UTF-8 with LF line endings and a trailing newline.  ``"%.17g" % x`` gives
``fmt(x)`` for a Python float x, so writers of long files format a whole
row with one ``%`` call.
"""
from __future__ import annotations

from pathlib import Path


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, header: str, rows) -> None:
    """Write ``header`` and the ``rows`` lines, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *rows]) + "\n")
