#!/usr/bin/env python3
"""How far two output trees drift apart, CSV by CSV.

    python3 scripts/out_digest.py --keep A      # in one checkout
    python3 scripts/out_digest.py --keep B      # in another
    python3 scripts/out_drift.py A B

For each CSV under A or B (matched by relative path) prints one line: the
row counts in A and B, whether the cells that do not read as numbers are
equal, and over the numbers in both trees the largest relative difference |a - b| / max(|a|, |b|) and the largest absolute
difference |a - b|, each with the column and data row where it occurs (a
value near zero, such as a gap at the floor, can drift far in relative
terms by rounding alone; a NaN against a number, or an infinity against
another value, counts as an infinite difference).  A cell of numbers
joined by ``;`` (the ``extremal`` column of ``eb_report.csv``) is compared
number by number when both cells hold equally many; otherwise, and for
any cell that is not all numbers, as text.  Rows are compared in
order up to the shorter file.  Exits 1 when a file is missing from one
tree, row counts differ or a non-numeric cell differs, so that "moved by
rounding only" is a checked statement; the size of the numeric drift is
printed, not judged.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path


def _numbers(cell: str) -> list[float] | None:
    """The numbers in a cell, one or several joined by ';'; None for text."""
    try:
        return [float(part) for part in cell.split(";")]
    except ValueError:
        return None


def drift(a: Path, b: Path) -> tuple[bool, str]:
    """(structure equal, one-line report) for two CSV files."""
    rows_a = [line.split(",") for line in a.read_text(encoding="utf-8").splitlines()]
    rows_b = [line.split(",") for line in b.read_text(encoding="utf-8").splitlines()]
    header = rows_a[0] if rows_a else []
    text_equal = (rows_a[:1] == rows_b[:1]) and all(
        len(ra) == len(rb) for ra, rb in zip(rows_a, rows_b))
    worst = {"rel": (0.0, ""), "abs": (0.0, "")}
    for r, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:])):
        for c, (x, y) in enumerate(zip(ra, rb)):
            xs, ys = _numbers(x), _numbers(y)
            if xs is None or ys is None or len(xs) != len(ys):
                text_equal &= x == y
                continue
            for fx, fy in zip(xs, ys):
                if fx == fy or (math.isnan(fx) and math.isnan(fy)):
                    continue
                diff = abs(fx - fy)
                rel = diff / max(abs(fx), abs(fy))
                if math.isnan(diff) or math.isnan(rel):
                    diff = rel = math.inf
                for kind, value in (("rel", rel), ("abs", diff)):
                    if value > worst[kind][0]:
                        column = header[c] if c < len(header) else str(c)
                        worst[kind] = (value, f" ({column}, row {r})")
    same_rows = len(rows_a) == len(rows_b)
    return same_rows and text_equal, (
        f"rows {len(rows_a) - 1}/{len(rows_b) - 1}, "
        f"text {'equal' if text_equal else 'DIFFERS'}, "
        f"max rel diff {worst['rel'][0]:.3g}{worst['rel'][1]}, "
        f"max abs diff {worst['abs'][0]:.3g}{worst['abs'][1]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args()
    names = sorted({f.relative_to(root).as_posix()
                    for root in (args.a, args.b) for f in root.rglob("*.csv")})
    ok = True
    for name in names:
        fa, fb = args.a / name, args.b / name
        if not (fa.is_file() and fb.is_file()):
            ok = False
            print(f"{name}: only in {args.a if fa.is_file() else args.b}")
            continue
        same, line = drift(fa, fb)
        ok &= same
        print(f"{name}: {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
