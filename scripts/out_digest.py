#!/usr/bin/env python3
"""Digest of every shipped config's outputs, for byte-identity checks.

    python3 scripts/out_digest.py > digest.txt
    python3 scripts/out_digest.py --keep OUT > digest.txt   # also keep the files

Runs each ``configs/*.cfg`` and ``perfbench/configs/*.cfg`` through the CLI
at ``--seed 7``, one fresh process per config, into a temporary directory
(or into ``--keep OUT``, which must be new or empty: one subdirectory per
config, for ``scripts/out_drift.py`` to compare), and prints per config
its exit code, its stdout lines (with the output directory replaced by
``<tmp>``), its stderr lines, and one
``sha256  config/file`` line per output file.  Two trees give the same
digest exactly when every config exits alike, prints alike, warns alike and
writes the same bytes, so a refactor that must not change outputs is
checked with one ``diff``.  The flows run with BLAS on one thread
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
to 1), so the digest does not depend on the machine's core count.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _kind(cfg: Path) -> str:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.read(cfg, encoding="utf-8")
    return parser.get("experiment", "kind")


def child_env() -> dict:
    """The flows' environment: this one, with src/ on PYTHONPATH and BLAS on
    one thread."""
    return dict(os.environ, **dict.fromkeys(_ONE_THREAD, "1"), PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="OUT", type=Path,
                        help="write the output trees here and keep them")
    args = parser.parse_args()
    if args.keep is not None:
        args.keep = args.keep.resolve()
        if args.keep.exists() and any(args.keep.iterdir()):
            parser.error(f"--keep {args.keep} is not empty")
        args.keep.mkdir(parents=True, exist_ok=True)
    configs = sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("perfbench/configs/*.cfg"))
    env = child_env()
    kept = contextlib.nullcontext(str(args.keep)) if args.keep else tempfile.TemporaryDirectory()
    with kept as tmp:
        for cfg in configs:
            label = cfg.relative_to(ROOT).as_posix()
            out = Path(tmp) / label
            proc = subprocess.run(
                [sys.executable, "-m", "vbscd.cli", _kind(cfg), "--config", str(cfg),
                 "--seed", "7", "--out", str(out)],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            print(f"exit {proc.returncode}  {label}")
            for line in proc.stdout.replace(tmp, "<tmp>").splitlines():
                print(f"stdout  {label}: {line}")
            for line in proc.stderr.splitlines():
                print(f"stderr  {label}: {line}")
            files = sorted(f for f in out.rglob("*") if f.is_file()) if out.is_dir() else []
            for f in files:
                digest = hashlib.sha256(f.read_bytes()).hexdigest()
                print(f"{digest}  {label}/{f.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
