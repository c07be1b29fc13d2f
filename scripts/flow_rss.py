#!/usr/bin/env python3
"""Peak RSS of CLI flows, each run in a fresh process.

    python3 scripts/flow_rss.py configs/lasso50_rate.cfg configs/scad20_rate.cfg
    python3 scripts/flow_rss.py --runs 5 perfbench/configs/rate_scad20.cfg

Runs each config's flow (its ``[experiment] kind``) through the CLI
``--runs`` times (default 3), one fresh process per run, with the BLAS
libraries pinned to one thread and ``--out`` in a temporary directory.  The
peak RSS of a run is the child's own ``ru_maxrss`` (from ``os.wait4``).
Prints one line per config: the median peak RSS in MB and the exit codes.
A run that exits nonzero also prints the last lines of its stderr.  It
reports no time: unscaled process time varies too much from run to run to
compare two trees (``perfbench/run.py`` scales its times for that).
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from out_digest import ROOT, _kind, child_env


def run_once(cfg: Path, env: dict) -> tuple[float, int, str]:
    """(peak RSS in MB, exit code, stderr) of one run of cfg's flow."""
    with tempfile.TemporaryDirectory() as tmp:
        err_path = Path(tmp) / "stderr.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "vbscd.cli", _kind(cfg), "--config", str(cfg),
                 "--out", str(Path(tmp) / "out")],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in kilobytes on Linux
        return usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+", type=Path, help="config files to run")
    parser.add_argument("--runs", type=int, default=3, help="fresh processes per config (default 3)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    env = child_env()
    worst = 0
    for cfg in args.configs:
        cfg = cfg.resolve()
        runs = [run_once(cfg, env) for _ in range(args.runs)]
        codes = [code for _, code, _ in runs]
        label = cfg.relative_to(ROOT).as_posix() if cfg.is_relative_to(ROOT) else str(cfg)
        print(f"{label}  peak_rss_mb={statistics.median(r[0] for r in runs):.2f}  "
              f"(median of {args.runs}; exit {','.join(map(str, codes))})")
        for _, code, err in runs:
            if code != 0:
                for line in err.splitlines()[-5:]:
                    print(f"  stderr: {line}")
                break
        worst = max(worst, *(abs(c) for c in codes))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
