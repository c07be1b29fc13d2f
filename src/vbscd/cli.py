"""Command line front end.

Four subcommands, all driven by the same config-file format:

    vbscd solve    --config path.cfg [--seed S] [--out DIR]
    vbscd verify   --config path.cfg [--seed S] [--out DIR]
    vbscd rate     --config path.cfg [--seed S] [--out DIR]
    vbscd probe-eb --config path.cfg [--seed S] [--out DIR]

--seed overrides [experiment] seed; --out overrides [experiment] output_dir.
Config values (and --seed) are checked against the config schema when the
file is loaded, before any work starts; a bad value prints one
``error: [section] key ...`` line and exits 2.  Exit status is 0 on
success, 1 on a failed check/audit, 2 on bad usage or a config problem.
"""
from __future__ import annotations

import argparse
import sys

from .harness import FLOWS, ConfigError, DivergenceError, ReplicationError, run_experiment
from .probes import EmptyNeighborhoodError

_HELP = {
    "solve": "run replicated trajectories and write them as CSV",
    "verify": "run the numeric invariant suite against an instance",
    "rate": "fit a geometric decay factor to the mean objective gap",
    "probe-eb": "estimate local error-bound constants by sampling",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbscd",
        description="randomized block proximal descent with variable quadratic kernels",
    )
    sub = parser.add_subparsers(dest="command", metavar="{%s}" % ",".join(FLOWS))
    for name in FLOWS:
        cmd = sub.add_parser(name, help=_HELP[name])
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--seed", type=int, default=None, help="override [experiment] seed")
        cmd.add_argument("--out", default=None, help="override [experiment] output_dir")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 2
    try:
        return run_experiment(args.config, args.command, seed=args.seed, out_dir=args.out)
    except (ConfigError, DivergenceError, ReplicationError, EmptyNeighborhoodError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
