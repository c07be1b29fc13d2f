"""One benchmark flow in a fresh process: ``vbscd.cli.main`` run in-process.

    python3 perfbench/flow.py --src SRC --dump FILE [--trace] --spawn T -- <vbscd arguments>

``--spawn`` is the parent's CLOCK_MONOTONIC reading just before it started
this process.  Without ``--trace`` only ``build_schedule`` is wrapped, to
stamp the end of set-up; with ``--trace`` every call listed in layers.py
is wrapped.  The dump (spans, aggregates, stamps) is written after the flow
returns, to a file outside the flow's ``--out`` directory.
"""
from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--dump", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("cli", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    sys.path.insert(0, args.src)
    import layers
    from tracer import Tracer

    tracer = Tracer()
    bindings = {}
    if args.trace:
        bindings = layers.install(tracer)
    else:
        layers.install_setup_stamp(tracer)
    cli = sys.modules["vbscd.cli"]
    rc = 1
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.dump(
            args.dump, spawn=args.spawn, exit_code=rc, bindings=bindings,
            vbscd_file=sys.modules["vbscd"].__file__,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
