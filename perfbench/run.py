#!/usr/bin/env python3
"""vbscd benchmark: CLI flow timings end to end, and a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each flow runs in a fresh process, one at a time, as
``vbscd <command> --config perfbench/configs/<workload>.cfg --seed N --out DIR``
(through perfbench/flow.py, which stamps the end of set-up).  Runs repeat
until S seconds are spent, at least three times.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (spawn to exit),
``setup_s`` (spawn to the return of ``build_schedule``, stamped in each
flow) and ``peak_rss_mb`` (the child's ru_maxrss), each the median over
the run's samples.  The two times are scaled to a reference machine speed
(see ``calibrate``): on a shared host the same code can run markedly
slower for seconds to minutes at a time, and the scaling divides that out.
``--trace 1`` alternates untraced runs with traced ones (at least two) and
reports the per-layer metrics of layers.py plus the tracing overhead.

Every run's outputs are checked (see ``check_run``), and all runs at one seed
must leave byte-identical ``--out`` trees.  Working files, the traced runs'
span dumps and a full result record go under ``.perfbench_work/`` in the
current directory.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402

MIN_RUNS = 3
# one calibration reading lasts this long; a calibration unit takes
# REF_UNIT_S at the reference speed
CALIB_S = 0.4
REF_UNIT_S = 0.6e-3
MIN_TRACED = 2
# the whole benchmark has to end within 180 s; flows past this are killed
DEADLINE_S = 165.0
WORK_DIR = ".perfbench_work"

# The flows are single-threaded Python; pin BLAS to one thread so a
# matrix-vector product does not spin up other cores and each flow runs alone.
FLOW_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, unknown workload, ...)."""


def load_workloads() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one flow run


@dataclass
class FlowRun:
    traced: bool
    wall: float
    rss_mb: float
    exit_code: int
    stdout: str
    out_dir: Path
    dump: dict
    setup: float | None = None
    scale: float = 1.0  # REF_UNIT_S / calibration unit time around this flow
    digest: str = ""
    checks: list = field(default_factory=list)


def spawn_flow(root: Path, wl: dict, config: Path, seed: int, run_dir: Path, mode: str,
               timeout: float) -> FlowRun:
    """Run one flow in a fresh process; ``mode`` is "plain" or "traced".
    A flow still running after ``timeout`` seconds is killed (and fails its
    exit-code check)."""
    run_dir.mkdir(parents=True)
    out_dir = run_dir / "out"
    dump_path = run_dir / "dump.json"
    log_path = run_dir / "stdout.txt"
    flag = {"plain": [], "traced": ["--trace"]}[mode]
    cmd = [
        sys.executable, str(HERE / "flow.py"), "--src", str(root / "src"),
        "--dump", str(dump_path), *flag, "--spawn",
    ]
    cli = [wl["command"], "--config", str(config), "--seed", str(seed), "--out", str(out_dir)]
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd + [repr(t0), "--", *cli], stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, cwd=root, env=FLOW_ENV,
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    dump = {}
    if dump_path.exists():
        with open(dump_path, encoding="utf-8") as fh:
            dump = json.load(fh)
    run = FlowRun(
        traced=mode == "traced", wall=wall, rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode, stdout=log_path.read_text(errors="replace"),
        out_dir=out_dir, dump=dump,
    )
    span = layers.Dump(dump).first_span("harness.build_schedule") if dump else None
    if span is not None:
        run.setup = span[2] - t0
    run.digest = tree_digest(out_dir)
    if dump:
        dump["out_bytes"] = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    return run


def tree_digest(path: Path) -> str:
    """sha256 over the relative paths and contents of every file under path."""
    h = hashlib.sha256()
    if path.is_dir():
        for p in sorted(q for q in path.rglob("*") if q.is_file()):
            h.update(str(p.relative_to(path)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# correctness checks


def read_config(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(path, encoding="utf-8")
    return cp


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_run(run: FlowRun, expect: dict, cfg: configparser.ConfigParser) -> list[tuple[str, bool, str]]:
    """(check, passed, detail) for one flow run's exit code and outputs."""
    out = []

    def add(name, ok, detail=""):
        out.append((name, bool(ok), detail))

    add("exit-code", run.exit_code == 0, f"exit code {run.exit_code}")
    if run.exit_code != 0:
        return out

    if expect.get("reference") is not None:
        m = re.search(r"^reference: \S+\s+value=(\S+)", run.stdout, re.M)
        value = float(m.group(1)) if m else float("nan")
        want = expect["reference"]
        add("reference-value", abs(value - want) <= expect["reference_rtol"] * abs(want),
            f"reference {value!r}, recorded {want!r}")

    if "factor" in expect:
        rows = read_rows(run.out_dir / "rate_report.csv")
        factor = float(rows[0]["factor"]) if rows else float("nan")
        ok = factor < 1.0
        if expect["factor"] is not None:
            ok = ok and abs(factor - expect["factor"]) <= expect["factor_atol"]
        add("rate-factor", ok, f"factor {factor!r}, recorded {expect['factor']!r}")

    if expect.get("audit"):
        m = re.search(r"contraction audit: checked=(\d+) skipped=(\d+) violations=(\d+)", run.stdout)
        ok = m is not None and int(m.group(1)) > 0 and int(m.group(3)) == 0
        add("audit", ok, m.group(0) if m else "no audit line")

    if expect.get("verify_rows") is not None:
        rows = read_rows(run.out_dir / "verify_report.csv")
        failed = [f"{r['check']}/{r['name']}" for r in rows if r["pass"] != "true"]
        add("verify-rows", len(rows) == expect["verify_rows"] and not failed,
            f"{len(rows)} rows (recorded {expect['verify_rows']}), failed {failed}")

    trajs = sorted(run.out_dir.glob("traj_*.csv"))
    if trajs:
        ref = float(read_rows(trajs[0])[0]["F"]) - float(read_rows(trajs[0])[0]["gap"])
        tol = float(cfg.get("solver", "tolerance", fallback="1e-10"))
        floor = -1e-9 * (1.0 + abs(ref))
        nonmono, below, not_tol = [], [], []
        for t in trajs:
            rows = read_rows(t)
            f = [float(r["F"]) for r in rows]
            if any(b > a + 1e-12 * (1.0 + abs(a)) for a, b in zip(f, f[1:])):
                nonmono.append(t.name)
            if float(rows[-1]["gap"]) < floor:
                below.append(t.name)
            resid = rows[-1]["prox_residual"]
            if not resid or float(resid) > tol:
                not_tol.append(t.name)
        add("objective-nonincreasing", not nonmono, f"increasing F in {nonmono}")
        add("gap-nonnegative", not below, f"final gap below the reference in {below}")
        if expect.get("all_tolerance"):
            add("tolerance-stop", not not_tol, f"no tolerance stop in {not_tol}")
    return out


def counts_of(metrics: dict) -> dict:
    units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
    return {k: v for k, v in metrics.items() if units.get(k) in ("count", "bytes")}


# ---------------------------------------------------------------------------
# machine and build


def _git_revision(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cache_sizes() -> dict:
    """Cache sizes of cpu0, read from sysfs."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            kind = (idx / "type").read_text().strip()
            if kind in ("Data", "Unified"):
                sizes[f"L{(idx / 'level').read_text().strip()}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def machine_info(root: Path) -> dict:
    import numpy

    src = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        src.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "caches": _cache_sizes(),
        "flow_blas_threads": FLOW_ENV["OPENBLAS_NUM_THREADS"],
        "git_revision": _git_revision(root),
        "src_sha256": src.hexdigest(),
    }


def working_set(cfg: configparser.ConfigParser, runs: list[FlowRun]) -> dict:
    """Computed, not measured: the design matrix and its gram (n x n floats
    for the square designs used here) and the per-step points the solver
    keeps (trajectory rows x n x 8 bytes)."""
    n = cfg.getint("instance", "n")
    rows = 0
    if runs:
        for t in runs[0].out_dir.glob("traj_*.csv"):
            with open(t, encoding="utf-8") as fh:
                rows += sum(1 for _ in fh) - 1
    return {"A_bytes": n * n * 8, "gram_bytes": n * n * 8, "points_bytes": rows * n * 8,
            "label": "computed from array sizes"}


# ---------------------------------------------------------------------------
# machine speed

def calibrate() -> float:
    """Seconds per calibration unit right now.

    A unit is fixed work owned by the benchmark, not by vbscd, in two
    about equal halves like most of the flows' work: interpreter arithmetic
    and numpy operations on a 50-vector.  A flow's times are multiplied by
    REF_UNIT_S over the mean of the readings taken just before and just
    after it, which turns them into seconds at the reference speed.  A
    change to vbscd leaves the unit alone, so it moves the scaled times as
    much as the raw ones.  The readings and the flows share one CPU (see
    ``run_workload``)."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 50)
    units = 0
    t0 = time.monotonic()
    while True:
        acc = 0.0
        for i in range(3000):
            acc += (i * 0.5) % 3.0
        v = x
        for _ in range(200):
            v = v * 0.999 + 0.001
        units += 1
        elapsed = time.monotonic() - t0
        if elapsed >= CALIB_S:
            return elapsed / units


# ---------------------------------------------------------------------------
# measuring and reporting


def describe(name, unit, values) -> str:
    t = layers.tail_percentile(sorted(values))
    t_txt = f"p{t[0]} {t[1]:.6g}" if t else "no percentile with >=10 samples beyond it"
    return f"  {name:<14} median {statistics.median(values):.6g} {unit}   {t_txt}   n={len(values)}"


def measure(root, wl, config, seed, work, seconds, trace, expect, cfg):
    """Flow runs until ``seconds`` are spent.

    Untraced mode takes a calibration reading before the first flow and
    after each one.  Trace mode alternates untraced and traced flows and
    takes no calibration readings."""
    start = time.monotonic()
    runs: list[FlowRun] = []
    cycles: list[float] = []
    units = [] if trace else [calibrate()]
    while True:
        n_traced = sum(r.traced for r in runs)
        n_plain = len(runs) - n_traced
        if trace:
            enough = n_traced >= MIN_TRACED and n_plain >= 1
            traced_next = n_traced <= n_plain
        else:
            enough = len(runs) >= MIN_RUNS
            traced_next = False
        if enough:
            # start another cycle only if one like it still fits in the budget
            same = [c for c, r in zip(cycles, runs) if r.traced == traced_next]
            if time.monotonic() - start + statistics.median(same) > seconds:
                break
        t_cycle = time.monotonic()
        i = len(runs)
        run = spawn_flow(root, wl, config, seed, work / f"run{i:02d}",
                         "traced" if traced_next else "plain",
                         max(5.0, DEADLINE_S - (t_cycle - start)))
        run.checks = check_run(run, expect, cfg)
        runs.append(run)
        if not trace:
            units.append(calibrate())
            run.scale = REF_UNIT_S / statistics.mean(units[-2:])
        cycles.append(time.monotonic() - t_cycle)

    # every run at one seed, traced or not, leaves the same bytes behind
    for run in runs[1:]:
        run.checks.append(("byte-identical-out", run.digest == runs[0].digest,
                           f"out tree sha256 {run.digest[:16]} vs {runs[0].digest[:16]}"))
    return runs


def traced_metrics(runs: list[FlowRun]) -> dict:
    """Per-layer metrics: medians over the traced runs (counts must repeat
    exactly, which adds a check per traced run), plus the whole-run figures."""
    traced = [r for r in runs if r.traced and r.dump]
    walls = [r.wall for r in runs if not r.traced]
    if not traced or not walls:
        return {}
    per_run = [layers.layer_metrics(r.dump) for r in traced]
    for r, m in zip(traced[1:], per_run[1:]):
        r.checks.append(("exact-counts-repeat", counts_of(m) == counts_of(per_run[0]),
                         "layer counts differ between traced runs"))
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    t_wall = statistics.median(r.wall for r in traced)
    metrics["trace.wall_s"] = t_wall
    metrics["trace.untraced_wall_s"] = statistics.median(walls)
    metrics["trace.overhead_s"] = t_wall - statistics.median(walls)
    metrics["trace.unattributed_s"] = statistics.median(
        layers.unattributed_s(r.dump, r.wall) for r in traced
    )
    return metrics


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Measure one workload, print its summary and return the full record."""
    workloads = load_workloads()
    if name not in workloads:
        raise BenchError(f"unknown workload {name!r}; expected one of {sorted(workloads)}")
    if not (root / "src" / "vbscd" / "cli.py").is_file():
        raise BenchError(f"no vbscd sources under {root / 'src'}; run from the repository root")
    wl = workloads[name]
    expect = dict(wl["expect"])
    work = root / WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config = HERE / wl["config"]
    if tiny:
        cp = read_config(config)
        for key, value in wl["tiny"]["config"].items():
            section, option = key.split(".")
            cp.set(section, option, str(value))
        config = work / "tiny.cfg"
        with open(config, "w", encoding="utf-8") as fh:
            cp.write(fh)
        expect.update(wl["tiny"]["expect"])
    cfg = read_config(config)

    # Keep this process, its calibration readings and every flow on one CPU:
    # on a shared host each CPU is slowed by its own neighbours, so a reading
    # only tells how fast a flow ran if both ran on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # compile the package once so no timed run pays for writing bytecode
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import vbscd.cli",
                    str(root / "src")], cwd=root, env=FLOW_ENV, check=True)
    runs = measure(root, wl, config, seed, work, seconds, trace, expect, cfg)
    plain = [r for r in runs if not r.traced]
    traced = [r for r in runs if r.traced]
    raw_walls = [r.wall for r in plain]
    raw_setups = [r.setup for r in plain if r.setup is not None]
    walls = [r.wall * r.scale for r in plain]
    setups = [r.setup * r.scale for r in plain if r.setup is not None]
    rss = [r.rss_mb for r in plain]
    if trace:
        metrics = traced_metrics(runs)
        units = {n: u for n, u, _, _ in layers.PER_LAYER}
        units.update({n: u for n, u, _ in layers.TRACE_METRICS})
        out_metrics = {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)}
    else:
        values = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
        out_metrics = {
            n: {"value": statistics.median(values[n]), "unit": u}
            for n, u, _ in END_TO_END if values[n]
        }
    checks = [c for r in runs for c in r.checks]
    failed = [c for c in checks if not c[1]]
    for c in failed:
        print(f"FAIL {name} seed {seed}: {c[0]}: {c[2]}", file=sys.stderr)

    machine = machine_info(root)
    ws = working_set(cfg, plain)
    print(f"workload {name}  seed {seed}  trace {int(trace)}{'  tiny' if tiny else ''}  "
          f"runs {len(plain)} untraced + {len(traced)} traced  "
          f"checks {len(checks)}  failed {len(failed)}  fail_frac {len(failed) / len(checks):.6g}")
    for label, unit, values in (("wall_s", "s", walls), ("setup_s", "s", setups), ("peak_rss_mb", "MB", rss)):
        if values:
            print(describe(label, unit, values))
    if not trace:
        print(f"  unscaled: wall_s median {statistics.median(raw_walls):.6g} s, setup_s median "
              f"{statistics.median(raw_setups):.6g} s; machine speed {statistics.median(r.scale for r in plain):.4g}"
              f" of the reference (median over flows)")
    print(f"  machine: {machine['cpu_count']} cpus, python {machine['python']}, numpy {machine['numpy']}, "
          f"caches {machine['caches']}, revision {machine['git_revision']}, src {machine['src_sha256'][:16]}")
    print(f"  working set (computed): A {ws['A_bytes']} B, gram {ws['gram_bytes']} B, "
          f"per-step points {ws['points_bytes']} B")
    if trace and metrics:
        print(f"  traced wall {metrics['trace.wall_s']:.4g} s = untraced {metrics['trace.untraced_wall_s']:.4g} s"
              f" + overhead {metrics['trace.overhead_s']:.4g} s; of it import {metrics['cli.import_s']:.4g} s"
              f" (spawn to run_experiment), unattributed {metrics['trace.unattributed_s']:.4g} s"
              f" (after cli.main), the rest in the spans below")
        print("  busiest calls (first traced run): name, busy s, self s, calls")
        for row_name, busy, self_s, calls in layers.stage_table(traced[0].dump):
            print(f"    {row_name:<36} {busy:9.4f} {self_s:9.4f} {calls:9d}")

    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": out_metrics,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "why": wl["why"], "machine": machine, "working_set": ws,
        "runs": [
            {"traced": r.traced, "wall_s": r.wall, "setup_s": r.setup, "scale": r.scale,
             "peak_rss_mb": r.rss_mb,
             "exit_code": r.exit_code, "out_sha256": r.digest,
             "checks": [list(c) for c in r.checks]}
            for r in runs
        ],
        "traced_dumps": [str(r.out_dir.parent / "dump.json") for r in traced],
        "result": result,
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for r in runs:
        shutil.rmtree(r.out_dir, ignore_errors=True)
    record["traced_summaries"] = [r.dump for r in traced]
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in 64 bits", file=sys.stderr)
        return 2
    names = sorted(load_workloads()) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(Path.cwd(), n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    results = [r["result"] for r in records]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
