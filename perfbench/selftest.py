#!/usr/bin/env python3
"""Quick self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs each workload (all of them by default) with the tiny overrides from
workloads.json, untraced and traced, and asserts that

* the metrics each workload is said to stress or bypass exist;
* every run passes its correctness checks;
* every end-to-end metric (untraced) and every per-layer metric (traced)
  named in BENCHMARK.json is reported, with the unit BENCHMARK.json gives;
* every call the workload is listed as using reports calls > 0 in the
  traced run, which catches a wrapper that was not rebound in some module
  that imports the function by name.

It is a script, not a pytest module, so the repository's test run does not
collect it.  Exit status 0 when every assertion holds.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def check_workload(root: Path, name: str, spec: dict, declared: dict) -> list[str]:
    problems = []
    for trace in (False, True):
        record = bench.run_workload(root, name, seed=1, seconds=0.0, trace=trace, tiny=True)
        result = record["result"]
        mode = "traced" if trace else "untraced"
        if not result["correct"]:
            failed = [c for r in record["runs"] for c in r["checks"] if not c[1]]
            problems.append(f"{name} {mode}: failed checks {failed}")
        kind = "per_layer" if trace else "end_to_end"
        for metric in declared[kind]:
            got = result["metrics"].get(metric["name"])
            if got is None:
                problems.append(f"{name} {mode}: metric {metric['name']} missing")
            elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
                problems.append(f"{name} {mode}: metric {metric['name']} reported as {got}")
        extra = set(result["metrics"]) - {m["name"] for m in declared[kind]}
        if extra:
            problems.append(f"{name} {mode}: metrics not in BENCHMARK.json: {sorted(extra)}")
        if trace:
            for summary in record["traced_summaries"]:
                for used in spec["uses"]:
                    calls = summary["stats"].get(used, {}).get("calls", 0)
                    calls += summary["counters"].get(used, 0)
                    if calls <= 0:
                        problems.append(f"{name} traced: no calls recorded for {used}")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = HERE.parent
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = bench.load_workloads()
    if {w["name"] for w in declared["workloads"]} != set(workloads):
        print("FAIL: BENCHMARK.json and workloads.json name different workloads")
        return 1
    problems = []
    declared_metrics = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, spec in workloads.items():
        unknown = set(spec["stresses"] + spec["bypasses"]) - declared_metrics
        if unknown:
            problems.append(f"{name}: stresses/bypasses name unknown metrics {sorted(unknown)}")
    for name in argv or sorted(workloads):
        problems += check_workload(root, name, workloads[name], declared)
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
