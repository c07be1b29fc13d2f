"""Which vbscd calls the traced run wraps, and the per-layer metrics read off them.

Span names are ``<layer>.<call>``, with the layers named after vbscd's
modules: cli, harness, instances, model, bregman, prox, solver, diagnostics
and probes.  ``instances.build`` wraps ``harness.build_instance``, the one
boundary through which the flows reach the instance factories.
"""
from __future__ import annotations

import statistics
import sys

# (defining module, attribute, span name, stage?)  Stages keep a span per call;
# the others are aggregated only.
_FUNCTIONS = [
    ("vbscd.cli", "main", "cli.main", True),
    ("vbscd.harness", "run_experiment", "harness.run_experiment", True),
    ("vbscd.harness", "load_config", "harness.load_config", True),
    ("vbscd.harness", "build_instance", "instances.build", True),
    ("vbscd.harness", "build_schedule", "harness.build_schedule", True),
    ("vbscd.harness", "resolve_reference_value", "harness.reference", True),
    ("vbscd.harness", "run_replications", "harness.replications", True),
    ("vbscd.harness", "run_verification", "harness.verification", True),
    ("vbscd.harness", "hypothesis_points", "harness.hypothesis", True),
    ("vbscd.harness", "probed_constants", "harness.probed_constants", True),
    ("vbscd.harness", "run_solve", "harness.flow", True),
    ("vbscd.harness", "run_rate", "harness.flow", True),
    ("vbscd.harness", "run_verify", "harness.flow", True),
    ("vbscd.harness", "run_probe_eb", "harness.flow", True),
    ("vbscd.harness", "write_replication_outputs", "harness.csv", True),
    ("vbscd.harness", "write_rate_csv", "harness.csv", True),
    ("vbscd.diagnostics", "write_report_csv", "harness.csv", True),
    ("vbscd.probes", "write_probe_csv", "harness.csv", True),
    ("vbscd.diagnostics", "fit_linear_rate", "diagnostics.fit_rate", True),
    ("vbscd.diagnostics", "contraction_audit", "diagnostics.audit", True),
    ("vbscd.diagnostics", "auto_neighborhood", "diagnostics.auto_neighborhood", True),
    ("vbscd.probes", "sample_level_ball", "probes.sample_level_ball", True),
    ("vbscd.probes", "probe_ls_eb", "probes.probe_ls_eb", True),
    ("vbscd.solver", "run", "solver.run", True),
    ("vbscd.bregman", "validate_schedule", "bregman.validate_schedule", False),
    ("vbscd.prox", "coordinate_prox", "prox.coordinate_prox", False),
    ("vbscd.prox", "coordinate_prox_all", "prox.coordinate_prox_all", False),
    ("vbscd.prox", "full_prox", "prox.full_prox", False),
    ("vbscd.prox", "prox_residual", "prox.prox_residual", False),
    ("vbscd.prox", "envelope_value", "prox.envelope_value", False),
    ("vbscd.diagnostics", "enumerate_expectation", "diagnostics.enumerate_expectation", False),
    ("vbscd.diagnostics", "expectation_identities", "diagnostics.expectation_identities", False),
    ("vbscd.diagnostics", "check_value_proximity", "diagnostics.proximity", False),
    ("vbscd.diagnostics", "check_level_dominance", "diagnostics.proximity", False),
]

# (module, class, method, span name, also patch subclasses that override it?)
_METHODS = [
    ("vbscd.model", "ProblemInstance", "objective", "model.objective", False),
    ("vbscd.model", "ProblemInstance", "penalty_value", "model.penalty_value", False),
    ("vbscd.model", "ProblemInstance", "min_subgradient_norm", "model.min_subgradient_norm", False),
    ("vbscd.model", "SmoothTerm", "grad", "model.grad", True),
    ("vbscd.model", "Regularizer", "prox", "model.reg_prox", True),
    ("vbscd.diagnostics", "GridProxOracle", "query", "diagnostics.grid_oracle", False),
    ("vbscd.diagnostics", "GridProxOracle", "__init__", "diagnostics.grid_oracle_build", False),
]


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _on_solver_run(tr, args, kwargs, traj):
    tr.count("solver.iterations", len(traj.records))
    tr.count("solver.tolerance_stops", traj.termination == "tolerance")
    tr.count("solver.points_bytes", len(traj.records) * traj.x0.size * 8)


def _on_audit(tr, args, kwargs, audit):
    tr.count("diagnostics.audit.checked", audit.checked)
    tr.count("diagnostics.audit.skipped", audit.skipped)


def _on_level_ball(tr, args, kwargs, result):
    tr.count("probes.accepted", len(result[0]))


_ON_RETURN = {
    "solver.run": _on_solver_run,
    "diagnostics.audit": _on_audit,
    "probes.sample_level_ball": _on_level_ball,
}


def install_setup_stamp(tr) -> None:
    """Untraced runs: only ``build_schedule`` is wrapped, to stamp set-up."""
    import vbscd.cli  # noqa: F401  (loads every vbscd module)

    tr.rebind("vbscd.harness", "build_schedule",
              lambda f: tr.wrap(f, "harness.build_schedule", stage=True))


def install(tr) -> dict:
    """Wrap every call listed above; returns bindings replaced per name."""
    import vbscd.cli  # noqa: F401

    bound: dict[str, int] = {}
    for module, attr, name, stage in _FUNCTIONS:
        hook = _ON_RETURN.get(name)
        n = tr.rebind(module, attr, lambda f, name=name, stage=stage, hook=hook:
                      tr.wrap(f, name, stage=stage, on_return=hook))
        bound[name] = bound.get(name, 0) + n
    for module, cls_name, attr, name, subclasses in _METHODS:
        cls = getattr(sys.modules.get(module), cls_name, None)
        if cls is None:
            continue
        for c in (_subclasses(cls) if subclasses else [cls]):
            if tr.patch_method(c, attr, lambda f, name=name: tr.wrap(f, name)):
                bound[name] = bound.get(name, 0) + 1
    # Draws of the level-ball probes go through the probes module's own
    # binding of sample_in_ball; the solver's and harness's bindings are not
    # probe draws, so they stay unwrapped.
    bound["probes.draws"] = tr.rebind(
        "vbscd.solver", "sample_in_ball",
        lambda f: tr.counting(f, "probes.draws"), only_in={"vbscd.probes"},
    )
    schedule = getattr(sys.modules["vbscd.bregman"], "BregmanSchedule", None)
    if schedule is not None and "__post_init__" in vars(schedule):
        post_init = schedule.__post_init__

        def counted_post_init(self):
            post_init(self)
            object.__setattr__(self, "generator", tr.counting(self.generator, "bregman.generator"))

        schedule.__post_init__ = counted_post_init
        bound["bregman.generator"] = 1
    return bound


# ---------------------------------------------------------------------------
# per-layer metrics from one traced run's dump


def tail_percentile(sorted_values):
    """(p, value) for the highest of p99/p95/p90/p75/p50 that has at least
    ten samples beyond it (nearest rank), or None for fewer than 20 samples."""
    n = len(sorted_values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, sorted_values[max(0, -(-p * n // 100) - 1)]
    return None


class Dump:
    """Read access to one traced run's summary."""

    def __init__(self, data: dict):
        self.data = data
        self.parent = {(n, p): c for n, p, c in data["by_parent"]}

    def _stat(self, name):
        return self.data["stats"].get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "samples_us": []})

    def calls(self, name):
        return self._stat(name)["calls"]

    def busy(self, name):
        return self._stat(name)["busy_s"]

    def self_s(self, name):
        return self._stat(name)["self_s"]

    def us(self, name):
        s = self._stat(name)["samples_us"]
        return statistics.median(s) if s else 0.0

    def us_tail(self, name):
        """Per-call tail; the slowest call when there are too few samples."""
        s = self._stat(name)["samples_us"]
        t = tail_percentile(s)
        return t[1] if t else (s[-1] if s else 0.0)

    def counter(self, name):
        return self.data["counters"].get(name, 0)

    def under(self, name, parent):
        return self.parent.get((name, parent), 0)

    def first_span(self, name):
        for span in self.data["spans"]:
            if span[0] == name:
                return span
        return None


def _ratio(a, b):
    return a / b if b else 0.0


def _import_s(d):
    span = d.first_span("harness.run_experiment")
    return span[1] - d.data["spawn"] if span else 0.0


def _leaf(name, timed=True, tail=False, busy=True):
    """calls / per-call median / tail / busy seconds for one aggregated call."""
    out = [(f"{name}.calls", "count", "lower", lambda d: d.calls(name))]
    if timed:
        out.append((f"{name}.us", "us", "lower", lambda d: d.us(name)))
    if tail:
        out.append((f"{name}.us_tail", "us", "lower", lambda d: d.us_tail(name)))
    if busy:
        out.append((f"{name}.s", "s", "lower", lambda d: d.busy(name)))
    return out


# (metric, unit, better, value from a Dump).  Every ``.s`` is busy time:
# outermost calls only, children included; harness.replications.s is the
# exception, its self time (wrapped calls inside it excluded).
PER_LAYER = [
    ("harness.reference.s", "s", "lower", lambda d: d.busy("harness.reference")),
    ("harness.reference.steps", "count", "lower", lambda d: d.under("prox.full_prox", "harness.reference")),
    ("harness.replications.s", "s", "lower", lambda d: d.self_s("harness.replications")),
    ("harness.csv.s", "s", "lower", lambda d: d.busy("harness.csv")),
    ("harness.csv.bytes", "bytes", "lower", lambda d: d.data["out_bytes"]),
    ("harness.hypothesis.halvings", "count", "lower",
     lambda d: d.under("probes.sample_level_ball", "harness.hypothesis") - d.calls("harness.hypothesis")),
    ("instances.build.s", "s", "lower", lambda d: d.busy("instances.build")),
    *_leaf("model.objective", tail=True),
    *_leaf("model.penalty_value", timed=False),
    *_leaf("model.grad", tail=True),
    ("model.min_subgradient_norm.s", "s", "lower", lambda d: d.busy("model.min_subgradient_norm")),
    *_leaf("model.reg_prox", tail=True, busy=False),
    *_leaf("bregman.validate_schedule", timed=False),
    ("bregman.generator.calls", "count", "lower", lambda d: d.counter("bregman.generator")),
    *_leaf("prox.coordinate_prox", tail=True),
    *_leaf("prox.coordinate_prox_all", tail=True),
    *_leaf("prox.full_prox", tail=True),
    ("prox.prox_residual.calls", "count", "lower", lambda d: d.calls("prox.prox_residual")),
    ("solver.run.calls", "count", "lower", lambda d: d.calls("solver.run")),
    ("solver.iterations", "count", "lower", lambda d: d.counter("solver.iterations")),
    ("solver.iter_us", "us", "lower",
     lambda d: 1e6 * _ratio(d.busy("solver.run"), d.counter("solver.iterations"))),
    ("solver.iters_per_s", "1/s", "higher",
     lambda d: _ratio(d.counter("solver.iterations"), d.busy("solver.run"))),
    ("solver.tolerance_frac", "ratio", "higher",
     lambda d: _ratio(d.counter("solver.tolerance_stops"), d.calls("solver.run"))),
    ("solver.points_bytes", "bytes", "lower", lambda d: d.counter("solver.points_bytes")),
    ("diagnostics.audit.s", "s", "lower", lambda d: d.busy("diagnostics.audit")),
    ("diagnostics.audit.checked", "count", "higher", lambda d: d.counter("diagnostics.audit.checked")),
    ("diagnostics.audit.skipped", "count", "lower", lambda d: d.counter("diagnostics.audit.skipped")),
    ("diagnostics.audit.checked_frac", "ratio", "higher",
     lambda d: _ratio(d.counter("diagnostics.audit.checked"),
                      d.counter("diagnostics.audit.checked") + d.counter("diagnostics.audit.skipped"))),
    ("diagnostics.audit.point_us", "us", "lower",
     lambda d: 1e6 * _ratio(d.busy("diagnostics.audit"), d.counter("diagnostics.audit.checked"))),
    *_leaf("diagnostics.enumerate_expectation", tail=True, busy=False),
    *_leaf("diagnostics.grid_oracle", tail=True),
    ("diagnostics.grid_oracle_build.s", "s", "lower", lambda d: d.busy("diagnostics.grid_oracle_build")),
    ("diagnostics.expectation_identities.us", "us", "lower", lambda d: d.us("diagnostics.expectation_identities")),
    ("diagnostics.proximity.s", "s", "lower", lambda d: d.busy("diagnostics.proximity")),
    ("diagnostics.auto_neighborhood.s", "s", "lower", lambda d: d.busy("diagnostics.auto_neighborhood")),
    ("probes.sample_level_ball.calls", "count", "lower", lambda d: d.calls("probes.sample_level_ball")),
    ("probes.sample_level_ball.draws", "count", "lower", lambda d: d.counter("probes.draws")),
    ("probes.sample_level_ball.accepted", "count", "higher", lambda d: d.counter("probes.accepted")),
    ("probes.sample_level_ball.accept_frac", "ratio", "higher",
     lambda d: _ratio(d.counter("probes.accepted"), d.counter("probes.draws"))),
    ("probes.sample_level_ball.s", "s", "lower", lambda d: d.busy("probes.sample_level_ball")),
    ("probes.probe_ls_eb.s", "s", "lower", lambda d: d.busy("probes.probe_ls_eb")),
    ("cli.import_s", "s", "lower", _import_s),
]

# Whole-run figures of the traced run, filled in by run.py from the walls.
TRACE_METRICS = [
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


def layer_metrics(data: dict) -> dict:
    d = Dump(data)
    return {name: float(fn(d)) for name, _, _, fn in PER_LAYER}


def unattributed_s(data: dict, wall: float) -> float:
    """Traced wall after the cli.main span ends: process exit and writing the
    dump.  Spawn to the start of cli.main is start-up (most of cli.import_s)."""
    main = Dump(data).first_span("cli.main")
    return wall - (main[2] - data["spawn"]) if main else wall


def stage_table(data: dict, top: int = 8):
    """Busy and self seconds per span name, largest busy first."""
    stats = data["stats"]
    rows = sorted(
        ((n, s["busy_s"], s["self_s"], s["calls"]) for n, s in stats.items()),
        key=lambda r: -r[1],
    )
    return rows[:top]
