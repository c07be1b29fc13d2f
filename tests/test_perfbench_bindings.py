"""The traced benchmark run wraps vbscd calls by module and name
(``perfbench/layers.py``); every one of them must still exist there."""
import importlib
import importlib.util
from pathlib import Path

import vbscd.cli  # noqa: F401  (loads every vbscd module, as the benchmark does)

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Counts:
    """Stands in for the tracer: records what a hook counts."""

    def __init__(self):
        self.seen = {}

    def count(self, name, value):
        self.seen[name] = self.seen.get(name, 0) + value


def test_benchmark_bindings_resolve():
    layers = _layers()
    missing = [
        f"{module}.{attr}" for module, attr, *_ in layers._FUNCTIONS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    # methods are patched on the class that defines them, not inherited
    missing += [
        f"{module}.{cls}.{attr}" for module, cls, attr, *_ in layers._METHODS
        if attr not in vars(getattr(importlib.import_module(module), cls, object))
    ]
    assert layers._FUNCTIONS and layers._METHODS
    assert missing == []


def test_solver_run_result_has_what_the_trace_reads():
    # the traced run's hook on solver.run reads len(records), termination
    # and x0.size off the returned trajectory
    from vbscd import BregmanSchedule, SolverConfig, run
    from vbscd.instances import lasso_random

    p = lasso_random(n=10, n_blocks=5, seed=21)
    traj = run(p, SolverConfig(schedule=BregmanSchedule.constant(1.0, 0.1),
                               max_iters=7, tolerance=0.0, seed=1))
    tr = _Counts()
    _layers()._on_solver_run(tr, (), {}, traj)
    assert tr.seen == {
        "solver.iterations": 7,
        "solver.tolerance_stops": 0,
        "solver.points_bytes": 7 * 10 * 8,
    }


def test_schedule_generator_hook_sees_the_solver_calls(monkeypatch):
    # the traced run counts bregman.generator by wrapping the schedule's own
    # __post_init__ and shadowing ``generator`` with an instance attribute:
    # that needs a per-instance __dict__, and solver.run must look the
    # method up on the schedule at every step
    from vbscd import BregmanSchedule, SolverConfig, run
    from vbscd.instances import lasso_random

    assert "__post_init__" in vars(BregmanSchedule)
    assert "__slots__" not in vars(BregmanSchedule)
    assert not issubclass(BregmanSchedule, tuple)
    post_init, seen = BregmanSchedule.__post_init__, []

    def counted_post_init(self):
        post_init(self)
        generator = self.generator
        object.__setattr__(self, "generator", lambda k: seen.append(k) or generator(k))

    monkeypatch.setattr(BregmanSchedule, "__post_init__", counted_post_init)
    p = lasso_random(n=10, n_blocks=5, seed=21)
    run(p, SolverConfig(schedule=BregmanSchedule.constant(1.0, 0.1),
                        max_iters=7, tolerance=0.0, seed=1))
    assert set(range(7)) <= set(seen)


def test_audit_and_level_ball_results_have_what_the_trace_reads():
    # the hooks read checked/skipped off the audit and len(result[0]) off
    # the sampler, whose points are now the rows of one array
    import numpy as np
    from vbscd import (BregmanSchedule, SolverConfig, compute_constants, contraction_audit,
                       run, sample_level_ball)
    from vbscd.instances import lasso_random

    p = lasso_random(n=10, n_blocks=5, seed=21)
    sched = BregmanSchedule.constant(1.0, 0.1)
    traj = run(p, SolverConfig(schedule=sched, max_iters=30, tolerance=0.0, seed=1))
    x_bar = traj.final_point
    constants = compute_constants(1.0, 1.0, p.smooth.lipschitz, 0.1, 0.1, 5, 0.5, 10.0, 100.0)
    audit = contraction_audit(p, sched, [traj], x_bar, p.objective(x_bar), constants)
    pts, _, _ = sample_level_ball(p, x_bar, 0.5, 1.0, 40, np.random.default_rng(0))
    tr = _Counts()
    layers = _layers()
    layers._on_audit(tr, (), {}, audit)
    layers._on_level_ball(tr, (), {}, (pts, None, None))
    assert audit.checked > 0 and audit.checked + audit.skipped == 31
    assert pts.shape == (40, 10)
    assert tr.seen == {
        "diagnostics.audit.checked": audit.checked,
        "diagnostics.audit.skipped": audit.skipped,
        "probes.accepted": 40,
    }


def test_rate_flow_runs_its_per_point_oracles(monkeypatch, tmp_path):
    # the benchmark requires calls > 0 of enumerate_expectation and
    # min_subgradient_norm on the rate workload: the audit's enumeration
    # cross-check and the ls-eb probe's extremal point make them
    from vbscd import diagnostics, harness
    from vbscd.model import ProblemInstance

    calls = {"enumerate_expectation": 0, "min_subgradient_norm": 0}
    enumerate_expectation = diagnostics.enumerate_expectation
    min_subgradient_norm = ProblemInstance.min_subgradient_norm

    def spy_enumeration(*args):
        calls["enumerate_expectation"] += 1
        return enumerate_expectation(*args)

    def spy_norm(self, x):
        calls["min_subgradient_norm"] += 1
        return min_subgradient_norm(self, x)

    monkeypatch.setattr(diagnostics, "enumerate_expectation", spy_enumeration)
    monkeypatch.setattr(ProblemInstance, "min_subgradient_norm", spy_norm)
    cfg = harness.load_config(LAYERS.parent / "configs" / "rate_lasso50_audit.cfg")
    cfg.replications = 2
    cfg.probe["samples"] = 200
    assert harness.run_rate(cfg, tmp_path) == 0
    assert calls["enumerate_expectation"] >= 1
    assert calls["min_subgradient_norm"] >= 1


def test_verify_flow_builds_and_queries_the_grid_oracle(monkeypatch, tmp_path):
    # diagnostics.grid_oracle* and the verify workload's `uses` list bind to
    # GridProxOracle.__init__ and GridProxOracle.query, and to per-point
    # calls that the verify flow must keep making: the benchmark's selftest
    # fails a workload when one of its `uses` records no calls
    from vbscd import harness
    from vbscd.diagnostics import GridProxOracle

    calls = {}

    def spy(name, fn):
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("expectation_identities", "envelope_value", "coordinate_prox_all",
                 "check_value_proximity", "check_level_dominance", "hypothesis_points",
                 "probed_constants"):
        monkeypatch.setattr(harness, name, spy(name, getattr(harness, name)))
    for name in ("__init__", "query"):
        monkeypatch.setattr(GridProxOracle, name, spy(name, getattr(GridProxOracle, name)))
    cfg = harness.load_config(LAYERS.parent / "configs" / "verify_lasso50.cfg")
    cfg.verify.update(points=5, prox_queries=2)
    cfg.probe["samples"] = 100
    assert harness.run_verify(cfg, tmp_path) == 0
    assert all(count >= 1 for count in calls.values()), calls
