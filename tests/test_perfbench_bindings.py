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

    class Counts:
        def __init__(self):
            self.seen = {}

        def count(self, name, value):
            self.seen[name] = self.seen.get(name, 0) + value

    p = lasso_random(n=10, n_blocks=5, seed=21)
    traj = run(p, SolverConfig(schedule=BregmanSchedule.constant(10, 1.0, 0.1),
                               max_iters=7, tolerance=0.0, seed=1))
    tr = Counts()
    _layers()._on_solver_run(tr, (), {}, traj)
    assert tr.seen == {
        "solver.iterations": 7,
        "solver.tolerance_stops": 0,
        "solver.points_bytes": 7 * 10 * 8,
    }
