"""The solver's incremental smooth-term state against the exact path.

Least squares and logistic keep A x across steps; ``CustomSmooth`` keeps
the default protocol, which calls value/grad on the full point.  Wrapping
an instance's own value/grad in a ``CustomSmooth`` therefore gives the
exact oracle for the fast path.
"""
import numpy as np
import pytest

from vbscd import BregmanSchedule, CustomSmooth, SolverConfig, run
from vbscd.bregman import step_cap
from vbscd.instances import lasso_random, logistic_random, quadratic_mcp, quadratic_scad
from vbscd.model import ProblemInstance
from vbscd.prox import coordinate_prox

MACH_EPS = float(np.finfo(float).eps)


def fit_floor(f):
    return 1e2 * MACH_EPS * abs(f) + 1e-14


def exact_oracle(p):
    """The same instance with f behind the default (full-vector) protocol."""
    s = p.smooth
    return ProblemInstance(
        smooth=CustomSmooth(s.value, s.grad, s.lipschitz, p.n),
        partition=p.partition, regularizers=p.regularizers,
    )


def schedule(p):
    return BregmanSchedule.constant(p.n, 1.0, 0.8 * step_cap(1.0, p))


INSTANCES = {
    "lasso50": lambda: lasso_random(50),
    "scad": quadratic_scad,
    "mcp": quadratic_mcp,
    "logistic": logistic_random,
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("check_period", [None, 250])
def test_fast_path_matches_exact_oracle(name, check_period):
    p = INSTANCES[name]()
    conf = SolverConfig(schedule=schedule(p), max_iters=500, tolerance=0.0,
                        check_period=check_period, seed=17)
    fast, exact = run(p, conf), run(exact_oracle(p), conf)
    a, b = fast.records, exact.records
    assert np.array_equal(a["block"], b["block"])
    assert fast.initial_objective == exact.initial_objective
    for x, y in zip(fast.points[1:], exact.points[1:]):
        assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(y)))
    assert np.all(np.abs(a["objective"] - b["objective"])
                  <= [fit_floor(f) for f in b["objective"]])
    assert np.array_equal(np.isnan(a["prox_residual"]), np.isnan(b["prox_residual"]))


def test_default_protocol_is_the_exact_path():
    # full gradient, one-block map, F on the new point: bit for bit
    p = exact_oracle(lasso_random(20, 4, seed=5))
    sched = schedule(p)
    traj = run(p, SolverConfig(schedule=sched, max_iters=60, tolerance=0.0, seed=8))
    x = traj.x0
    for k, (block, objective) in enumerate(traj.records[["block", "objective"]].tolist()):
        x = coordinate_prox(p, sched.generator(k), sched.step(k), x, block)
        assert np.array_equal(traj.points[k + 1], x)
        assert objective == p.objective(x)


@pytest.mark.parametrize("factory", [lambda: lasso_random(30, 6), lambda: logistic_random(12, 3)])
def test_state_moves_agree_with_value_and_grad(factory):
    f = factory().smooth
    n = f.A.shape[1]
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    s = f.state(x)
    for _ in range(20):
        lo = int(rng.integers(n))
        sl = slice(lo, int(rng.integers(lo + 1, n + 1)))
        new = x[sl] + rng.standard_normal(sl.stop - sl.start)
        f.move(s, sl, x[sl], new)
        x[sl] = new
        assert f.state_value(s) == pytest.approx(f.value(x), rel=1e-13)
        np.testing.assert_allclose(f.block_grad(s, sl), f.grad(x)[sl], rtol=1e-12, atol=1e-12)
    assert f.state_value(f.state(x)) == f.value(x)


def test_drift_stays_under_the_fit_floor_without_refresh():
    p = lasso_random(1000, 100)
    conf = SolverConfig(schedule=schedule(p), max_iters=2000, tolerance=0.0,
                        check_period=2000, seed=4)
    traj = run(p, conf)
    assert len(traj.records) == 2000
    worst = max(abs(f - p.objective(x)) / fit_floor(f)
                for x, f in zip(traj.points[1:], traj.records["objective"]))
    assert worst < 1.0
