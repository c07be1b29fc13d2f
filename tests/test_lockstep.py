"""Lockstep replications against the sequential solver, row by row.

``run`` is the oracle: each lockstep row must take the blocks ``run``
takes at its seed, stop at the same step for the same reason, and agree
with ``run`` in its iterates within 1e-12 relative and in F within the fit
floor.  The harness runs replication 0 through ``run`` and the others in
lockstep beside a shadow of replication 0, so its failures must also name
the replication and iteration a sequential loop over ``run`` would.
"""
import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vbscd import (
    BlockPartition,
    BregmanSchedule,
    CustomSmooth,
    L1Penalty,
    OracleMismatch,
    ProblemInstance,
    ScadPenalty,
    SolverAbort,
    SolverConfig,
    Trajectory,
    ZeroPenalty,
    derive_seed,
    harness,
    instances,
    make_quadratic_problem,
    near_start_point,
    run,
    run_lockstep,
)
from vbscd.bregman import step_cap
from vbscd.probes import gap_floor
from vbscd.solver import _STEP_CHUNK, match_oracle

ROOT = Path(__file__).resolve().parents[1]


def custom(p):
    """The same instance with f behind the default (one-state) protocol."""
    s = p.smooth
    return ProblemInstance(smooth=CustomSmooth(s.value, s.grad, s.lipschitz, p.n),
                           partition=p.partition, regularizers=p.regularizers)


def mixed():
    """L1 and SCAD blocks, two L1 weights: three penalty groups."""
    base = instances.quadratic_scad()
    regs = (L1Penalty(0.1), L1Penalty(0.1), ScadPenalty(0.3), L1Penalty(0.5), L1Penalty(0.5))
    return make_quadratic_problem(base.smooth.A, base.smooth.b, regs, base.partition)


INSTANCES = {
    "lasso50": lambda: instances.lasso_random(50),
    "scad": instances.quadratic_scad,
    "mcp": instances.quadratic_mcp,
    "logistic": instances.logistic_random,
    "uneven": lambda: instances.lasso_random(11, 3),  # blocks of 4, 4 and 3
    "mixed": mixed,
    "custom": lambda: custom(instances.lasso_random(20, 4, seed=5)),
}


def configs(p, rows, max_iters, tolerance=0.0, check_period=None, seed=11):
    sched = BregmanSchedule.constant(1.0, 0.8 * step_cap(1.0, p))
    return [SolverConfig(sched, max_iters, tolerance, check_period, derive_seed(seed, r))
            for r in range(rows)]


def assert_rows_match_run(p, confs, x0s):
    rows = run_lockstep(p, confs, x0s)
    assert len(rows) == len(confs)
    for conf, x0, row in zip(confs, x0s, rows):
        exact = run(p, conf, x0)
        assert isinstance(row, Trajectory), row
        assert (len(row.records), row.termination) == (len(exact.records), exact.termination)
        assert np.array_equal(row.records["block"], exact.records["block"])
        assert row.points.shape == exact.points.shape
        # per iterate, relative to its largest coordinate (at least 1)
        scale = np.maximum(1.0, np.max(np.abs(exact.points), axis=1))
        assert np.all(np.max(np.abs(row.points - exact.points), axis=1) <= 1e-12 * scale)
        assert np.all(np.abs(row.objectives() - exact.objectives())
                      <= gap_floor(exact.objectives()))
        assert np.array_equal(np.isnan(row.records["prox_residual"]),
                              np.isnan(exact.records["prox_residual"]))
        match_oracle(exact, row, conf.tolerance)
    return rows


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("check_period", [None, 250])
def test_lockstep_rows_match_run(name, check_period):
    p = INSTANCES[name]()
    confs = configs(p, 4, 600, check_period=check_period)
    assert_rows_match_run(p, confs, [None] * len(confs))


@pytest.mark.parametrize("name", ["lasso50", "mixed", "uneven"])
def test_lockstep_rows_match_run_on_an_alternating_schedule(name):
    # weights m != M taking turns every 3 steps, with a harmonic step: each
    # row's block update reads the weight of its own k
    p = INSTANCES[name]()
    eps_hi = 0.8 * step_cap(1.0, p)
    sched = BregmanSchedule.alternating(1.0, 1.7, 3, (eps_hi / 20.0, eps_hi))
    confs = [SolverConfig(sched, 600, 0.0, None, derive_seed(11, r)) for r in range(4)]
    assert_rows_match_run(p, confs, [None] * len(confs))


def test_lockstep_crosses_the_draw_chunk_boundary():
    # both engines draw _STEP_CHUNK doubles at a time: 8195 steps cross 32 chunks
    p = INSTANCES["uneven"]()
    steps = 2 * 4096 + 3
    assert steps // _STEP_CHUNK == 32
    confs = configs(p, 2, steps)
    rows = assert_rows_match_run(p, confs, [None] * 2)
    assert all(len(t.records) == steps for t in rows)


@pytest.mark.parametrize("name", ["lasso50", "mixed", "uneven"])
def test_rows_stop_on_tolerance_at_their_own_step(name):
    p = INSTANCES[name]()
    rows = assert_rows_match_run(p, configs(p, 6, 4000, tolerance=1e-9), [None] * 6)
    assert all(t.termination == "tolerance" for t in rows)
    assert len({len(t.records) for t in rows}) > 1


def test_near_start_rows_match_run():
    p = INSTANCES["scad"]()
    x_bar = run(p, configs(p, 1, 3000, tolerance=1e-12)[0]).final_point
    confs = configs(p, 5, 2000, tolerance=1e-10)
    x0s = [near_start_point(x_bar, 0.05, c.seed) for c in confs]
    rows = assert_rows_match_run(p, confs, x0s)
    assert all(np.array_equal(t.x0, x0) for t, x0 in zip(rows, x0s))


@pytest.mark.parametrize("field, value", [
    ("max_iters", 11), ("tolerance", 1e-9), ("check_period", 3),
    ("schedule", BregmanSchedule.constant(1.0, 0.1)), ("seed", 5),
], ids=["max_iters", "tolerance", "check_period", "schedule", "seeds-only"])
def test_lockstep_refuses_rows_that_differ_in_more_than_their_seed(field, value):
    p = INSTANCES["uneven"]()
    confs = configs(p, 3, 10)
    confs[1] = dataclasses.replace(confs[1], **{field: value})
    if field == "seed":  # rows differ in their seed anyway
        assert_rows_match_run(p, confs, [None] * 3)
        return
    with pytest.raises(ValueError, match=r"^lockstep rows differ in more than their seed$"):
        run_lockstep(p, confs, [None] * 3)


# ---------------------------------------------------------------------------
# the oracle


def test_match_oracle_names_the_first_step_that_departs():
    p = INSTANCES["lasso50"]()
    conf = configs(p, 1, 300)[0]
    exact, shadow = run(p, conf), run_lockstep(p, [conf], [None])[0]
    match_oracle(exact, shadow, conf.tolerance)
    shadow.records["objective"][137] *= 1.0 + 1e-9
    with pytest.raises(OracleMismatch, match="at iteration 137:") as mismatch:
        match_oracle(exact, shadow, conf.tolerance)
    assert "np." not in str(mismatch.value)  # block ids and F print as Python numbers
    with pytest.raises(OracleMismatch, match="aborted"):
        match_oracle(exact, SolverAbort("objective not finite at iteration 3 (nan)"), 0.0)


def test_match_oracle_lets_the_ending_differ_only_across_tolerance():
    p = INSTANCES["lasso50"]()
    long = run(p, configs(p, 1, 400, check_period=50)[0])
    k = 199  # a check step
    tol = float(long.records["prox_residual"][k])
    short = run(p, configs(p, 1, 400, tolerance=tol, check_period=50)[0])
    assert (len(short.records), short.termination) == (k + 1, "tolerance")
    # equal residuals at the deciding check do not straddle the tolerance
    with pytest.raises(OracleMismatch, match=f"ends differently from run at iteration {k}") as mismatch:
        match_oracle(short, long, tol)
    assert "np." not in str(mismatch.value)
    long.records["prox_residual"][k] = tol * (1.0 + 1e-13)
    match_oracle(short, long, tol)
    match_oracle(long, short, tol)
    long.records["prox_residual"][k] = 2.0 * tol
    with pytest.raises(OracleMismatch, match="ends differently"):
        match_oracle(short, long, tol)


# ---------------------------------------------------------------------------
# the harness: replication 0 on run, failures named as a sequential loop would


RATE = """\
[experiment]
kind = rate
seed = {seed}
replications = 6

[instance]
kind = lasso-1d

[bregman]
weights = constant
q = 1.0
eps_rule = relative
eps_fraction = 0.5

[solver]
max_iters = {max_iters}
tolerance = 0
{solver}
"""


def rate_cfg(tmp_path, seed=1, max_iters=3, solver=""):
    """A rate config; each test patches in its own instance for lasso-1d."""
    path = tmp_path / "rate.cfg"
    path.write_text(RATE.format(seed=seed, max_iters=max_iters, solver=solver))
    return harness.load_config(path)


def understated_lipschitz():
    """0.5 (x0^2 + 3.2 (x1 - 1/sqrt(3.2))^2) claiming L = 1: the first step
    on block 1 breaks the sufficient decrease, steps on block 0 do not."""
    p = make_quadratic_problem(np.diag([1.0, np.sqrt(3.2)]), [0.0, 1.0],
                               (ZeroPenalty(), ZeroPenalty()), BlockPartition((1, 1)),
                               known_optimum=([0.0, 1.0 / np.sqrt(3.2)], 0.0))
    p.smooth.lipschitz = 1.0
    return p


def expanding():
    """-0.5 ||x||^2 claiming L = 1: each step on a block multiplies it by
    1.5, until F overflows to -inf."""
    return ProblemInstance(
        smooth=CustomSmooth(lambda x: float(-0.5 * x @ x), lambda x: -x, lipschitz=1.0, n=2),
        partition=BlockPartition((1, 1)), regularizers=(ZeroPenalty(), ZeroPenalty()),
        known_optimum=(np.zeros(2), 0.0),
    )


def solver_config(cfg, sched, seed):
    """The SolverConfig that run_replications gives the replication with stream ``seed``."""
    sv = cfg.solver
    return SolverConfig(sched, sv["max_iters"], sv["tolerance"], sv.get("check_period"), seed)


def sequential_failure(cfg, p):
    """(replication, iteration) of the first failure of a loop over run."""
    sched = harness.build_schedule(cfg, p)
    ref = harness.resolve_reference_value(p, sched)
    for r in range(cfg.replications):
        seed = derive_seed(cfg.seed, r)
        x0 = (near_start_point(ref.point, cfg.solver["near_start_radius"], seed)
              if cfg.solver["x0"] == "near-start" else None)
        try:
            run(p, solver_config(cfg, sched, seed), x0)
        except SolverAbort as e:
            return r, int(re.search(r"at iteration (\d+)", str(e))[1])
    return None


def harness_failure(cfg):
    try:
        harness.run_replications(cfg)
    except SolverAbort as e:
        m = re.fullmatch(r"replication (\d+) failed: .* at iteration (\d+)\b.*", str(e))
        assert m and "np.float64(" not in str(e), str(e)
        return int(m[1]), int(m[2])
    return None


@pytest.mark.parametrize("case", ["understated-lipschitz", "non-finite"])
def test_replication_error_names_what_a_sequential_loop_names(tmp_path, monkeypatch, case):
    if case == "understated-lipschitz":
        make, max_iters, solver = understated_lipschitz, 3, ""
    else:  # starts of norm up to 1e153 overflow F after about 8 steps on one block
        make, max_iters, solver = expanding, 14, "x0 = near-start\nnear_start_radius = 1e153"
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in range(24):
            cfg = rate_cfg(tmp_path, seed, max_iters, solver)
            p = make()
            monkeypatch.setattr(harness, "build_instance", lambda cfg, p=p: p)
            expected = sequential_failure(cfg, p)
            assert harness_failure(cfg) == expected, seed
            seen.append(expected)
    # the lowest failing replication was 0 for some seeds and later for others
    assert any(f is not None and f[0] == 0 for f in seen)
    assert any(f is not None and f[0] >= 1 for f in seen)


def test_perturbed_shadow_raises_oracle_mismatch(tmp_path, monkeypatch):
    cfg = rate_cfg(tmp_path, max_iters=200)
    monkeypatch.setattr(harness, "build_instance", lambda cfg: INSTANCES["uneven"]())
    harness.run_replications(cfg)

    def perturbed(p, confs, x0s):
        rows = run_lockstep(p, confs, x0s)
        rows[0].records["objective"][42] += 1e-6
        return rows

    monkeypatch.setattr(harness, "run_lockstep", perturbed)
    with pytest.raises(OracleMismatch, match="at iteration 42:"):
        harness.run_replications(cfg)


def test_replication_zero_is_run_and_one_replication_never_locksteps(tmp_path, monkeypatch):
    p = INSTANCES["scad"]()
    monkeypatch.setattr(harness, "build_instance", lambda cfg: p)
    cfg = rate_cfg(tmp_path, max_iters=300)
    res = harness.run_replications(cfg)
    exact = run(p, solver_config(cfg, res.schedule, derive_seed(cfg.seed, 0)))
    assert np.array_equal(res.trajectories[0].points, exact.points)
    assert res.trajectories[0].records.tobytes() == exact.records.tobytes()

    def unused(*args):
        raise AssertionError("a single replication ran in lockstep")

    monkeypatch.setattr(harness, "run_lockstep", unused)
    cfg.replications = 1
    assert len(harness.run_replications(cfg).trajectories) == 1


def test_replications_memory_stays_bounded():
    # 10 replications of up to 545 steps at n = 20; 2.48 MB before lockstep
    cfg = harness.load_config(ROOT / "perfbench" / "configs" / "rate_scad20.cfg")
    tracemalloc.start()
    try:
        harness.run_replications(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6
