import numpy as np
import pytest

from vbscd import (
    BregmanSchedule,
    CustomSmooth,
    SolverAbort,
    SolverConfig,
    Trajectory,
    ZeroPenalty,
    derive_seed,
    near_start_point,
    run,
    sample_in_ball,
    write_trajectory_csv,
)
from vbscd.model import BlockPartition, ProblemInstance
from vbscd.solver import RECORD_DTYPE
from vbscd.instances import lasso_1d, lasso_random, quad_1d


def test_quadratic_iterates_by_hand():
    # x+ = x - eps*(x - 1) with eps = 0.5: 0, 0.5, 0.75, 0.875, ...
    p = quad_1d(1.0)
    sched = BregmanSchedule.constant(1, 1.0, 0.5)
    traj = run(p, SolverConfig(schedule=sched, max_iters=3, tolerance=0.0, seed=0))
    assert traj.points[:, 0].tolist() == [0.0, 0.5, 0.75, 0.875]
    # objectives 0.5*(x-1)^2 along the way
    assert traj.initial_objective == pytest.approx(0.5)
    assert traj.records["objective"] == pytest.approx([0.125, 0.03125, 0.0078125])
    assert traj.termination == "max_iters"


def test_terminates_on_residual_tolerance():
    p = lasso_1d()
    sched = BregmanSchedule.constant(1, 1.0, 0.5)
    traj = run(p, SolverConfig(schedule=sched, max_iters=100, tolerance=1e-6, check_period=1, seed=1))
    assert traj.termination == "tolerance"
    assert len(traj.records) <= 40
    # stopped early: the point buffer is cut to the steps taken
    assert traj.points.shape == (len(traj.records) + 1, 1)
    assert traj.points.base is None
    assert traj.final_residual <= 1e-6
    assert traj.final_objective == pytest.approx(2.5, abs=1e-9)


def test_same_seed_reproduces_bitwise():
    p = lasso_random(n=10, n_blocks=5, seed=21)
    sched = BregmanSchedule.constant(10, 1.0, 0.8 / p.smooth.lipschitz)
    conf = SolverConfig(schedule=sched, max_iters=50, tolerance=0.0, seed=99)
    t1, t2 = run(p, conf), run(p, conf)
    assert np.array_equal(t1.records["block"], t2.records["block"])
    assert np.array_equal(t1.points, t2.points)
    assert np.array_equal(t1.records["objective"], t2.records["objective"])


def test_different_seeds_draw_different_blocks():
    p = lasso_random(n=10, n_blocks=5, seed=21)
    sched = BregmanSchedule.constant(10, 1.0, 0.8 / p.smooth.lipschitz)
    t1 = run(p, SolverConfig(schedule=sched, max_iters=30, tolerance=0.0, seed=0))
    t2 = run(p, SolverConfig(schedule=sched, max_iters=30, tolerance=0.0, seed=1))
    assert not np.array_equal(t1.records["block"], t2.records["block"])


def test_derive_seed_stream_split():
    assert derive_seed(12345, 0) == 12345
    assert derive_seed(12345, 1) == 12345 ^ 0x9E3779B97F4A7C15
    assert derive_seed(12345, 2) == 12345 ^ ((2 * 0x9E3779B97F4A7C15) & (2**64 - 1))
    assert 0 <= derive_seed(2**64 - 1, 123456) < 2**64


def test_block_draws_are_roughly_uniform():
    p = lasso_random(n=10, n_blocks=5, seed=21)
    sched = BregmanSchedule.constant(10, 1.0, 0.1)
    traj = run(p, SolverConfig(schedule=sched, max_iters=5000, tolerance=0.0, seed=7))
    counts = np.bincount(traj.records["block"], minlength=5) / len(traj.records)
    assert len(traj.records) >= 1000
    assert counts.min() > 0.15 and counts.max() < 0.25


def test_one_rng_draw_per_step():
    # reproducing the index sequence from the raw stream pins the contract
    p = lasso_random(n=10, n_blocks=5, seed=21)
    sched = BregmanSchedule.constant(10, 1.0, 0.1)
    traj = run(p, SolverConfig(schedule=sched, max_iters=40, tolerance=0.0, seed=13))
    rng = np.random.Generator(np.random.PCG64(13))
    expected = [min(int(rng.random() * 5), 4) for _ in range(40)]
    assert traj.records["block"].tolist() == expected


def test_chunked_draws_equal_per_step_draws():
    # past 32 chunk boundaries of the solver's batched index draws
    from vbscd.solver import _STEP_CHUNK

    p = lasso_random(n=6, n_blocks=3, seed=21)
    sched = BregmanSchedule.constant(6, 1.0, 0.1)
    steps = 2 * 4096 + 3
    traj = run(p, SolverConfig(schedule=sched, max_iters=steps, tolerance=0.0,
                               check_period=steps, seed=5))
    rng = np.random.Generator(np.random.PCG64(5))
    assert traj.records["block"].tolist() == [min(int(rng.random() * 3), 2) for _ in range(steps)]
    # the step log grew past its first chunk and kept every step
    assert traj.points.shape == (steps + 1, 6) and traj.moved.shape == (steps, 2)
    assert np.array_equal(traj.points[-1], traj.final_point)
    assert p.objective(traj.points[_STEP_CHUNK + 1]) == pytest.approx(
        traj.records["objective"][_STEP_CHUNK], rel=1e-12)


def test_objective_monotone_along_trajectory():
    p = lasso_random(n=20, n_blocks=4, seed=2)
    sched = BregmanSchedule.constant(20, 1.0, 0.8 / p.smooth.lipschitz)
    traj = run(p, SolverConfig(schedule=sched, max_iters=300, tolerance=0.0, seed=3))
    f = traj.objectives()
    assert np.all(np.diff(f) <= 1e-12 * (1.0 + np.abs(f[:-1])))


def test_abort_on_nonfinite_objective():
    # concave quadratic: the prox map expands x by 1.5 each step, so the
    # objective overflows to -inf after enough iterations
    f = CustomSmooth(lambda x: float(-0.5 * x @ x), lambda x: -x, lipschitz=1.0, n=1)
    p = ProblemInstance(smooth=f, regularizers=(ZeroPenalty(),), partition=BlockPartition((1,)))
    sched = BregmanSchedule.constant(1, 1.0, 0.5)
    with np.errstate(over="ignore"):
        with pytest.raises(SolverAbort):
            run(p, SolverConfig(schedule=sched, max_iters=4000, tolerance=0.0, seed=0),
                x0=np.array([1e160]))
        with pytest.raises(SolverAbort):
            # already infinite at the start point
            run(p, SolverConfig(schedule=sched, max_iters=10, tolerance=0.0, seed=0),
                x0=np.array([1e200]))


def test_invalid_schedule_rejected_up_front():
    p = lasso_1d()
    sched = BregmanSchedule.constant(1, 1.0, 0.995)  # above the cap
    with pytest.raises(ValueError, match="eps_hi"):
        run(p, SolverConfig(schedule=sched, max_iters=10))


def test_residual_checked_only_on_period():
    p = lasso_random(n=10, n_blocks=5, seed=21)
    sched = BregmanSchedule.constant(10, 1.0, 0.1)
    traj = run(p, SolverConfig(schedule=sched, max_iters=20, tolerance=0.0, check_period=4, seed=5))
    k = np.arange(len(traj.records))
    assert np.array_equal(np.isnan(traj.records["prox_residual"]), (k + 1) % 4 != 0)
    assert traj.final_residual == traj.records["prox_residual"][19]


def test_trajectory_helpers():
    p = quad_1d(1.0)
    sched = BregmanSchedule.constant(1, 1.0, 0.5)
    traj = run(p, SolverConfig(schedule=sched, max_iters=5, tolerance=0.0, seed=0))
    assert traj.final_point[0] == pytest.approx(1 - 0.5**5)
    assert len(traj.objectives()) == 6
    assert traj.gaps(0.0)[0] == pytest.approx(0.5)
    # one row per point, x0 first
    assert traj.points.shape == (len(traj.records) + 1, 1)
    assert traj.x0 is not traj.final_point and traj.x0[0] == 0.0
    assert traj.records.dtype.names == ("block", "objective", "step_norm", "prox_residual")
    empty = Trajectory(np.zeros(1), np.array([], dtype=RECORD_DTYPE), np.zeros((0, 1)),
                       "max_iters", 0.5, p.partition)
    assert empty.final_objective == 0.5
    assert empty.final_residual is None
    assert empty.final_point.tolist() == [0.0] and empty.objectives().tolist() == [0.5]


def test_traced_points_bytes_are_the_stored_steps():
    # the benchmark's hook on solver.run counts len(records) * n * 8 bytes
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    seen = {}
    tracer = type("Counts", (), {"count": lambda self, name, v: seen.__setitem__(name, v)})()
    p = lasso_random(n=10, n_blocks=5, seed=21)
    traj = run(p, SolverConfig(schedule=BregmanSchedule.constant(10, 1.0, 0.1),
                               max_iters=9, tolerance=0.0, seed=1))
    layers._on_solver_run(tracer, (), {}, traj)
    assert seen["solver.points_bytes"] == traj.points[1:].nbytes == 9 * 10 * 8


def test_trajectory_start_point_is_a_copy():
    p = lasso_random(n=10, n_blocks=5, seed=21)
    sched = BregmanSchedule.constant(10, 1.0, 0.1)
    x0 = np.linspace(-1.0, 1.0, 10)
    traj = run(p, SolverConfig(schedule=sched, max_iters=3, tolerance=0.0, seed=1), x0)
    x0[:] = 7.0  # the caller reuses its start vector
    assert np.array_equal(traj.x0, np.linspace(-1.0, 1.0, 10))
    assert np.array_equal(traj.points[0], traj.x0)
    assert traj.points.shape == (len(traj.records) + 1, 10) == (4, 10)
    assert traj.initial_objective == p.objective(traj.x0)


def test_single_step_applies_drawn_block():
    p = lasso_random(n=10, n_blocks=5, seed=21)
    sched = BregmanSchedule.constant(10, 1.0, 0.1)
    traj = run(p, SolverConfig(schedule=sched, max_iters=1, tolerance=0.0, seed=42))
    (block,) = traj.records["block"].tolist()
    rng = np.random.Generator(np.random.PCG64(42))
    assert block == min(int(rng.random() * 5), 4)
    sl = p.partition.block_slice(block)
    changed = ~np.isclose(traj.points[1], traj.x0)
    assert changed.any()
    assert not changed[np.r_[0:sl.start, sl.stop:10]].any()


def test_abort_on_broken_sufficient_decrease():
    # f = 0.5 (x0^2 + 3.2 x1^2) claims L = 1: steps on block 0 decrease F as
    # promised, the first step on block 1 overshoots (x1 -> -0.6 x1) and F
    # falls by less than a ||step||^2
    curv = np.array([1.0, 3.2])
    f = CustomSmooth(lambda x: float(0.5 * curv @ (x * x)), lambda x: curv * x,
                     lipschitz=1.0, n=2)
    p = ProblemInstance(smooth=f, regularizers=(ZeroPenalty(), ZeroPenalty()),
                        partition=BlockPartition((1, 1)))
    sched = BregmanSchedule.constant(2, 1.0, 0.5)
    rng = np.random.Generator(np.random.PCG64(3))
    first = [min(int(rng.random() * 2), 1) for _ in range(50)].index(1)
    assert first > 0
    with pytest.raises(SolverAbort, match=rf"sufficient decrease fails at iteration {first}:"):
        run(p, SolverConfig(schedule=sched, max_iters=50, tolerance=0.0, seed=3),
            x0=np.array([1.0, 1e-3]))
    # the same instance with its true constant runs through
    honest = ProblemInstance(
        smooth=CustomSmooth(f._value, f._grad, lipschitz=3.2, n=2),
        regularizers=p.regularizers, partition=p.partition,
    )
    sched = BregmanSchedule.constant(2, 1.0, 0.25)
    traj = run(honest, SolverConfig(schedule=sched, max_iters=50, tolerance=0.0, seed=3),
               x0=np.array([1.0, 1e-3]))
    assert len(traj.records) == 50


def test_sample_in_ball_radius_and_seeding():
    rng = np.random.default_rng(8)
    center = np.array([1.0, -2.0, 0.5])
    pts = [sample_in_ball(center, 2.0, rng) for _ in range(200)]
    dists = [float(np.linalg.norm(pt - center)) for pt in pts]
    assert max(dists) <= 2.0
    assert min(dists) > 0.0
    # near_start_point is deterministic in the seed
    a = near_start_point(center, 1.0, 77)
    b = near_start_point(center, 1.0, 77)
    c = near_start_point(center, 1.0, 78)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert float(np.linalg.norm(a - center)) <= 1.0


def test_trajectory_csv_format(tmp_path):
    p = lasso_1d()
    sched = BregmanSchedule.constant(1, 1.0, 0.5)
    traj = run(p, SolverConfig(schedule=sched, max_iters=4, tolerance=0.0, check_period=2, seed=0))
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path, f_bar=2.5)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,i_k,F,gap,step_norm,prox_residual"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == traj.records["objective"][0]
    # the residual column is empty exactly off the check period, where the
    # records hold NaN
    empty = [line.split(",")[5] == "" for line in lines[1:]]
    assert empty == [True, False, True, False]
    assert empty == np.isnan(traj.records["prox_residual"]).tolist()
    # round trip at 17 significant digits
    assert float(lines[1].split(",")[2]) == traj.records["objective"][0]
    assert float(lines[2].split(",")[5]) == traj.records["prox_residual"][1]
    # no reference: gap column empty
    write_trajectory_csv(traj, path)
    assert path.read_text().splitlines()[1].split(",")[3] == ""


def test_solver_config_validation():
    sched = BregmanSchedule.constant(1, 1.0, 0.5)
    with pytest.raises(ValueError):
        SolverConfig(schedule=sched, max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(schedule=sched, tolerance=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(schedule=sched, check_period=0)
    with pytest.raises(ValueError):
        SolverConfig(schedule=sched, seed=-1)
