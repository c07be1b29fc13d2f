"""Trajectories as step logs: the start point, and per step its record and
the moved block's new values.  Iterates are rebuilt from the log in bounded
stacks of _STEP_CHUNK rows; joined, they must give the same doubles as
replaying the log one step at a time."""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vbscd import BregmanSchedule, SolverConfig, derive_seed, harness, instances, run, run_lockstep
from vbscd.bregman import step_cap
from vbscd.solver import _STEP_CHUNK

ROOT = Path(__file__).resolve().parents[1]


def replayed(traj):
    """x^0, ..., x^K by writing each step's moved block into a copy of the
    previous iterate."""
    x, out = traj.x0.copy(), [traj.x0.copy()]
    for block, values in zip(traj.records["block"].tolist(), traj.moved):
        sl = traj.partition.block_slice(block)
        x[sl] = values[:sl.stop - sl.start]
        out.append(x.copy())
    return np.array(out)


def assert_stacks_join_to_the_replay(traj):
    expected = replayed(traj)
    K = len(traj.records)
    # stacks of _STEP_CHUNK rows, the last one 1.._STEP_CHUNK rows, each
    # with the logged F of its rows
    pairs = list(traj.iterates())
    stacks = [S for S, _ in pairs]
    assert all(len(f) == len(S) for S, f in pairs)
    assert np.concatenate([f for _, f in pairs]).tobytes() == traj.objectives().tobytes()
    assert len(stacks) == K // _STEP_CHUNK + 1
    assert all(len(S) == _STEP_CHUNK for S in stacks[:-1]) and 1 <= len(stacks[-1]) <= _STEP_CHUNK
    joined = np.concatenate(stacks)
    assert joined.shape == (K + 1, traj.x0.size)
    assert joined.tobytes() == expected.tobytes()
    assert np.array_equal(traj.final_point, expected[-1])


def configs(p, rows, max_iters, tolerance=0.0, seed=3):
    sched = BregmanSchedule.constant(1.0, 0.8 * step_cap(1.0, p))
    return [SolverConfig(sched, max_iters, tolerance, None, derive_seed(seed, r)) for r in range(rows)]


@pytest.mark.parametrize("steps", [1, 40, _STEP_CHUNK - 1, 2 * _STEP_CHUNK + 3])
def test_run_iterates_join_to_the_replay(steps):
    p = instances.lasso_random(11, 3)  # blocks of 4, 4 and 3 coordinates
    traj = run(p, configs(p, 1, steps)[0], x0=np.linspace(-1.0, 1.0, 11))
    assert len(traj.records) == steps and traj.moved.shape == (steps, 4)
    assert_stacks_join_to_the_replay(traj)
    # each rebuilt iterate has the objective its step recorded
    f = p.objective_rows(traj.points)
    assert np.allclose(f[1:], traj.records["objective"], rtol=1e-12, atol=1e-12)


def test_lockstep_iterates_join_to_the_replay():
    p = instances.lasso_random(11, 3)
    confs = configs(p, 4, 2 * _STEP_CHUNK + 3)
    rows = run_lockstep(p, confs, [None] * 4)
    for conf, row in zip(confs, rows):
        assert_stacks_join_to_the_replay(row)
        exact = run(p, conf)
        assert row.records["block"].tolist() == exact.records["block"].tolist()
        assert np.allclose(row.points, exact.points, rtol=0.0, atol=1e-12)


def test_rows_retired_on_tolerance_mid_chunk_keep_their_steps():
    p = instances.lasso_random(11, 3)
    rows = run_lockstep(p, configs(p, 6, 4000, tolerance=1e-9), [None] * 6)
    assert all(t.termination == "tolerance" for t in rows)
    assert any(len(t.records) % _STEP_CHUNK for t in rows)
    assert len({len(t.records) for t in rows}) > 1
    for row in rows:
        assert len(row.moved) == len(row.records)
        assert_stacks_join_to_the_replay(row)


def test_replications_hold_step_logs_not_iterates():
    # 50 replications of 400 steps at n = 50: their iterates alone would be
    # 50 * 401 * 50 doubles = 8 MB
    cfg = harness.load_config(ROOT / "configs" / "lasso50_rate.cfg")
    cfg.replications = 50
    tracemalloc.start()
    try:
        res = harness.run_replications(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.trajectories) == 50 and all(len(t.records) == 400 for t in res.trajectories)
    assert peak < 6e6, peak
