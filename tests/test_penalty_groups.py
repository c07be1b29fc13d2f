"""The grouped penalty layout against the per-block loops it replaced.

The per-block reference implementations below are the oracle: the grouped
prox must match them bit for bit (the map is elementwise), while sums of
penalty values may differ in their last bits because the summation order
changed.
"""
import dataclasses

import numpy as np
import pytest

from vbscd import (
    BlockPartition,
    BregmanSchedule,
    L1Penalty,
    Regularizer,
    ScadPenalty,
    SolverConfig,
    ZeroPenalty,
    auto_neighborhood,
    compute_constants,
    contraction_audit,
    coordinate_prox_all,
    full_prox,
    harness,
    in_neighborhood,
    instances,
    make_quadratic_problem,
    run,
)
from vbscd.prox import block_target
from vbscd.solver import _block_kinds, match_oracle, run_lockstep

REL = 1e-14


def mixed_instance():
    """L1 / L1 / SCAD / L1 with another weight / L1 with that weight: the
    groups break mid-partition, and two distinct L1 weights appear."""
    base = instances.quadratic_scad()
    regs = (L1Penalty(0.1), L1Penalty(0.1), ScadPenalty(0.3), L1Penalty(0.5), L1Penalty(0.5))
    return make_quadratic_problem(base.smooth.A, base.smooth.b, regs, base.partition)


CASES = {
    "lasso_1d": instances.lasso_1d,
    "lasso_random50": lambda: instances.lasso_random(50),
    "quadratic_mcp": instances.quadratic_mcp,
    "quadratic_scad": instances.quadratic_scad,
    "logistic_random": instances.logistic_random,
    "mixed": mixed_instance,
}


# ---------------------------------------------------------------------------
# per-block reference implementations


def per_block_targets(p, q, eps, x):
    g = p.smooth.grad(x)
    out = []
    for i in range(p.n_blocks):
        y = x.copy()
        sl = p.partition.block_slice(i)
        y[sl] = block_target(p.regularizers[i], q, eps, x[sl], g[sl])
        out.append(y)
    return out


def per_block_full_prox(p, q, eps, x):
    g = p.smooth.grad(x)
    y = x.copy()
    for i in range(p.n_blocks):
        sl = p.partition.block_slice(i)
        y[sl] = block_target(p.regularizers[i], q, eps, x[sl], g[sl])
    return y


def per_block_penalty(p, x):
    return sum(float(np.sum(r.value(x[p.partition.block_slice(i)]))) for i, r in enumerate(p.regularizers))


def per_block_min_subgradient_norm(p, x):
    g = p.smooth.grad(x)
    total = 0.0
    for i, reg in enumerate(p.regularizers):
        sl = p.partition.block_slice(i)
        lo, hi = reg.subdiff(x[sl])
        total += float(np.sum(np.square(g[sl] + np.clip(-g[sl], lo, hi))))
    return float(np.sqrt(total))


def per_target_audit(p, sched, traj, x_bar, f_bar, constants, slack=1e-9):
    """(checked, violations) with the mean over targets taken by N calls
    of p.objective."""
    checked = violations = 0
    for k, (x, fx) in enumerate(zip(traj.points, traj.objectives())):
        if not in_neighborhood(p, x, x_bar, f_bar, constants.eta / 2.0,
                               constants.level_window, fx=fx):
            continue
        targets = per_block_targets(p, sched.generator(k), sched.step(k), x)
        mean_f = sum(p.objective(t) for t in targets) / p.n_blocks
        checked += 1
        violations += (mean_f - f_bar) > constants.beta * (fx - f_bar) + slack
    return checked, violations


# ---------------------------------------------------------------------------
# layout


def test_shipped_instances_have_one_group():
    shipped = [
        instances.lasso_1d(), instances.quad_1d(), instances.quad_l1_1d(),
        instances.diag_quadratic([1.0, 2.0, 3.0]), instances.lasso_random(),
        instances.quadratic_mcp(), instances.quadratic_scad(), instances.logistic_random(),
        instances.matrix_instance(np.eye(6), np.ones(6), "scad", {"lam": 0.2}, 3),
    ]
    for p in shipped:
        assert len(p.penalty_groups) == 1
        assert p.penalty_groups[0][1] == slice(0, p.n)


def test_groups_break_where_penalties_differ():
    p = mixed_instance()
    kinds = [(reg.kind, getattr(reg, "lam", None), sl) for reg, sl in p.penalty_groups]
    assert kinds == [("l1", 0.1, slice(0, 8)), ("scad", 0.3, slice(8, 12)),
                     ("l1", 0.5, slice(12, 20))]


class ArrayWeightedL1(Regularizer):
    """l1 with a per-coordinate weight array: not a plain-scalar parameter."""

    kind = "weighted-l1"

    def __init__(self, lam):
        self.lam = np.asarray(lam, dtype=float)

    def value(self, t):
        return self.lam * np.abs(t)

    def prox(self, v, w):
        return np.sign(v) * np.maximum(np.abs(v) - self.lam / w, 0.0)


def test_array_holding_penalty_is_grouped_only_by_identity():
    part = BlockPartition((2, 2))
    shared = ArrayWeightedL1([0.1, 0.2])
    p = make_quadratic_problem(np.eye(4), np.ones(4), (shared, shared), part)
    assert len(p.penalty_groups) == 1
    twins = (ArrayWeightedL1([0.1, 0.2]), ArrayWeightedL1([0.1, 0.2]))
    p = make_quadratic_problem(np.eye(4), np.ones(4), twins, part)
    assert [sl for _, sl in p.penalty_groups] == [slice(0, 2), slice(2, 4)]


def test_equal_penalties_in_separate_blocks_are_one_kind():
    base = instances.lasso_random(12, 3)
    regs = (L1Penalty(0.1), ScadPenalty(0.3), L1Penalty(0.1))
    p = make_quadratic_problem(base.smooth.A, base.smooth.b, regs, base.partition)
    assert p.penalties == regs[:2] and p.penalty_of == (0, 1, 0)
    assert [sl for _, sl in p.penalty_groups] == [slice(0, 4), slice(4, 8), slice(8, 12)]
    # the lockstep solver calls the prox once per (penalty, width) per step
    kinds, kind_of = _block_kinds(p)
    assert kinds == [(regs[0], 4), (regs[1], 4)] and kind_of.tolist() == [0, 1, 0]
    assert [label for label, _ in harness._distinct_penalties(p)] == ["l1", "scad"]
    sched = BregmanSchedule.constant(1.0, 0.4)
    configs = [SolverConfig(schedule=sched, max_iters=200, tolerance=1e-10, check_period=3, seed=s)
               for s in (1, 2)]
    for conf, shadow in zip(configs, run_lockstep(p, configs, [None, None])):
        match_oracle(run(p, conf), shadow, conf.tolerance)


def test_repeated_kinds_are_labelled_by_their_first_block():
    labels = [label for label, _ in harness._distinct_penalties(mixed_instance())]
    assert labels == ["l1-block0", "scad", "l1-block3"]


def test_parameterless_penalties_merge():
    regs = (ZeroPenalty(), ZeroPenalty(), ZeroPenalty())
    p = make_quadratic_problem(np.eye(3), np.zeros(3), regs, BlockPartition((1, 1, 1)))
    assert len(p.penalty_groups) == 1


# ---------------------------------------------------------------------------
# grouped paths against the per-block oracle


@pytest.mark.parametrize("name", sorted(CASES))
def test_grouped_paths_match_per_block_oracle(name):
    p = CASES[name]()
    rng = np.random.default_rng(sum(map(ord, name)))
    q, eps = 1.7, 0.25
    for _ in range(20):
        x = 2.0 * rng.standard_normal(p.n)
        t_ref = per_block_targets(p, q, eps, x)
        targets = coordinate_prox_all(p, q, eps, x)
        assert targets.shape == (p.n_blocks, p.n)
        assert np.array_equal(targets, np.stack(t_ref))
        assert np.array_equal(full_prox(p, q, eps, x), per_block_full_prox(p, q, eps, x))

        assert p.penalty_value(x) == pytest.approx(per_block_penalty(p, x), rel=REL)
        assert p.min_subgradient_norm(x) == pytest.approx(
            per_block_min_subgradient_norm(p, x), rel=REL
        )
        rows = p.objective_rows(targets)
        want = [p.smooth.value(t) + per_block_penalty(p, t) for t in t_ref]
        assert rows == pytest.approx(want, rel=REL)


@pytest.mark.parametrize("name", ["lasso_random50", "mixed"])
def test_audit_matches_per_target_enumeration(name):
    p = CASES[name]()
    sched = BregmanSchedule.constant(1.0, 0.9 / p.smooth.lipschitz)
    x_bar = np.zeros(p.n)
    for _ in range(3000):
        x_bar = full_prox(p, sched.generator(0), sched.step(0), x_bar)
    f_bar = p.objective(x_bar)
    traj = run(p, SolverConfig(sched, max_iters=300, tolerance=0.0, seed=5),
               x0=x_bar + 0.5 * np.random.default_rng(1).standard_normal(p.n))
    eta, nu = auto_neighborhood(p, sched, x_bar, [traj.points[:1]])
    theory = compute_constants(sched.m, sched.M, p.smooth.lipschitz, sched.eps_lo,
                               sched.eps_hi, p.n_blocks, 0.05, eta, nu)
    seen = set()
    # the theory's beta, and smaller ones that some points violate
    for beta in (theory.beta, 0.95, 0.9, 0.5):
        constants = dataclasses.replace(theory, beta=beta)
        audit = contraction_audit(p, sched, [traj], x_bar, f_bar, constants)
        checked, violations = per_target_audit(p, sched, traj, x_bar, f_bar, constants)
        assert audit.checked == checked > 0
        assert audit.violations == violations
        seen.add(violations)
    assert len(seen) >= 3
