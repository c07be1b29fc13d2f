"""Stacked certification against the per-point forms it replaced.

The contraction audit, the level-ball sampler and the probes evaluate
stacks of points; the per-point loops kept below (enumeration over the N
one-block targets, one proposal tested at a time, one subgradient norm per
point) are the oracle.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from vbscd import (
    BregmanSchedule,
    CustomSmooth,
    EmptyNeighborhoodError,
    OracleMismatch,
    ProblemInstance,
    SolverConfig,
    auto_neighborhood,
    compute_constants,
    contraction_audit,
    in_neighborhood,
    instances,
    probe_bp_eb,
    probe_kl,
    probe_ls_eb,
    probe_lt_eb,
    run,
    sample_level_ball,
)
from vbscd import diagnostics, probes
from vbscd.bregman import step_cap
from vbscd.diagnostics import enumerate_expectation, stacked_expectation
from vbscd.instances import diag_quadratic
from vbscd.model import BlockPartition, chunk_rows
from vbscd.probes import gap_floor
from vbscd.prox import full_prox
from vbscd.solver import _STEP_CHUNK

REL = 1e-14

INSTANCES = {
    "lasso_random50": lambda: instances.lasso_random(50),
    "quadratic_scad": instances.quadratic_scad,
    "quadratic_mcp": instances.quadratic_mcp,
    "logistic_random": instances.logistic_random,
}

# the audit's cases add uneven blocks (n = 23 in 5 blocks: 5, 5, 5, 4, 4) to
# the closed form, and a CustomSmooth to logistic on the exact default path
AUDIT_INSTANCES = {
    **INSTANCES,
    "lasso_uneven23": lambda: instances.lasso_random(23, 5),
    "custom": lambda: custom_lasso(),
}


def schedule(kind, p):
    eps_hi = 0.8 * step_cap(1.0, p)
    if kind == "constant":
        return BregmanSchedule.constant(1.0, eps_hi)
    if kind == "alternating":
        return BregmanSchedule.alternating(1.0, 1.25, 3, eps_hi)
    # alternating weights and a harmonic step: one (generator, eps) group
    # per k until the step is clipped
    return BregmanSchedule.alternating(1.0, 1.25, 3, (eps_hi / 20.0, eps_hi))


def reference_point(p, sched):
    x = np.zeros(p.n)
    for _ in range(3000):
        x = full_prox(p, sched.generator(0), sched.step(0), x)
    return x, p.objective(x)


def trajectories(p, sched, x_bar, count=3, steps=120):
    rng = np.random.default_rng(5)
    return [
        run(p, SolverConfig(sched, max_iters=steps, tolerance=0.0, seed=s),
            x0=x_bar + 0.5 * rng.standard_normal(p.n))
        for s in range(count)
    ]


def starts(trajs):
    """Each trajectory's start point with its logged F, as auto_neighborhood reads them."""
    return [(t.points[:1], t.objectives()[:1]) for t in trajs]


def per_point_audit(p, sched, trajs, x_bar, f_bar, constants, slack=1e-9):
    """The audit as one enumeration per point."""
    checked = skipped = violations = 0
    worst = np.inf
    for traj in trajs:
        for k, (x, fx) in enumerate(zip(traj.points, traj.objectives())):
            if not in_neighborhood(x, fx, x_bar, f_bar, *constants.hypothesis):
                skipped += 1
                continue
            mean_f = enumerate_expectation(p, sched.generator(k), sched.step(k), x)
            lhs, rhs = mean_f - f_bar, constants.beta * (fx - f_bar)
            checked += 1
            worst = min(worst, rhs - lhs)
            violations += lhs > rhs + slack
    return checked, skipped, violations, worst


# ---------------------------------------------------------------------------
# contraction audit


@pytest.mark.parametrize("sched_kind", ["constant", "alternating", "harmonic"])
@pytest.mark.parametrize("name", sorted(AUDIT_INSTANCES))
def test_stacked_expectation_equals_enumeration(name, sched_kind):
    # trajectory points and scattered ones, row j under k = j's geometry
    p = AUDIT_INSTANCES[name]()
    sched = schedule(sched_kind, p)
    (traj,) = trajectories(p, sched, np.zeros(p.n), count=1, steps=200)
    X = np.vstack([traj.points, 2.0 * np.random.default_rng(3).standard_normal((100, p.n))])
    X[-10:, ::2] = 0.0  # exact zeros on the penalty kinks
    # F: the step log's on the trajectory, evaluated on the scattered points
    fx = np.concatenate([traj.objectives(), p.objective_rows(X[-100:])])
    k = np.arange(len(X))
    got = stacked_expectation(p, *sched.at(k), X, fx)
    want = np.array([enumerate_expectation(p, sched.generator(j), sched.step(j), x) for j, x in zip(k, X)])
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("sched_kind", ["constant", "alternating", "harmonic"])
@pytest.mark.parametrize("name", sorted(AUDIT_INSTANCES))
def test_stacked_audit_equals_per_point_enumeration(name, sched_kind):
    p = AUDIT_INSTANCES[name]()
    sched = schedule(sched_kind, p)
    x_bar, f_bar = reference_point(p, sched)
    trajs = trajectories(p, sched, x_bar)
    eta, nu = auto_neighborhood(p, sched, x_bar, starts(trajs))
    theory = compute_constants(sched.m, sched.M, p.smooth.lipschitz, sched.eps_lo,
                               sched.eps_hi, p.n_blocks, 0.05, eta, nu)
    # a ball that leaves out about half of the points, its radius halfway
    # between two distances (a point on the sphere could fall either side,
    # as a row norm and a vector norm may differ in their last bit)
    d = np.sort([np.linalg.norm(x - x_bar) for t in trajs for x in t.points])
    half = d[d.size // 2] + d[d.size // 2 + 1]
    seen = set()
    # and betas that some points break
    for ball, beta in ((eta, theory.beta), (half, 0.95), (eta, 0.9), (eta, 0.5)):
        constants = dataclasses.replace(theory, beta=beta, eta=ball)
        audit = contraction_audit(p, sched, trajs, x_bar, f_bar, constants)
        checked, skipped, violations, worst = per_point_audit(
            p, sched, trajs, x_bar, f_bar, constants)
        assert (audit.checked, audit.skipped, audit.violations) == (checked, skipped, violations)
        assert audit.checked > 0
        assert abs(audit.worst_margin - worst) <= 1e-12
        seen.add((skipped > 0, violations > 0))
    assert len(seen) >= 2


def test_audit_accepts_a_single_trajectory_and_reports_no_points():
    p = instances.lasso_random(10, 5, seed=21)
    sched = schedule("constant", p)
    x_bar, f_bar = reference_point(p, sched)
    (traj,) = trajectories(p, sched, x_bar, count=1, steps=30)
    theory = compute_constants(sched.m, sched.M, p.smooth.lipschitz, sched.eps_lo,
                               sched.eps_hi, p.n_blocks, 0.05, 1e-9, 1e-9)
    audit = contraction_audit(p, sched, [traj], x_bar, f_bar, theory)
    assert (audit.checked, audit.skipped, audit.violations) == (0, 31, 0)
    assert audit.worst_margin == np.inf and not audit.ok


def _audit_case():
    p = instances.lasso_random(10, 5, seed=21)
    sched = schedule("harmonic", p)
    x_bar, f_bar = reference_point(p, sched)
    trajs = trajectories(p, sched, x_bar, count=2, steps=60)
    eta, nu = auto_neighborhood(p, sched, x_bar, starts(trajs))
    constants = compute_constants(sched.m, sched.M, p.smooth.lipschitz, sched.eps_lo,
                                  sched.eps_hi, p.n_blocks, 0.05, eta, nu)
    return p, sched, trajs, x_bar, f_bar, constants


def test_audit_sends_a_nan_at_a_middle_point_to_the_oracle(monkeypatch):
    # a NaN margin is neither below nor above a number: it must count as the
    # worst point, whose enumeration cannot agree with it
    p = instances.lasso_random(10, 5, seed=21)
    sched = schedule("constant", p)
    x_bar, f_bar = reference_point(p, sched)
    trajs = trajectories(p, sched, x_bar, count=2, steps=60)
    eta, nu = auto_neighborhood(p, sched, x_bar, starts(trajs))
    constants = compute_constants(sched.m, sched.M, p.smooth.lipschitz, sched.eps_lo,
                                  sched.eps_hi, p.n_blocks, 0.05, eta, nu)
    assert contraction_audit(p, sched, trajs, x_bar, f_bar, constants).ok
    stacked, sizes = diagnostics.stacked_expectation, []

    def nan_in_the_middle(*args):
        mean_f = stacked(*args)
        sizes.append(mean_f.size)
        mean_f[mean_f.size // 2] = np.nan
        return mean_f

    monkeypatch.setattr(diagnostics, "stacked_expectation", nan_in_the_middle)
    with pytest.raises(OracleMismatch, match="stacked nan"):
        contraction_audit(p, sched, trajs, x_bar, f_bar, constants)
    assert min(sizes) >= 3  # so the NaN point is neither first nor last


def test_audit_oracle_raises_on_a_disagreement(monkeypatch):
    case = _audit_case()
    stacked = diagnostics.stacked_expectation
    calls = []
    monkeypatch.setattr(diagnostics, "enumerate_expectation",
                        lambda *a: (calls.append(a), enumerate_expectation(*a))[1])
    contraction_audit(*case)
    assert calls, "the audit ran no enumeration"

    # within 1e-12 (1 + |F|) passes, beyond it raises
    monkeypatch.setattr(diagnostics, "stacked_expectation",
                        lambda *a: stacked(*a) * (1.0 + 1e-14))
    contraction_audit(*case)
    monkeypatch.setattr(diagnostics, "stacked_expectation",
                        lambda *a: stacked(*a) * (1.0 + 1e-10))
    with pytest.raises(OracleMismatch):
        contraction_audit(*case)


def audit_calls(monkeypatch, p):
    """Audit three 600-step trajectories under alternating weights and a
    harmonic step, where every k has its own geometry, check the calls that
    every smooth term makes, and return the audit and the rows of each
    stacked_expectation call, of each one-block change call and of each
    stack of one-block targets.  Two thirds of the points lie inside the
    ball, so a stack holds more checked points than a chunk."""
    sched = schedule("harmonic", p)
    x_bar, f_bar = reference_point(p, sched)
    trajs = trajectories(p, sched, x_bar, count=3, steps=600)
    eta, nu = auto_neighborhood(p, sched, x_bar, starts(trajs))
    theory = compute_constants(sched.m, sched.M, p.smooth.lipschitz, sched.eps_lo,
                               sched.eps_hi, p.n_blocks, 0.05, eta, nu)
    d = np.sort([np.linalg.norm(x - x_bar) for t in trajs for x in t.points])
    constants = dataclasses.replace(theory, eta=d[2 * d.size // 3] + d[2 * d.size // 3 + 1])
    stacked, enumerate_ = diagnostics.stacked_expectation, diagnostics.enumerate_expectation
    change, targets = p.smooth.one_block_change_rows, BlockPartition.one_block_targets
    sizes, changes, chunks, enumerated = [], [], [], []
    monkeypatch.setattr(diagnostics, "stacked_expectation",
                        lambda *a: (sizes.append(len(a[3])), stacked(*a))[1])
    monkeypatch.setattr(p.smooth, "one_block_change_rows",
                        lambda *a: (changes.append(len(a[0])), change(*a))[1])
    # stacks of targets only: an enumeration builds the (N, n) targets of one point
    monkeypatch.setattr(BlockPartition, "one_block_targets",
                        lambda self, X, T: (X.ndim == 2 and chunks.append(len(X)), targets(self, X, T))[1])
    monkeypatch.setattr(diagnostics, "enumerate_expectation",
                        lambda *a: (enumerated.append(a[3]), enumerate_(*a))[1])
    audit = contraction_audit(p, sched, trajs, x_bar, f_bar, constants)
    stacks = 0
    for t in trajs:
        fx = t.objectives()
        inside = ((np.linalg.norm(t.points - x_bar, axis=1) <= constants.eta / 2.0)
                  & (f_bar + gap_floor(f_bar) < fx) & (fx < f_bar + constants.hypothesis[1]))
        stacks += sum(inside[c:c + _STEP_CHUNK].any() for c in range(0, inside.size, _STEP_CHUNK))
    assert audit.skipped > 0 and len(trajs[0].points) > _STEP_CHUNK
    # one stacked call per stack of iterates that holds a checked point, one
    # change call per chunk, and at most 2R + 1 enumerations, at least one
    # per trajectory
    assert len(sizes) == stacks and sum(sizes) == audit.checked
    assert sum(changes) == audit.checked and max(changes) <= chunk_rows(p.n)
    assert len(trajs) <= len(enumerated) <= 2 * len(trajs) + 1
    for t in trajs:
        assert any((x == t.points).all(axis=1).any() for x in enumerated)
    return audit, sizes, changes, chunks


def test_audit_makes_one_stacked_call_per_chunk(monkeypatch):
    # least squares: one closed-form change per chunk of at most
    # chunk_rows(n) rows, and no stack of one-block targets
    p = instances.lasso_random(50)
    audit, sizes, changes, chunks = audit_calls(monkeypatch, p)
    assert chunk_rows(p.n) < max(sizes) and len(changes) > len(sizes)
    assert not chunks


def test_audit_default_path_builds_targets_per_chunk(monkeypatch):
    # the exact default path (CustomSmooth) builds the one-block targets of
    # every checked point in chunks of at most chunk_rows(N n) rows
    p = custom_lasso()
    audit, sizes, changes, chunks = audit_calls(monkeypatch, p)
    assert sum(chunks) == audit.checked and max(chunks) <= chunk_rows(p.n_blocks * p.n) < max(sizes)


def test_audit_evaluates_f_on_a_few_rows_per_point(monkeypatch):
    # on least squares a checked point costs two rows (g at x and at T(x));
    # F(x) comes from the step log, and f is at no one-block target; each
    # enumeration by the oracle evaluates F at the N targets of one point
    p = instances.lasso_random(50)
    sched = schedule("harmonic", p)
    x_bar, f_bar = reference_point(p, sched)
    trajs = trajectories(p, sched, x_bar, count=2, steps=300)
    eta, nu = auto_neighborhood(p, sched, x_bar, starts(trajs))
    constants = compute_constants(sched.m, sched.M, p.smooth.lipschitz, sched.eps_lo,
                                  sched.eps_hi, p.n_blocks, 0.05, eta, nu)
    rows = []
    value_rows, penalty_rows = p.smooth.value_rows, ProblemInstance.penalty_rows
    monkeypatch.setattr(p.smooth, "value_rows", lambda X: (rows.append(len(X)), value_rows(X))[1])
    monkeypatch.setattr(ProblemInstance, "penalty_rows",
                        lambda self, X: (rows.append(len(X)), penalty_rows(self, X))[1])
    audit = contraction_audit(p, sched, trajs, x_bar, f_bar, constants)
    assert audit.checked > 100
    # f and g at the N targets of each checked point would be 2 N rows per point
    assert sum(rows) <= 2 * audit.checked + 2 * p.n_blocks * (2 * len(trajs) + 1)


def test_audit_refuses_a_wrong_logged_objective():
    # the stacked mean carries the logged F(x), so the oracle's enumeration
    # certifies the log: F raised by 1e-9 (1 + |F|) at the first audited point
    p, sched, trajs, x_bar, f_bar, constants = _audit_case()
    assert contraction_audit(p, sched, trajs, x_bar, f_bar, constants).ok
    traj = trajs[0]
    fx = traj.objectives()
    k = int(np.flatnonzero(in_neighborhood(traj.points, fx, x_bar, f_bar, *constants.hypothesis))[0])
    wrong = dataclasses.replace(traj, records=traj.records.copy())
    raised = fx[k] + 1e-9 * (1.0 + abs(fx[k]))
    if k:
        wrong.records["objective"][k - 1] = raised
    else:
        wrong.initial_objective = raised
    assert in_neighborhood(wrong.points[k], raised, x_bar, f_bar, *constants.hypothesis)
    with pytest.raises(OracleMismatch, match="^audit: mean_i F"):
        contraction_audit(p, sched, [wrong, *trajs[1:]], x_bar, f_bar, constants)


def test_auto_neighborhood_reads_f_from_the_step_log(monkeypatch):
    # sizing from iterates evaluates F at the farthest point alone
    p, sched, trajs, x_bar, _, _ = _audit_case()
    want = auto_neighborhood(p, sched, x_bar, [(t.points, t.objectives()) for t in trajs])
    calls = []
    objective_rows, value_rows = ProblemInstance.objective_rows, p.smooth.value_rows
    monkeypatch.setattr(ProblemInstance, "objective_rows",
                        lambda self, X: (calls.append(len(X)), objective_rows(self, X))[1])
    monkeypatch.setattr(p.smooth, "value_rows", lambda X: (calls.append(len(X)), value_rows(X))[1])
    stacks = (pair for t in trajs for pair in t.iterates())
    assert auto_neighborhood(p, sched, x_bar, stacks) == want
    assert calls == []


def test_audit_memory_stays_bounded():
    # one 20,000-step trajectory: a single stack of its one-block targets
    # would take 20,001 * 10 * 50 doubles = 80 MB
    p = instances.lasso_random(50)
    sched = schedule("constant", p)
    x_bar, f_bar = reference_point(p, sched)
    traj = run(p, SolverConfig(sched, max_iters=20_000, tolerance=0.0, seed=3),
               x0=x_bar + 0.5 * np.random.default_rng(2).standard_normal(p.n))
    # a wide ball and a reference level one below F(x_bar), so that every
    # point is checked
    constants = compute_constants(sched.m, sched.M, p.smooth.lipschitz, sched.eps_lo,
                                  sched.eps_hi, p.n_blocks, 0.05, 20.0, 1e3)
    assert constants.hypothesis[1] > 1.0 + traj.initial_objective - f_bar
    tracemalloc.start()
    try:
        audit = contraction_audit(p, sched, [traj], x_bar, f_bar - 1.0, constants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit.checked == 20_001
    assert peak < 2 * 2**20, peak


# ---------------------------------------------------------------------------
# level-ball sampling


def one_at_a_time(p, x_bar, eta, nu, samples, rng, max_draws):
    """The sampler as one proposal drawn and tested at a time."""
    f_bar = p.objective(x_bar)
    margin = gap_floor(f_bar)
    pts, vals, draws = [], [], 0
    while len(pts) < samples and draws < max_draws:
        x = probes.sample_in_ball(x_bar, eta, rng)
        draws += 1
        fx = p.objective(x)
        if f_bar + margin < fx < f_bar + nu:
            pts.append(x)
            vals.append(fx)
    return pts, vals


@pytest.mark.parametrize("nu, samples, max_draws", [
    (1e3, 700, 10**6),   # nearly every proposal accepted, batches cut short
    (2e-3, 100, 1500),   # a few accepted, stopped by the draw cap
    (1e-300, 10, 600),   # nothing accepted: EmptyNeighborhoodError
])
def test_batched_sampler_follows_the_one_at_a_time_stream(monkeypatch, nu, samples, max_draws):
    p = instances.lasso_random(10, 5, seed=21)
    x_bar, _ = reference_point(p, schedule("constant", p))
    draws = [0]
    draw = probes.sample_in_ball

    def counted(*args):
        draws[0] += 1
        return draw(*args)

    monkeypatch.setattr(probes, "sample_in_ball", counted)
    want_rng = np.random.Generator(np.random.PCG64(9))
    want_pts, want_vals = one_at_a_time(p, x_bar, 0.5, nu, samples, want_rng, max_draws)
    want_draws, draws[0] = draws[0], 0

    rng = np.random.Generator(np.random.PCG64(9))
    if not want_pts:
        with pytest.raises(EmptyNeighborhoodError):
            sample_level_ball(p, x_bar, 0.5, nu, samples, rng, max_draws=max_draws)
    else:
        pts, vals, _ = sample_level_ball(p, x_bar, 0.5, nu, samples, rng, max_draws=max_draws)
        assert pts.shape == (len(want_pts), p.n)
        assert np.array_equal(pts, np.array(want_pts))
        assert vals == pytest.approx(want_vals, rel=REL)
        assert 0 < len(want_pts) <= samples
    assert draws[0] == want_draws
    assert rng.bit_generator.state == want_rng.bit_generator.state


# ---------------------------------------------------------------------------
# row-wise model evaluations


def custom_lasso():
    """lasso_random(10) with its smooth term behind the generic per-row path."""
    base = instances.lasso_random(10, 5, seed=21)
    A, b = base.smooth.A, base.smooth.b
    smooth = CustomSmooth(lambda x: 0.5 * float((A @ x - b) @ (A @ x - b)),
                          lambda x: A.T @ (A @ x - b), base.smooth.lipschitz, 10)
    return ProblemInstance(smooth, base.partition, base.regularizers)


@pytest.mark.parametrize("name", [*sorted(INSTANCES), "custom"])
def test_row_forms_match_the_per_point_forms(name):
    p = custom_lasso() if name == "custom" else INSTANCES[name]()
    rng = np.random.default_rng(4)
    X = rng.standard_normal((300, p.n))
    X[::3, ::2] = 0.0   # exact zeros on the penalty kinks
    X[1] = 0.0
    G = p.smooth.grad_rows(X)
    norms = p.min_subgradient_norm_rows(X)
    assert G.shape == X.shape and norms.shape == (300,)
    for x, g, d in zip(X, G, norms):
        want = p.smooth.grad(x)
        assert np.abs(g - want).max() <= REL * np.abs(want).max()
        assert abs(d - p.min_subgradient_norm(x)) <= REL * p.min_subgradient_norm(x)
    with pytest.raises(ValueError):
        p.min_subgradient_norm_rows(X[0])


# ---------------------------------------------------------------------------
# probes on the stacked sample


def test_extremum_keeps_the_first_of_equal_ratios():
    def pick(num, den, largest):
        pts = np.arange(len(num), dtype=float)[:, None]  # row j holds j
        est = probes._extremum("kl", "c2", pts, num, den, largest, "level-gap")
        assert est.samples == len(num) and est.value == num[int(est.extremal_point[0])]
        return int(est.extremal_point[0])

    num = np.array([1.0, 2.0, 2.0, np.nan, 3.0])
    den = np.array([1.0, 1.0, 1.0, 1.0, 0.0])  # the 3.0 sits on a zero denominator
    assert pick(num, den, largest=True) == 1
    assert pick(num[[0, 1, 2]][::-1].copy(), den[:3].copy(), largest=False) == 2
    with pytest.raises(EmptyNeighborhoodError, match="^kl probe: every accepted sample fell below"):
        pick(num[3:].copy(), den[3:].copy(), largest=True)


def loop_ratio(pts, num, den, largest):
    best, best_pt = (-np.inf if largest else np.inf), None
    for x in pts:
        d = den(x)
        if d < probes.DENOM_CUTOFF:
            continue
        r = num(x) / d
        if (r > best) if largest else (r < best):
            best, best_pt = r, x
    return best, best_pt


def lt_eb_one_at_a_time(p, eps, level, radius, samples, rng, center, max_draws=10**6):
    """probe_lt_eb as one proposal drawn and tested at a time: the
    accepted count, the largest ratio and its point, and the proposals
    rejected by the level and by the residual."""
    best, best_pt, accepted, draws = -np.inf, None, 0, 0
    over_level = over_radius = 0
    while accepted < samples and draws < max_draws:
        x = probes.sample_in_ball(center, radius, rng)
        draws += 1
        if p.objective(x) > level:
            over_level += 1
            continue
        denom = float(np.linalg.norm(x - full_prox(p, 1.0, eps, x)))
        if denom > radius:
            over_radius += 1
            continue
        accepted += 1
        if denom < probes.DENOM_CUTOFF:
            continue
        ratio = float(np.linalg.norm(x - center)) / denom
        if ratio > best:
            best, best_pt = ratio, x
    return accepted, best, best_pt, over_level, over_radius


def test_probes_match_their_per_point_loops():
    p = instances.lasso_random(10, 5, seed=21)
    sched = schedule("constant", p)
    x_bar, f_bar = reference_point(p, sched)
    q, eps = sched.generator(0), sched.step(0)
    dist = lambda x: float(np.linalg.norm(x - x_bar))  # to the critical set {x_bar}
    for probe, num, den, largest in (
        (probe_ls_eb, dist, p.min_subgradient_norm, True),
        (probe_kl, p.min_subgradient_norm, lambda x: np.sqrt(p.objective(x) - f_bar), False),
        (probe_bp_eb, dist, lambda x: float(np.linalg.norm(x - full_prox(p, q, eps, x))), True),
    ):
        pts, _, _ = sample_level_ball(p, x_bar, 0.5, 0.2, 600, np.random.default_rng(8))
        if probe is probe_bp_eb:
            est = probe(p, q, eps, x_bar, 0.5, 0.2, 600, np.random.default_rng(8))
        else:
            est = probe(p, x_bar, 0.5, 0.2, 600, np.random.default_rng(8))
        value, point = loop_ratio(pts, num, den, largest)
        assert est.value == pytest.approx(value, rel=1e-12), probe.__name__
        assert np.array_equal(est.extremal_point, point), probe.__name__
        assert est.samples == len(pts) == 600

    # lt-eb draws its own sample: on the unit ball the residual
    # 0.4 ||(x1, 4 x2)|| reaches 1.6 and F reaches 2, so both cutoffs reject
    p, center = diag_quadratic([1.0, 4.0]), np.zeros(2)
    for max_draws in (10**6, 700):  # stopped by the sample count, then by the draw cap
        want_rng = np.random.default_rng(8)
        accepted, value, point, over_level, over_radius = lt_eb_one_at_a_time(
            p, 0.4, 0.8, 1.0, 600, want_rng, center, max_draws)
        assert over_level > 0 and over_radius > 0 and (accepted < 600) == (max_draws == 700)
        rng = np.random.default_rng(8)
        est = probe_lt_eb(p, 0.4, 0.8, 1.0, 600, rng, center=center, max_draws=max_draws)
        assert est.samples == accepted
        assert np.array_equal(est.extremal_point, point)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert rng.bit_generator.state == want_rng.bit_generator.state


def test_lt_eb_lets_a_nan_objective_through_as_its_loop_did():
    # F is NaN on x1 > 0.5: neither "F > level" nor "residual > radius" holds
    base = diag_quadratic([1.0, 4.0])
    f = lambda x: np.nan if x[0] > 0.5 else base.smooth.value(x)
    smooth = CustomSmooth(f, base.smooth.grad, base.smooth.lipschitz, 2)
    p = ProblemInstance(smooth, base.partition, base.regularizers)
    want_rng = np.random.default_rng(5)
    accepted, value, point, _, _ = lt_eb_one_at_a_time(p, 0.2, 0.3, 1.0, 400, want_rng, np.zeros(2))
    rng = np.random.default_rng(5)
    est = probe_lt_eb(p, 0.2, 0.3, 1.0, 400, rng, center=np.zeros(2))
    assert est.samples == accepted == 400
    assert np.array_equal(est.extremal_point, point) and est.value == pytest.approx(value, rel=1e-12)
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_ls_eb_reports_the_first_of_equal_ratios():
    # on 0.5 x^2 every ratio |x| / |x| is exactly 1
    p = instances.quad_1d(0.0)
    pts, _, _ = sample_level_ball(p, np.zeros(1), 1.0, 1.0, 300, np.random.default_rng(3))
    est = probe_ls_eb(p, np.zeros(1), 1.0, 1.0, 300, np.random.default_rng(3))
    assert est.value == 1.0
    assert np.array_equal(est.extremal_point, pts[0])


def test_ls_eb_oracle_raises_on_a_disagreement(monkeypatch):
    p = instances.lasso_random(10, 5, seed=21)
    x_bar, _ = reference_point(p, schedule("constant", p))
    exact = ProblemInstance.min_subgradient_norm
    monkeypatch.setattr(ProblemInstance, "min_subgradient_norm",
                        lambda self, x: exact(self, x) * (1.0 + 1e-9))
    with pytest.raises(OracleMismatch):
        probe_ls_eb(p, x_bar, 0.5, 0.2, 200, np.random.default_rng(1))


def test_lt_eb_oracle_raises_on_a_disagreement(monkeypatch):
    p = instances.lasso_random(10, 5, seed=21)
    sched = schedule("constant", p)
    x_bar, f_bar = reference_point(p, sched)
    monkeypatch.setattr(probes, "full_prox", lambda *args: full_prox(*args) * (1.0 + 1e-9))
    with pytest.raises(OracleMismatch, match="^lt-eb ratio at the extremal sample"):
        probe_lt_eb(p, sched.step(0), f_bar + 0.2, 0.5, 200, np.random.default_rng(1), center=x_bar)
