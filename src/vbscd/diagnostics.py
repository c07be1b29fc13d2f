"""Numeric certification: exact index expectations, decrease and proximity
inequalities, the contraction constants chain, and rate fitting.

Everything that involves the random block index is computed exactly over
the N blocks (never by sampling): with uniform selection, the one-block
targets T_i(x) satisfy three algebraic identities

    mean_i T_i(x)            = (1/N) T(x) + (1 - 1/N) x
    g(T(x))                  = N mean_i g(T_i(x)) - (N-1) g(x)
    ||x - T(x)||^2           = N mean_i ||x - T_i(x)||^2

(block separability), which double as self-tests of the prox layer.

Over many points the expectation is evaluated on stacks
(:func:`stacked_expectation`).  T_i(x) moves block i of x by d_i, d = T(x) - x,
so one stacked gradient and one grouped full prox give every point's step,
and

    mean_i F(T_i(x)) = F(x) + (sum_i [f(x + E_i d_i) - f(x)] + g(T(x)) - g(x)) / N.

The smooth sum is :meth:`~vbscd.model.SmoothTerm.one_block_change_rows`.  For
least squares it has the closed form <grad f(x), d> + sum_i d_i^T G_ii d_i / 2,
G_ii the diagonal blocks of the gram A^T A, so a point costs one gradient and
no row beyond x and T(x).  Any other smooth term takes the exact default,
f at the N one-block targets.  Per-point enumeration
(:func:`enumerate_expectation`) stays the oracle: the contraction audit
recomputes a few of its points by enumeration on every run and raises
:class:`~vbscd.solver.OracleMismatch` when the two disagree.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .bregman import BregmanSchedule, sufficient_decrease
from .csvout import write_csv
from .model import ProblemInstance, Regularizer, in_chunks
from .probes import cross_check, gap_floor, in_neighborhood
from .prox import coordinate_prox_all, envelope_value, full_prox, full_prox_rows


# ---------------------------------------------------------------------------
# check rows and report serialization


@dataclass(frozen=True)
class CheckRow:
    check: str
    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool


def make_check(check: str, name: str, lhs: float, rhs: float, tol: float) -> CheckRow:
    """Row for an inequality lhs <= rhs, passing within absolute slack tol;
    a NaN slack rhs - lhs never passes."""
    lhs, rhs = float(lhs), float(rhs)
    slack = rhs - lhs
    return CheckRow(check, name, lhs, rhs, slack, lhs <= rhs + tol and not np.isnan(slack))


def worst_check(check: str, name: str, lhs, rhs, tol: float) -> CheckRow | None:
    """Row of lhs <= rhs at the first point with the smallest slack
    rhs - lhs, over arrays that broadcast together; None when they are
    empty.  A NaN slack is the worst (np.argmin returns the first NaN) and
    fails, so one NaN anywhere fails the group."""
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float))
    if lhs.size == 0:
        return None
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN slack, reported as a failed row
        j = int(np.argmin(rhs - lhs))
    return make_check(check, name, lhs.flat[j], rhs.flat[j], tol)


def worst_row(rows) -> CheckRow:
    """The same choice among finished rows: the first with the smallest
    slack, a NaN slack first."""
    return rows[int(np.argmin([r.slack for r in rows]))]


def write_report_csv(rows, path) -> None:
    write_csv(path, "check,name,lhs,rhs,slack,pass", map(astuple, rows))


# ---------------------------------------------------------------------------
# exact expectations over the uniform block index


def enumerate_expectation(p: ProblemInstance, q: float, eps: float, x) -> float:
    """mean_i F(T_i(x)) by exact enumeration of the N one-block targets."""
    return float(p.objective_rows(coordinate_prox_all(p, q, eps, x)).mean())


def stacked_expectation(p: ProblemInstance, q, eps, X, fx) -> np.ndarray:
    """mean_i F(T_i(x)) at each row x of a (k, n) stack with F(x) in ``fx``,
    row j under the geometry in row j of the (k, 1) columns ``q`` (kernel
    weight) and ``eps`` (step), for any k through :func:`~vbscd.model.in_chunks`.

    T_i(x) differs from x in block i alone, so with d = T(x) - x

        mean_i F(T_i(x)) = F(x) + (sum_i [f(x + E_i d_i) - f(x)] + g(T(x)) - g(x)) / N

    (g is block-separable).  A chunk takes one stacked gradient, one grouped
    full prox, g at x and T(x) (not f at x) and the smooth term's
    :meth:`~vbscd.model.SmoothTerm.one_block_change_rows`: closed form on
    least squares, f at the N one-block targets otherwise."""
    def mean_f(q, eps, X, fx):
        grad = p.smooth.grad_rows(X)
        T = full_prox_rows(p, q, eps, X, grad=grad)
        # g(T(x)) - g(x) first: two values of the size of g, whose difference is small
        change = p.penalty_rows(T) - p.penalty_rows(X)
        return fx + (p.smooth.one_block_change_rows(X, T, grad, p.partition) + change) / p.n_blocks
    return in_chunks(mean_f, p.n, q, eps, X, fx)


def expectation_identities(p: ProblemInstance, q: float, eps: float, x, targets) -> dict:
    """Absolute deviations of the three mixing identities at x, whose
    one-block targets under (q, eps) are ``targets`` (:func:`coordinate_prox_all`)."""
    x = np.asarray(x, dtype=float)
    n_blocks = p.n_blocks
    t_full = full_prox(p, q, eps, x)

    mean_pt = targets.mean(axis=0)
    dev_point = float(
        np.max(np.abs(mean_pt - (t_full / n_blocks + (1.0 - 1.0 / n_blocks) * x)))
    )

    g_mean = float(p.penalty_rows(targets).mean())
    dev_penalty = abs(
        p.penalty_value(t_full) - (n_blocks * g_mean - (n_blocks - 1) * p.penalty_value(x))
    )

    sq_mean = float(np.sum((x - targets) ** 2, axis=1).mean())
    dev_square = abs(float(np.sum((x - t_full) ** 2)) - n_blocks * sq_mean)

    return {"mean-point": dev_point, "penalty-mixing": dev_penalty, "squared-step": dev_square}


# ---------------------------------------------------------------------------
# constants chain


@dataclass(frozen=True)
class ConstantsRecord:
    """Derived contraction constants together with the inputs that fix them.

    a      sufficient decrease:   (m - eps_hi L) / (2 eps_hi)
    theta1 subgradient-to-step:   1 + c0 (L + M/eps_lo)
    theta2 envelope curvature:    (3/2) L + M / (2 eps_lo)
    kappa  theta1^2 * theta2
    b      2 eps_hi N^2 kappa / (m - eps_hi L) + N
    beta   (b - 1) / b
    n_min  minimal level-window divisor for the (eta, nu) neighborhood
    """

    m: float
    M: float
    L: float
    eps_lo: float
    eps_hi: float
    N: int
    c0: float
    eta: float
    nu: float
    a: float
    theta1: float
    theta2: float
    kappa: float
    b: float
    beta: float
    n_min: float

    @property
    def hypothesis(self) -> tuple[float, float]:
        """(eta/2, nu / max(n_min, 1)): the radius and level window of the
        hypothesis set B(x_bar; eta/2, nu / max(n_min, 1)).

        Clamping the divisor at one keeps the hypothesis set inside
        B(x_bar; eta, nu) even when n_min < 1.
        """
        return self.eta / 2.0, self.nu / max(self.n_min, 1.0)


def compute_constants(
    m: float, M: float, L: float, eps_lo: float, eps_hi: float,
    N: int, c0: float, eta: float, nu: float,
) -> ConstantsRecord:
    if not (0 < m <= M):
        raise ValueError("need 0 < m <= M")
    if L < 0 or c0 < 0:
        raise ValueError("L and c0 must be >= 0")
    if not (0 < eps_lo <= eps_hi):
        raise ValueError("need 0 < eps_lo <= eps_hi")
    if L > 0 and not eps_hi < m / L:
        raise ValueError(f"eps_hi = {eps_hi} must be < m/L = {m / L}")
    if N < 1:
        raise ValueError("N must be >= 1")
    if not (eta > 0 and nu > 0):
        raise ValueError("eta and nu must be positive")
    a = sufficient_decrease(m, eps_hi, L)
    theta1 = 1.0 + c0 * (L + M / eps_lo)
    theta2 = 1.5 * L + M / (2.0 * eps_lo)
    kappa = theta1**2 * theta2
    b = 2.0 * eps_hi * N**2 * kappa / (m - eps_hi * L) + N
    beta = (b - 1.0) / b
    n_min = (2.0 * eps_hi * nu / (m - eps_hi * L)) / (eta / 2.0) ** 2
    return ConstantsRecord(
        m=m, M=M, L=L, eps_lo=eps_lo, eps_hi=eps_hi, N=int(N), c0=c0,
        eta=eta, nu=nu, a=a, theta1=theta1, theta2=theta2, kappa=kappa,
        b=b, beta=beta, n_min=n_min,
    )


# ---------------------------------------------------------------------------
# neighborhood hypothesis and the proximity checks


def check_value_proximity(
    p: ProblemInstance, q: float, eps: float, x, targets, x_bar, f_bar: float, constants: ConstantsRecord,
) -> list[CheckRow]:
    """Rows of the five local proximity statements at x, whose one-block
    targets under (q, eps) are ``targets``.

    Hypothesis: x in the record's hypothesis set (:attr:`ConstantsRecord.hypothesis`,
    tested by :func:`~vbscd.probes.in_neighborhood`); points outside get no
    rows.  All index expectations are exact enumerations over ``targets``.
    The distance from {F <= F_bar} is taken to the singleton {x_bar}, exact
    for strongly convex instances probed at the minimizer.
    """
    x = np.asarray(x, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    fx = p.objective(x)
    if not in_neighborhood(x, fx, x_bar, f_bar, *constants.hypothesis):
        return []

    N = p.n_blocks
    t_full = full_prox(p, q, eps, x)
    mean_f = float(p.objective_rows(targets).mean())
    mean_sq = float(np.sum((x - targets) ** 2, axis=1).mean())
    env = envelope_value(p, q, eps, x)
    dist = float(np.linalg.norm(x - x_bar))
    step_full = float(np.linalg.norm(t_full - x))
    mixed = N * mean_f - (N - 1) * fx

    c = constants
    return [make_check("value-proximity", name, lhs, rhs, 1e-9) for name, lhs, rhs in (
        ("i-sublevel-vs-step", dist, c.theta1 * step_full),
        ("ii-mixed-below-envelope", mixed - f_bar, env - f_bar),
        ("ii-envelope-vs-distance", env - f_bar, c.theta2 * dist**2),
        ("iii-mixed-vs-steps", mixed - f_bar, N**2 * c.kappa * mean_sq),
        ("iv-gap-vs-decrease", fx - f_bar, c.b * (fx - mean_f)),
        ("v-one-step-contraction", mean_f - f_bar, c.beta * (fx - f_bar)),
    )]


def check_level_dominance(
    p: ProblemInstance, x, targets, x_bar, f_bar: float, constants: ConstantsRecord,
) -> list[CheckRow]:
    """Rows of: every one-block target of x (the rows of ``targets``) keeps
    the objective at or above f_bar.

    That row is checked at every x.  Where it passes and x lies in the
    record's hypothesis set B(x_bar; r, w) (:attr:`ConstantsRecord.hypothesis`),
    three more rows carry its consequences: every step fits in r = eta/2 and
    every target stays inside B(x_bar; eta, w).
    """
    x = np.asarray(x, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    f_targets = p.objective_rows(targets)
    rows = [make_check("level-dominance", "targets-above-reference", f_bar, f_targets.min(), 1e-12)]
    radius, window = constants.hypothesis
    if rows[0].passed and in_neighborhood(x, p.objective(x), x_bar, f_bar, radius, window):
        rows += [make_check("level-dominance", name, lhs, rhs, 1e-9) for name, lhs, rhs in (
            ("step-within-half-eta", np.linalg.norm(x - targets, axis=1).max(), radius),
            ("targets-within-ball", np.linalg.norm(targets - x_bar, axis=1).max(), constants.eta),
            ("targets-within-level", f_targets.max() - f_bar, window),
        )]
    return rows


# ---------------------------------------------------------------------------
# trajectory audits


@dataclass
class ContractionAudit:
    checked: int
    skipped: int
    violations: int
    worst_margin: float  # min over checked points of rhs - lhs

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.checked > 0


def contraction_audit(
    p: ProblemInstance, sched: BregmanSchedule, trajectories, x_bar, f_bar: float,
    constants: ConstantsRecord,
) -> ContractionAudit:
    """At every recorded in-neighborhood point, check the exact one-step
    contraction mean_i F(T_i(x^k)) - F_bar <= beta (F(x^k) - F_bar) under
    x^k's own geometry (q_k, eps_k).

    The trajectories (a sequence) are read one at a time, one stack of
    their iterates (:meth:`~vbscd.solver.Trajectory.iterates`) at a time,
    with the logged F(x^k), the only F(x^k) the audit uses.  The geometry
    of a stack's in-neighborhood rows comes from one
    :meth:`~vbscd.bregman.BregmanSchedule.at` call and travels with them, so
    they take one :func:`stacked_expectation` call.  Enumeration is the
    oracle: the first and last checked point of each trajectory and the
    worst-margin point are recomputed with :func:`enumerate_expectation`,
    and a disagreement (:func:`~vbscd.solver.agrees`), such as from a wrong
    logged F, raises :class:`~vbscd.solver.OracleMismatch`.  As in
    :func:`worst_check`, a NaN margin is a violation and the worst point,
    so it reaches the oracle, where it cannot agree.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    checked = skipped = violations = 0
    worst = np.inf

    def oracle(k, x, mean_f):  # x^k's stacked mean against its enumeration
        exact = enumerate_expectation(p, sched.generator(k), sched.step(k), x)
        cross_check(float(mean_f), exact, "audit: mean_i F(T_i(x))")

    worst_pt = None  # (k, x^k, stacked mean), as first and last below
    for traj in trajectories:
        a, first, last = 0, None, None
        for S, fx in traj.iterates():
            idx = np.flatnonzero(in_neighborhood(S, fx, x_bar, f_bar, *constants.hypothesis))
            k, a = a + idx, a + len(S)
            skipped += len(S) - idx.size
            if not idx.size:
                continue
            mean_f = stacked_expectation(p, *sched.at(k), S[idx], fx[idx])
            lhs, rhs = mean_f - f_bar, constants.beta * (fx[idx] - f_bar)
            checked += idx.size
            violations += int(np.count_nonzero(~(lhs <= rhs + 1e-9)))
            margin = rhs - lhs
            w = int(margin.argmin())
            if not (np.isnan(worst) or margin[w] >= worst):
                worst = float(margin[w])
                worst_pt = (int(k[w]), S[idx[w]].copy(), mean_f[w])
            if first is None:
                first = (int(k[0]), S[idx[0]].copy(), mean_f[0])
            last = (int(k[-1]), S[idx[-1]].copy(), mean_f[-1])
        for point in (first, last) if first else ():
            oracle(*point)
    if worst_pt:
        oracle(*worst_pt)
    return ContractionAudit(checked, skipped, violations, float(worst))


def auto_neighborhood(p: ProblemInstance, sched: BregmanSchedule, x_bar, stacks):
    """Pick (eta, nu) so the supplied points satisfy the ball and level
    hypotheses with margin and rejection sampling in B(x_bar; eta, nu) stays
    cheap (nu matched to the smooth curvature over the ball).

    ``stacks`` is an iterable of pairs (X, fx): a (k, n) stack of points and
    F at its rows, such as :meth:`~vbscd.solver.Trajectory.iterates`, read
    one at a time.  The reach of each point is max(||x - x_bar||, sqrt((F(x) - F_bar) / a));
    the farthest point's reach is then taken from the per-point forms.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    a = sufficient_decrease(sched.m, sched.eps_hi, p.smooth.lipschitz)
    reach, f_bar = 1.0, p.objective(x_bar)
    far, far_reach = None, -np.inf
    for S, fx in stacks:
        if not len(S):
            continue
        r = np.linalg.norm(S - x_bar, axis=1)
        if a > 0:
            up = fx > f_bar
            r[up] = np.maximum(r[up], np.sqrt((fx[up] - f_bar) / a))
        j = int(r.argmax())
        if r[j] > far_reach:
            far, far_reach = S[j].copy(), r[j]
    if far is not None:
        reach = max(reach, float(np.linalg.norm(far - x_bar)))
        f_far = p.objective(far)
        if f_far > f_bar and a > 0:
            reach = max(reach, float(np.sqrt((f_far - f_bar) / a)))
    eta = 2.2 * reach
    nu = max(p.smooth.lipschitz, 1.0) * eta**2
    return eta, nu


# ---------------------------------------------------------------------------
# rate fitting


@dataclass
class RateReport:
    factor: float
    r_squared: float
    window_start: int
    window_stop: int  # exclusive
    label: str = ""
    beta_theory: float | None = None

    @property
    def contracting(self) -> bool:
        return self.factor < 1.0


def fit_linear_rate(mean_gaps, f_bar: float = 0.0) -> RateReport:
    """Least-squares fit of log(gap_k) over the usable window.

    The window opens at the first index where the gap drops below a tenth of
    the initial gap (falling back to the full sequence when that leaves
    fewer than five points) and closes just before the gap first
    sinks under :func:`gap_floor`.  Raises if the window is shorter than
    five points, or if that first gap is negative beyond the floor: the
    sequence then dips below f_bar, which is no lower bound.
    """
    gaps = np.asarray(mean_gaps, dtype=float)
    if gaps.ndim != 1:
        raise ValueError("expected a 1-D gap sequence")
    floor = gap_floor(f_bar)
    below = np.nonzero(gaps < floor)[0]
    stop = int(below[0]) if below.size else gaps.size
    if below.size and gaps[stop] < -floor:
        raise ValueError(f"mean gap {gaps[stop]:.6g} at k={stop} is below -gap_floor = {-floor:.3g}: "
                         "F fell below f_bar, which is then no lower bound")
    burn = np.nonzero(gaps[:stop] < gaps[0] / 10.0)[0] if gaps.size else np.array([])
    start = int(burn[0]) if burn.size else 0
    if stop - start < 5:
        start = 0
    if stop - start < 5:
        raise ValueError(f"fit window [{start}, {stop}) has fewer than 5 points")
    k = np.arange(start, stop, dtype=float)
    y = np.log(gaps[start:stop])
    slope, intercept = np.polyfit(k, y, 1)
    resid = y - (slope * k + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateReport(
        factor=float(np.exp(slope)), r_squared=float(r2),
        window_start=start, window_stop=stop,
    )


# ---------------------------------------------------------------------------
# scalar grid oracle (shared by the prox self-tests)


class GridProxOracle:
    """Brute-force scalar prox over a fixed grid.

    The grid pins the oracle's resolution (default [-10, 10] at 1e-5).
    Grid point j is ``lo + step * j``.  The build evaluates the penalty
    once over the grid and keeps three numbers per chunk of ``CHUNK``
    points: the least penalty value and the first and last point.

    A query computes phi(t) + (w/2)(t - v)^2 one chunk at a time, but only
    on the chunks that can hold the minimum, evaluating phi again on each
    chunk it visits.  Chunk c's lower bound is

        lb_c = (d_c^2 * (w/2)) + min phi over the chunk,

    with d_c = 0 when v lies in [t_first, t_last] and d_c = t_end - v for
    the nearer end otherwise: the same float operations, in the same order,
    as the scan.  Round-to-nearest is monotone, so for w >= 0 every value
    the scan computes in the chunk is >= lb_c.  Chunks are visited by
    ascending lb_c (stable sort) until lb_c exceeds the best value found;
    a value wins when it is smaller, or equal with a smaller index.  The
    result is the first grid point np.argmin would return over the whole
    grid, bit for bit.

    A query whose quadratic terms could be non-finite (w or v not finite,
    w < 0, or (w/2)(t - v)^2 overflowing at the far end of the grid) raises
    ValueError.  A NaN value then comes from phi alone, so a query on a
    penalty with NaNs scans only the first chunk whose least penalty is NaN
    (np.min keeps a NaN) and returns its first NaN, as np.argmin does.
    """

    CHUNK = 1 << 12  # scan unit of a query

    def __init__(self, reg: Regularizer, lo: float = -10.0, hi: float = 10.0, step: float = 1e-5):
        for name, val in (("lo", lo), ("hi", hi), ("step", step)):
            if not np.isfinite(val):
                raise ValueError(f"grid {name} must be finite, got {val}")
        if step <= 0:
            raise ValueError(f"grid step must be > 0, got {step}")
        if hi < lo:
            raise ValueError(f"grid hi = {hi} must be >= lo = {lo}")
        self.reg = reg
        self.lo = lo
        self.step = step
        self.count = count = int(round((hi - lo) / step)) + 1
        self.g_min = np.empty(-(-count // self.CHUNK))
        j, buf = np.arange(self.CHUNK, dtype=float), np.empty(self.CHUNK)
        for c in range(self.g_min.size):
            self.g_min[c] = self._penalty(c, j, buf)[1].min()
        self.nan_scan = np.flatnonzero(np.isnan(self.g_min))[:1].tolist()  # [first NaN chunk], or []
        starts = np.arange(0, count, self.CHUNK)
        self.t_first = starts * step + lo
        self.t_last = np.minimum(starts + (self.CHUNK - 1), count - 1) * step + lo

    def _penalty(self, c: int, j: np.ndarray, buf: np.ndarray):
        """The points of chunk c, written into ``buf``, and phi on them.  The
        points are the same doubles as ``lo + step * np.arange(count)``,
        since c * CHUNK + j is an exact integer."""
        a = c * self.CHUNK
        t = buf[:min(self.count - a, self.CHUNK)]
        np.add(j[:t.size], a, out=t)
        t *= self.step
        t += self.lo
        return t, np.asarray(self.reg.value(t), dtype=float)

    def lower_bounds(self, hw: float, v: float) -> np.ndarray:
        """lb_c of every chunk for weight w = 2 hw.  Raises ValueError when a
        quadratic term could be non-finite (see the class docstring)."""
        hw, v = float(hw), float(v)  # Python floats: an overflow here is silent
        far = max(abs(float(self.t_first[0]) - v), abs(float(self.t_last[-1]) - v))
        if not (hw >= 0 and np.isfinite(far * far * hw)):
            raise ValueError(f"grid query w = {2 * hw}, v = {v} needs w >= 0 and a finite (w/2)(t - v)^2")
        return np.square(np.clip(v, self.t_first, self.t_last) - v) * hw + self.g_min

    def query(self, w: float, v: float) -> tuple[float, float]:
        """(argmin, objective value) of phi(t) + (w/2)(t - v)^2 on the grid;
        of equal values the first grid point wins, as in one np.argmin."""
        hw = 0.5 * w
        lb = self.lower_bounds(hw, v)
        chunks = self.nan_scan or np.argsort(lb, kind="stable").tolist()
        lb = lb.tolist()
        j, buf = np.arange(self.CHUNK, dtype=float), np.empty(self.CHUNK)
        best_i, best = self.count, np.inf
        for c in chunks:
            if lb[c] > best:
                break
            t, g = self._penalty(c, j, buf)
            vals = t - v  # a new array: phi's values may share memory with buf
            np.square(vals, out=vals)
            vals *= hw
            vals += g
            k = int(vals.argmin())
            i, val = c * self.CHUNK + k, vals[k]
            if not (val > best or (val == best and i > best_i)):  # the first chunk scanned wins, NaN or not
                best_i, best = i, val
        return float(self.lo + self.step * best_i), float(best)
