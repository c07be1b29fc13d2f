"""Monte-Carlo probes for local error-bound constants.

All probes sample a level-restricted ball

    B(x_bar; eta, nu) = { x : ||x - x_bar|| <= eta,  F_bar < F(x) < F_bar + nu }

by rejection and report an extremal ratio over the accepted points.  Strict
level membership is enforced with the floating-point margin
:func:`gap_floor`: points closer to the reference value than that are
critical up to precision and excluded, as are ratios whose
denominator falls below 1e-12.  Probed constants are empirical estimates;
consumers are expected to inflate them before use.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvout import fmt, write_csv
from .model import ProblemInstance, chunk_rows
from .prox import full_prox, full_prox_rows
from .solver import OracleMismatch, sample_in_ball

DENOM_CUTOFF = 1e-12
_DRAW_BATCH = 256  # proposals per call of a sampler's batched test


class EmptyNeighborhoodError(RuntimeError):
    """No sample satisfied the neighborhood conditions within the draw budget."""


def cross_check(stacked: float, exact: float, what: str) -> None:
    """Raise :class:`OracleMismatch` unless |stacked - exact| <= 1e-12 (1 + |exact|)."""
    if not abs(stacked - exact) <= 1e-12 * (1.0 + abs(exact)):
        raise OracleMismatch(f"{what}: stacked {stacked!r}, per point {exact!r}")


def gap_floor(f_bar: float) -> float:
    """1e2 * eps_machine * |f_bar| + 1e-14: a value of F within this of
    f_bar is f_bar up to rounding, so a gap below it is not progress and a
    point with it is not strictly above the level f_bar."""
    return 1e2 * np.finfo(float).eps * abs(f_bar) + 1e-14


def _rows(fn, X) -> np.ndarray:
    """fn applied to a (k, n) stack in row chunks of bounded size, joined."""
    step = chunk_rows(X.shape[1])
    return np.concatenate([fn(X[a:a + step]) for a in range(0, len(X), step)])


@dataclass
class ErrorBoundEstimate:
    kind: str           # ls-eb | kl | bp-eb | lt-eb
    constant_name: str  # c0 | c1 | c2 | c3
    value: float
    samples: int        # accepted sample count
    oracle: str
    extremal_point: np.ndarray
    eta: float | None = None
    nu: float | None = None
    level: float | None = None   # lt-eb only
    radius: float | None = None  # lt-eb only


def write_probe_csv(estimates, path) -> None:
    def row(e):
        opt = [("" if v is None else fmt(v)) for v in (e.eta, e.nu, e.level, e.radius)]
        extremal = ";".join(fmt(v) for v in np.asarray(e.extremal_point).ravel())
        return (
            f"{e.kind},{e.constant_name},{fmt(e.value)},{e.samples},"
            f"{opt[0]},{opt[1]},{opt[2]},{opt[3]},{e.oracle},{extremal}"
        )
    header = "kind,constant,value,samples,eta,nu,level,radius,oracle,extremal"
    write_csv(path, header, map(row, estimates))


def _draw_accepted(center, radius: float, test, samples: int, rng, max_draws: int, empty: str):
    """The proposals that ``test`` accepts, as the rows of an (accepted, n)
    array, with the values it gives them: ``test`` maps a (k, n) batch to a
    (k,) accept mask and (k,) values.

    Draws uniformly from the ball of ``radius`` about ``center`` until
    ``samples`` proposals are accepted or ``max_draws`` are spent; raises
    :class:`EmptyNeighborhoodError` with message ``empty`` if nothing is
    accepted at all.  Each proposal is drawn by ``sample_in_ball``; they
    are tested in batches of at most ``_DRAW_BATCH`` that never hold more
    proposals than could still be accepted, so the rng stream and the draw
    count equal those of testing each proposal as it is drawn.
    """
    # filled in order and grown by doubling; never past ``samples`` rows
    pts = np.empty((min(samples, max_draws, 8 * _DRAW_BATCH), center.size))
    vals = np.empty(len(pts))
    accepted = draws = 0
    while accepted < samples and draws < max_draws:
        size = min(samples - accepted, max_draws - draws, _DRAW_BATCH)
        batch = np.array([sample_in_ball(center, radius, rng) for _ in range(size)])
        draws += size
        keep, values = test(batch)
        stop = accepted + int(np.count_nonzero(keep))
        if stop > len(pts):
            rows = min(max(2 * len(pts), stop), samples)
            pts.resize((rows, center.size), refcheck=False)
            vals.resize(rows, refcheck=False)
        pts[accepted:stop] = batch[keep]
        vals[accepted:stop] = values[keep]
        accepted = stop
    if not accepted:
        raise EmptyNeighborhoodError(empty)
    pts.resize((accepted, center.size), refcheck=False)
    vals.resize(accepted, refcheck=False)
    return pts, vals


def sample_level_ball(
    p: ProblemInstance, x_bar, eta: float, nu: float, samples: int, rng,
    max_draws: int = 10**6,
):
    """Accepted points from B(x_bar; eta, nu), as the rows of an
    (accepted, n) array, with their objective values and F(x_bar): at most
    ``samples`` points from at most ``max_draws`` proposals, tested with
    ``objective_rows`` by :func:`_draw_accepted`."""
    x_bar = np.asarray(x_bar, dtype=float)
    f_bar = p.objective(x_bar)
    lo, hi = f_bar + gap_floor(f_bar), f_bar + nu

    def in_level(X):
        fx = p.objective_rows(X)
        return (lo < fx) & (fx < hi), fx

    empty = f"no sample landed in the level-restricted ball after {max_draws} draws"
    return (*_draw_accepted(x_bar, eta, in_level, samples, rng, max_draws, empty), f_bar)


# ---------------------------------------------------------------------------
# the four probes


def _extremum(kind, cname, pts, num, den, largest: bool, oracle, exact=None, **geo):
    """The estimate at the row of the largest (or smallest) ratio num/den
    over the rows whose denominator is not below DENOM_CUTOFF, the first of
    equal ones, as a loop with a strict comparison picks it.  Its value is
    the stacked ratio there or, given the per-point ratio ``exact``, exact
    at that row, which must agree with the stacked one (:func:`cross_check`).
    Raises :class:`EmptyNeighborhoodError` when no finite ratio qualifies."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / den
    skip = -np.inf if largest else np.inf
    r[(den < DENOM_CUTOFF) | np.isnan(r)] = skip
    j = int(r.argmax() if largest else r.argmin())
    if r[j] == skip:
        raise EmptyNeighborhoodError(f"{kind} probe: every accepted sample fell below the denominator cutoff")
    value = r[j] if exact is None else exact(pts[j])
    cross_check(r[j], value, f"{kind} ratio at the extremal sample")
    return ErrorBoundEstimate(kind, cname, float(value), len(pts), oracle, pts[j].copy(), **geo)


def probe_ls_eb(
    p: ProblemInstance, x_bar, eta: float, nu: float, samples: int, rng,
) -> ErrorBoundEstimate:
    """c0 = max over samples of dist(x, {F <= F_bar}) / dist(0, dF(x)).

    The sublevel set is taken as the singleton {x_bar}, which is exact for
    strongly convex instances probed at their minimizer.  The ratios are
    evaluated on the stacked sample; the reported value is the per-point
    ratio at the extremal sample (``p.min_subgradient_norm``), which must
    agree with the stacked one (:func:`cross_check`).
    """
    pts, _, _ = sample_level_ball(p, x_bar, eta, nu, samples, rng)
    x_bar = np.asarray(x_bar, dtype=float)
    num = _rows(lambda X: np.linalg.norm(X - x_bar, axis=1), pts)
    den = _rows(p.min_subgradient_norm_rows, pts)
    exact = lambda x: float(np.linalg.norm(x - x_bar)) / p.min_subgradient_norm(x)
    return _extremum("ls-eb", "c0", pts, num, den, True, "singleton(x_bar)", exact, eta=eta, nu=nu)


def probe_kl(p: ProblemInstance, x_bar, eta: float, nu: float, samples: int, rng) -> ErrorBoundEstimate:
    """c2 = min over samples of dist(0, dF(x)) / sqrt(F(x) - F_bar), on the
    stacked sample."""
    pts, vals, f_bar = sample_level_ball(p, x_bar, eta, nu, samples, rng)
    num = _rows(p.min_subgradient_norm_rows, pts)
    return _extremum("kl", "c2", pts, num, np.sqrt(vals - f_bar), False, "level-gap", eta=eta, nu=nu)


def probe_bp_eb(
    p: ProblemInstance, q: float, eps: float, x_bar,
    eta: float, nu: float, samples: int, rng,
) -> ErrorBoundEstimate:
    """c1 = max over samples of ||x - x_bar|| / ||x - T(x)||, on the stacked
    sample: the critical set is taken as the singleton {x_bar}."""
    pts, _, _ = sample_level_ball(p, x_bar, eta, nu, samples, rng)
    x_bar = np.asarray(x_bar, dtype=float)
    num = _rows(lambda X: np.linalg.norm(X - x_bar, axis=1), pts)
    den = _rows(lambda X: np.linalg.norm(X - full_prox_rows(p, q, eps, X), axis=1), pts)
    return _extremum("bp-eb", "c1", pts, num, den, True, "critical-set", eta=eta, nu=nu)


def check_lt_eb_step(p: ProblemInstance, eps: float) -> None:
    """Raise ValueError unless lt-eb's unit-weight prox can take step eps,
    i.e. 1/eps > rho_max; a schedule's bound eps < q/rho_max gives that
    only for q <= 1."""
    if not 1.0 / eps > p.rho_max:
        raise ValueError(f"lt-eb needs 1/eps > rho_max for its unit-weight prox, "
                         f"but eps = {eps} and rho_max = {p.rho_max}")


def probe_lt_eb(
    p: ProblemInstance, eps: float, level: float, radius: float,
    samples: int, rng, *, center, max_draws: int = 10**6,
) -> ErrorBoundEstimate:
    """c3 = max ||x - center|| / ||x - T_e(x)|| over points with
    F(x) <= level and ||x - T_e(x)|| <= radius, where T_e is the euclidean
    (unit-weight) prox map at step eps: the critical set is taken as the
    singleton {center}.  The probe-eb flow passes level F_bar + nu and
    radius eta.

    The global condition is sampled from the ball of ``radius`` about
    ``center`` by :func:`_draw_accepted`; the reported value is the
    per-point ratio at the extremal sample, which must agree with the
    stacked one (:func:`cross_check`).  A step the unit-weight prox cannot
    take (:func:`check_lt_eb_step`) raises ValueError before any draw.
    """
    check_lt_eb_step(p, eps)
    center = np.asarray(center, dtype=float)

    def in_reach(X):  # negated: only a value known to exceed its cutoff rejects, so NaN passes
        res = np.linalg.norm(X - full_prox_rows(p, 1.0, eps, X), axis=1)
        return ~(p.objective_rows(X) > level) & ~(res > radius), res

    empty = f"lt-eb probe: no sample met the level/residual conditions after {max_draws} draws"
    pts, res = _draw_accepted(center, radius, in_reach, samples, rng, max_draws, empty)
    num = _rows(lambda X: np.linalg.norm(X - center, axis=1), pts)
    exact = lambda x: (float(np.linalg.norm(x - center))
                       / float(np.linalg.norm(x - full_prox(p, 1.0, eps, x))))
    return _extremum("lt-eb", "c3", pts, num, res, True, "critical-set", exact, level=level, radius=radius)
