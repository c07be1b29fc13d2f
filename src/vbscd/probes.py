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

from .bregman import BregmanGenerator
from .csvout import fmt, write_csv
from .model import ProblemInstance, chunk_rows
from .prox import full_prox, full_prox_rows
from .solver import OracleMismatch, sample_in_ball

DENOM_CUTOFF = 1e-12
_DRAW_BATCH = 256  # proposals tested per objective_rows call


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


def sample_level_ball(
    p: ProblemInstance, x_bar, eta: float, nu: float, samples: int, rng,
    max_draws: int = 10**6,
):
    """Accepted points from B(x_bar; eta, nu), as the rows of an
    (accepted, n) array, with their objective values and F(x_bar).

    Draws uniformly from the ball until ``samples`` points are accepted or
    ``max_draws`` proposals are spent; raises
    :class:`EmptyNeighborhoodError` if nothing is accepted at all.  Each
    proposal is drawn by ``sample_in_ball``; they are tested with
    ``objective_rows`` in batches of at most ``_DRAW_BATCH`` that never hold
    more proposals than could still be accepted, so the rng stream and the
    draw count equal those of testing each proposal as it is drawn.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    f_bar = p.objective(x_bar)
    lo, hi = f_bar + gap_floor(f_bar), f_bar + nu
    # filled in order and grown by doubling; never past ``samples`` rows
    pts = np.empty((min(samples, max_draws, 8 * _DRAW_BATCH), x_bar.size))
    vals = np.empty(len(pts))
    accepted = draws = 0
    while accepted < samples and draws < max_draws:
        size = min(samples - accepted, max_draws - draws, _DRAW_BATCH)
        batch = np.array([sample_in_ball(x_bar, eta, rng) for _ in range(size)])
        draws += size
        fx = p.objective_rows(batch)
        keep = (lo < fx) & (fx < hi)
        stop = accepted + int(np.count_nonzero(keep))
        if stop > len(pts):
            rows = min(max(2 * len(pts), stop), samples)
            pts.resize((rows, x_bar.size), refcheck=False)
            vals.resize(rows, refcheck=False)
        pts[accepted:stop] = batch[keep]
        vals[accepted:stop] = fx[keep]
        accepted = stop
    if not accepted:
        raise EmptyNeighborhoodError(
            f"no sample landed in the level-restricted ball after {max_draws} draws"
        )
    pts.resize((accepted, x_bar.size), refcheck=False)
    vals.resize(accepted, refcheck=False)
    return pts, vals, f_bar


# ---------------------------------------------------------------------------
# the four probes


def _finish(kind, cname, best_val, best_pt, count, oracle, **geo):
    if best_pt is None:
        raise EmptyNeighborhoodError(
            f"{kind} probe: every accepted sample fell below the denominator cutoff"
        )
    return ErrorBoundEstimate(
        kind=kind, constant_name=cname, value=float(best_val), samples=count,
        oracle=oracle, extremal_point=best_pt, **geo,
    )


def _first_extremum(num, den, largest: bool):
    """Row of the largest (or smallest) ratio num/den over the rows whose
    denominator is not below DENOM_CUTOFF, the first of equal ones, as a
    loop with a strict comparison picks it; None when no finite ratio
    qualifies."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / den
    skip = -np.inf if largest else np.inf
    r[(den < DENOM_CUTOFF) | np.isnan(r)] = skip
    j = int(r.argmax() if largest else r.argmin())
    return None if r[j] == skip else j


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
    j = _first_extremum(num, den, largest=True)
    best = best_pt = None
    if j is not None:
        best_pt = pts[j].copy()
        best = float(np.linalg.norm(best_pt - x_bar)) / p.min_subgradient_norm(best_pt)
        cross_check(num[j] / den[j], best, "ls-eb ratio at the extremal sample")
    return _finish("ls-eb", "c0", best, best_pt, len(pts), "singleton(x_bar)", eta=eta, nu=nu)


def probe_kl(p: ProblemInstance, x_bar, eta: float, nu: float, samples: int, rng) -> ErrorBoundEstimate:
    """c2 = min over samples of dist(0, dF(x)) / sqrt(F(x) - F_bar), on the
    stacked sample."""
    pts, vals, f_bar = sample_level_ball(p, x_bar, eta, nu, samples, rng)
    num = _rows(p.min_subgradient_norm_rows, pts)
    den = np.sqrt(vals - f_bar)
    j = _first_extremum(num, den, largest=False)
    best, best_pt = (None, None) if j is None else (num[j] / den[j], pts[j].copy())
    return _finish("kl", "c2", best, best_pt, len(pts), "level-gap", eta=eta, nu=nu)


def probe_bp_eb(
    p: ProblemInstance, gen: BregmanGenerator, eps: float, x_bar,
    eta: float, nu: float, samples: int, rng,
) -> ErrorBoundEstimate:
    """c1 = max over samples of ||x - x_bar|| / ||x - T(x)||, on the stacked
    sample: the critical set is taken as the singleton {x_bar}."""
    pts, _, _ = sample_level_ball(p, x_bar, eta, nu, samples, rng)
    x_bar = np.asarray(x_bar, dtype=float)
    num = _rows(lambda X: np.linalg.norm(X - x_bar, axis=1), pts)
    den = _rows(lambda X: np.linalg.norm(X - full_prox_rows(p, gen, eps, X), axis=1), pts)
    j = _first_extremum(num, den, largest=True)
    best, best_pt = (None, None) if j is None else (num[j] / den[j], pts[j].copy())
    return _finish("bp-eb", "c1", best, best_pt, len(pts), "critical-set", eta=eta, nu=nu)


def probe_lt_eb(
    p: ProblemInstance, eps: float, level: float, radius: float,
    samples: int, rng, *, center, sample_radius: float | None = None,
    max_draws: int = 10**6,
) -> ErrorBoundEstimate:
    """c3 = max ||x - center|| / ||x - T_e(x)|| over points with
    F(x) <= level and ||x - T_e(x)|| <= radius, where T_e is the euclidean
    (unit-weight) prox map at step eps: the critical set is taken as the
    singleton {center}.

    The global condition is sampled from a ball around ``center`` of radius
    ``sample_radius`` (default: ``radius``).
    """
    center = np.asarray(center, dtype=float)
    gen = BregmanGenerator.uniform(p.n, 1.0)
    r_sample = radius if sample_radius is None else sample_radius
    best, best_pt, accepted = -np.inf, None, 0
    draws = 0
    while accepted < samples and draws < max_draws:
        x = sample_in_ball(center, r_sample, rng)
        draws += 1
        if p.objective(x) > level:
            continue
        denom = float(np.linalg.norm(x - full_prox(p, gen, eps, x)))
        if denom > radius:
            continue
        accepted += 1
        if denom < DENOM_CUTOFF:
            continue
        ratio = float(np.linalg.norm(x - center)) / denom
        if ratio > best:
            best, best_pt = ratio, x
    if accepted == 0:
        raise EmptyNeighborhoodError(
            f"lt-eb probe: no sample met the level/residual conditions after {max_draws} draws"
        )
    return _finish(
        "lt-eb", "c3", best, best_pt, accepted, "critical-set",
        level=level, radius=radius,
    )
