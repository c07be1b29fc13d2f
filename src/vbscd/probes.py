"""Monte-Carlo probes for local error-bound constants.

All probes sample a level-restricted ball

    B(x_bar; eta, nu) = { x : ||x - x_bar|| <= eta,  F_bar < F(x) < F_bar + nu }

by rejection and report an extremal ratio over the accepted points.  Strict
level membership is enforced with a floating-point margin of
1e2 * eps_machine * (1 + |F_bar|): points closer to the reference value than
that are critical up to precision and excluded, as are ratios whose
denominator falls below 1e-12.  Probed constants are empirical estimates;
consumers are expected to inflate them before use.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bregman import BregmanGenerator
from .csvout import fmt, write_csv
from .model import ProblemInstance, UnsupportedInstanceError, row_chunks
from .prox import full_prox, full_prox_rows
from .solver import sample_in_ball

DENOM_CUTOFF = 1e-12
_DRAW_BATCH = 256  # proposals tested per objective_rows call


class EmptyNeighborhoodError(RuntimeError):
    """No sample satisfied the neighborhood conditions within the draw budget."""


class OracleMismatch(RuntimeError):
    """A stacked evaluation disagrees with its per-point oracle."""


def cross_check(stacked: float, exact: float, what: str) -> None:
    """Raise :class:`OracleMismatch` unless |stacked - exact| <= 1e-12 (1 + |exact|)."""
    if not abs(stacked - exact) <= 1e-12 * (1.0 + abs(exact)):
        raise OracleMismatch(f"{what}: stacked {stacked!r}, per point {exact!r}")


def level_margin(f_bar: float) -> float:
    return 1e2 * np.finfo(float).eps * (1.0 + abs(f_bar))


def _rows(fn, X) -> np.ndarray:
    """fn applied to a (k, n) stack in row chunks of bounded size, joined."""
    return np.concatenate([fn(X[sl]) for sl in row_chunks(len(X), X.shape[1])])


@dataclass
class ErrorBoundEstimate:
    kind: str           # ls-eb | kl | bp-eb | lt-eb
    constant_name: str  # c0 | c1 | c2 | c3
    value: float
    samples: int        # accepted sample count
    center: np.ndarray
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
    lo, hi = f_bar + level_margin(f_bar), f_bar + nu
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
# sublevel-set distance oracles


def _grid_distance(p, x, f_bar, lo, hi, cell) -> float:
    n = p.n
    if n > 2:
        raise UnsupportedInstanceError("grid oracle is limited to n <= 2")
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,))
    axes = [lo[j] + cell * np.arange(int(round((hi[j] - lo[j]) / cell)) + 1) for j in range(n)]
    tol = 1e-9 * (1.0 + abs(f_bar))
    best = np.inf
    if n == 1:
        Z = axes[0][:, None]
        vals = p.objective_rows(Z)
        hit = vals <= f_bar + tol
        if np.any(hit):
            best = float(np.min(np.abs(axes[0][hit] - x[0])))
    else:
        # chunk the row axis to keep memory flat
        ys = axes[1]
        for start in range(0, axes[0].size, 256):
            xs = axes[0][start : start + 256]
            Z = np.stack(
                [np.repeat(xs, ys.size), np.tile(ys, xs.size)], axis=1
            )
            vals = p.objective_rows(Z)
            hit = vals <= f_bar + tol
            if np.any(hit):
                d = np.linalg.norm(Z[hit] - x, axis=1)
                best = min(best, float(d.min()))
    if not np.isfinite(best):
        raise UnsupportedInstanceError("grid oracle found no point at or below the level")
    return best


def _separable_pieces(p: ProblemInstance):
    """Per-coordinate quadratic smooth pieces (G_jj, c_j) plus the constant,
    available when the gram matrix is diagonal; otherwise unsupported."""
    smooth = p.smooth
    if smooth.kind != "quadratic-least-squares":
        raise UnsupportedInstanceError("projection-1d oracle needs a least-squares smooth term")
    G = smooth.A.T @ smooth.A
    if np.any(np.abs(G - np.diag(np.diag(G))) > 0):
        raise UnsupportedInstanceError("projection-1d oracle needs a diagonal gram matrix")
    if any(r.rho != 0.0 for r in p.regularizers):
        raise UnsupportedInstanceError("projection-1d oracle needs convex penalties")
    diag = np.diag(G)
    c = smooth.A.T @ smooth.b
    const = 0.5 * float(smooth.b @ smooth.b)
    return diag, c, const


def _projection_distance(p, x, f_bar, bisect_steps: int = 200) -> float:
    """Exact distance to the sublevel set of a separable convex objective.

    Lagrangian scheme: for mu >= 0 the projection candidate minimizes
    0.5(t - x_j)^2 + mu * F_j(t) per coordinate, which reduces to each
    penalty's own prox with weight (1 + mu G_jj)/mu; the multiplier is then
    bisected on F(z(mu)) = F_bar.
    """
    diag, c, _ = _separable_pieces(p)

    def z_of(mu: float) -> np.ndarray:
        w = (1.0 + mu * diag) / mu
        v = (x + mu * c) / (1.0 + mu * diag)
        z = np.empty(p.n)
        for reg, sl in p.penalty_groups:
            z[sl] = reg.prox(v[sl], w[sl])
        return z

    fx = p.objective(x)
    if fx <= f_bar + level_margin(f_bar):
        return 0.0
    mu_hi = 1.0
    for _ in range(80):
        if p.objective(z_of(mu_hi)) <= f_bar:
            break
        mu_hi *= 2.0
    else:
        raise UnsupportedInstanceError("reference level lies below the objective's infimum")
    mu_lo = 0.0
    z_feas = z_of(mu_hi)
    for _ in range(bisect_steps):
        mid = 0.5 * (mu_lo + mu_hi)
        if mid in (mu_lo, mu_hi):
            break
        z = z_of(mid)
        if p.objective(z) <= f_bar:
            mu_hi, z_feas = mid, z
        else:
            mu_lo = mid
    return float(np.linalg.norm(x - z_feas))


def sublevel_distance(
    p: ProblemInstance, x, f_bar: float, oracle: str = "known-singleton",
    lo=None, hi=None, cell: float = 1e-3,
) -> float:
    """dist(x, {F <= f_bar}) through one of three oracles.

    known-singleton: strongly convex instance with f_bar = F*, so the
    sublevel set is exactly {x*}.  grid: brute force on a cell grid
    (n <= 2); box defaults to the known optimum (or x) +- 5.
    projection-1d: separable convex objectives, multiplier bisection.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({p.n},)")
    if oracle == "known-singleton":
        if p.known_optimum is None:
            raise UnsupportedInstanceError("known-singleton oracle needs a known optimum")
        return float(np.linalg.norm(x - p.known_optimum[0]))
    if oracle == "grid":
        center = p.known_optimum[0] if p.known_optimum is not None else x
        lo = center - 5.0 if lo is None else lo
        hi = center + 5.0 if hi is None else hi
        return _grid_distance(p, x, f_bar, lo, hi, cell)
    if oracle == "projection-1d":
        return _projection_distance(p, x, f_bar)
    raise ValueError(f"unknown sublevel oracle {oracle!r}")


def singleton_distance(x_star) -> "callable":
    """Critical-set distance oracle for a singleton set {x_star}."""
    x_star = np.asarray(x_star, dtype=float)
    return lambda x: float(np.linalg.norm(np.asarray(x, dtype=float) - x_star))


# ---------------------------------------------------------------------------
# the four probes


def _finish(kind, cname, best_val, best_pt, count, center, oracle, **geo):
    if best_pt is None:
        raise EmptyNeighborhoodError(
            f"{kind} probe: every accepted sample fell below the denominator cutoff"
        )
    return ErrorBoundEstimate(
        kind=kind, constant_name=cname, value=float(best_val), samples=count,
        center=np.asarray(center, dtype=float), oracle=oracle,
        extremal_point=best_pt, **geo,
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
    sublevel_oracle=None,
) -> ErrorBoundEstimate:
    """c0 = max over samples of dist(x, {F <= F_bar}) / dist(0, dF(x)).

    ``sublevel_oracle`` may be a callable x -> distance; the default treats
    the sublevel set as the singleton {x_bar}, which is exact for strongly
    convex instances probed at their minimizer.  The ratios are evaluated
    on the stacked sample; the reported value is the per-point ratio at the
    extremal sample (``p.min_subgradient_norm``), which must agree with the
    stacked one (:func:`cross_check`).
    """
    pts, _, _ = sample_level_ball(p, x_bar, eta, nu, samples, rng)
    if sublevel_oracle is None:
        dist, label = singleton_distance(x_bar), "singleton(x_bar)"
        x_bar = np.asarray(x_bar, dtype=float)
        num = _rows(lambda X: np.linalg.norm(X - x_bar, axis=1), pts)
    else:
        dist, label = sublevel_oracle, "caller-supplied"
        num = np.array([dist(x) for x in pts], dtype=float)
    den = _rows(p.min_subgradient_norm_rows, pts)
    j = _first_extremum(num, den, largest=True)
    best = best_pt = None
    if j is not None:
        best_pt = pts[j].copy()
        best = dist(best_pt) / p.min_subgradient_norm(best_pt)
        cross_check(num[j] / den[j], best, "ls-eb ratio at the extremal sample")
    return _finish("ls-eb", "c0", best, best_pt, len(pts), x_bar, label, eta=eta, nu=nu)


def probe_kl(p: ProblemInstance, x_bar, eta: float, nu: float, samples: int, rng) -> ErrorBoundEstimate:
    """c2 = min over samples of dist(0, dF(x)) / sqrt(F(x) - F_bar), on the
    stacked sample."""
    pts, vals, f_bar = sample_level_ball(p, x_bar, eta, nu, samples, rng)
    num = _rows(p.min_subgradient_norm_rows, pts)
    den = np.sqrt(vals - f_bar)
    j = _first_extremum(num, den, largest=False)
    best, best_pt = (None, None) if j is None else (num[j] / den[j], pts[j].copy())
    return _finish("kl", "c2", best, best_pt, len(pts), x_bar, "level-gap", eta=eta, nu=nu)


def probe_bp_eb(
    p: ProblemInstance, gen: BregmanGenerator, eps: float, x_bar,
    eta: float, nu: float, critical_dist, samples: int, rng,
) -> ErrorBoundEstimate:
    """c1 = max over samples of dist(x, critical set) / ||x - T(x)||, with
    T on the stacked sample."""
    pts, _, _ = sample_level_ball(p, x_bar, eta, nu, samples, rng)
    num = np.array([critical_dist(x) for x in pts], dtype=float)
    den = _rows(lambda X: np.linalg.norm(X - full_prox_rows(p, gen, eps, X), axis=1), pts)
    j = _first_extremum(num, den, largest=True)
    best, best_pt = (None, None) if j is None else (num[j] / den[j], pts[j].copy())
    return _finish("bp-eb", "c1", best, best_pt, len(pts), x_bar, "critical-set", eta=eta, nu=nu)


def probe_lt_eb(
    p: ProblemInstance, eps: float, level: float, radius: float, critical_dist,
    samples: int, rng, *, center, sample_radius: float | None = None,
    max_draws: int = 10**6,
) -> ErrorBoundEstimate:
    """c3 = max dist(x, critical set) / ||x - T_e(x)|| over points with
    F(x) <= level and ||x - T_e(x)|| <= radius, where T_e is the euclidean
    (unit-weight) prox map at step eps.

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
        ratio = critical_dist(x) / denom
        if ratio > best:
            best, best_pt = ratio, x
    if accepted == 0:
        raise EmptyNeighborhoodError(
            f"lt-eb probe: no sample met the level/residual conditions after {max_draws} draws"
        )
    return _finish(
        "lt-eb", "c3", best, best_pt, accepted, center, "critical-set",
        level=level, radius=radius,
    )
