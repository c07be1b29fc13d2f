"""Problem data: smooth losses, block partitions, separable semi-convex penalties.

A composite objective F = f + g is described by a :class:`ProblemInstance`:
``f`` is a smooth term with an explicit gradient Lipschitz constant, and
``g`` splits over a :class:`BlockPartition` into per-block penalties that are
themselves separable per coordinate.  Every penalty g_i is semi-convex, i.e.
g_i + (rho/2)|.|^2 is convex for the modulus ``rho`` it reports.

The instance holds g as ``penalty_groups``, a tuple of ``(regularizer,
slice)`` pairs: contiguous blocks with the same penalty (one object, or one
class with equal scalar parameters) share a slice, so g, its subdifferential
box and the full prox cost one numpy call per group.  ``objective_rows(X)``
evaluates F on each row of a stack of points (the N one-block targets, a grid).

Smooth terms also expose a state protocol (``state``, ``state_value``,
``block_grad``, ``move``, and their row forms; see :class:`SmoothTerm`)
through which the solver follows f one block at a time.  Least squares and
logistic regression are both a loss of the residual A x - b
(:class:`AffineLoss`), which writes that protocol once for both.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


# Row-wise evaluations over stacks of points run in chunks whose largest
# stacked temporary holds about this many doubles, so their memory does not
# grow with the number of points.  At 64 KB a temporary stays below the
# allocator's usual 128 KB threshold for fresh mappings and reuses freed heap
# memory (on rate-lasso50-audit, peak RSS +0.3 MB here; +1.6 MB at 2^15).
STACK_DOUBLES = 1 << 13


def chunk_rows(row_doubles: int) -> int:
    """Rows per chunk when each row takes ``row_doubles`` doubles of a stacked
    temporary: STACK_DOUBLES // row_doubles, and at least one."""
    return max(1, STACK_DOUBLES // max(1, row_doubles))


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous partition of coordinates 0..n-1 into blocks.

    ``sizes[i]`` is the width of block i; offsets are the running prefix sums.
    ``block_of[j]`` is the block holding coordinate j, a read-only (n,) int
    array computed once and left out of comparisons.
    """

    sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False)
    block_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) == 0:
            raise ValueError("partition needs at least one block")
        if any(s < 1 for s in sizes):
            raise ValueError("block sizes must be >= 1")
        object.__setattr__(self, "sizes", sizes)
        offs = np.concatenate(([0], np.cumsum(sizes)))
        object.__setattr__(self, "offsets", tuple(int(o) for o in offs))
        block_of = np.repeat(np.arange(len(sizes)), sizes)
        block_of.flags.writeable = False  # one array serves every caller
        object.__setattr__(self, "block_of", block_of)

    @property
    def n(self) -> int:
        return self.offsets[-1]

    @property
    def n_blocks(self) -> int:
        return len(self.sizes)

    def block_slice(self, i: int) -> slice:
        if not 0 <= i < self.n_blocks:
            raise IndexError(f"block index {i} out of range [0, {self.n_blocks})")
        return slice(self.offsets[i], self.offsets[i + 1])

    @staticmethod
    def even(n: int, n_blocks: int) -> "BlockPartition":
        """Split n coordinates into n_blocks near-even contiguous blocks."""
        if n_blocks < 1:
            raise ValueError("need at least one block")
        if n < n_blocks:
            raise ValueError("need at least one coordinate per block")
        base, extra = divmod(n, n_blocks)
        return BlockPartition(tuple(base + (1 if i < extra else 0) for i in range(n_blocks)))


# ---------------------------------------------------------------------------
# smooth terms


def certified_bound(G: np.ndarray, candidate: float | None = None) -> float:
    """An L proven to satisfy lambda_max(G) <= L, for a finite symmetric G
    with a nonnegative diagonal (a gram matrix).

    The candidate defaults to 1.01 times the largest eigenvalue from the
    dense eigensolver ``eigvalsh``; a caller that knows the spectrum by
    construction passes its own and skips the eigensolver.  The proof is
    one Cholesky factorization of the rounded M = (L - delta) I - G.  If it
    runs to completion, M + E is positive definite for a backward error
    with ||E||_2 <= gamma_{n+1} / (1 - gamma_{n+1}) tr(M) <= 2 (n + 2) u n
    L, u the unit roundoff (Rump, *Verification of positive definiteness*,
    BIT 46 (2006)); rounding M's diagonal adds at most 4 u (L + max G_ii),
    and a last term covers underflow.  delta is their sum, so lambda_max(G) <= L.  G = 0 gives L = 0
    (or the candidate) without a factorization.  Raises ValueError when the
    candidate is negative, not finite, or not certified.

    M is formed in G's own storage, and G is restored bit for bit before the
    call returns or raises, so no copy of G is made.  G must therefore be
    writable: a read-only G is refused with ValueError before any write.
    """
    if not G.flags.writeable:
        raise ValueError("certified_bound factorizes the gram G in place: G must be writable")
    L = 1.01 * float(np.linalg.eigvalsh(G)[-1]) if candidate is None else float(candidate)
    if not (np.isfinite(L) and L >= 0.0):
        raise ValueError(f"Lipschitz candidate {L!r} must be finite and >= 0")
    if not np.any(G):
        return L
    n = G.shape[0]
    u = np.finfo(float).eps / 2
    diag = np.diagonal(G).copy()
    delta = (2 * (n + 2) * u * n * L + 4 * u * (L + float(np.max(diag)))
             + 4 * (n + 2) ** 2 * np.finfo(float).smallest_subnormal)
    # M = (L - delta) I - G is formed in G's own storage; negation is exact,
    # so negating back and writing the saved diagonal restores G bit for bit
    np.negative(G, out=G)
    try:
        G[np.diag_indices(n)] += L - delta
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"L = {L!r} is not certified: lambda_max of the {n}x{n} gram may exceed it"
        ) from None
    finally:
        np.negative(G, out=G)
        G[np.diag_indices(n)] = diag
    return L


def _matrix_and_vector(A, v, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A as a float matrix and v as a float vector with one entry per row of A."""
    A, v = np.asarray(A, dtype=float), np.asarray(v, dtype=float)
    if A.ndim != 2 or v.ndim != 1 or A.shape[0] != v.shape[0]:
        raise ValueError(f"shape mismatch: A {A.shape}, {name} {v.shape}")
    return A, v


class SmoothTerm:
    """Smooth part f of the objective on R^n; subclasses fill
    value/grad/lipschitz and the dimension ``n``, which
    :class:`ProblemInstance` checks against its partition.

    The solver moves one block per step and reads f through a small state
    protocol: ``state(x)`` builds what f is computed from, ``state_value(s)``
    and ``block_grad(s, sl)`` give f and the gradient on the coordinates
    ``sl``, and ``move(s, sl, old, new)`` updates s in place after block
    ``sl`` of x went from ``old`` to ``new``.  The defaults keep a copy of x
    and call value/grad on it, which is the exact full-vector path;
    :class:`AffineLoss` keeps the residual A x - b instead.

    The row forms serve the lockstep solver, which advances a (k, n) stack
    of points at once: ``state_rows(X)`` and ``state_value_rows(S)`` act on
    the rows of X and of the state stack S; ``block_grad_rows(S, rows,
    cols)`` and ``move_rows(S, rows, cols, old, new)`` take for each j the
    j-th state of S[rows] (``rows`` an index array or a slice) and the
    coordinates cols[j] (a (k, b) index array) and do what ``block_grad``
    and ``move`` do on that one state.  The defaults loop over the
    one-state methods; :class:`AffineLoss` vectorizes them.
    """

    lipschitz: float
    n: int

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_rows(self, X: np.ndarray) -> np.ndarray:
        """f on each row of X; subclasses with a matrix form vectorize it."""
        return np.array([self.value(row) for row in X], dtype=float)

    def grad_rows(self, X: np.ndarray) -> np.ndarray:
        """grad f on each row of X, as the rows of an array of X's shape;
        subclasses with a matrix form vectorize it."""
        return np.array([self.grad(row) for row in X], dtype=float).reshape(np.shape(X))

    def state(self, x: np.ndarray) -> np.ndarray:
        return np.array(x, dtype=float)

    def state_value(self, s: np.ndarray) -> float:
        return self.value(s)

    def block_grad(self, s: np.ndarray, sl: slice) -> np.ndarray:
        return self.grad(s)[sl]

    def move(self, s: np.ndarray, sl: slice, old: np.ndarray, new: np.ndarray) -> None:
        s[sl] = new

    def state_rows(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.state(x) for x in X], dtype=float)

    def state_value_rows(self, S: np.ndarray) -> np.ndarray:
        return np.array([self.state_value(s) for s in S], dtype=float)

    def block_grad_rows(self, S: np.ndarray, rows, cols: np.ndarray) -> np.ndarray:
        return np.array([self.block_grad(S[r], c) for r, c in zip(np.arange(len(S))[rows], cols)],
                        dtype=float)

    def move_rows(self, S: np.ndarray, rows, cols: np.ndarray,
                  old: np.ndarray, new: np.ndarray) -> None:
        for r, c, o, v in zip(np.arange(len(S))[rows], cols, old, new):
            self.move(S[r], c, o, v)


class AffineLoss(SmoothTerm):
    """f(x) = loss(A x - b), with b None standing for 0.

    The solver state is the residual z = A x - b, which a block move updates
    in place (Richtarik & Takac, Math. Prog. 144 (2014)), so a step costs
    O(rows * block width).  A subclass gives the loss of z,
    ``state_value(z)`` and ``state_value_rows(Z)``, and its elementwise
    derivative ``dloss(z)``; the protocol is written here once, with block
    gradients A[:, sl]^T dloss(z) and grad f(x) = dloss(z) A.
    """

    def _set_data(self, A: np.ndarray, b: np.ndarray | None = None):
        """Keep A and b and return A^T A and A^T b (None without b); raises
        ValueError when A or b is not finite or a product overflows."""
        for name, a in (("the matrix A", A), ("the vector b", b)):
            if a is not None and not np.all(np.isfinite(a)):
                raise ValueError(f"{name} has a non-finite entry (nan or inf)")
        self.A, self.b, self.n = A, b, A.shape[1]
        with np.errstate(over="ignore"):  # checked just below
            gram, atb = A.T @ A, (None if b is None else A.T @ b)
        if not (np.all(np.isfinite(gram)) and (b is None or np.all(np.isfinite(atb)))):
            products = "A^T A" if b is None else "A^T A or A^T b"
            raise ValueError(f"{products} overflows: the data are too large to square")
        return gram, atb

    def _shift(self, Z):
        return Z if self.b is None else Z - self.b

    def value(self, x):
        return self.state_value(self.state(x))

    def value_rows(self, X):
        return self.state_value_rows(self.state_rows(X))

    def grad(self, x):
        return self.dloss(self.state(x)) @ self.A

    def grad_rows(self, X):
        return self.dloss(self.state_rows(X)) @ self.A

    def state(self, x):
        return self._shift(self.A @ x)

    def state_rows(self, X):
        return self._shift(X @ self.A.T)

    def block_grad(self, s, sl):
        # column views of A, never a copy
        return self.A[:, sl].T @ self.dloss(s)

    def move(self, s, sl, old, new):
        s += self.A[:, sl] @ (new - old)

    def block_grad_rows(self, S, rows, cols):
        # A.T[cols] is (k, b, m): the columns of A in each row's block
        return np.einsum("kbm,km->kb", self.A.T[cols], self.dloss(S[rows]))

    def move_rows(self, S, rows, cols, old, new):
        S[rows] += np.einsum("kbm,kb->km", self.A.T[cols], new - old)


class QuadraticLeastSquares(AffineLoss):
    """f(x) = 0.5 ||A x - b||^2 with a certified L >= lambda_max(A^T A).

    L is ``lipschitz`` when given (a random design knows its spectrum),
    else 1.01 * lambda_max(A^T A) from the eigensolver; either way
    :func:`certified_bound` proves it for the computed gram G with one
    Cholesky factorization or raises ValueError.  The gradient is
    G x - A^T b.
    """

    def __init__(self, A, b, lipschitz: float | None = None):
        self._gram, self._atb = self._set_data(*_matrix_and_vector(A, b, "b"))
        self.lipschitz = certified_bound(self._gram, lipschitz)

    def grad(self, x):
        return self._gram @ x - self._atb

    def grad_rows(self, X):
        # the gram matrix is symmetric, so row j is (G x_j)^T
        return X @ self._gram - self._atb

    def state_value(self, s):
        return 0.5 * float(s @ s)

    def state_value_rows(self, S):
        return 0.5 * np.sum(S * S, axis=1)

    def dloss(self, z):
        return z


class LogisticLoss(AffineLoss):
    """f(x) = sum_i log(1 + exp(-y_i a_i^T x)), labels y in {-1, +1}: the
    residual is z = A x and the margins are y * z.  L = 1.01 *
    lambda_max(A^T A) / 4, certified as in :class:`QuadraticLeastSquares`.
    """

    def __init__(self, A, y):
        A, self.y = _matrix_and_vector(A, y, "y")
        if not np.all(np.isin(self.y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        self.lipschitz = certified_bound(self._set_data(A)[0]) / 4.0

    def state_value(self, s):
        return float(np.sum(np.logaddexp(0.0, -(self.y * s))))

    def state_value_rows(self, S):
        return np.sum(np.logaddexp(0.0, -(self.y * S)), axis=1)

    def dloss(self, z):
        # -y sigmoid(-y z), the sigmoid written via tanh for overflow safety
        return -(self.y * (0.5 * (1.0 - np.tanh(0.5 * (self.y * z)))))


class CustomSmooth(SmoothTerm):
    """Wrap user callables; the caller vouches for the Lipschitz constant."""

    def __init__(self, value_fn: Callable, grad_fn: Callable, lipschitz: float, n: int):
        if lipschitz < 0:
            raise ValueError("lipschitz must be >= 0")
        self._value = value_fn
        self._grad = grad_fn
        self.lipschitz = float(lipschitz)
        self.n = int(n)

    def value(self, x):
        return float(self._value(x))

    def grad(self, x):
        return np.asarray(self._grad(x), dtype=float)


# ---------------------------------------------------------------------------
# penalties (applied coordinatewise inside a block)


def as_weight(w):
    """A prox weight as the kernels take it: a float as it is (it compares
    to a bool), anything else as a float array."""
    return w if isinstance(w, float) else np.asarray(w, dtype=float)


class Regularizer:
    """Even scalar penalty phi(t) = psi(|t|), applied coordinatewise;
    semi-convex with modulus rho.

    A kind gives four pieces and the base derives the rest by symmetry:
    ``psi(u)`` is phi on u >= 0, ``dpsi(u)`` its slope for u > 0, ``kink``
    the half-width of the subdifferential [-kink, kink] at 0, and
    ``prox_abs(u, w)`` the prox on u = |v|, so that ``prox(v, w)`` =
    sign(v) * prox_abs(|v|, w) = argmin_t  phi(t) + (w/2)(t - v)^2.  The
    prox is only defined for w > rho (strongly convex subproblem, unique
    minimizer); ``prox.scalar_prox`` and ``prox.block_target`` check that
    bound once per call and ``prox`` itself does not check it again.  A
    penalty that is not even overrides ``value``, ``subdiff`` and ``prox``
    instead; ``prox_value`` then follows from ``prox`` and ``value``.
    """

    kind = "custom"
    rho: float = 0.0
    kink: float = 0.0

    def value(self, t):
        return self.psi(np.abs(np.asarray(t, dtype=float)))

    def subdiff(self, t):
        """Per-coordinate subdifferential interval (lo, hi) at t."""
        t = np.asarray(t, dtype=float)
        d = np.sign(t) * self.dpsi(np.abs(t))
        return np.where(t == 0.0, -self.kink, d), np.where(t == 0.0, self.kink, d)

    def prox(self, v, w):
        v = np.asarray(v, dtype=float)
        return np.sign(v) * self.prox_abs(np.abs(v), as_weight(w))

    def prox_value(self, v, w):
        """The pair (prox(v, w), phi at it), elementwise; a kind whose prox
        already evaluates phi at its result returns that evaluation."""
        t = self.prox(v, w)
        return t, self.value(t)


def _weight(kind: str, lam) -> float:
    """``lam`` as a float when it is a finite weight >= 0, else ValueError."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"{kind} weight must be finite and >= 0, got {lam}")
    return float(lam)


class ZeroPenalty(Regularizer):
    # its own methods: np.sign(-0.0) is 0.0, so the symmetric prox would
    # not return an exact copy of v
    kind = "zero"

    def value(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def subdiff(self, t):
        z = np.zeros_like(np.asarray(t, dtype=float))
        return z, z.copy()

    def prox(self, v, w):
        return np.asarray(v, dtype=float).copy()


class L1Penalty(Regularizer):
    """phi(t) = lam * |t|; prox is soft thresholding at lam/w."""

    kind = "l1"

    def __init__(self, lam: float):
        self.lam = self.kink = _weight(self.kind, lam)

    def psi(self, u):
        return self.lam * u

    def dpsi(self, u):
        return self.lam

    def prox_abs(self, u, w):
        return np.maximum(u - self.lam / w, 0.0)


class SquaredL2Penalty(Regularizer):
    """phi(t) = (mu/2) t^2."""

    kind = "squared-l2"

    def __init__(self, mu: float):
        self.mu = _weight(self.kind, mu)

    def psi(self, u):
        return 0.5 * self.mu * np.square(u)

    def dpsi(self, u):
        return self.mu * u

    def prox_abs(self, u, w):
        return (w / (w + self.mu)) * u


def _candidates(k, u, w):
    """Empty (k, *shape) stack for the closed-form candidates of a prox, and
    its k planes as views (0-d arrays for scalar input, so out= works)."""
    cand = np.empty((k, *np.broadcast(u, w).shape))
    return cand, [cand[j, ...] for j in range(k)]


def _clip_into(out, lo, hi) -> None:
    """np.clip(out, lo, hi) in place; the bound comes first so that a tie
    keeps ``out`` (signed zeros and NaNs come out as np.clip gives them)."""
    np.maximum(lo, out, out=out)
    np.minimum(hi, out, out=out)


def _best_candidate(reg, cand, u, w):
    """Per coordinate, the index of the candidate with the least prox
    objective phi(t) + (w/2)(t - u)^2 (ties go to the earlier candidate),
    the candidates, and phi at each of them."""
    phi = reg.value(cand)
    return (phi + 0.5 * w * np.square(cand - u)).argmin(axis=0), cand, phi


class _CandidatePenalty(Regularizer):
    """An even penalty whose prox on u = |v| is the best of a few
    closed-form candidates: ``_prox_pass(u, w)`` is the kind's one kernel,
    returning what :func:`_best_candidate` returns.  Every candidate is
    >= 0 or NaN, so phi at the winner is phi at sign(v) * winner, and
    ``prox_value`` reads it off the pass bit for bit."""

    def prox_abs(self, u, w):
        best, cand, _ = self._prox_pass(u, w)
        return best.choose(cand)  # np.choose without its dispatch

    def prox_value(self, v, w):
        v = np.asarray(v, dtype=float)
        best, cand, phi = self._prox_pass(np.abs(v), as_weight(w))
        return np.sign(v) * best.choose(cand), best.choose(phi)


class ScadPenalty(_CandidatePenalty):
    """Smoothly clipped absolute deviation penalty.

    Three pieces (Fan & Li 2001): linear lam*|t| up to lam, a quadratic blend
    on (lam, a*lam], constant lam^2 (a+1)/2 beyond.  Semi-convex with
    rho = 1/(a-1); the prox stacks the per-piece stationary points clipped
    to their intervals, evaluates them in one pass and keeps the best, which
    is exact whenever w > rho makes the subproblem strongly convex.
    """

    kind = "scad"

    def __init__(self, lam: float, a: float = 3.7):
        self.lam = self.kink = _weight(self.kind, lam)
        if not 2 < a < np.inf:
            raise ValueError(f"scad shape parameter must be finite and > 2, got {a}")
        self.a = float(a)
        self.rho = 1.0 / (self.a - 1.0)

    def psi(self, u):
        lam, a = self.lam, self.a
        mid = (2 * a * lam * u - np.square(u) - lam**2) / (2 * (a - 1))
        return np.where(u <= lam, lam * u, np.where(u <= a * lam, mid, lam**2 * (a + 1) / 2))

    def dpsi(self, u):
        # continuous across the knots
        lam, a = self.lam, self.a
        return np.where(u <= lam, lam, np.where(u <= a * lam, (a * lam - u) / (a - 1), 0.0))

    def _prox_pass(self, u, w):
        lam, a = self.lam, self.a
        cand, (c1, c2, c3) = _candidates(3, u, w)
        np.subtract(u, lam / w, out=c1)
        _clip_into(c1, 0.0, lam)
        wa = w * (a - 1)
        np.divide(wa * u - a * lam, wa - 1.0, out=c2)
        _clip_into(c2, lam, a * lam)
        np.maximum(u, a * lam, out=c3)
        return _best_candidate(self, cand, u, w)


class McpPenalty(_CandidatePenalty):
    """Minimax concave penalty (Zhang 2010).

    phi(t) = lam|t| - t^2/(2 gamma) for |t| <= gamma*lam, constant beyond;
    semi-convex with rho = 1/gamma.  Prox by per-piece candidates evaluated
    in one stacked pass, exact for w > rho.
    """

    kind = "mcp"

    def __init__(self, lam: float, gamma: float):
        self.lam = self.kink = _weight(self.kind, lam)
        if not 1 < gamma < np.inf:
            raise ValueError(f"mcp shape parameter must be finite and > 1, got {gamma}")
        self.gamma = float(gamma)
        self.rho = 1.0 / self.gamma

    def psi(self, u):
        lam, g = self.lam, self.gamma
        return np.where(u <= g * lam, lam * u - np.square(u) / (2 * g), 0.5 * g * lam**2)

    def dpsi(self, u):
        lam, g = self.lam, self.gamma
        return np.where(u <= g * lam, lam - u / g, 0.0)

    def _prox_pass(self, u, w):
        lam, g = self.lam, self.gamma
        cand, (c1, c2) = _candidates(2, u, w)
        np.divide(g * (w * u - lam), g * w - 1.0, out=c1)
        _clip_into(c1, 0.0, g * lam)
        np.maximum(u, g * lam, out=c2)
        return _best_candidate(self, cand, u, w)


# penalty kind -> class; the constructor's signature lists its parameters
_REG_KINDS = {cls.kind: cls for cls in (ZeroPenalty, L1Penalty, SquaredL2Penalty, ScadPenalty, McpPenalty)}


def make_regularizer(kind: str, **params) -> Regularizer:
    if kind not in _REG_KINDS:
        raise ValueError(f"unknown penalty kind {kind!r}; expected one of {sorted(_REG_KINDS)}")
    try:
        inspect.signature(_REG_KINDS[kind]).bind(**params)
    except TypeError as e:  # a stray or a missing parameter, named by the message
        raise ValueError(f"penalty kind {kind!r}: {e}") from None
    return _REG_KINDS[kind](**params)


def same_penalty(a: Regularizer, b: Regularizer) -> bool:
    """Same object, or same class with equal scalar parameters.

    Parameters are compared only when every one is a plain scalar, so a
    penalty holding arrays never raises here and matches only itself.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    pa, pb = vars(a), vars(b)
    scalars = (bool, int, float, str, type(None))
    return all(isinstance(v, scalars) for v in (*pa.values(), *pb.values())) and pa == pb


# ---------------------------------------------------------------------------
# the composite instance


@dataclass(frozen=True)
class ProblemInstance:
    """Composite objective F = f + sum_i g_i over a contiguous block partition.

    ``known_optimum`` is an optional (point, value) pair for instances whose
    critical point is available analytically; it is validated on construction
    (subgradient residual at the point must be <= 1e-9).

    The block penalties are told apart once, by :func:`same_penalty`:
    ``penalties`` holds each distinct one (its first block's object, in
    block order) and ``penalty_of[i]`` is block i's index into it.
    """

    smooth: SmoothTerm
    partition: BlockPartition
    regularizers: tuple[Regularizer, ...]
    known_optimum: tuple[np.ndarray, float] | None = None
    penalties: tuple[Regularizer, ...] = field(init=False, repr=False, compare=False)
    penalty_of: tuple[int, ...] = field(init=False, repr=False, compare=False)
    penalty_groups: tuple[tuple[Regularizer, slice], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.smooth.n != self.partition.n:
            raise ValueError(
                f"smooth term has {self.smooth.n} coordinates, partition covers {self.partition.n}"
            )
        regs = tuple(self.regularizers)
        object.__setattr__(self, "regularizers", regs)
        if len(regs) != self.partition.n_blocks:
            raise ValueError(
                f"{len(regs)} penalties for {self.partition.n_blocks} blocks"
            )
        penalties: list[Regularizer] = []
        of: list[int] = []
        for reg in regs:
            j = next((j for j, seen in enumerate(penalties) if same_penalty(seen, reg)), len(penalties))
            if j == len(penalties):
                penalties.append(reg)
            of.append(j)
        # runs of equal indices are the groups
        edges = [0, *(i for i in range(1, len(of)) if of[i] != of[i - 1]), len(of)]
        offsets = self.partition.offsets
        groups = tuple((penalties[of[a]], slice(offsets[a], offsets[b])) for a, b in zip(edges, edges[1:]))
        object.__setattr__(self, "penalties", tuple(penalties))
        object.__setattr__(self, "penalty_of", tuple(of))
        object.__setattr__(self, "penalty_groups", groups)
        if self.known_optimum is not None:
            x_star, f_star = self.known_optimum
            x_star = np.asarray(x_star, dtype=float)
            object.__setattr__(self, "known_optimum", (x_star, float(f_star)))
            if x_star.shape != (self.n,):
                raise ValueError("known optimum has wrong dimension")
            res = self.min_subgradient_norm(x_star)
            if res > 1e-9:
                raise ValueError(f"claimed optimum is not critical (residual {res:.3e})")
            if abs(self.objective(x_star) - float(f_star)) > 1e-9 * (1.0 + abs(f_star)):
                raise ValueError("claimed optimal value does not match the objective")

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def n_blocks(self) -> int:
        return self.partition.n_blocks

    @property
    def rho_max(self) -> float:
        return max(r.rho for r in self.regularizers)

    def _check_dim(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.n},)")
        return x

    def penalty_value(self, x) -> float:
        x = self._check_dim(x)
        return float(sum(np.sum(reg.value(x[sl])) for reg, sl in self.penalty_groups))

    def _check_rows(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"rows have shape {X.shape}, expected (k, {self.n})")
        return X

    def penalty_rows(self, X) -> np.ndarray:
        """g on each row of a (k, n) stack of points."""
        X = self._check_rows(X)
        return sum(np.sum(reg.value(X[:, sl]), axis=1) for reg, sl in self.penalty_groups)

    def objective(self, x) -> float:
        """F(x) = f(x) + sum of block penalties."""
        x = self._check_dim(x)
        return self.smooth.value(x) + self.penalty_value(x)

    def objective_rows(self, X) -> np.ndarray:
        """F on each row of a (k, n) stack of points."""
        return self.penalty_rows(X) + self.smooth.value_rows(np.asarray(X, dtype=float))

    def penalty_subdiff(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Coordinatewise subdifferential box (lo, hi) of g at x, or at each
        row of a (k, n) stack."""
        lo, hi = np.empty(np.shape(x)), np.empty(np.shape(x))
        for reg, sl in self.penalty_groups:
            lo[..., sl], hi[..., sl] = reg.subdiff(x[..., sl])
        return lo, hi

    def min_subgradient_norm(self, x) -> float:
        """Distance from 0 to grad f(x) + the penalty subdifferential box.

        Coordinatewise: each penalty contributes an interval [lo, hi]; the
        squared distance is sum_j min_{xi in [lo_j, hi_j]} (grad_j + xi)^2.
        """
        x = self._check_dim(x)
        return float(_box_distance(self.smooth.grad(x), *self.penalty_subdiff(x)))

    def min_subgradient_norm_rows(self, X) -> np.ndarray:
        """:meth:`min_subgradient_norm` at each row of a (k, n) stack."""
        X = self._check_rows(X)
        return _box_distance(self.smooth.grad_rows(X), *self.penalty_subdiff(X))


def _box_distance(g, lo, hi):
    """Distance from 0 to g + [lo, hi] along the last axis: the closest
    point of the box [lo, hi] to -g is clip(-g, lo, hi)."""
    return np.sqrt(np.sum(np.square(g + np.clip(-g, lo, hi)), axis=-1))


def make_quadratic_problem(
    A,
    b,
    regularizers,
    partition: BlockPartition,
    known_optimum=None,
    lipschitz: float | None = None,
) -> ProblemInstance:
    """Least-squares instance 0.5||Ax-b||^2 + penalties with certified L.

    ``lipschitz`` is the candidate L (default 1.01 * lambda_max(A^T A) from
    the eigensolver); :class:`QuadraticLeastSquares` proves
    lambda_max(A^T A) <= L with one Cholesky factorization or raises
    ValueError.
    """
    return ProblemInstance(
        smooth=QuadraticLeastSquares(A, b, lipschitz),
        partition=partition,
        regularizers=tuple(regularizers),
        known_optimum=known_optimum,
    )
