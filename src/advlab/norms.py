"""Norm machinery for lp-bounded perturbations of linear classifiers.

A linear classifier ``sign(theta . x)`` attacked inside an lp ball of radius
epsilon loses margin exactly ``epsilon * ||theta||_q`` where q is the Hoelder
conjugate of p.  This module provides the conjugate-exponent arithmetic,
overflow-safe lp norms, subgradients of the q-norm (the objects that realize
Hoelder equality), the closed-form worst-case perturbation, and Euclidean
projections onto lp balls.

All vectors are plain float64 numpy arrays.  The exponent p lives on the
extended real line [1, inf]; ``math.inf`` is the one and only spelling of
infinity accepted here, and every function branches on it explicitly rather
than treating it as an approximate large number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PerturbationModel",
    "dual_exponent",
    "lp_norm",
    "norm_subgradient",
    "norm_subgradient_rows",
    "worst_case_perturbation",
    "project_onto_ball",
]


# sqrt(v . v) is accurate while v . v lies in (_SUMSQ_MIN, inf): squares that
# round into subnormals are each off by at most 2**-1075, far below its ulp
_SUMSQ_MIN = 1e-280
# smallest normal float64: below it a scale factor keeps fewer digits
_TINY = np.finfo(float).tiny


def _exponent(p: float) -> float:
    """p as a float, checked to lie in [1, inf]."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"norm exponent must lie in [1, inf], got {p!r}")
    return p


def dual_exponent(p: float) -> float:
    """Return the conjugate exponent q with 1/p + 1/q = 1.

    ``dual_exponent(1) == math.inf``, ``dual_exponent(math.inf) == 1``, and
    the map is an involution on [1, inf].  Raises ValueError for p < 1.
    """
    p = _exponent(p)
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class PerturbationModel:
    """Threat model: additive perturbations u with ||u||_p <= epsilon.

    The dual exponent ``q`` is derived, never stored, so the conjugacy
    relation holds by construction.
    """

    p: float
    epsilon: float

    def __post_init__(self) -> None:
        dual_exponent(self.p)  # validates p
        if not (self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon!r}")

    @property
    def q(self) -> float:
        return dual_exponent(self.p)


def lp_norm(v: np.ndarray, p: float) -> float:
    """lp norm of a vector, with the p = inf convention max_i |v_i|.

    p = 2 is sqrt(v . v) while that sum is safely representable; other
    finite p, and p = 2 outside that range, use max-factoring so that large
    exponents neither overflow nor underflow before the final root.
    """
    p = _exponent(p)
    a = np.abs(np.asarray(v, dtype=float))
    if a.size == 0:
        return 0.0
    if math.isinf(p):
        return float(a.max())
    if p == 1.0:
        return float(a.sum())
    if p == 2.0:
        with np.errstate(over="ignore"):
            s = float(a @ a)
        if _SUMSQ_MIN < s < math.inf:
            return math.sqrt(s)
    m = float(a.max())
    if m == 0.0 or not math.isfinite(m):
        return m
    return m * float(np.sum((a / m) ** p)) ** (1.0 / p)


def norm_subgradient(theta: np.ndarray, q: float) -> np.ndarray:
    """A subgradient g of the q-norm at theta.

    For theta != 0 the returned g satisfies the Hoelder-equality identities

        ||g||_p = 1,    theta . g = ||theta||_q,    ||g||_2 <= sqrt(d),

    with p conjugate to q.  Conventions at the non-smooth points: the zero
    vector is returned at theta = 0; sign(0) = 0 for q = 1; for q = inf the
    unit mass sits on the lowest-index coordinate of maximal modulus.  This
    is the one-row case of ``norm_subgradient_rows``.
    """
    return norm_subgradient_rows(np.asarray(theta, dtype=float)[None], q)[0]


def norm_subgradient_rows(mat: np.ndarray, q: float) -> np.ndarray:
    """One ``norm_subgradient`` per row of a 2-d array.

    Closed forms for q = 1 (sign), q = 2 (row / ||row||_2) and q = inf
    (one-hot).  Other q, and at q = 2 the rows whose squared l2 norm leaves
    the safe range, use sign * (|row| / ||row||_q) ** (q - 1) on rows
    divided by their largest modulus, so large exponents neither overflow nor
    underflow.  Each row's result depends on that row alone.
    """
    q = _exponent(q)
    mat = np.asarray(mat, dtype=float)
    if q == 1.0:
        return np.sign(mat)
    if mat.size == 0:
        return np.zeros_like(mat)
    if math.isinf(q):
        out = np.zeros_like(mat)
        rows = np.arange(mat.shape[0])
        cols = np.argmax(np.abs(mat), axis=1)  # argmax picks the lowest index on ties
        out[rows, cols] = np.sign(mat[rows, cols])
        return out
    if q == 2.0:
        with np.errstate(over="ignore"):
            sq = np.einsum("ij,ij->i", mat, mat)
        if _SUMSQ_MIN < sq.min() and sq.max() < math.inf:
            return mat / np.sqrt(sq)[:, None]
        # only the rows whose squares over- or underflow (zero rows among
        # them) take the power form, so no row changes because of another
        odd = ~((_SUMSQ_MIN < sq) & (sq < math.inf))
        out = mat / np.sqrt(np.where(odd, 1.0, sq))[:, None]
        out[odd] = _power_subgradient_rows(mat[odd], q)
        return out
    return _power_subgradient_rows(mat, q)


def _power_subgradient_rows(mat: np.ndarray, q: float) -> np.ndarray:
    """sign * (|row| / ||row||_q) ** (q - 1) per row, on rows divided by their max."""
    a = np.abs(mat)
    m = a.max(axis=1, keepdims=True)
    m[m == 0.0] = 1.0
    scaled = a / m
    nrm = np.sum(scaled**q, axis=1, keepdims=True) ** (1.0 / q)  # ||row||_q / m
    nrm[nrm == 0.0] = 1.0  # zero rows map to zero
    return np.sign(mat) * (scaled / nrm) ** (q - 1.0)


def worst_case_perturbation(
    theta: np.ndarray, y: int, model: PerturbationModel
) -> np.ndarray:
    """The exact maximizer of exp(-y theta.(x+u)) over ||u||_p <= epsilon.

    Independent of x: u* = -epsilon * y * g with g a subgradient of the
    q-norm at theta, so that y theta.(x+u*) = y theta.x - epsilon*||theta||_q.
    Returns the zero vector at theta = 0, where every feasible u is equally
    (in)effective.
    """
    if y not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {y!r}")
    g = norm_subgradient(theta, model.q)
    return (-model.epsilon * float(y)) * g


def _threshold(a: np.ndarray, radius: float) -> np.ndarray:
    """The soft threshold tau of each row (last axis): sum_i max(a_i - tau, 0) = radius.

    tau is the largest (S_k - radius) / k over k, with S_k the sum of the k
    largest entries: each such average is at most tau, and the one at the
    support size equals it, so no support search is needed.  Returned with
    the last axis kept, at length 1.
    """
    s = np.sort(a, axis=-1)[..., ::-1]
    taus = (s.cumsum(axis=-1) - radius) / np.arange(1, a.shape[-1] + 1)
    return taus.max(axis=-1, keepdims=True)


def _project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Projection of each row (last axis) onto the l1 ball by soft thresholding."""
    a = np.abs(v)
    far = a.sum(axis=-1, keepdims=True) > radius
    if not far.any():
        return v.copy()
    return np.where(far, np.sign(v) * np.maximum(a - _threshold(a, radius), 0.0), v)


def _project_pball_bisect(v: np.ndarray, p: float, radius: float) -> np.ndarray:
    """Euclidean projection onto a finite-p ball via the KKT multiplier.

    Rescaling the whole problem by max|v_i| keeps every power in [0, 1].
    For multiplier lam >= 0 each coordinate solves the monotone equation
    u + lam*p*u**(p-1) = |v_i| (safeguarded Newton over the bracket [0, a]);
    an outer safeguarded Newton drives sum u**p to radius**p.  Accuracy is
    limited only by the fixed iteration counts, well past 1e-10.
    """
    scale = float(np.max(np.abs(v)))
    a = np.abs(v) / scale
    r_pow = (radius / scale) ** p

    def coords(lam: float) -> np.ndarray:
        # solve u + c*u**(p-1) = a per coordinate as F(t) = e^t + c*e^((p-1)t) - a
        # with t = log u.  F is convex and increasing in t, and the start
        # min(a, (a/c)^(1/(p-1))) lies above the root, so plain Newton
        # descends monotonically; the log scale keeps the exponentially
        # small roots of p near 1 reachable.
        c = lam * p
        mask = a > 0.0
        a_safe = np.where(mask, a, 1.0)
        log_a = np.log(a_safe)
        if c > 0.0:
            t = np.minimum(log_a, (log_a - math.log(c)) / (p - 1.0))
        else:
            t = log_a
        for _ in range(16):
            eu = np.exp(t)
            ep = np.exp((p - 1.0) * t)
            F = eu + c * ep - a_safe
            Fp = eu + c * (p - 1.0) * ep
            step = F / Fp
            t = t - step
            if float(np.max(np.abs(step))) < 1e-15:
                break
        return np.where(mask, np.exp(t), 0.0)

    lam_hi = 1.0
    for _ in range(200):
        if float(np.sum(coords(lam_hi) ** p)) <= r_pow:
            break
        lam_hi *= 4.0
    lam_lo = 0.0
    lam = 0.5 * lam_hi
    lam_best, h_best = lam_hi, math.inf
    for _ in range(40):
        w = coords(lam)
        h = float(np.sum(w ** p)) - r_pow
        if abs(h) < h_best:
            lam_best, h_best = lam, abs(h)
        if h > 0.0:
            lam_lo = lam
        else:
            lam_hi = lam
        if abs(h) <= 1e-14 * max(r_pow, 1e-300):
            break
        wp1 = w ** (p - 1.0)
        denom = 1.0 + lam * p * (p - 1.0) * np.where(w > 0, w, 1.0) ** (p - 2.0)
        dh = float(np.sum(-p * p * wp1 * wp1 / denom))
        cand = lam - h / dh if dh != 0.0 else 0.5 * (lam_lo + lam_hi)
        lam = cand if lam_lo < cand < lam_hi else 0.5 * (lam_lo + lam_hi)
    w = coords(lam_best)
    nrm = float(np.sum(w ** p)) ** (1.0 / p)
    target = r_pow ** (1.0 / p)
    if nrm > target > 0.0:
        w = w * (target / nrm)  # residual is ~1e-14 relative, radial touch-up
    return np.sign(v) * (w * scale)


def _lp_norm_rows(mat: np.ndarray, p: float) -> np.ndarray:
    """``lp_norm`` of each row of a 2-d array."""
    return np.array([lp_norm(row, p) for row in mat])


def project_onto_ball(v: np.ndarray, p: float, radius: float) -> np.ndarray:
    """Euclidean projection of each row of v onto {u : ||u||_p <= radius}.

    A 1-d v is the one-row case.  Exact closed forms for p in {1, 2, inf}
    act on all rows at once (the l2 row norms are as overflow-safe as
    ``lp_norm``); other finite p runs the KKT bisection (tolerance 1e-10) on
    each row outside the ball.  radius = 0 returns zeros.
    """
    p = _exponent(p)
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius!r}")
    v = np.asarray(v, dtype=float)
    if radius == 0.0:
        return np.zeros_like(v)
    if math.isinf(p):
        return np.clip(v, -radius, radius)
    if p == 1.0:
        return _project_l1(v, radius)
    if p == 2.0:
        # one expression: binding the squared norms to a name measured up to
        # 3x slower on 2000-row batches
        with np.errstate(over="ignore"):
            nrm = np.sqrt((v * v).sum(axis=-1, keepdims=True))
        # squares that overflow, or underflow while the ball is as small as the
        # row, lose the norm: the nonzero rows among them take lp_norm's
        # max-factored one.  Underflowed rows lie inside a larger ball as is.
        # Only here can radius / nrm leave the normal range (it needs a row
        # norm past ~1e308 radii); those rows divide first, so only the result
        # can underflow.
        if not math.isfinite(nrm.sum()) or radius * radius <= _SUMSQ_MIN:
            odd = np.flatnonzero(~((_SUMSQ_MIN < nrm * nrm) & (nrm < math.inf)))
            rows = v.reshape(nrm.size, v.shape[-1])
            odd = odd[rows[odd].any(axis=-1)]
            nrm.reshape(-1)[odd] = _lp_norm_rows(rows[odd], 2.0)
            nrm = np.maximum(nrm, radius)
            scale = radius / nrm
            return np.where(scale < _TINY, v / nrm * radius, v * scale)
        return v * (radius / np.maximum(nrm, radius))
    out = v.copy()
    for i in np.ndindex(v.shape[:-1]):
        if lp_norm(v[i], p) > radius:
            out[i] = _project_pball_bisect(v[i], p, radius)
    return out
