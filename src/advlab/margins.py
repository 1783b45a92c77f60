"""Normalized margins of a labeled sample, with and without perturbation.

Two quantities of one family: the best min-margin over unit q-norm
directions, and the best perturbation-adjusted min-margin

    max_{||theta||_2 = 1}  min_k  y_k theta.x_k - epsilon*||theta||_q

over unit Euclidean directions.  On that sphere epsilon*||theta||_2 is the
constant epsilon, so the adversarial margin at q = 2 (and at epsilon = 0,
at any q) is the q = 2 standard margin minus epsilon, with its direction and
certificate gap (so the gap is closed to the standard value's tolerance,
below).  That standard margin and every other adversarial margin are
solved through their n-dimensional dual over the probability simplex, the
hard-margin SVM dual:

    min_{lam in simplex}  dist_2(Z^T lam, epsilon * B_p),

with B_p the unit ball of the norm conjugate to q (the point {0} when
epsilon = 0).  Accelerated projected gradient with gradient restart
minimizes half the squared distance; the residual r = Z^T lam - P(Z^T lam)
gives the primal direction r/||r||, and ||r|| bounds the optimum from
above, so certificate_gap is that bound minus the value at the direction.
Solvers stop once certificate_gap <= GAP_TOL * max(1, |value|): the
tolerance is absolute for values up to 1 and relative beyond, where rounding
in the margins alone exceeds any fixed gap.

The q = 2 standard margin of a sample with n <= d (so also the adversarial
margin at q = 2, and at epsilon = 0) is solved exactly in ``standard_margin``,
on the Gram matrix G = Z Z^T: the hard-margin dual min 0.5 a.G a - 1.a over
a >= 0, whose optimum scaled onto the simplex is the optimal lam, by
primal-dual active sets.  With d >> n every row is a support vector (Hsu,
Muthukumar & Xu, AISTATS 2021), so one n x n solve usually settles it, and
the gap closes to rounding (about 1e-14 relative).  Past the one product
that builds G, it reads the sample twice: w = lam Z, whose norm is the bound,
and the margins at w/||w||.  A sample it leaves uncertified (not separable,
or with a singular G) takes the accelerated gradient path.

The standard margin at q = 1 is the value v of the matrix game with payoff
[Z, -Z], solved exactly when positive as the covering LP
1/v = min{1.w : [Z, -Z] w >= 1, w >= 0} by a revised dual simplex from the
all-surplus basis; its basic w gives the direction and its multipliers the
dual bound, so the gap is closed to rounding.  The LP is infeasible when
v <= 0 (non-separable inputs).

Every other standard margin at q != 2 (q = 1 too, when the LP is
infeasible, runs out of pivots or leaves a gap above the tolerance) runs
projected subgradient ascent with Polyak-style steps, best-iterate tracking
and iterate averaging, initialized at the normalized label-weighted sample
mean and certified by the counting dual point.  So do negative optima on
the Euclidean sphere (non-separable inputs): their dual value is 0, so the
dual certifies nothing and the ascent on the sphere takes over, keeping the
dual's best direction and bound unless it beats them; the gap is loose
there and simply reports it.  In two dimensions a zoomed grid of directions
replaces all of these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .norms import (
    PerturbationModel,
    _threshold,
    dual_exponent,
    lp_norm,
    norm_subgradient,
    project_onto_ball,
)

if TYPE_CHECKING:  # pragma: no cover
    from .data import Dataset

__all__ = ["MarginResult", "standard_margin", "adversarial_margin"]

DEFAULT_MAX_ITER = 5000
# stopping gap, scaled by max(1, |value|)
GAP_TOL = 1e-10
# revised dual simplex (q = 1): pivots between fresh basis inverses, the
# least basic value that counts as feasible, and the least pivot relative
# to the largest entry of its row
_REFACTOR_EVERY = 32
_FEAS_TOL = 1e-12
_PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class MarginResult:
    """Solver output: a unit direction, its certified value, and residuals.

    ``value`` is recomputed from the data at ``direction`` on return, so
    evaluating the objective at the direction reproduces it exactly.
    ``iterations`` counts the solver's steps against ``max_iter``: linear
    solves for the q = 2 Gram solve and iterations for the accelerated dual
    (both when the first leaves the sample uncertified), simplex pivots for
    the q = 1 LP, plus ascent iterations whenever an ascent runs.
    """

    direction: np.ndarray
    value: float
    iterations: int
    certificate_gap: float


def _objective(z: np.ndarray, theta: np.ndarray, eps: float, q: float) -> tuple[float, int]:
    """min_k z_k . theta - eps*||theta||_q and the lowest active index."""
    margins = z @ theta
    k = int(np.argmin(margins))
    val = float(margins[k])
    if eps > 0.0:
        val -= eps * lp_norm(theta, q)
    return val, k


def _tolerance(value: float) -> float:
    """The gap that counts as closed at this value: GAP_TOL * max(1, |value|)."""
    return GAP_TOL * max(1.0, abs(value)) if math.isfinite(value) else GAP_TOL


def _residual(w: np.ndarray, ball_p: float, eps: float) -> np.ndarray:
    """w minus its projection onto the eps-ball of the ball_p-norm (w itself at eps = 0)."""
    return w - project_onto_ball(w, ball_p, eps) if eps > 0.0 else w


def _dual_upper_bound(
    z: np.ndarray, lam: np.ndarray, eps: float, q: float, sphere_q: float
) -> float:
    """Value of a feasible dual point built from simplex weights lam.

    Any convex combination w of the rows, shifted by any point of the
    epsilon-ball in the conjugate norm, upper-bounds the ball-constrained
    optimum by ||.||-duality.  Always valid, tight at the optimum when the
    optimum is nonnegative.
    """
    # eps > 0 only on the Euclidean sphere, where this is the distance to the eps-ball
    return lp_norm(_residual(lam @ z, dual_exponent(q), eps), dual_exponent(sphere_q))


def _normalize(theta: np.ndarray, sphere_q: float) -> np.ndarray | None:
    nrm = lp_norm(theta, sphere_q)
    if nrm == 0.0 or not math.isfinite(nrm):
        return None
    return theta / nrm


def _scan_angles_2d(
    z: np.ndarray, sphere_q: float, eps: float, pen_q: float, angles: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Best objective value over the given planar directions."""
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if sphere_q != 2.0:
        sn = np.array([lp_norm(v, sphere_q) for v in dirs])
        dirs = dirs / sn[:, None]
    vals = (z @ dirs.T).min(axis=0)
    if eps > 0.0:
        vals = vals - eps * np.array([lp_norm(v, pen_q) for v in dirs])
    k = int(np.argmax(vals))
    return float(angles[k]), float(vals[k]), dirs[k]


def _refine_2d(
    z: np.ndarray, sphere_q: float, eps: float, pen_q: float
) -> tuple[np.ndarray, float]:
    """Global angle scan plus progressive zoom; exact up to ~1e-11 radians.

    Only used for d == 2, where the feasible set is a curve and grid
    refinement beats any ascent guarantee.  The zoom factor (8) stays below
    half the local grid size (33) so the bracket always retains the
    maximizer of the previous pass.
    """
    coarse = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    ang, val, vec = _scan_angles_2d(z, sphere_q, eps, pen_q, coarse)
    width = 2.0 * math.pi / 1024.0
    for _ in range(10):
        local = ang + np.linspace(-width, width, 33)
        a2, v2, d2 = _scan_angles_2d(z, sphere_q, eps, pen_q, local)
        if v2 > val:
            ang, val, vec = a2, v2, d2
        width /= 8.0
    return vec, val


def _solve_dual(
    z: np.ndarray, eps: float, pen_q: float, max_iter: int
) -> tuple[np.ndarray | None, float, float, int]:
    """Dual of the Euclidean-sphere problem over the simplex.

    Minimizes g(lam) = 0.5*dist_2(Z^T lam, eps*B_p)^2 by FISTA with gradient
    restart.  grad g = Z r with r the residual Z^T lam minus its projection,
    and r is 1-Lipschitz in Z^T lam, so the step 1/L is safe once L bounds
    ||Z^T (x - y)||^2 / ||x - y||^2 along each step.  L starts at the largest
    squared row norm, a lower bound on the top eigenvalue of Z Z^T, and
    doubles whenever a step violates that bound, up to the trace of Z Z^T,
    which bounds it on every step.  Neither needs the Gram matrix.
    Every simplex point certifies ||r|| as an upper bound on the optimum, and
    r/||r|| is a unit direction whose objective value is a lower bound.

    Returns (best direction or None, its value, least upper bound, iterations);
    stops when the bounds close to GAP_TOL * max(1, |value|), or when the
    upper bound falls to GAP_TOL without a positive value (no positive
    optimum to certify).
    """
    n = z.shape[0]
    ball_p = dual_exponent(pen_q)
    row_sq = np.einsum("ij,ij->i", z, z)
    lip, lip_max = float(row_sq.max()), float(row_sq.sum())
    x = np.full(n, 1.0 / n)
    wx = x @ z
    y, wy = x, wx
    t = 1.0
    best_theta = None
    best_val = -math.inf
    upper = math.inf
    it = 0
    while it < max_iter:
        it += 1
        grad = z @ _residual(wy, ball_p, eps)
        while True:
            v = y - grad / lip
            xn = np.maximum(v - _threshold(v, 1.0), 0.0)  # onto the simplex
            wn = xn @ z
            dx, dw = xn - y, wn - wy
            if lip >= lip_max or not float(dw @ dw) > lip * float(dx @ dx):
                break
            lip = min(2.0 * lip, lip_max)
        r = _residual(wn, ball_p, eps)
        dist = math.sqrt(float(r @ r))
        upper = min(upper, dist)
        if dist > 0.0:
            theta = r / dist
            val, _ = _objective(z, theta, eps, pen_q)
            if val > best_val:
                best_val, best_theta = val, theta
        if upper - best_val <= _tolerance(best_val) or (
            upper <= GAP_TOL and best_val <= 0.0
        ):
            break
        if float((y - xn) @ (xn - x)) > 0.0:
            t = 1.0  # gradient restart: the momentum points uphill
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = xn + beta * (xn - x)
        wy = wn + beta * (wn - wx)
        x, wx, t = xn, wn, t_next
    return best_theta, best_val, upper, it


def _gram_dual(gram: np.ndarray, max_iter: int) -> tuple[np.ndarray | None, int]:
    """The hard-margin dual on the Gram matrix, by primal-dual active sets.

    Minimizes 0.5 a.G a - 1.a over a >= 0; when the sample is separable, the
    optimal a scaled onto the simplex is the dual optimum lam.  From the
    full support P, each step solves G_PP a_P = 1 (a = 0 off P) and takes
    as the next P the positive entries of a and the indices off P whose
    (G a)_i falls below 1.  A P that gives itself back satisfies every KKT
    condition; since each P fixes the next, a return to an earlier P is a
    cycle.  With n <= d in general position every row is a support vector
    and one solve suffices.  Each solve counts against max_iter, capped at 2n.

    Returns (lam, solves), with lam None when a solve fails (a singular
    G_PP, e.g. from duplicate rows), the support empties, P cycles, or the
    cap is reached; the caller certifies lam before using it.
    """
    n = gram.shape[0]
    active = np.ones(n, dtype=bool)
    seen = {active.tobytes()}
    ones = np.ones(n)
    solves = 0
    while solves < min(max_iter, 2 * n):
        solves += 1
        idx = np.flatnonzero(active)
        alpha = np.zeros(n)
        try:
            alpha[idx] = np.linalg.solve(gram[np.ix_(idx, idx)], ones[: idx.size])
        except np.linalg.LinAlgError:
            return None, solves
        nxt = (alpha > 0.0) | (~active & (gram @ alpha < 1.0))
        if np.array_equal(nxt, active):
            return alpha / float(alpha.sum()), solves
        key = nxt.tobytes()
        if not nxt.any() or key in seen:
            return None, solves  # each P fixes the next, so a repeat is a cycle
        seen.add(key)
        active = nxt
    return None, solves


def _solve_covering_lp(z: np.ndarray, max_iter: int) -> tuple[np.ndarray | None, float, int]:
    """The q = 1 standard margin as a covering LP, by a revised dual simplex.

    The margin is the value v of the matrix game with payoff A = [Z, -Z],
    and when v > 0, 1/v = min{1.w : A w >= 1, w >= 0}.  With a surplus s_i
    per row (column -e_i, cost 0) every column is +-1 times a column of
    M = [Z, I], and the all-surplus basis is dual feasible because every
    other cost is 1, so the dual simplex starts there with no phase 1.  Each
    pivot leaves on the row of largest infeasibility over the norm of its
    row of B^-1 (dual steepest edge, with exact weights from the explicit
    inverse), prices that row rho with one product rho M, and enters by the
    ratio test, which skips basic columns and refuses pivots small relative
    to the row.  B^-1 takes an O(n^2) update per pivot and is recomputed
    from B every _REFACTOR_EVERY pivots and before optimality is declared.

    The multipliers u = c_B B^-1 stay dual feasible, so lam = u / sum(u)
    bounds the margin from above by ||Z^T lam||_inf, and the basic w gives
    the direction w+ - w-.  Returns (that direction, the bound, pivots) when
    the bounds close to GAP_TOL * max(1, |value|), else (None, inf, pivots):
    the LP is infeasible (v <= 0), hit max_iter pivots, or left a wider gap.
    """
    n, d = z.shape
    m = np.hstack([z, np.eye(n)])
    cost = np.zeros(d + n)
    cost[:d] = 1.0
    # row k's basic column is sign[k] * M[:, basis[k]]
    basis = np.arange(d, d + n)
    sign = -np.ones(n)
    basic = np.zeros(d + n, dtype=bool)
    basic[d:] = True
    binv = -np.eye(n)
    xb = -np.ones(n)  # B^-1 1
    # u M with u = c_B B^-1: column +-M[:, j] has reduced cost cost_j -+ um_j
    um = np.zeros(d + n)
    pivots = 0
    fresh = True
    while True:
        # leaving row by dual steepest edge: infeasibility over ||row of B^-1||
        short = np.minimum(xb + _FEAS_TOL, 0.0)
        r = int(np.argmax(short * short / np.einsum("ij,ij->i", binv, binv)))
        if short[r] < 0.0:
            if pivots == max_iter:
                return None, math.inf, pivots
            rho = binv[r]
            alpha = rho @ m  # row r of B^-1 [M, -M]: alpha, then -alpha
            mag = np.abs(alpha)
            tol = _PIVOT_TOL * float(mag.max())
            # column j enters as -sign(alpha_j) M[:, j]; surpluses only as -e_i
            np.maximum(alpha[d:], 0.0, out=mag[d:])
            mag[basic] = 0.0
            leaving = basis[r]
            if leaving < d:
                mag[leaving] = 1.0  # its own pivot entry: the pair's other side may enter
            ratio = np.divide(cost + np.sign(alpha) * um, mag,
                              out=np.full(d + n, math.inf), where=mag > tol)
            j = int(np.argmin(ratio))
            if not ratio[j] < math.inf:
                return None, math.inf, pivots  # dual unbounded: v <= 0
            step = max(float(ratio[j]), 0.0)
            s = -1.0 if alpha[j] > 0.0 else 1.0
            col = binv @ m[:, j]
            col *= s
            pivots += 1
            um -= step * alpha
            piv = col[r]
            t = xb[r] / piv
            xb -= t * col
            xb[r] = t
            prow = rho / piv
            binv -= np.outer(col, prow)
            binv[r] = prow
            basic[leaving] = False
            basic[j] = True
            basis[r], sign[r] = j, s
            fresh = False
            if pivots % _REFACTOR_EVERY:
                continue
        elif fresh:
            break  # feasible under an inverse just taken from B: optimal
        # a fresh inverse from B, and the state it implies
        binv = np.linalg.inv(m[:, basis] * sign)
        xb = binv.sum(axis=1)
        um = cost[basis] @ binv @ m
        fresh = True

    structural = np.flatnonzero(basis < d)
    theta = np.zeros(d)
    theta[basis[structural]] = sign[structural] * xb[structural]
    direction = _normalize(theta, 1.0)
    lam = np.maximum(cost[basis] @ binv, 0.0)
    total = float(lam.sum())
    if direction is None or not total > 0.0:
        return None, math.inf, pivots
    upper = _dual_upper_bound(z, lam / total, 0.0, 1.0, 1.0)
    value, _ = _objective(z, direction, 0.0, 1.0)
    if upper - value > _tolerance(value):
        return None, math.inf, pivots
    return direction, upper, pivots


def _solve(
    z: np.ndarray, sphere_q: float, eps: float, pen_q: float, max_iter: int
) -> MarginResult:
    """The margin problem on the rows z; see the module docstring."""
    n, d = z.shape
    scale = float(np.max(np.linalg.norm(z, axis=1)))
    if scale == 0.0:
        # degenerate all-zero sample: a direction scores -eps*||theta||_q, and
        # the unit vectors of least q-norm are the coordinate vectors for q <= 2
        # and the uniform direction for q > 2
        direction = np.zeros(d)
        direction[0] = 1.0
        if eps > 0.0 and pen_q > 2.0:
            direction = _normalize(np.ones(d), sphere_q)
        value, _ = _objective(z, direction, eps, pen_q)
        return MarginResult(direction=direction, value=value, iterations=0, certificate_gap=0.0)

    start = _normalize(z.sum(axis=0), sphere_q)
    if start is None:
        start = _normalize(np.ones(d), sphere_q)

    best_val = -math.inf
    best_theta = start
    total_iters = 0
    best_upper = math.inf
    gap = math.inf
    epoch = 100  # target-offset review interval

    def _ascend(theta0: np.ndarray, on_ball: bool) -> None:
        """One ascent run; updates the best-candidate state.

        on_ball: iterate over {||theta||_q <= 1} with Euclidean projection,
        sound for every q; the sphere value then follows from homogeneity
        (eps = 0 only).  Otherwise retract by renormalization, which has the
        right stationary points exactly on the Euclidean sphere.
        """
        nonlocal best_val, best_theta, best_upper, gap, total_iters
        theta = theta0.copy()
        avg = np.zeros(d)
        f_best_run = -math.inf
        # variable-target Polyak steps: aim delta above the incumbent and
        # halve delta whenever an epoch fails to deliver half of it
        delta = 0.5 * scale
        f_epoch_start = -math.inf
        active_counts = np.zeros(n)
        recent = np.zeros(n)
        for it in range(1, max_iter + 1):
            total_iters += 1
            fval, k = _objective(z, theta, eps, pen_q)
            active_counts[k] += 1.0
            recent[k] += 1.0
            if fval > f_best_run:
                f_best_run = fval
            if on_ball:
                nrm = lp_norm(theta, sphere_q)
                sphere_val = fval / nrm if nrm > 0.0 else -math.inf
            else:
                sphere_val = fval
            if sphere_val > best_val:
                best_val = sphere_val
                best_theta = theta.copy()
            g = z[k].copy()
            if eps > 0.0:
                g -= eps * norm_subgradient(theta, pen_q)
            gsq = float(g @ g)
            if gsq == 0.0:
                break
            step = (f_best_run + delta - fval) / gsq
            moved = theta + step * g
            cand = (
                project_onto_ball(moved, sphere_q, 1.0)
                if on_ball
                else _normalize(moved, sphere_q)
            )
            if cand is None:
                break
            theta = cand
            avg += theta
            if it % epoch == 0 or it == max_iter:
                if f_best_run - f_epoch_start < 0.5 * delta:
                    delta = max(0.5 * delta, 1e-16 * scale)
                f_epoch_start = f_best_run
                avg_dir = _normalize(avg, sphere_q)
                if avg_dir is not None:
                    fa, _ = _objective(z, avg_dir, eps, pen_q)
                    if fa > best_val:
                        best_val = fa
                        best_theta = avg_dir.copy()
                for lam_counts in (active_counts, recent):
                    tot = lam_counts.sum()
                    if tot > 0:
                        upper = _dual_upper_bound(z, lam_counts / tot, eps, pen_q, sphere_q)
                        best_upper = min(best_upper, upper)
                recent[:] = 0.0
                gap = max(0.0, best_upper - best_val)
                if gap <= _tolerance(best_val):
                    return

    if d == 2:
        # the planar problem is a curve search; the zoomed grid is exact to
        # ~1e-11 rad and cheaper than any ascent, so it replaces them
        vec, val = _refine_2d(z, sphere_q, eps, pen_q)
        best_val = val
        best_theta = vec
        # stationarity residual: Lipschitz bound along the curve times the
        # final grid width (sqrt(2) covers the q-sphere's Euclidean reach)
        width = 2.0 * math.pi / 1024.0 / 8.0 ** 10
        best_upper = val + 8.0 * (scale + eps + 1.0) * width
    elif sphere_q == 2.0:
        dual_theta, best_val, best_upper, total_iters = _solve_dual(z, eps, pen_q, max_iter)
        if dual_theta is not None:
            best_theta = dual_theta
        if best_val <= 0.0 and best_upper - best_val > _tolerance(best_val):
            # no positive optimum to certify: the sphere optimum is negative
            # (the dual value is 0), so ascend on the sphere itself
            _ascend(start, on_ball=False)
    else:
        # standard margin at q != 2; at q = 1 a certified LP optimum stands
        lp_theta = None
        if sphere_q == 1.0:
            lp_theta, best_upper, total_iters = _solve_covering_lp(z, max_iter)
        if lp_theta is not None:
            best_theta = lp_theta
        else:
            # homogeneous: the ball and sphere optima agree when positive
            _ascend(start, on_ball=True)
            if best_val <= 0.0 and gap > _tolerance(best_val):
                # non-separable: the sphere optimum is negative and off the ball path
                _ascend(start, on_ball=False)

    direction = _normalize(best_theta, sphere_q)
    assert direction is not None
    value, _ = _objective(z, direction, eps, pen_q)
    gap = max(0.0, best_upper - value) if math.isfinite(best_upper) else math.inf
    return MarginResult(
        direction=direction, value=value, iterations=total_iters, certificate_gap=gap
    )


def standard_margin(
    ds: "Dataset",
    q: float,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MarginResult:
    """Best min-margin over unit q-norm directions.

    Positive iff the observed labels are linearly separable; negative values
    are the sphere-constrained optimum and flag non-separability.  At q = 2
    with n <= d a separable sample is solved exactly on ``ds.gram`` (built
    here if not yet cached), and ``iterations`` counts its active-set solves,
    plus ``_solve``'s iterations when the solves leave the sample uncertified.
    """
    q = float(q)
    z = ds.signed_features
    if q != 2.0 or ds.n > ds.d:
        return _solve(z, sphere_q=q, eps=0.0, pen_q=q, max_iter=max_iter)
    # n <= d rows in general position have a nonsingular Gram matrix, and at
    # n < d (the trainer's row-space condition) train() reuses the cached one
    lam, solves = _gram_dual(ds.gram, max_iter)
    if lam is not None:
        w = lam @ z
        upper = lp_norm(w, 2.0)  # _dual_upper_bound at lam
        direction = w / upper
        value, _ = _objective(z, direction, 0.0, 2.0)
        if value > 0.0 and upper - value <= _tolerance(value):
            return MarginResult(direction, value, solves, max(0.0, upper - value))
    res = _solve(z, sphere_q=2.0, eps=0.0, pen_q=2.0, max_iter=max_iter)
    return replace(res, iterations=res.iterations + solves)


def adversarial_margin(
    ds: "Dataset",
    model: PerturbationModel,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MarginResult:
    """Best perturbation-adjusted min-margin over unit Euclidean directions.

    The objective charges every direction the worst-case margin loss
    epsilon*||theta||_q, so the value is non-increasing in epsilon and never
    exceeds the q = 2 standard margin.  At q = 2 that charge is epsilon on
    the whole sphere, so the result is the q = 2 standard solve's, shifted
    by epsilon.  At epsilon = 0 every q gives that standard solve itself.
    """
    eps, q = float(model.epsilon), float(model.q)
    if q != 2.0 and eps > 0.0:
        return _solve(ds.signed_features, sphere_q=2.0, eps=eps, pen_q=q, max_iter=max_iter)
    std = standard_margin(ds, 2.0, max_iter)
    if eps == 0.0:
        return std
    # _objective at the direction, bit for bit: std.value is its least margin
    value = std.value - eps * lp_norm(std.direction, 2.0)
    upper = std.value + std.certificate_gap - eps
    return MarginResult(
        direction=std.direction,
        value=value,
        iterations=std.iterations,
        certificate_gap=max(0.0, upper - value),
    )
