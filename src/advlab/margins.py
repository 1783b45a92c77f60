"""Normalized margins of a labeled sample, with and without perturbation.

Two quantities of one family: the best min-margin over unit q-norm
directions, and the best perturbation-adjusted min-margin

    max_{||theta||_2 = 1}  min_k  y_k theta.x_k - epsilon*||theta||_q

over unit Euclidean directions.  Both are solved by projected subgradient
ascent with Polyak-style steps, best-iterate tracking, and iterate
averaging, initialized at the normalized label-weighted sample mean.  A
feasible dual point (a convex combination of the rows, shifted into the
perturbation ball where applicable) certifies an upper bound; the reported
certificate_gap is that upper bound minus the returned value and therefore
bounds the suboptimality whenever the optimum is nonnegative.

Non-separable inputs return the negative optimum of the sphere-constrained
problem, located by the same ascent (in two dimensions, by a zoomed grid of
directions); the certificate is loose there and the gap simply reports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .norms import (
    PerturbationModel,
    dual_exponent,
    lp_norm,
    norm_subgradient,
    project_onto_ball,
)

if TYPE_CHECKING:  # pragma: no cover
    from .data import Dataset

__all__ = ["MarginResult", "standard_margin", "adversarial_margin"]

DEFAULT_MAX_ITER = 5000
DEFAULT_GAP_TOL = 1e-7


@dataclass(frozen=True)
class MarginResult:
    """Solver output: a unit direction, its certified value, and residuals.

    ``value`` is recomputed from the data at ``direction`` on return, so
    evaluating the objective at the direction reproduces it exactly.
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


def _dual_upper_bound(
    z: np.ndarray, lam: np.ndarray, eps: float, q: float, sphere_q: float
) -> float:
    """Value of a feasible dual point built from simplex weights lam.

    Any convex combination w of the rows, shifted by any point of the
    epsilon-ball in the conjugate norm, upper-bounds the ball-constrained
    optimum by ||.||-duality.  Always valid, tight at the optimum when the
    optimum is nonnegative.
    """
    w = lam @ z
    if eps > 0.0:
        # adversarial case: sphere_q == 2; distance from w to the eps-ball
        shift = project_onto_ball(w, dual_exponent(q), eps)
        return float(np.linalg.norm(w - shift))
    return lp_norm(w, dual_exponent(sphere_q))


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


def _solve(
    z: np.ndarray,
    sphere_q: float,
    eps: float,
    pen_q: float,
    max_iter: int,
    gap_tol: float,
) -> MarginResult:
    n, d = z.shape
    scale = float(np.max(np.linalg.norm(z, axis=1)))
    if scale == 0.0:
        # degenerate all-zero sample: every direction scores 0
        direction = np.zeros(d)
        direction[0] = 1.0
        return MarginResult(direction=direction, value=0.0, iterations=0, certificate_gap=0.0)

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
                if gap <= gap_tol:
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
    else:
        ball_first = eps == 0.0  # homogeneous: ball and sphere optima agree when positive
        _ascend(start, on_ball=ball_first)
        if ball_first and best_val <= 0.0 and gap > gap_tol:
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
    gap_tol: float = DEFAULT_GAP_TOL,
) -> MarginResult:
    """Best min-margin over unit q-norm directions.

    Positive iff the observed labels are linearly separable; negative values
    are the sphere-constrained optimum and flag non-separability.
    """
    return _solve(
        ds.signed_features,
        sphere_q=float(q),
        eps=0.0,
        pen_q=float(q),
        max_iter=max_iter,
        gap_tol=gap_tol,
    )


def adversarial_margin(
    ds: "Dataset",
    model: PerturbationModel,
    max_iter: int = DEFAULT_MAX_ITER,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> MarginResult:
    """Best perturbation-adjusted min-margin over unit Euclidean directions.

    The objective charges every direction the worst-case margin loss
    epsilon*||theta||_q, so the value is non-increasing in epsilon and never
    exceeds the q = 2 standard margin.
    """
    return _solve(
        ds.signed_features,
        sphere_q=2.0,
        eps=float(model.epsilon),
        pen_q=float(model.q),
        max_iter=max_iter,
        gap_tol=gap_tol,
    )
