"""Independent reference computations for the benchmark's output checks.

Nothing here calls advlab's trainer, margin solvers or risk evaluators, so a
change to those cannot move the reference it is checked against:

- ``bare_train``: the worst-case exponential-loss gradient step written as
  one plain loop (constant steps on the summed loss, zero start).
- ``gaussian_risks``: the closed-form standard and adversarial risk.
- ``sample_geometry_holds``: the high-probability sample conditions that the
  lemma suite's ``sample_geometry`` check tests.
- ``exact_standard_margin`` / ``exact_adversarial_margin``: the margins from
  the n-dimensional dual over the simplex (hard-margin SVM duality), solved
  by non-negative least squares or HiGHS linear programming, for q in {1, 2}.
  Each returns a (lower, upper) bracket of the optimum.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog, nnls


def _q_norm(theta: np.ndarray, q: float) -> float:
    return float(np.abs(theta).sum()) if q == 1.0 else float(np.linalg.norm(theta))


def _q_subgradient(theta: np.ndarray, q: float) -> np.ndarray:
    if q == 1.0:
        return np.sign(theta)
    nrm = float(np.linalg.norm(theta))
    return theta / nrm if nrm > 0.0 else np.zeros_like(theta)


def bare_train(z: np.ndarray, eps: float, q: float, alpha: float, T: int) -> np.ndarray:
    """Final iterate of T summed-loss descent steps from theta = 0 (q in {1, 2})."""
    theta = np.zeros(z.shape[1])
    for _ in range(T):
        w = np.exp(eps * _q_norm(theta, q) - z @ theta)
        grad = -(z.T @ w) + eps * float(w.sum()) * _q_subgradient(theta, q)
        theta = theta - alpha * grad
    return theta


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_risks(
    theta: np.ndarray, mu: np.ndarray, eta: float, eps: float, q: float
) -> tuple[float, float]:
    """(standard, adversarial) risk of theta under gaussian noise."""
    nrm2 = float(np.linalg.norm(theta))
    b = float(mu @ theta) / nrm2
    s = eps * _q_norm(theta, q) / nrm2
    std = (1.0 - eta) * _phi(-b) + eta * _phi(b)
    adv = (1.0 - eta) * _phi(-(b - s)) + eta * _phi(b + s)
    return std, adv


def sample_geometry_holds(
    z: np.ndarray, mu: np.ndarray, noisy: np.ndarray, eta: float
) -> bool:
    """Row norms within a factor 2 of d, small pairwise products, mean
    projections of z_k within [1/2, 3/2] of +-||mu||^2 by label noise, and at
    most eta + 0.1 of the labels flipped (confidence 0.1 in the pairwise bound).
    """
    n, d = z.shape
    sq = np.sum(z * z, axis=1)
    spread = max(sq.max() / d, d / sq.min(), 1.0)
    mu_sq = float(mu @ mu)
    gram = np.abs(z @ z.T)
    np.fill_diagonal(gram, 0.0)
    pairwise_ok = gram.max() <= 2.0 * (mu_sq + math.sqrt(d * math.log(n / 0.1)))
    sign = np.where(noisy, -1.0, 1.0)
    proj = sign * (z @ mu) / mu_sq
    return bool(
        spread <= 2.0 and pairwise_ok and np.all((proj >= 0.5) & (proj <= 1.5))
        and noisy.sum() / n - eta <= 0.1
    )


def _simplex_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin of ||a @ lam - b||_2 over the probability simplex.

    Non-negative least squares with one heavily weighted row for sum(lam) = 1.
    """
    weight = 1e4 * (1.0 + float(np.abs(a).max()) * math.sqrt(a.shape[0]))
    a_ext = np.vstack([a, np.full((1, a.shape[1]), weight)])
    lam, _ = nnls(a_ext, np.append(b, weight), maxiter=50 * a.shape[1])
    return lam / lam.sum()


def exact_standard_margin(z: np.ndarray, q: float) -> tuple[float, float]:
    """Bounds (lower, upper) on max over unit q-norm theta of min_k z_k.theta.

    The upper bound is the dual value min over the simplex of ||Z^T lam|| in
    the conjugate norm: a least-squares problem for q = 2, a linear program
    for q = 1.  The lower bound is the primal value at the direction the
    dual solution gives (q = 2); HiGHS certifies the q = 1 optimum itself.
    """
    n, d = z.shape
    if q == 2.0:
        v = z.T @ _simplex_lstsq(z.T, np.zeros(d))
        upper = float(np.linalg.norm(v))
        return float(np.min(z @ (v / upper))), upper
    # q = 1: min t  s.t.  -t <= (Z^T lam)_j <= t,  lam in the simplex
    c = np.zeros(n + 1)
    c[-1] = 1.0
    ones = -np.ones((d, 1))
    a_ub = np.vstack([np.hstack([z.T, ones]), np.hstack([-z.T, ones])])
    a_eq = np.hstack([np.ones((1, n)), np.zeros((1, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * d), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * n + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun), float(res.fun)


def exact_adversarial_margin(z: np.ndarray, eps: float, q: float) -> tuple[float, float]:
    """Bounds on max over unit l2 theta of min_k z_k.theta - eps*||theta||_q.

    The dual is min over the simplex of the l2 distance from Z^T lam to the
    eps-ball of the conjugate norm: ||Z^T lam||_2 - eps for q = 2, and the
    norm of the soft-thresholded Z^T lam for q = 1.  The q = 1 case is
    piecewise quadratic; it is solved as a least-squares problem on the
    current active coordinates and sign pattern until that pattern repeats.
    """
    if q == 2.0:
        lower, upper = exact_standard_margin(z, 2.0)
        return lower - eps, upper - eps
    lam = np.full(z.shape[0], 1.0 / z.shape[0])
    pattern = None
    for _ in range(50):
        v = z.T @ lam
        sign = np.where(np.abs(v) > eps, np.sign(v), 0.0)
        if pattern is not None and np.array_equal(sign, pattern):
            break
        pattern = sign
        live = sign != 0.0
        lam = _simplex_lstsq(z[:, live].T, eps * sign[live])
    shrunk = np.sign(v) * np.maximum(np.abs(v) - eps, 0.0)
    upper = float(np.linalg.norm(shrunk))
    theta = shrunk / upper
    return float(np.min(z @ theta) - eps * np.abs(theta).sum()), upper
