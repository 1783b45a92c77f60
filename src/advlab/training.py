"""Full-batch gradient descent on the worst-case exponential loss.

For a linear classifier theta under an lp threat model the per-sample
worst-case exponential loss has the closed form

    max_{||u||_p <= eps} exp(-y (x+u).theta) = exp(-y x.theta + eps*||theta||_q),

so the training objective and its (sub)gradient are

    L(theta)      = sum_k exp(-z_k.theta + eps*||theta||_q),        z_k = y_k x_k
    grad L(theta) = -sum_k (z_k - eps*g(theta)) exp(-z_k.theta + eps*||theta||_q)

with g a subgradient of the q-norm.  Training runs plain full-batch descent
from the zero vector (or a supplied start) and aborts with the partial
record attached if the loss or gradient leaves the representable range.
The loop keeps only what each iterate yields: its margins, in a (T+1) x n
array, the loss, ||theta||_q (and ||theta||_2 off q = 2), mu.theta, and theta
itself at snapshots on a stride.  The log-losses, margin spreads, alignments
and train errors are computed from these once, after the loop.  The margin
array is bounded by the configuration: 0.8 MB at n = 50, T = 2000.

Row space at q = 2: there g(theta) = theta/||theta||_2, so every step adds a
combination of the rows z_k and rescales theta, and theta stays in the span
of the rows of B, the z_k (plus theta0 as one more row when a start is
given).  When eps > 0 and B has fewer rows k than d, the trainer writes
theta = B^T c and descends on c in R^k with the k x k Gram matrix B B^T:
margins, ||theta||_2, mu.theta and the step all cost O(k^2) rather than
O(n d), and theta is formed only at snapshots.  The loop, the record and the
divergence checks are the same on both paths; only the kernel differs.  The
values agree with descent on theta to rounding (about 1e-15 relative).
Every other case (eps = 0, q != 2, k >= d) descends on theta itself.

Step modes: "constant" uses a fixed step; "scheduled" uses a conservative
schedule derived from smoothness bounds, with a large first step 1/(G*d*n)
and subsequent steps 1/(G*d*n*M) where M inflates with the dimension, the
perturbation budget, and the inverse perturbation-adjusted margin.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import write_csv
from .margins import adversarial_margin
from .norms import _SUMSQ_MIN, PerturbationModel, lp_norm, norm_subgradient

__all__ = [
    "STEP_MODES",
    "TrainConfig",
    "TrainRecord",
    "TrainingDiverged",
    "adversarial_loss",
    "adversarial_log_loss",
    "adversarial_loss_gradient",
    "alignment",
    "summed_step",
    "train",
    "save_record_csv",
]

STEP_MODES = ("constant", "scheduled")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a single training run.

    alpha is the constant step size (ignored under "scheduled"); G is the
    slack constant of the scheduled mode; T the number of gradient steps;
    record_every the snapshot stride (snapshots always include t = 0, 1, T).
    """

    model: PerturbationModel
    step_mode: str = "constant"
    alpha: float = 1e-3
    G: float = 10.0
    T: int = 1000
    record_every: int = 10

    def __post_init__(self) -> None:
        if self.step_mode not in STEP_MODES:
            raise ValueError(f"step_mode must be one of {STEP_MODES}, got {self.step_mode!r}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.alpha <= 0 or self.G <= 0:
            raise ValueError("alpha and G must be positive")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


def summed_step(alpha: float, n: int) -> float:
    """The summed-loss step equal to step alpha on the sample-averaged loss.

    The CLI and sweep configs quote alpha (and the network lr) on the
    averaged loss; the trainer steps on the summed loss.  Under "scheduled"
    the trainer ignores alpha, so the conversion changes nothing there.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return alpha / n


class TrainingDiverged(RuntimeError):
    """Loss or gradient became non-finite; carries the truncated record."""

    def __init__(self, message: str, record: "TrainRecord", iteration: int):
        super().__init__(message)
        self.record = record
        self.iteration = iteration


@dataclass
class TrainRecord:
    """Trajectory data: scalars at every iterate, full state on a stride.

    Arrays indexed by t = 0..T hold values at theta_t, so ``losses`` has
    length T + 1 and losses[0] equals n for the zero start.  ``alphas[m]``
    is the step applied to the gradient at theta_m.  ``snapshot_ts`` lists
    the iterations with stored parameter vectors, per-sample margins (row i
    of ``per_sample_margins`` for snapshot i), and train errors.
    """

    config: TrainConfig
    n: int
    d: int
    losses: np.ndarray
    log_losses: np.ndarray
    theta_l2: np.ndarray
    theta_q: np.ndarray
    alignments: np.ndarray
    margin_spread: np.ndarray
    alphas: np.ndarray
    snapshot_ts: list[int]
    thetas: list[np.ndarray]
    per_sample_margins: np.ndarray
    train_errors: np.ndarray
    adv_train_errors: np.ndarray
    adv_margin: Optional[float] = None
    schedule_M: Optional[float] = None

    @property
    def T(self) -> int:
        return len(self.losses) - 1

    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]


def _log_losses(margins: np.ndarray, eps: float = 0.0, pen_norms=0.0) -> np.ndarray:
    """log sum_k exp(-m_k) + eps*||theta||_q for each row m of margins.

    The sum is shifted by the row's smallest margin so it stays finite; a row
    whose smallest margin is inf (or nan) has left the representable range
    and gives minus that margin.  At eps = 0 there is no norm term.
    """
    low = margins.min(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf on such rows
        shifted = low[:, None] - margins
        sums = np.exp(shifted, out=shifted).sum(axis=1)
    # math.log per row: libm's bits, whatever numpy's vector log does
    logs = np.array([math.log(s) for s in sums.tolist()]) - low
    log_losses = np.where(np.isfinite(low), logs, -low)
    return log_losses + eps * pen_norms if eps != 0.0 else log_losses


def _worst_case(
    theta: np.ndarray, z: np.ndarray, eps: float, q: float, with_grad: bool = True
) -> tuple[np.ndarray, float, float, Optional[np.ndarray]]:
    """Margins z @ theta, loss, ||theta||_q and (optionally) the gradient.

    The loss and gradient may overflow while the log-loss stays finite.  At
    eps = 0 the weights are the unshifted exp(-margins), as in plain descent.
    """
    margins = z @ theta
    pen_norm = lp_norm(theta, q)
    w = np.exp(-margins) if eps == 0.0 else np.exp(eps * pen_norm - margins)
    loss = float(w.sum())
    grad = None
    if with_grad:
        grad = -(z.T @ w)
        if eps != 0.0:
            grad = grad + (eps * loss) * norm_subgradient(theta, q)
    return margins, loss, pen_norm, grad


def _row_space_worst_case(
    c: np.ndarray, gram: np.ndarray, n: int, eps: float, to_theta, with_grad: bool = True
) -> tuple[np.ndarray, float, float, Optional[np.ndarray]]:
    """``_worst_case`` at q = 2, eps > 0 for theta = B^T c, from gram = B B^T.

    The first n rows of B are the z_k, so the margins are (gram @ c)[:n] and
    ||theta||_2^2 = c . gram @ c.  Where that square leaves the range in which
    its root is accurate (rounding below zero included), the norm is taken of
    theta itself.  The gradient is returned in coefficients: grad_theta =
    B^T grad_c with grad_c = -w (padded with zeros) + eps*L*c/||theta||_2.
    """
    v = gram @ c
    margins = v[:n]
    sq = float(c @ v)
    pen_norm = math.sqrt(sq) if _SUMSQ_MIN < sq < math.inf else lp_norm(to_theta(c), 2.0)
    w = np.exp(eps * pen_norm - margins)
    loss = float(w.sum())
    grad = None
    if with_grad:
        grad = (eps * loss / pen_norm) * c if pen_norm > 0.0 else np.zeros_like(c)
        grad[:n] -= w
    return margins, loss, pen_norm, grad


def _row_space(ds, theta0: Optional[np.ndarray], mu: Optional[np.ndarray]):
    """Start c0, Gram matrix B B^T, mu in coefficients (B mu) and c -> B^T c.

    B is the z_k, with theta0 appended as row n when given (c0 = e_n).
    """
    z = ds.signed_features
    n = z.shape[0]
    if theta0 is None:
        gram, c0 = ds.gram, np.zeros(n)
    else:
        gram = np.empty((n + 1, n + 1))
        gram[:n, :n] = ds.gram
        gram[:n, n] = gram[n, :n] = z @ theta0
        with np.errstate(over="ignore"):
            gram[n, n] = theta0 @ theta0
        c0 = np.zeros(n + 1)
        c0[n] = 1.0

    def to_theta(c: np.ndarray) -> np.ndarray:
        theta = c[:n] @ z
        return theta if theta0 is None else theta + c[n] * theta0

    mu_c = None
    if mu is not None:
        mu_c = z @ mu if theta0 is None else np.append(z @ mu, theta0 @ mu)
    return c0, gram, mu_c, to_theta


def _evaluate(theta: np.ndarray, ds, model: PerturbationModel, with_grad: bool = True):
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed loss is a value
        return _worst_case(theta, ds.signed_features, model.epsilon, model.q, with_grad)


def adversarial_loss(theta: np.ndarray, ds, model: PerturbationModel) -> float:
    """Worst-case exponential loss; may return inf when the sum overflows.

    The log-space value from ``adversarial_log_loss`` stays finite in that
    case and is the quantity to compare.
    """
    return _evaluate(theta, ds, model, with_grad=False)[1]


def adversarial_log_loss(theta: np.ndarray, ds, model: PerturbationModel) -> float:
    """log of the worst-case exponential loss, computed stably."""
    margins, _, pen_norm, _ = _evaluate(theta, ds, model, with_grad=False)
    return float(_log_losses(margins[None, :], model.epsilon, pen_norm)[0])


def adversarial_loss_gradient(theta: np.ndarray, ds, model: PerturbationModel) -> np.ndarray:
    """Gradient (a subgradient at q-norm kinks) of the worst-case loss."""
    return _evaluate(theta, ds, model)[3]


def alignment(theta: np.ndarray, mu: np.ndarray) -> float:
    """Component of the unit vector along theta in the mu direction times ||mu||."""
    nrm = lp_norm(theta, 2.0)
    if nrm == 0.0:
        raise ValueError("alignment is undefined at theta = 0")
    return float(mu @ theta) / nrm


def _scheduled_steps(
    ds, cfg: TrainConfig
) -> tuple[float, float, float, float]:
    """First and subsequent step sizes of the conservative schedule."""
    n, d = ds.n, ds.d
    eps = cfg.model.epsilon
    q = cfg.model.q
    gamma = adversarial_margin(ds, cfg.model).value
    if gamma <= 0.0:
        warnings.warn(
            "perturbation-adjusted margin is nonpositive; scheduled step"
            " sizes fall back to M = 1",
            RuntimeWarning,
            stacklevel=3,
        )
        M = 1.0
    else:
        if 1.0 < q < math.inf:
            curvature = eps * (q - 1.0) * d ** ((3.0 * q - 2.0) / (2.0 * q - 2.0)) / gamma
        else:
            # polyhedral q-norm (q = 1 or inf): no curvature contribution
            curvature = 0.0
        M = max(
            (2.0 * d + curvature) * math.exp(-gamma * gamma / (cfg.G * d) + eps / cfg.G),
            1.0,
        )
    alpha0 = 1.0 / (cfg.G * d * n)
    return alpha0, alpha0 / M, gamma, M


def train(ds, cfg: TrainConfig, theta0: Optional[np.ndarray] = None) -> TrainRecord:
    """Run T full-batch descent steps and return the trajectory record."""
    z = ds.signed_features
    n, d = z.shape
    eps = cfg.model.epsilon
    q = cfg.model.q
    mu = ds.spec.mu if ds.spec is not None else None

    adv_margin_val: Optional[float] = None
    schedule_M: Optional[float] = None
    if cfg.step_mode == "scheduled":
        alpha_first, alpha_rest, adv_margin_val, schedule_M = _scheduled_steps(ds, cfg)
    else:
        alpha_first = alpha_rest = cfg.alpha

    if theta0 is None:
        theta = np.zeros(d)
    else:
        theta = np.asarray(theta0, dtype=float).copy()
        if theta.shape != (d,):
            raise ValueError(f"theta0 must have shape ({d},), got {theta.shape}")

    # x is the iterate the loop descends on: theta itself, or its row-space
    # coefficients c with theta = B^T c (module docstring); mu_x is mu in the
    # same coordinates, so that mu . theta = mu_x . x
    k = n if theta0 is None else n + 1
    if q == 2.0 and eps > 0.0 and k < d:
        x, gram, mu_x, to_theta = _row_space(ds, None if theta0 is None else theta, mu)

        def evaluate(c: np.ndarray, with_grad: bool):
            return _row_space_worst_case(c, gram, n, eps, to_theta, with_grad)
    else:
        x, mu_x, to_theta = theta, mu, np.copy

        def evaluate(th: np.ndarray, with_grad: bool):
            return _worst_case(th, z, eps, q, with_grad)

    # what each iterate yields; the rest of the record is computed from these
    T = cfg.T
    margins = np.empty((T + 1, n))
    losses = np.full(T + 1, np.nan)
    theta_q = np.full(T + 1, np.nan)
    theta_l2 = np.full(T + 1, np.nan)
    dots = np.full(T + 1, np.nan)
    alphas = np.zeros(T)
    snapshot_ts: list[int] = []
    thetas: list[np.ndarray] = []

    def make_record(t: int) -> TrainRecord:
        """The record of iterates 0..t, filled from the kept arrays."""
        kept = margins[: t + 1]
        log_losses, spreads, aligns = np.full((3, T + 1), np.nan)
        log_losses[: t + 1] = _log_losses(kept, eps, theta_q[: t + 1])
        spreads[: t + 1] = kept.max(axis=1) - kept.min(axis=1)
        np.divide(dots, theta_l2, out=aligns, where=theta_l2 > 0.0)
        snaps = margins[snapshot_ts]
        return TrainRecord(
            config=cfg,
            n=n,
            d=d,
            losses=losses,
            log_losses=log_losses,
            theta_l2=theta_l2,
            theta_q=theta_q,
            alignments=aligns,
            margin_spread=spreads,
            alphas=alphas,
            snapshot_ts=snapshot_ts,
            thetas=thetas,
            per_sample_margins=snaps,
            train_errors=np.mean(snaps < 0.0, axis=1),
            adv_train_errors=np.mean(snaps - eps * theta_q[snapshot_ts, None] < 0.0, axis=1),
            adv_margin=adv_margin_val,
            schedule_M=schedule_M,
        )

    # overflowed weights and losses are expected right before the divergence
    # check, and inf or nan margins in the record of a diverged run
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T + 1):
            m, loss, pen_norm, grad = evaluate(x, t < T)
            margins[t] = m
            losses[t] = loss
            theta_q[t] = pen_norm
            if q == 2.0:
                theta_l2[t] = pen_norm
            else:  # x is theta itself; x . x has the bits of lp_norm's |x| . |x|
                sq = float(x @ x)
                theta_l2[t] = math.sqrt(sq) if _SUMSQ_MIN < sq < math.inf else lp_norm(x, 2.0)
            if mu_x is not None:
                dots[t] = mu_x @ x
            if t % cfg.record_every == 0 or t == 1 or t == T:
                snapshot_ts.append(t)
                thetas.append(to_theta(x))
            if t == T:
                break
            # the log-loss is finite iff the smallest margin and eps*||theta||_q
            # are; where the latter is not, neither is the gradient
            if not (math.isfinite(m.min()) and np.isfinite(grad).all()):
                raise TrainingDiverged(
                    f"non-finite loss or gradient at iteration {t}", make_record(t), t
                )
            alphas[t] = alpha = alpha_first if t == 0 else alpha_rest
            x = x - alpha * grad
        rec = make_record(T)
    if not math.isfinite(rec.log_losses[T]):
        raise TrainingDiverged(f"non-finite loss at iteration {T}", rec, T)
    return rec


def save_record_csv(rec: TrainRecord, path: str) -> None:
    """One row per snapshot: t,loss,log_loss,theta_l2,theta_q,alignment,train_err,adv_train_err."""
    write_csv(
        path,
        ("t", "loss", "log_loss", "theta_l2", "theta_q", "alignment", "train_err", "adv_train_err"),
        (
            (t, rec.losses[t], rec.log_losses[t], rec.theta_l2[t], rec.theta_q[t],
             rec.alignments[t], rec.train_errors[i], rec.adv_train_errors[i])
            for i, t in enumerate(rec.snapshot_ts)
        ),
    )
