"""Full-batch gradient descent on the worst-case exponential loss.

For a linear classifier theta under an lp threat model the per-sample
worst-case exponential loss has the closed form

    max_{||u||_p <= eps} exp(-y (x+u).theta) = exp(-y x.theta + eps*||theta||_q),

so the training objective and its (sub)gradient are

    L(theta)      = sum_k exp(-z_k.theta + eps*||theta||_q),        z_k = y_k x_k
    grad L(theta) = -sum_k (z_k - eps*g(theta)) exp(-z_k.theta + eps*||theta||_q)

with g a subgradient of the q-norm.  Training runs plain full-batch descent
from the zero vector (or a supplied start), records scalar diagnostics at
every iteration and full snapshots on a stride, and aborts with the partial
record attached if the loss or gradient leaves the representable range.

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
from scipy.special import logsumexp

from .data import write_csv
from .margins import adversarial_margin
from .norms import PerturbationModel, lp_norm, norm_subgradient

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
    the iterations with stored parameter vectors, per-sample margins, and
    train errors.
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
    per_sample_margins: list[np.ndarray]
    train_errors: np.ndarray
    adv_train_errors: np.ndarray
    adv_margin: Optional[float] = None
    schedule_M: Optional[float] = None

    @property
    def T(self) -> int:
        return len(self.losses) - 1

    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]

    def snapshot_index(self, t: int) -> int:
        try:
            return self.snapshot_ts.index(t)
        except ValueError:
            raise KeyError(f"no snapshot at iteration {t}") from None


def adversarial_loss(theta: np.ndarray, ds, model: PerturbationModel) -> float:
    """Worst-case exponential loss; may return inf when the sum overflows.

    The log-space value from ``adversarial_log_loss`` stays finite in that
    case and is the quantity to compare.
    """
    margins = ds.signed_features @ theta
    if model.epsilon == 0.0:
        with np.errstate(over="ignore"):
            return float(np.sum(np.exp(-margins)))
    pen = model.epsilon * lp_norm(theta, model.q)
    with np.errstate(over="ignore"):
        return float(np.sum(np.exp(pen - margins)))


def adversarial_log_loss(theta: np.ndarray, ds, model: PerturbationModel) -> float:
    """log of the worst-case exponential loss, computed stably."""
    margins = ds.signed_features @ theta
    pen = model.epsilon * lp_norm(theta, model.q) if model.epsilon != 0.0 else 0.0
    return float(logsumexp(-margins) + pen)


def adversarial_loss_gradient(theta: np.ndarray, ds, model: PerturbationModel) -> np.ndarray:
    """Gradient (a subgradient at q-norm kinks) of the worst-case loss."""
    z = ds.signed_features
    margins = z @ theta
    if model.epsilon == 0.0:
        with np.errstate(over="ignore"):
            w = np.exp(-margins)
        return -(z.T @ w)
    pen = model.epsilon * lp_norm(theta, model.q)
    with np.errstate(over="ignore"):
        w = np.exp(pen - margins)
    g = norm_subgradient(theta, model.q)
    return -(z.T @ w) + (model.epsilon * float(np.sum(w))) * g


def alignment(theta: np.ndarray, mu: np.ndarray) -> float:
    """Component of the unit vector along theta in the mu direction times ||mu||."""
    nrm = float(np.linalg.norm(theta))
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

    T = cfg.T
    losses = np.full(T + 1, np.nan)
    log_losses = np.full(T + 1, np.nan)
    theta_l2 = np.full(T + 1, np.nan)
    theta_q = np.full(T + 1, np.nan)
    aligns = np.full(T + 1, np.nan)
    spreads = np.full(T + 1, np.nan)
    alphas = np.zeros(T)
    snapshot_ts: list[int] = []
    thetas: list[np.ndarray] = []
    margins_snap: list[np.ndarray] = []
    terr: list[float] = []
    aerr: list[float] = []

    if theta0 is None:
        theta = np.zeros(d)
    else:
        theta = np.asarray(theta0, dtype=float).copy()
        if theta.shape != (d,):
            raise ValueError(f"theta0 must have shape ({d},), got {theta.shape}")

    def want_snapshot(t: int) -> bool:
        return t == 0 or t == 1 or t == T or t % cfg.record_every == 0

    def record(t: int, margins: np.ndarray, loss: float, log_loss: float, pen_norm: float):
        losses[t] = loss
        log_losses[t] = log_loss
        nrm2 = float(np.linalg.norm(theta))
        theta_l2[t] = nrm2
        theta_q[t] = pen_norm
        aligns[t] = float(mu @ theta) / nrm2 if (mu is not None and nrm2 > 0) else np.nan
        spreads[t] = float(margins.max() - margins.min())
        if want_snapshot(t):
            snapshot_ts.append(t)
            thetas.append(theta.copy())
            margins_snap.append(margins.copy())
            terr.append(float(np.mean(margins < 0.0)))
            aerr.append(float(np.mean(margins - eps * pen_norm < 0.0)))

    def stats() -> tuple[np.ndarray, float, float, float, np.ndarray]:
        margins = z @ theta
        if eps == 0.0:
            with np.errstate(over="ignore"):
                w = np.exp(-margins)
            pen_norm = lp_norm(theta, q)
            loss = float(np.sum(w))
            log_loss = float(logsumexp(-margins))
        else:
            pen_norm = lp_norm(theta, q)
            with np.errstate(over="ignore"):
                w = np.exp(eps * pen_norm - margins)
            loss = float(np.sum(w))
            log_loss = float(logsumexp(-margins) + eps * pen_norm)
        return margins, loss, log_loss, pen_norm, w

    def make_record() -> TrainRecord:
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
            per_sample_margins=margins_snap,
            train_errors=np.asarray(terr),
            adv_train_errors=np.asarray(aerr),
            adv_margin=adv_margin_val,
            schedule_M=schedule_M,
        )

    for t in range(T):
        margins, loss, log_loss, pen_norm, w = stats()
        record(t, margins, loss, log_loss, pen_norm)
        # overflowed weights are expected right before the divergence check
        with np.errstate(invalid="ignore", over="ignore"):
            if eps == 0.0:
                grad = -(z.T @ w)
            else:
                grad = -(z.T @ w) + (eps * float(np.sum(w))) * norm_subgradient(theta, q)
        # linear loss may overflow while log_loss stays finite; only the
        # log-space value decides divergence
        if not math.isfinite(log_loss) or not np.all(np.isfinite(grad)):
            raise TrainingDiverged(
                f"non-finite loss or gradient at iteration {t}", make_record(), t
            )
        alpha = alpha_first if t == 0 else alpha_rest
        alphas[t] = alpha
        theta = theta - alpha * grad

    margins, loss, log_loss, pen_norm, _ = stats()
    record(T, margins, loss, log_loss, pen_norm)
    if not math.isfinite(log_loss):
        raise TrainingDiverged(
            f"non-finite loss at iteration {T}", make_record(), T
        )
    return make_record()


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
