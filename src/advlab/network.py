"""Two-layer ReLU network trained on the adversarial exponential loss.

The score of input x is ``w2 . relu(W1 x + b1) + b2``.  No closed form
exists for the inner maximization here, so adversarial examples come from
projected gradient ascent (PGD) in the lp ball: at each step the input
moves along the steepest-ascent direction of the per-sample loss in lp
geometry (the dual-norm subgradient of the input gradient) and is projected
back onto the ball.  The attack tracks the best iterate seen, so with the
default deterministic start from the clean point the attacked loss never
falls below the clean loss.

Gradients are computed by hand (the backward pass mirrors the forward
pass), with the ReLU subgradient fixed to 0 at the kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .data import (
    STREAM_ATTACK,
    STREAM_NET_INIT,
    Dataset,
    MixtureSpec,
    keyed_rng,
)
from .norms import (
    PerturbationModel,
    dual_exponent,
    lp_norm,
    norm_subgradient_rows,
    project_onto_ball,
)
from .risk import RiskReport, _draw_test_block

__all__ = [
    "TwoLayerNet",
    "NetGradients",
    "PgdConfig",
    "NetTrainLog",
    "init_network",
    "forward",
    "loss_and_gradients",
    "pgd_attack",
    "adv_train_nn",
    "evaluate_nn_risks",
]


@dataclass
class TwoLayerNet:
    """Parameters: W1 (h, d), b1 (h,), w2 (h,), b2 scalar."""

    W1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float

    @property
    def h(self) -> int:
        return self.W1.shape[0]

    @property
    def d(self) -> int:
        return self.W1.shape[1]

    def param_l2(self) -> float:
        return math.sqrt(
            float(np.sum(self.W1**2) + np.sum(self.b1**2) + np.sum(self.w2**2))
            + self.b2**2
        )

    def param_lq(self, q: float) -> float:
        flat = np.concatenate([self.W1.ravel(), self.b1, self.w2, [self.b2]])
        return lp_norm(flat, q)

    def copy(self) -> "TwoLayerNet":
        return TwoLayerNet(self.W1.copy(), self.b1.copy(), self.w2.copy(), float(self.b2))


@dataclass
class NetGradients:
    """Loss gradients, one array per parameter block."""

    W1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float


@dataclass(frozen=True)
class PgdConfig:
    """Attack parameters.

    step_size defaults to 2.5 * epsilon / steps so the iterates can cross
    the ball a couple of times; random_start draws the first iterate
    uniformly-ish inside the ball instead of starting at the clean point.
    """

    model: PerturbationModel
    steps: int = 10
    step_size: Optional[float] = None
    random_start: bool = False

    def effective_step(self) -> float:
        if self.step_size is not None:
            return self.step_size
        return 2.5 * self.model.epsilon / max(self.steps, 1)


def init_network(d: int, h: int = 32, seed: int = 0) -> TwoLayerNet:
    """Gaussian init scaled by 1/sqrt(fan-in); biases start at zero."""
    rng = keyed_rng(seed, STREAM_NET_INIT)
    W1 = rng.standard_normal((h, d)) / math.sqrt(d)
    w2 = rng.standard_normal(h) / math.sqrt(h)
    return TwoLayerNet(W1=W1, b1=np.zeros(h), w2=w2, b2=0.0)


def forward(net: TwoLayerNet, x: np.ndarray) -> float | np.ndarray:
    """Score of one input (1-d x) or one score per row (2-d x)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        u = net.W1 @ x + net.b1
        return float(net.w2 @ np.maximum(u, 0.0) + net.b2)
    u = x @ net.W1.T + net.b1
    return np.maximum(u, 0.0) @ net.w2 + net.b2


def loss_and_gradients(
    net: TwoLayerNet, feats: np.ndarray, labels: np.ndarray
) -> tuple[float, NetGradients]:
    """Summed exponential loss sum_k exp(-y_k score_k) and its gradients."""
    feats = np.asarray(feats, dtype=float)
    labels = np.asarray(labels, dtype=float)
    u = feats @ net.W1.T + net.b1
    act = np.maximum(u, 0.0)
    scores = act @ net.w2 + net.b2
    # overflowed weights propagate as inf/nan and are caught by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        wexp = np.exp(-labels * scores)
        loss = float(np.sum(wexp))
        coef = -labels * wexp
        dW2 = act.T @ coef
        db2 = float(np.sum(coef))
        # ReLU subgradient 0 at the kink: strict positivity mask
        dU = coef[:, None] * ((u > 0.0) * net.w2[None, :])
        dW1 = dU.T @ feats
        db1 = dU.sum(axis=0)
    return loss, NetGradients(W1=dW1, b1=db1, w2=dW2, b2=db2)


def _score_and_input_ascent(
    net: TwoLayerNet, feats: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scores plus the per-row gradient of -y*score w.r.t. the input.

    -y*score increases monotonically with the per-sample loss exp(-y*score),
    so its gradient gives the loss-ascent direction without the overflowing
    exponential factor.
    """
    u = feats @ net.W1.T + net.b1
    scores = np.maximum(u, 0.0) @ net.w2 + net.b2
    ds_dx = ((u > 0.0) * net.w2[None, :]) @ net.W1
    return scores, (-labels)[:, None] * ds_dx


def _pgd_attack_batch(
    net: TwoLayerNet,
    feats: np.ndarray,
    labels: np.ndarray,
    cfg: PgdConfig,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Vectorized PGD over all rows; returns the best-seen iterates."""
    model = cfg.model
    eps = model.epsilon
    if eps == 0.0 or cfg.steps == 0:
        return feats.copy()
    p = model.p
    q = dual_exponent(p)
    step = cfg.effective_step()
    n = feats.shape[0]

    cur = feats.copy()
    if cfg.random_start:
        if rng is None:
            rng = keyed_rng(0, STREAM_ATTACK)
        if math.isinf(p):
            delta = rng.uniform(-eps, eps, size=feats.shape)
        else:
            raw = rng.standard_normal(feats.shape)
            radii = eps * rng.random(n) ** (1.0 / feats.shape[1])
            scale = np.array([lp_norm(raw[i], p) for i in range(n)])
            scale[scale == 0.0] = 1.0
            delta = raw / scale[:, None] * radii[:, None]
        cur = feats + delta
        for i in range(n):
            cur[i] = feats[i] + project_onto_ball(cur[i] - feats[i], p, eps)

    scores, _ = _score_and_input_ascent(net, cur, labels)
    best_margin = labels * scores
    best = cur.copy()

    for _ in range(cfg.steps):
        _, grad = _score_and_input_ascent(net, cur, labels)
        direction = norm_subgradient_rows(grad, q)
        cand = cur + step * direction
        if math.isinf(p):
            cand = feats + np.clip(cand - feats, -eps, eps)
        elif p == 2.0:
            delta = cand - feats
            nrm = np.linalg.norm(delta, axis=1)
            factor = np.where(nrm > eps, eps / np.where(nrm > 0, nrm, 1.0), 1.0)
            cand = feats + delta * factor[:, None]
        else:
            for i in range(n):
                cand[i] = feats[i] + project_onto_ball(cand[i] - feats[i], p, eps)
        cur = cand
        scores, _ = _score_and_input_ascent(net, cur, labels)
        margin = labels * scores
        better = margin < best_margin
        best_margin = np.where(better, margin, best_margin)
        best[better] = cur[better]
    return best


def pgd_attack(
    net: TwoLayerNet,
    x: np.ndarray,
    y: int,
    cfg: PgdConfig,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Adversarial example for one input; the best iterate the attack saw."""
    if y not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {y!r}")
    out = _pgd_attack_batch(
        net, np.asarray(x, dtype=float)[None, :], np.array([float(y)]), cfg, rng
    )
    return out[0]


@dataclass
class NetTrainLog:
    """Per-epoch diagnostics of adversarial network training."""

    h: int
    losses: np.ndarray
    log_losses: np.ndarray
    param_l2: np.ndarray
    param_lq: np.ndarray
    train_errors: np.ndarray
    adv_train_errors: np.ndarray

    @property
    def epochs(self) -> int:
        return len(self.losses) - 1


def adv_train_nn(
    ds: Dataset,
    net: TwoLayerNet,
    pgd: PgdConfig,
    epochs: int = 200,
    lr: float = 1e-3,
) -> tuple[TwoLayerNet, NetTrainLog]:
    """Full-batch adversarial training: attack, then descend, each epoch.

    Epoch t of the log holds the loss and errors of the parameters before
    the t-th update, evaluated on that epoch's attacked batch; entry 0 is
    the initial network.  Raises on non-finite loss like the linear trainer.
    """
    net = net.copy()
    feats = ds.features
    labels = ds.labels.astype(float)
    q = pgd.model.q
    losses = np.full(epochs + 1, np.nan)
    log_losses = np.full(epochs + 1, np.nan)
    p_l2 = np.full(epochs + 1, np.nan)
    p_lq = np.full(epochs + 1, np.nan)
    terr = np.full(epochs + 1, np.nan)
    aerr = np.full(epochs + 1, np.nan)

    for t in range(epochs + 1):
        attacked = _pgd_attack_batch(net, feats, labels, pgd)
        clean_scores = forward(net, feats)
        adv_scores = forward(net, attacked)
        with np.errstate(over="ignore"):
            margins = labels * adv_scores
            losses[t] = float(np.sum(np.exp(-margins)))
        log_losses[t] = float(logsumexp(-margins))
        p_l2[t] = net.param_l2()
        p_lq[t] = net.param_lq(q)
        terr[t] = float(np.mean(labels * clean_scores < 0.0))
        aerr[t] = float(np.mean(margins < 0.0))
        if not math.isfinite(log_losses[t]):
            raise RuntimeError(f"network training diverged at epoch {t}")
        if t == epochs:
            break
        _, grads = loss_and_gradients(net, attacked, labels)
        if not (
            np.all(np.isfinite(grads.W1))
            and np.all(np.isfinite(grads.b1))
            and np.all(np.isfinite(grads.w2))
            and math.isfinite(grads.b2)
        ):
            raise RuntimeError(f"network training diverged at epoch {t}")
        net.W1 -= lr * grads.W1
        net.b1 -= lr * grads.b1
        net.w2 -= lr * grads.w2
        net.b2 -= lr * grads.b2

    log = NetTrainLog(
        h=net.h,
        losses=losses,
        log_losses=log_losses,
        param_l2=p_l2,
        param_lq=p_lq,
        train_errors=terr,
        adv_train_errors=aerr,
    )
    return net, log


def evaluate_nn_risks(
    net: TwoLayerNet,
    spec: MixtureSpec,
    pgd: PgdConfig,
    m: int = 2000,
    seed: Optional[int] = None,
) -> RiskReport:
    """Monte Carlo risks of a network; the adversarial one via PGD.

    PGD only lower-bounds the true worst case, so the adversarial figure is
    a certified lower bound on the adversarial risk.
    """
    eval_seed = spec.seed if seed is None else seed
    feats, obs, _ = _draw_test_block(spec, m, eval_seed)
    labels = obs.astype(float)

    std = float(np.mean(labels * forward(net, feats) < 0.0))
    attacked = _pgd_attack_batch(net, feats, labels, pgd)
    adv = float(np.mean(labels * forward(net, attacked) < 0.0))
    return RiskReport.monte_carlo(std, adv, m)
