"""Two-layer ReLU network trained on the adversarial exponential loss.

The score of input x is ``w2 . relu(W1 x + b1) + b2``.  No closed form
exists for the inner maximization here, so adversarial examples come from
projected gradient ascent (PGD) in the lp ball: at each step the input
moves along the steepest-ascent direction of the per-sample loss in lp
geometry (the dual-norm subgradient of the input gradient) and is projected
back onto the ball.  Every attack starts at the clean point.  Each step is
one batched call for all rows: the steepest-ascent direction from
``norm_subgradient_rows`` and the projection from ``project_onto_ball``.
The l2 attack runs on row coefficients instead: its steps are combinations
of W1's rows, so each iterate is x + C W1 with C one h-vector per input, and
the steps and projections need only C and the h x h Gram matrix W1 W1^T.
The attack tracks the best iterate seen, so the attacked loss never falls
below the clean loss.  It is the only forward pass of a network point: the
gradient of a training epoch reads its pre-activations and margins at the
returned points, training fills its log from each epoch's kept margins
after the loop, and evaluation reads its risks from the margins.

Training runs one epoch for every norm: the attack, then the gradient at
the returned points, then the update.  At p = 2 the attack never leaves the
span of W1's rows, and each W1 gradient dU^T x_adv is a combination of
attacked inputs, so W1 and the attacked inputs stay in the span of the rows
of [W1_0; X].  Training there changes basis once before its loop, to an
orthonormal Q of that span with min(d, h + n) columns (one reduced QR): the
net W1 Q trains on the inputs X Q, and W1 is formed once, after the loop.
An orthonormal change of basis keeps l2 norms, so the ball is the same.

Evaluation streams its samples (``risk._stream_eval_rows``) and never forms
the m x d feature block: it keeps the m-vectors of margins, at most a few
m x h arrays and one stream chunk.  The stream draws the labels after all
the noise.  The l2 attack needs them only after the clean pre-activations
x W1^T + b1, so it keeps those from one pass, runs on their row
coefficients and projects delta's coordinates on the orthonormal Q from
the QR factorization of W1^T, where no digits of ||delta|| cancel.  Every
other attack replays the stream from its seed once the labels are known and
attacks chunk by chunk.

Gradients are computed by hand (the backward pass mirrors the forward
pass), with the ReLU subgradient fixed to 0 at the kink.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import STREAM_NET_INIT, Dataset, MixtureSpec, keyed_rng
from .norms import (
    PerturbationModel,
    dual_exponent,
    norm_subgradient_rows,
    project_onto_ball,
)
from .risk import RiskReport, _stream_eval_rows
from .training import _log_losses

__all__ = [
    "TwoLayerNet",
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
        sq = np.sum(self.W1**2) + np.sum(self.b1**2) + np.sum(self.w2**2)
        return math.sqrt(float(sq) + self.b2**2)

    def copy(self) -> "TwoLayerNet":
        return TwoLayerNet(self.W1.copy(), self.b1.copy(), self.w2.copy(), float(self.b2))


@dataclass(frozen=True)
class PgdConfig:
    """Attack parameters: the lp ball and the number of steps (>= 0; 0 or a
    zero budget means no attack).

    The step is 2.5 * epsilon / steps, so the iterates can cross the ball a
    couple of times.
    """

    model: PerturbationModel
    steps: int = 10

    def __post_init__(self) -> None:
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")

    def effective_step(self) -> float:
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
    if x.ndim not in (1, 2):
        raise ValueError(f"x must be one input or a 2-d array of rows; got shape {x.shape}")
    _check_input_size(net, x.shape[-1])
    if x.ndim == 1:
        u = net.W1 @ x + net.b1
        return float(net.w2 @ np.maximum(u, 0.0) + net.b2)
    u = x @ net.W1.T + net.b1
    return np.maximum(u, 0.0) @ net.w2 + net.b2


def loss_and_gradients(
    net: TwoLayerNet, feats: np.ndarray, labels: np.ndarray
) -> tuple[float, TwoLayerNet]:
    """Summed exponential loss sum_k exp(-y_k score_k) and its gradients.

    The gradients come back as a ``TwoLayerNet``, one block per parameter.
    """
    feats = np.asarray(feats, dtype=float)
    labels = np.asarray(labels, dtype=float)
    _check_input_size(net, feats.shape[-1])
    u, scores, _ = _score_and_input_ascent(net, feats, labels, with_grad=False)
    # overflowed weights propagate as inf/nan and are caught by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        return _backward(net, feats, labels, u, labels * scores)


def _backward(
    net: TwoLayerNet, feats: np.ndarray, labels: np.ndarray, u: np.ndarray, margins: np.ndarray
) -> tuple[float, TwoLayerNet]:
    """``loss_and_gradients`` from the rows' pre-activations u and margins
    (weights exp(-margins)); the caller sets the floating-point error state.

    The W1 gradient is dU^T feats, so rows given as coordinates on a basis
    (x = feats B) give the W1 gradient in the same coordinates.
    """
    act = np.maximum(u, 0.0)
    wexp = np.exp(-margins)
    coef = -labels * wexp
    # ReLU subgradient 0 at the kink: strict positivity mask
    dU = coef[:, None] * ((u > 0.0) * net.w2[None, :])
    grads = TwoLayerNet(W1=dU.T @ feats, b1=dU.sum(axis=0), w2=act.T @ coef, b2=float(np.sum(coef)))
    return float(np.sum(wexp)), grads


def _margins(u: np.ndarray, labels: np.ndarray, net: TwoLayerNet) -> np.ndarray:
    """Margins y * score of the rows with pre-activations u; net supplies w2 and b2."""
    return labels * (np.maximum(u, 0.0) @ net.w2 + net.b2)


def _score_and_input_ascent(
    net: TwoLayerNet, feats: np.ndarray, labels: np.ndarray, with_grad: bool = True
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Pre-activations, scores and (optionally) the per-row input gradient of -y*score.

    -y*score increases monotonically with the per-sample loss exp(-y*score),
    so its gradient gives the loss-ascent direction without the overflowing
    exponential factor.
    """
    u = feats @ net.W1.T + net.b1
    scores = np.maximum(u, 0.0) @ net.w2 + net.b2
    if not with_grad:
        return u, scores, None
    ds_dx = ((u > 0.0) * net.w2[None, :]) @ net.W1
    return u, scores, (-labels)[:, None] * ds_dx


def _pgd_attack_batch(
    net: TwoLayerNet, feats: np.ndarray, labels: np.ndarray, cfg: PgdConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized PGD over all rows: the best-seen iterates, the clean margins
    y * f(x) from the attack's first pass, y * f at the returned iterates and
    their pre-activations x W1^T + b1.

    The l2 attack (p = 2, a nonzero budget) runs on the n x h row
    coefficients of ``_pgd_l2_row_space``; every other attack runs the loop
    below on the n x d iterates.
    """
    model = cfg.model
    eps = model.epsilon
    attacks = eps > 0.0 and cfg.steps > 0
    if attacks and model.p == 2.0:
        return _pgd_l2_row_space(net, feats, labels, eps, cfg.steps, cfg.effective_step())
    u, scores, grad = _score_and_input_ascent(net, feats, labels, with_grad=attacks)
    clean_margin = labels * scores
    if not attacks:
        return feats.copy(), clean_margin, clean_margin, u
    p = model.p
    q = dual_exponent(p)
    step = cfg.effective_step()

    cur = feats
    best = feats.copy()
    best_margin = clean_margin
    for k in range(cfg.steps):
        cand = cur + step * norm_subgradient_rows(grad, q)
        cur = feats + project_onto_ball(cand - feats, p, eps)
        # the last iterate is only scored: no step reads its gradient
        _, scores, grad = _score_and_input_ascent(net, cur, labels, with_grad=k < cfg.steps - 1)
        margin = labels * scores
        better = margin < best_margin
        best_margin = np.where(better, margin, best_margin)
        best[better] = cur[better]
    return best, clean_margin, best_margin, best @ net.W1.T + net.b1


def _pgd_l2_row_space(
    net: TwoLayerNet,
    feats: np.ndarray,
    labels: np.ndarray,
    eps: float,
    steps: int,
    step: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The l2 attack, run on row coefficients (``_l2_coefficient_steps``).

    The best coefficients are turned into inputs once, projected onto the
    ball in input space and rescored as ``forward`` scores them, and a row
    whose rescored margin is not below its clean one returns the clean
    point.  The projection matters only where A W1 nearly cancels (W1 rows
    nearly parallel, with w2 weights of opposite sign): there a K a^T loses
    its digits to rounding, and the coefficient norms no longer bound the
    step or the iterate.
    """
    W1 = net.W1
    u0 = feats @ W1.T + net.b1
    clean_margin, best_C = _l2_coefficient_steps(W1 @ W1.T, u0, labels, net, eps, steps, step)
    best = feats + project_onto_ball(best_C @ W1, 2.0, eps)
    u, scores, _ = _score_and_input_ascent(net, best, labels, with_grad=False)
    margin = labels * scores
    stayed = ~(margin < clean_margin)
    best[stayed] = feats[stayed]
    u[stayed] = u0[stayed]
    return best, clean_margin, np.where(stayed, clean_margin, margin), u


def _l2_coefficient_steps(
    K: np.ndarray,
    u0: np.ndarray,
    labels: np.ndarray,
    net: TwoLayerNet,
    eps: float,
    steps: int,
    step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The clean margins and the best-seen n x h coefficients of the l2 attack.

    The input gradient of -y*score is A W1 with A = -y * (mask * w2), so from
    delta = 0 every step and every l2 rescale keeps delta = C W1 for an n x h
    matrix C.  With K = W1 W1^T and the clean pre-activations u0 the
    pre-activations are u0 + C K, the ascent step is A / sqrt(a K a^T) row by
    row and the projection rescales C by eps / max(sqrt(c K c^T), eps); C K
    is carried along with C, as the right half of one n x 2h array [C | C K]
    that a step updates with [A | A K], so a step costs O(n h^2) instead of
    O(n h d).  Only b1's effect, through u0, and w2 and b2 are read from net.
    """
    w2 = net.w2
    h = w2.size
    clean_margin = _margins(u0, labels, net)
    neg_yw2 = (-labels)[:, None] * w2
    # A @ K is written into its half: a product with [I | K] rounds otherwise
    A_AK = np.empty((u0.shape[0], 2 * h))
    A, AK = A_AK[:, :h], A_AK[:, h:]
    C_CK = np.zeros_like(A_AK)
    C, CK = C_CK[:, :h], C_CK[:, h:]
    best_C = np.zeros_like(C)
    best_margin = clean_margin
    u = u0
    for _ in range(steps):
        np.multiply(u > 0.0, neg_yw2, out=A)
        np.matmul(A, K, out=AK)
        sq = np.einsum("ij,ij->i", A, AK)
        # a row whose input gradient vanishes does not move
        moves = sq > 0.0
        A_AK *= (step / np.sqrt(np.where(moves, sq, 1.0)) * moves)[:, None]
        C_CK += A_AK
        # the carried C K is not C @ K exactly, so c K c^T can round below 0
        nrm = np.sqrt(np.maximum(np.einsum("ij,ij->i", C, CK), 0.0))
        C_CK *= (eps / np.maximum(nrm, eps))[:, None]
        u = u0 + CK
        margin = _margins(u, labels, net)
        better = margin < best_margin
        best_margin = np.where(better, margin, best_margin)
        np.copyto(best_C, C, where=better[:, None])
    return clean_margin, best_C


def _check_input_size(net: TwoLayerNet, d: int) -> None:
    if d != net.d:
        raise ValueError(f"the network takes d={net.d} inputs, the data has d={d}")


def pgd_attack(net: TwoLayerNet, x: np.ndarray, y: int, cfg: PgdConfig) -> np.ndarray:
    """Adversarial example for one input; the best iterate the attack saw."""
    if y not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {y!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x must be one input, a 1-d array; got shape {x.shape}")
    _check_input_size(net, x.size)
    return _pgd_attack_batch(net, x[None, :], np.array([float(y)]), cfg)[0][0]


@dataclass
class NetTrainLog:
    """Per-epoch diagnostics of adversarial network training."""

    h: int
    losses: np.ndarray
    log_losses: np.ndarray
    param_l2: np.ndarray
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

    At p = 2 with eps > 0 and steps > 0 the attack moves each input along
    W1's rows and each W1 gradient dU^T x_adv is a combination of attacked
    inputs, so W1 and the attacked inputs stay in the span of the rows of
    [W1_0; X].  The loop runs in a basis of that span: with Q orthonormal,
    from one reduced QR (min(d, h + n) columns), it trains the net with
    first layer R = W1_0 Q on the inputs E = X Q.  An orthonormal change of
    basis keeps l2 norms, so the attack, its ball and ``param_l2`` are those
    of the input-space epoch, to rounding (about 1e-15 relative).  W1 =
    W1_0 + (R - R_0) Q^T is formed once, after the loop, so lr = 0 returns
    W1_0 bit for bit.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not (math.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    _check_input_size(net, ds.d)
    net = net.copy()
    feats = ds.features
    labels = ds.labels.astype(float)
    # each epoch's clean and attacked margins; the log is filled from them
    clean, attacked = np.empty((2, epochs + 1, ds.n))
    p_l2 = np.empty(epochs + 1)
    model = pgd.model
    in_span = model.p == 2.0 and model.epsilon > 0.0 and pgd.steps > 0
    if in_span:
        W1_0 = net.W1
        Q = np.linalg.qr(np.vstack([W1_0, feats]).T)[0]
        net.W1 = W1_0 @ Q
        R0 = net.W1.copy()
        feats = feats @ Q
    # overflowed weights propagate as inf/nan and are caught by the checks
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(epochs + 1):
            rows, clean[t], attacked[t], u = _pgd_attack_batch(net, feats, labels, pgd)
            p_l2[t] = net.param_l2()
            # the log-loss is finite iff the smallest margin is (``_log_losses``)
            if not math.isfinite(attacked[t].min()):
                raise RuntimeError(f"network training diverged at epoch {t}")
            if t == epochs:
                break
            _, grads = _backward(net, rows, labels, u, attacked[t])
            if not (all(np.isfinite(g).all() for g in (grads.W1, grads.b1, grads.w2))
                    and math.isfinite(grads.b2)):
                raise RuntimeError(f"network training diverged at epoch {t}")
            net.W1 -= lr * grads.W1
            net.b1 -= lr * grads.b1
            net.w2 -= lr * grads.w2
            net.b2 -= lr * grads.b2
        losses = np.exp(-attacked).sum(axis=1)
    if in_span:
        net.W1 = W1_0 + (net.W1 - R0) @ Q.T
    return net, NetTrainLog(
        h=net.h,
        losses=losses,
        log_losses=_log_losses(attacked),
        param_l2=p_l2,
        train_errors=np.mean(clean < 0.0, axis=1),
        adv_train_errors=np.mean(attacked < 0.0, axis=1),
    )


def evaluate_nn_risks(
    net: TwoLayerNet,
    spec: MixtureSpec,
    pgd: PgdConfig,
    m: int = 2000,
    seed: Optional[int] = None,
) -> RiskReport:
    """Monte Carlo risks of a network; the adversarial one via PGD.

    PGD only lower-bounds the true worst case, so the adversarial figure is
    a certified lower bound on the adversarial risk.  The samples are those
    of one m x d block draw (``risk`` module docstring), streamed in chunks
    and never gathered (module docstring), so memory is O(m h) floats plus
    one chunk of about 512 KB.  BLAS may round a chunk's products
    differently from the block's attack, and the l2 rescale is read from
    delta's coordinates on an orthonormal basis of W1's rows rather than
    from the input-space delta, so a margin may differ from the block's in
    its last bits (about 1e-15 relative); an estimate changes only through a
    margin that close to 0.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _check_input_size(net, spec.d)
    eval_seed = spec.seed if seed is None else seed
    margins = _label_free_margins(net, spec, pgd, m, eval_seed)
    if margins is None:
        margins = _replayed_margins(net, spec, pgd, m, eval_seed)
    clean, attacked = margins
    return RiskReport.monte_carlo(
        float(np.mean(clean < 0.0)), float(np.mean(attacked < 0.0)), m
    )


def _label_free_margins(
    net: TwoLayerNet, spec: MixtureSpec, pgd: PgdConfig, m: int, seed: int
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Clean and attacked margins from one pass that keeps only x W1^T + b1.

    Serves every evaluation without an attack and the l2 attack, which runs
    on row coefficients (``_l2_coefficient_steps``) with K = W1 W1^T.  The
    QR factorization W1^T = Q T gives W1 = T^T Q^T, so delta = best_C W1 has
    coordinates D = best_C T^T on Q, where ||delta|| = ||D||: D is projected
    onto the eps-ball and the attacked pre-activations are u0 + D T.  A row
    whose attacked margin is not below its clean one keeps its clean margin,
    as in ``_pgd_l2_row_space``.  Returns None for any other attack.
    """
    model = pgd.model
    attacks = model.epsilon > 0.0 and pgd.steps > 0
    if attacks and model.p != 2.0:
        return None
    u0 = np.empty((m, net.h))

    def pre_activations(rows: slice, clean: np.ndarray, xi: np.ndarray) -> None:
        np.matmul(clean[:, None] * spec.mu + xi, net.W1.T, out=u0[rows])

    labels = _stream_eval_rows(spec, m, seed, pre_activations).astype(float)
    u0 += net.b1
    if not attacks:
        clean_margin = _margins(u0, labels, net)
        return clean_margin, clean_margin
    eps = model.epsilon
    clean_margin, best_C = _l2_coefficient_steps(
        net.W1 @ net.W1.T, u0, labels, net, eps, pgd.steps, pgd.effective_step()
    )
    T = np.linalg.qr(net.W1.T, mode="r")
    margin = _margins(u0 + project_onto_ball(best_C @ T.T, 2.0, eps) @ T, labels, net)
    return clean_margin, np.where(margin < clean_margin, margin, clean_margin)


def _replayed_margins(
    net: TwoLayerNet, spec: MixtureSpec, pgd: PgdConfig, m: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Clean and attacked margins from two passes over the stream: the first
    draws the samples only to reach the labels, the second draws them again
    from the same seed and attacks each chunk with ``_pgd_attack_batch``."""
    labels = _stream_eval_rows(spec, m, seed, lambda rows, clean, xi: None).astype(float)
    clean_margin, attacked = np.empty((2, m))

    def attack(rows: slice, clean: np.ndarray, xi: np.ndarray) -> None:
        feats = clean[:, None] * spec.mu + xi
        _, clean_margin[rows], attacked[rows], _ = _pgd_attack_batch(net, feats, labels[rows], pgd)

    _stream_eval_rows(spec, m, seed, attack)
    return clean_margin, attacked
