"""Two-layer ReLU network trained on the adversarial exponential loss.

The score of input x is ``w2 . relu(W1 x + b1) + b2``.  No closed form
exists for the inner maximization here, so adversarial examples come from
projected gradient ascent (PGD) in the lp ball: at each step the
perturbation moves along the steepest-ascent direction of the per-sample
loss in lp geometry (the dual-norm subgradient of the input gradient) and
is projected back onto the ball.  Every attack starts at the clean point,
so it steps the perturbation delta from 0 and reads the pre-activations as
u0 + delta W1^T from the clean ones u0 = x W1^T + b1: no attack needs the
inputs.  Each step is one batched call for all rows: the steepest-ascent
direction from ``norm_subgradient_rows`` and the projection from
``project_onto_ball``.  The l2 attack runs on row coefficients instead: its
steps are combinations of W1's rows, so delta = C W1 with C one h-vector per
input, and the steps and projections need only C and the h x h Gram matrix
W1 W1^T.  The attack tracks the best iterate seen, so the attacked loss
never falls below the clean loss.  It is the only forward pass of a network
point: the gradient of a training epoch reads its pre-activations and
margins at the returned points, training fills its log from each epoch's
kept margins after the loop, and evaluation reads its risks from the
margins.

Training runs one epoch for every norm: the attack, then the gradient at
the returned points, then the update.  At p = 2 the attack never leaves the
span of W1's rows, and each W1 gradient dU^T x_adv is a combination of
attacked inputs, so W1 and the attacked inputs stay in the span of the rows
of [W1_0; X].  Training there changes basis once before its loop, to an
orthonormal Q of that span with min(d, h + n) columns (one reduced QR): the
net W1 Q trains on the inputs X Q, and W1 is formed once, after the loop.
An orthonormal change of basis keeps l2 norms, so the ball is the same.

Evaluation streams its samples (``risk._stream_eval_rows``) once and never
forms the m x d feature block: it keeps the clean pre-activations
x W1^T + b1 and the labels, which the stream draws after all the noise, and
attacks once both are known.  It keeps the m-vectors of margins, at most a
few m x h arrays, one stream chunk and, at p != 2, a few row chunks of
delta.  The l2 attack projects delta's coordinates on the orthonormal Q
from the QR factorization of W1^T, where no digits of ||delta|| cancel.

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
from .risk import _CHUNK_FLOATS, RiskReport, _stream_eval_rows
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
    if feats.ndim != 2:
        raise ValueError(f"feats must be a 2-d array of rows; got shape {feats.shape}")
    _check_input_size(net, feats.shape[1])
    if labels.shape != feats.shape[:1]:
        raise ValueError(f"the data has {feats.shape[0]} rows and {labels.size} labels")
    u = feats @ net.W1.T + net.b1
    # overflowed weights propagate as inf/nan and are caught by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        return _backward(net, feats, labels, u, _margins(u, labels, net))


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


def _attacks(cfg: PgdConfig) -> bool:
    """Whether cfg attacks at all: a nonzero budget and at least one step."""
    return cfg.model.epsilon > 0.0 and cfg.steps > 0


def _pgd_attack_batch(
    net: TwoLayerNet, feats: np.ndarray, labels: np.ndarray, cfg: PgdConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized PGD over all rows: the best-seen iterates, the clean margins
    y * f(x), y * f at the returned iterates and their pre-activations
    x W1^T + b1.

    The attack steps on the perturbation delta from the clean
    pre-activations u0 = x W1^T + b1: the l2 attack on its row coefficients
    (``_l2_coefficient_steps``), every other one on delta itself
    (``_dense_steps``).  The best delta is added to the inputs once, at the
    end (the l2 one after one more projection onto the ball), and the sums
    are rescored as ``forward`` scores them; a row whose rescored margin is
    not below its clean one returns the clean point.  The l2 projection
    matters only where A W1 nearly cancels (W1 rows nearly parallel, with w2
    weights of opposite sign): there a K a^T loses its digits to rounding,
    and the coefficient norms no longer bound the step or the iterate.
    """
    W1 = net.W1
    u0 = feats @ W1.T + net.b1
    if not _attacks(cfg):
        clean_margin = _margins(u0, labels, net)
        return feats.copy(), clean_margin, clean_margin, u0
    eps = cfg.model.epsilon
    if cfg.model.p == 2.0:
        clean_margin, best_C = _l2_coefficient_steps(net, u0, labels, cfg)
        delta = project_onto_ball(best_C @ W1, 2.0, eps)
    else:
        clean_margin, _, delta = _dense_steps(net, u0, labels, cfg)
    best = feats + delta
    u = best @ W1.T + net.b1
    margin = _margins(u, labels, net)
    stayed = ~(margin < clean_margin)
    best[stayed] = feats[stayed]
    u[stayed] = u0[stayed]
    return best, clean_margin, np.where(stayed, clean_margin, margin), u


def _dense_steps(
    net: TwoLayerNet, u0: np.ndarray, labels: np.ndarray, cfg: PgdConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clean margins, the best-seen margins and the best-seen n x d
    perturbations of the attack at p != 2.

    The input gradient of -y*score is A W1 with A = -y * (mask * w2), so a
    step moves delta along its dual-norm subgradient, projects delta onto
    the ball and reads the pre-activations as u0 + delta W1^T: the inputs
    are never formed.  b1 enters only through u0.
    """
    p, eps = cfg.model.p, cfg.model.epsilon
    q = dual_exponent(p)
    step = cfg.effective_step()
    W1 = net.W1
    clean_margin = _margins(u0, labels, net)
    neg_yw2 = (-labels)[:, None] * net.w2
    delta = np.zeros((u0.shape[0], W1.shape[1]))
    best_delta = np.zeros_like(delta)
    best_margin = clean_margin
    u = u0
    for _ in range(cfg.steps):
        ascent = norm_subgradient_rows(((u > 0.0) * neg_yw2) @ W1, q)
        delta = project_onto_ball(delta + step * ascent, p, eps)
        u = u0 + delta @ W1.T
        margin = _margins(u, labels, net)
        better = margin < best_margin
        best_margin = np.where(better, margin, best_margin)
        np.copyto(best_delta, delta, where=better[:, None])
    return clean_margin, best_margin, best_delta


def _l2_coefficient_steps(
    net: TwoLayerNet, u0: np.ndarray, labels: np.ndarray, cfg: PgdConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The clean margins and the best-seen n x h coefficients of the l2 attack.

    The input gradient of -y*score is A W1 with A = -y * (mask * w2), so from
    delta = 0 every step and every l2 rescale keeps delta = C W1 for an n x h
    matrix C.  With K = W1 W1^T and the clean pre-activations u0 the
    pre-activations are u0 + C K, the ascent step is A / sqrt(a K a^T) row by
    row and the projection rescales C by eps / max(sqrt(c K c^T), eps); C K
    is carried along with C, as the right half of one n x 2h array [C | C K]
    that a step updates with [A | A K], so a step costs O(n h^2) instead of
    O(n h d).  b1 enters only through u0.
    """
    eps, step = cfg.model.epsilon, cfg.effective_step()
    K = net.W1 @ net.W1.T
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
    for _ in range(cfg.steps):
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
    in_span = pgd.model.p == 2.0 and _attacks(pgd)
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
    and never gathered: one pass keeps their clean pre-activations
    u0 = x W1^T + b1 and their labels, and the attack runs on u0 (module
    docstring).  Memory is O(m h) floats plus one stream chunk and, for an
    attack at p != 2, a few row chunks of delta of about 512 KB each.

    The l2 attack runs on row coefficients (``_l2_coefficient_steps``) with
    K = W1 W1^T.  The QR factorization W1^T = Q T gives W1 = T^T Q^T, so
    delta = best_C W1 has coordinates D = best_C T^T on Q, where ||delta|| =
    ||D||: D is projected onto the eps-ball and the attacked pre-activations
    are u0 + D T.  A row whose attacked margin is not below its clean one
    keeps its clean margin, as in ``_pgd_attack_batch``.  Every other attack
    runs ``_dense_steps`` on row chunks of u0 and keeps its best margins.
    BLAS may round a chunk's products differently from the block's attack,
    and neither ending rescores x + delta, so a margin may differ from the
    block's in its last bits (about 1e-15 relative); an estimate changes
    only through a margin that close to 0.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _check_input_size(net, spec.d)
    W1 = net.W1
    u0 = np.empty((m, net.h))

    def pre_activations(rows: slice, clean: np.ndarray, xi: np.ndarray) -> None:
        np.matmul(clean[:, None] * spec.mu + xi, W1.T, out=u0[rows])

    eval_seed = spec.seed if seed is None else seed
    labels = _stream_eval_rows(spec, m, eval_seed, pre_activations).astype(float)
    u0 += net.b1
    eps = pgd.model.epsilon
    if not _attacks(pgd):
        clean_margin = attacked = _margins(u0, labels, net)
    elif pgd.model.p == 2.0:
        clean_margin, best_C = _l2_coefficient_steps(net, u0, labels, pgd)
        T = np.linalg.qr(W1.T, mode="r")
        margin = _margins(u0 + project_onto_ball(best_C @ T.T, 2.0, eps) @ T, labels, net)
        attacked = np.where(margin < clean_margin, margin, clean_margin)
    else:
        clean_margin, attacked = np.empty((2, m))
        step = max(1, _CHUNK_FLOATS // net.d)
        for lo in range(0, m, step):
            rows = slice(lo, lo + step)
            clean_margin[rows], attacked[rows], _ = _dense_steps(net, u0[rows], labels[rows], pgd)
    return RiskReport.monte_carlo(
        float(np.mean(clean_margin < 0.0)), float(np.mean(attacked < 0.0)), m
    )
