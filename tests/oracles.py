"""Reference quantities shared by several test modules."""

import numpy as np

from advlab.data import STREAM_EVAL, _draw_noise, keyed_rng
from advlab.network import _pgd_attack_batch
from advlab.risk import RiskReport
from advlab.training import _log_losses


def _log_exp_loss(margins: np.ndarray) -> float:
    """log sum_k exp(-margins_k), computed stably (``_log_losses`` of one row)."""
    return float(_log_losses(margins[None, :])[0])


def _one_block_draw(spec, m, seed):
    """The evaluation samples drawn as one m x d block: labels, noise, flips."""
    rng = keyed_rng(seed, STREAM_EVAL)
    clean = np.where(rng.integers(0, 2, size=m) == 0, 1, -1).astype(np.int64)
    xi = _draw_noise(rng, spec.noise_dist, m * spec.d).reshape(m, spec.d)
    flips = rng.random(m) < spec.eta
    return clean[:, None] * spec.mu + xi, np.where(flips, -clean, clean)


def _block_nn_evaluation(net, spec, pgd, m, seed):
    """The network's Monte Carlo risks on the whole m x d block, attacked by
    one ``_pgd_attack_batch`` call; returns the report, the block and its
    labels."""
    feats, labels = _one_block_draw(spec, m, seed)
    labels = labels.astype(float)
    _, clean, attacked, _ = _pgd_attack_batch(net, feats, labels, pgd)
    rep = RiskReport.monte_carlo(float(np.mean(clean < 0.0)), float(np.mean(attacked < 0.0)), m)
    return rep, feats, labels
