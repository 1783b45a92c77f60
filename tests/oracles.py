"""Reference quantities shared by several test modules."""

import numpy as np

from advlab.training import _log_losses


def _log_exp_loss(margins: np.ndarray) -> float:
    """log sum_k exp(-margins_k), computed stably (``_log_losses`` of one row)."""
    return float(_log_losses(margins[None, :])[0])
