"""Population risk of linear classifiers on the noisy mixture.

Misclassification conventions, fixed once for the whole package: a point
(x, y) is misclassified by theta when y*theta.x < 0, and adversarially
misclassified when y*theta.x - epsilon*||theta||_q < 0.  Sitting exactly on
the (shifted) boundary counts as correct.

For gaussian noise both risks have closed forms.  Writing b = theta.mu /
||theta||_2 and s = epsilon*||theta||_q / ||theta||_2, a test point whose
observed label survived the flip has y*theta.x ~ N(+theta.mu, ||theta||_2^2)
and a flipped point has y*theta.x ~ N(-theta.mu, ||theta||_2^2), so with Phi
the standard normal cdf

    std_risk = (1 - eta)*Phi(-b) + eta*Phi(b)
    adv_risk = (1 - eta)*Phi(-(b - s)) + eta*Phi(b + s).

Phi is evaluated through the complementary error function in double
precision.  The Monte Carlo evaluator draws a fresh block of samples from a
dedicated evaluation stream (tag STREAM_EVAL), disjoint by construction
from every dataset sample stream, and reports a binomial standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .data import STREAM_EVAL, MixtureSpec, _draw_noise, keyed_rng
from .norms import PerturbationModel, lp_norm

__all__ = [
    "RiskReport",
    "misclassified_adversarially",
    "analytic_risk",
    "monte_carlo_risk",
    "empirical_risks",
]


@dataclass(frozen=True)
class RiskReport:
    """Standard and adversarial risk of one classifier.

    method is "analytic" or "monte_carlo"; mc_samples and mc_stderr are zero
    for analytic reports.  mc_stderr is the larger of the two binomial
    standard errors, a conservative single number; per-risk errors are
    sqrt(r*(1-r)/m).
    """

    std_risk: float
    adv_risk: float
    method: str
    mc_samples: int = 0
    mc_stderr: float = 0.0

    @classmethod
    def monte_carlo(cls, std: float, adv: float, m: int) -> RiskReport:
        """Report of risks measured on m samples, with their binomial error."""
        se = max(math.sqrt(std * (1.0 - std) / m), math.sqrt(adv * (1.0 - adv) / m))
        return cls(std_risk=std, adv_risk=adv, method="monte_carlo", mc_samples=m, mc_stderr=se)


def misclassified_adversarially(
    theta: np.ndarray, x: np.ndarray, y: int, model: PerturbationModel
) -> bool:
    """True iff some perturbation in the epsilon-ball flips the sign strictly."""
    if y not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {y!r}")
    margin = float(y) * float(np.dot(theta, x))
    return margin - model.epsilon * lp_norm(theta, model.q) < 0.0


def analytic_risk(
    theta: np.ndarray, spec: MixtureSpec, model: PerturbationModel
) -> RiskReport:
    """Closed-form risks; gaussian noise only, theta = 0 is a domain error."""
    if spec.noise_dist != "gaussian":
        raise ValueError(
            f"analytic risk requires gaussian noise, got {spec.noise_dist!r}"
        )
    theta = np.asarray(theta, dtype=float)
    nrm2 = float(np.linalg.norm(theta))
    if nrm2 == 0.0:
        raise ValueError("analytic risk is undefined at theta = 0")
    b = float(spec.mu @ theta) / nrm2
    s = model.epsilon * lp_norm(theta, model.q) / nrm2
    eta = spec.eta
    std = (1.0 - eta) * float(ndtr(-b)) + eta * float(ndtr(b))
    adv = (1.0 - eta) * float(ndtr(-(b - s))) + eta * float(ndtr(b + s))
    return RiskReport(std_risk=std, adv_risk=adv, method="analytic")


def _draw_test_block(
    spec: MixtureSpec, m: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m fresh samples in one block draw from the evaluation stream.

    Same law as ``data.generate`` (label bit, noise, flip) but drawn as
    arrays for speed; evaluation never needs per-sample extendability.
    """
    rng = keyed_rng(seed, STREAM_EVAL)
    clean = np.where(rng.integers(0, 2, size=m) == 0, 1, -1).astype(np.int64)
    xi = _draw_noise(rng, spec.noise_dist, m * spec.d).reshape(m, spec.d)
    flips = rng.random(m) < spec.eta
    obs = np.where(flips, -clean, clean)
    feats = clean[:, None] * spec.mu + xi
    return feats, obs, clean


def empirical_risks(
    theta: np.ndarray, feats: np.ndarray, labels: np.ndarray, model: PerturbationModel
) -> tuple[float, float]:
    """Fractions misclassified (standard, adversarial) on given samples."""
    margins = labels * (feats @ theta)
    shift = model.epsilon * lp_norm(theta, model.q)
    return float(np.mean(margins < 0.0)), float(np.mean(margins - shift < 0.0))


def monte_carlo_risk(
    theta: np.ndarray,
    spec: MixtureSpec,
    model: PerturbationModel,
    m: int = 2000,
    seed: int | None = None,
) -> RiskReport:
    """Estimate both risks on m fresh samples from the evaluation stream.

    seed defaults to spec.seed; pass an explicit seed for independent
    repetitions.  Exact closed-form perturbations make the adversarial
    estimate exact per sample, so the only error is binomial.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    eval_seed = spec.seed if seed is None else seed
    feats, labels, _ = _draw_test_block(spec, m, eval_seed)
    std, adv = empirical_risks(np.asarray(theta, dtype=float), feats, labels, model)
    return RiskReport.monte_carlo(std, adv, m)
