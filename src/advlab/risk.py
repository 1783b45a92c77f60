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

Phi is ``normal_cdf``, evaluated through the C library's error function
and complementary error function (``math.erf``, ``math.erfc``) in double
precision.  The Monte Carlo evaluator draws m fresh samples from a
dedicated evaluation stream (tag STREAM_EVAL), disjoint by construction
from every dataset sample stream, and reports a binomial standard error.
The stream order is fixed: all m label bits, then the m noise rows in
order, then the m flip uniforms.  ``_stream_eval_rows`` draws the noise in
row chunks of about 512 KB and hands each chunk to its caller while it is
in cache, so Monte Carlo risk holds O(m + chunk) floats, never an m x d
block.  Philox keeps its state between calls, so the chunked draws are
the same values as one block draw.  A sample's features are c*mu + xi
(clean label c, noise row xi), and theta scores it linearly: the margin is
y*(xi.theta + c*(mu.theta)), with xi.theta taken from the raw noise chunk
and mu.theta once per theta, so no feature chunk is formed.  That sum is
split differently from (c*mu + xi).theta, so a margin may differ from it
in its last bits (about 1e-15 relative); an estimate changes only through
a margin that close to 0 or to the shift epsilon*||theta||_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import STREAM_EVAL, MixtureSpec, _draw_noise, keyed_rng
from .norms import PerturbationModel, lp_norm

__all__ = [
    "RiskReport",
    "normal_cdf",
    "misclassified_adversarially",
    "analytic_risk",
    "monte_carlo_risk",
]


_SQRT1_2 = math.sqrt(0.5)

# noise floats per evaluation chunk (512 KB); a chunk holds at least one row
_CHUNK_FLOATS = 1 << 16


def normal_cdf(x: float) -> float:
    """The standard normal cdf Phi(x) of one number.

    The branches of cephes ``ndtr``: erf near zero, where it keeps full
    relative accuracy, and erfc of |z| in both tails, so the lower tail
    keeps its digits down to the subnormal range.
    """
    z = x * _SQRT1_2
    if abs(z) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(z)
    y = 0.5 * math.erfc(abs(z))
    return 1.0 - y if z > 0.0 else y


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
    nrm2 = lp_norm(theta, 2)
    if nrm2 == 0.0:
        raise ValueError("analytic risk is undefined at theta = 0")
    b = float(spec.mu @ theta) / nrm2
    s = model.epsilon * lp_norm(theta, model.q) / nrm2
    eta = spec.eta
    std = (1.0 - eta) * normal_cdf(-b) + eta * normal_cdf(b)
    adv = (1.0 - eta) * normal_cdf(-(b - s)) + eta * normal_cdf(b + s)
    return RiskReport(std_risk=std, adv_risk=adv, method="analytic")


def _stream_eval_rows(spec: MixtureSpec, m: int, seed: int, consume) -> np.ndarray:
    """Draw m evaluation samples in row chunks; return their observed labels.

    Same law as ``data.generate`` (label bit, noise, flip), drawn from the
    stream (seed, STREAM_EVAL) in the order of the module docstring.  Each
    chunk goes to ``consume(rows, clean, xi)``: ``rows`` is the slice of
    sample indices it holds, ``clean`` their clean labels and ``xi`` their
    noise rows, so the features are ``clean[:, None] * mu + xi``.  ``xi``
    is only valid during the call: gaussian chunks reuse one buffer.
    """
    rng = keyed_rng(seed, STREAM_EVAL)
    clean = np.where(rng.integers(0, 2, size=m) == 0, 1, -1).astype(np.int64)
    step = max(1, _CHUNK_FLOATS // spec.d)
    gaussian = spec.noise_dist == "gaussian"
    buf = np.empty(min(step, m) * spec.d) if gaussian else None
    for lo in range(0, m, step):
        rows = slice(lo, min(lo + step, m))
        size = (rows.stop - lo) * spec.d
        if gaussian:  # the values of _draw_noise, without a fresh array
            xi = buf[:size]
            rng.standard_normal(out=xi)
        else:
            xi = _draw_noise(rng, spec.noise_dist, size)
        consume(rows, clean[rows], xi.reshape(-1, spec.d))
    flips = rng.random(m) < spec.eta
    return np.where(flips, -clean, clean)


def _eval_margin_risks(
    thetas: list[np.ndarray], spec: MixtureSpec, m: int, seed: int, model: PerturbationModel
) -> list[tuple[float, float]]:
    """(standard, adversarial) Monte Carlo risks of each theta on one stream.

    Every theta is scored on the same m samples, chunk by chunk, as
    xi.theta + c*(mu.theta) (module docstring), so only the len(thetas) x m
    margins are kept, and they are made in place.
    """
    scores = np.empty((len(thetas), m))
    mean_dots = [float(spec.mu @ theta) for theta in thetas]

    def consume(rows: slice, clean: np.ndarray, xi: np.ndarray) -> None:
        for k, theta in enumerate(thetas):
            score = scores[k, rows]
            np.matmul(xi, theta, out=score)
            score += clean * mean_dots[k]

    labels = _stream_eval_rows(spec, m, seed, consume)
    scores *= labels
    return [_risks_of_margins(s, theta, model) for s, theta in zip(scores, thetas)]


def _risks_of_margins(
    margins: np.ndarray, theta: np.ndarray, model: PerturbationModel
) -> tuple[float, float]:
    shift = model.epsilon * lp_norm(theta, model.q)
    return float(np.mean(margins < 0.0)), float(np.mean(margins < shift))


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
    estimate exact per sample, so the only error is binomial.  The samples
    are drawn in the stream order of the module docstring and scored chunk
    by chunk: memory is O(m) floats plus one chunk of about 512 KB.  The
    samples are those of one m x d block draw.  Each margin is scored as
    y*(xi.theta + c*(mu.theta)), not y*((c*mu + xi).theta), and BLAS may
    sum a chunk's products in another order, so a margin may differ from
    the block's in its last bits (about 1e-15 relative).  That changes an
    estimate only for a margin within that distance of 0 or of the shift
    epsilon*||theta||_q.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    eval_seed = spec.seed if seed is None else seed
    theta = np.asarray(theta, dtype=float)
    [(std, adv)] = _eval_margin_risks([theta], spec, m, eval_seed, model)
    return RiskReport.monte_carlo(std, adv, m)
