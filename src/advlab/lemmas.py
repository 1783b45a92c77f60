"""Empirical checks of the structural inequalities behind the convergence story.

Each check turns one piece of the high-probability analysis into a measured
inequality on a concrete dataset and training trajectory:

- sample_geometry:   squared row norms of z_k = y_k x_k within a factor 2 of
                     d, pairwise inner products small, mean projections of
                     z_k in the expected window, noisy-label count bounded.
- loss_descent:      first-iterate loss at most 2n and monotone descent
                     thereafter (log-space once the linear loss saturates).
- iterate_norm:      ||theta_{t+1}||_2 bounded by (sqrt(c)+eps)*sqrt(d) times
                     the accumulated step-weighted loss.
- loss_ratio:        max_k/min_k of exp(-theta_t.z_k) at most 5c^2.
- alignment_growth:  mu-alignment at the final iterate exceeds the value at
                     iteration 10, plus the analytic lower-bound constants.
- dual_subgradient:  the Hoelder-equality identities of the q-norm
                     subgradient along the recorded snapshots.

Here c is the measured norm-spread constant from ``geometry_constant``.
Probability-(1-delta) statements become "at least 9 of 10 seeds" in
``run_seed_batch``.  Reports never raise on failure; they record measured
constants and the worst iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import _CONFIDENCE, Dataset, MixtureSpec, generate, mu_from_scaling, write_csv
from .margins import adversarial_margin
from .norms import PerturbationModel, dual_exponent, lp_norm, norm_subgradient
from .training import TrainConfig, TrainRecord, train

__all__ = [
    "LEMMA_IDS",
    "LemmaReport",
    "SeedBatchResult",
    "geometry_constant",
    "run_suite",
    "run_seed_batch",
    "format_reports",
    "save_reports_csv",
]

LEMMA_IDS = (
    "sample_geometry",
    "loss_descent",
    "iterate_norm",
    "loss_ratio",
    "alignment_growth",
    "dual_subgradient",
)

# tolerances for the trajectory inequalities
_DESCENT_SLACK = 1e-12
_IDENTITY_TOL = 1e-12
_NOISE_SLACK = 0.1  # allowed excess of the empirical flip fraction over eta


@dataclass
class LemmaReport:
    """Outcome of one check: pass flag, measured constants, worst location.

    worst_iteration is -1 for checks that are not indexed by trajectory
    time, and for dual_subgradient while every identity error is within
    the tolerance (rounding, whose worst location moves with any change in
    rounding); a failing dual_subgradient names its worst snapshot.
    details carries a human-readable one-liner.
    """

    lemma_id: str
    passed: bool
    measured_constants: dict[str, float] = field(default_factory=dict)
    worst_iteration: int = -1
    details: str = ""


def geometry_constant(ds: Dataset) -> float:
    """Smallest c >= 1 with d/c <= ||z_k||_2^2 <= c*d for every sample."""
    sq = np.sum(ds.signed_features**2, axis=1)
    d = float(ds.d)
    return float(max(sq.max() / d, d / sq.min(), 1.0))


def _check_geometry(ds: Dataset, c: float) -> LemmaReport:
    if ds.spec is None:
        raise ValueError("geometry check needs the generating spec for mu")
    z = ds.signed_features
    n, d = ds.n, ds.d
    mu = ds.spec.mu
    mu_sq = float(mu @ mu)

    off = np.abs(ds.gram[~np.eye(n, dtype=bool)])
    pair_limit = 2.0 * (mu_sq + math.sqrt(d * math.log(n / _CONFIDENCE)))
    pair_max = float(off.max()) if n > 1 else 0.0

    proj = z @ mu
    clean_mask = np.ones(n, dtype=bool)
    clean_mask[ds.noise_indices] = False
    clean_ok = bool(
        np.all(proj[clean_mask] >= 0.5 * mu_sq) and np.all(proj[clean_mask] <= 1.5 * mu_sq)
    )
    noisy = proj[~clean_mask]
    noisy_ok = bool(np.all(noisy <= -0.5 * mu_sq) and np.all(noisy >= -1.5 * mu_sq))

    frac_excess = len(ds.noise_indices) / n - ds.spec.eta
    count_ok = frac_excess <= _NOISE_SLACK

    passed = (c <= 2.0) and (pair_max <= pair_limit) and clean_ok and noisy_ok and count_ok
    return LemmaReport(
        lemma_id="sample_geometry",
        passed=passed,
        measured_constants={
            "norm_spread": c,
            "pairwise_max": pair_max,
            "pairwise_limit": pair_limit,
            "noise_excess": frac_excess,
        },
        details=(
            f"norm_spread={c:.4f} pairwise={pair_max:.3e}/{pair_limit:.3e} "
            f"projections={'ok' if clean_ok and noisy_ok else 'OUT'} "
            f"noise_excess={frac_excess:+.3f}"
        ),
    )


def _check_descent(rec: TrainRecord) -> LemmaReport:
    n = rec.n
    first_ok = rec.losses[1] <= 2.0 * n
    a, b = rec.losses[:-1], rec.losses[1:]
    with np.errstate(invalid="ignore"):  # inf - inf, where the log-losses decide
        gaps = np.where(np.isfinite(a) & np.isfinite(b), b - a, np.diff(rec.log_losses))
    gaps[np.isnan(gaps)] = -math.inf  # a NaN step counts neither way
    worst_t = int(np.argmax(gaps))  # the first of the largest
    worst_gap = float(gaps[worst_t])
    if worst_gap == -math.inf:  # no step to compare
        worst_t = -1
    mono_ok = not bool((gaps > _DESCENT_SLACK).any())
    return LemmaReport(
        lemma_id="loss_descent",
        passed=bool(first_ok and mono_ok),
        measured_constants={
            "first_loss_over_n": float(rec.losses[1] / n),
            "worst_increase": worst_gap,
        },
        worst_iteration=worst_t,
        details=(
            f"L(theta_1)/n={rec.losses[1]/n:.4f} (limit 2) "
            f"worst step increase={worst_gap:.3e} at t={worst_t}"
        ),
    )


def _check_iterate_norm(ds: Dataset, rec: TrainRecord, c: float) -> LemmaReport:
    eps = rec.config.model.epsilon
    coef = (math.sqrt(c) + eps) * math.sqrt(ds.d)
    # cumulative step-weighted loss sum_{m<=t} alpha_m L(theta_m)
    cum = np.cumsum(rec.alphas * rec.losses[:-1])
    bounds = coef * cum
    norms = rec.theta_l2[1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(bounds > 0, norms / bounds, np.inf)
    worst = int(np.argmax(ratios))
    worst_ratio = float(ratios[worst])
    passed = bool(np.all(norms <= bounds * (1.0 + 1e-12)))
    return LemmaReport(
        lemma_id="iterate_norm",
        passed=passed,
        measured_constants={"norm_spread": c, "worst_ratio": worst_ratio},
        worst_iteration=worst + 1,
        details=f"max ||theta_t||/bound={worst_ratio:.4f} at t={worst + 1}",
    )


def _check_loss_ratio(rec: TrainRecord, c: float) -> LemmaReport:
    limit = 5.0 * c * c
    log_limit = math.log(limit)
    spreads = rec.margin_spread
    worst = int(np.argmax(spreads))
    worst_ratio = float(np.exp(min(spreads[worst], 700.0)))
    passed = bool(np.all(spreads <= log_limit + _DESCENT_SLACK))
    return LemmaReport(
        lemma_id="loss_ratio",
        passed=passed,
        measured_constants={"ratio_limit": limit, "worst_ratio": worst_ratio},
        worst_iteration=worst,
        details=f"max weight ratio={worst_ratio:.4f} (limit {limit:.4f}) at t={worst}",
    )


def _check_alignment(ds: Dataset, rec: TrainRecord, c: float) -> LemmaReport:
    if ds.spec is None:
        raise ValueError("alignment check needs the generating spec for mu")
    mu = ds.spec.mu
    mu_nrm = lp_norm(mu, 2)
    eps = rec.config.model.epsilon
    q = rec.config.model.q
    T = rec.T
    ref_t = 10 if T > 10 else max(1, T // 2)
    a_ref = float(rec.alignments[ref_t])
    a_T = float(rec.alignments[T])
    # analytic floor of the alignment, before the log t correction
    floor = (mu_nrm**2 / 4.0 - eps * lp_norm(mu, q)) / ((math.sqrt(c) + eps) * math.sqrt(ds.d))
    log_coef = 0.0
    if T > 1 and rec.n > 1 and mu_nrm > 0:
        log_coef = max(0.0, (floor - a_T) * math.log(T) / (mu_nrm * math.log(rec.n)))
    passed = bool(a_T > a_ref)
    return LemmaReport(
        lemma_id="alignment_growth",
        passed=passed,
        measured_constants={
            "alignment_ref": a_ref,
            "alignment_final": a_T,
            "floor": floor,
            "log_term_coeff": log_coef,
        },
        worst_iteration=ref_t,
        details=(
            f"alignment t={ref_t}: {a_ref:.6f} -> t={T}: {a_T:.6f} "
            f"(floor {floor:.4f}, fitted log coeff {log_coef:.4f})"
        ),
    )


def _check_subgradient(rec: TrainRecord) -> LemmaReport:
    q = rec.config.model.q
    p = dual_exponent(q)
    d = rec.d
    worst_err = 0.0
    worst_t = -1
    checked = 0
    # formed a block at a time: one product per block on the row-space path
    thetas = (theta for _, block in rec.thetas.blocks() for theta in block)
    for t, theta in zip(rec.snapshot_ts, thetas):
        nrm_q = lp_norm(theta, q)
        if nrm_q == 0.0:
            continue
        checked += 1
        g = norm_subgradient(theta, q)
        tol_scale = max(1.0, nrm_q)
        nrm_2 = lp_norm(g, 2.0)
        errs = (
            abs((nrm_2 if p == 2.0 else lp_norm(g, p)) - 1.0),
            max(0.0, nrm_2 - math.sqrt(d)),
            abs(float(theta @ g) - nrm_q) / tol_scale,
        )
        e = max(errs)
        if e > worst_err:
            worst_err = e
            worst_t = t
    passed = worst_err <= _IDENTITY_TOL
    return LemmaReport(
        lemma_id="dual_subgradient",
        passed=bool(passed or checked == 0),
        measured_constants={"worst_identity_error": worst_err},
        # errors within the tolerance are rounding; their argmax names nothing
        worst_iteration=-1 if passed else worst_t,
        details=f"worst identity error={worst_err:.3e} over {checked} snapshots",
    )


def run_suite(
    ds: Dataset, rec: TrainRecord, model: PerturbationModel
) -> list[LemmaReport]:
    """Run every check against one dataset and its training record.

    Purely read-only; failures are reported, never raised.  A nonpositive
    perturbation-adjusted margin (when known) is flagged in the details of
    the geometry report since the trajectory analysis assumes it positive.
    """
    if rec.d != ds.d or rec.n != ds.n:
        raise ValueError(
            f"record shape ({rec.n},{rec.d}) does not match dataset ({ds.n},{ds.d})"
        )
    if model != rec.config.model:
        raise ValueError("model disagrees with the one used for training")
    c = geometry_constant(ds)
    reports = [
        _check_geometry(ds, c),
        _check_descent(rec),
        _check_iterate_norm(ds, rec, c),
        _check_loss_ratio(rec, c),
        _check_alignment(ds, rec, c),
        _check_subgradient(rec),
    ]
    gamma = rec.adv_margin
    if gamma is None:
        gamma = adversarial_margin(ds, model).value
    if gamma <= 0.0:
        reports[0].details += (
            f" [warning: perturbation-adjusted margin {gamma:.3e} <= 0;"
            f" step_mode={rec.config.step_mode}]"
        )
    return reports


@dataclass
class SeedBatchResult:
    """Per-check pass counts over a batch of seeds."""

    seeds: int
    pass_counts: dict[str, int]
    reports: list[list[LemmaReport]]

    def passing(self, required: int) -> bool:
        return all(v >= required for v in self.pass_counts.values())


def run_seed_batch(
    n: int,
    d: int,
    r: float,
    eta: float,
    model: PerturbationModel,
    cfg: TrainConfig,
    noise_dist: str = "gaussian",
    seeds: int = 10,
    base_seed: int = 0,
) -> SeedBatchResult:
    """Generate, train, and run the suite for seeds base_seed + i."""
    counts = {lid: 0 for lid in LEMMA_IDS}
    all_reports: list[list[LemmaReport]] = []
    mu = mu_from_scaling(d, r)
    for i in range(seeds):
        spec = MixtureSpec(d=d, mu=mu, noise_dist=noise_dist, eta=eta, seed=base_seed + i)
        ds = generate(spec, n)
        rec = train(ds, cfg)
        reports = run_suite(ds, rec, model)
        all_reports.append(reports)
        for rep in reports:
            counts[rep.lemma_id] += int(rep.passed)
    return SeedBatchResult(seeds=seeds, pass_counts=counts, reports=all_reports)


def format_reports(reports: list[LemmaReport]) -> str:
    lines = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        lines.append(f"{status} {rep.lemma_id}: {rep.details}")
    return "\n".join(lines)


def save_reports_csv(reports: list[LemmaReport], path: str) -> None:
    """One row per measured constant: lemma_id,passed,constant_name,constant_value,worst_iteration."""
    write_csv(
        path,
        ("lemma_id", "passed", "constant_name", "constant_value", "worst_iteration"),
        (
            (rep.lemma_id, str(rep.passed).lower(), name, float(val), rep.worst_iteration)
            for rep in reports
            for name, val in rep.measured_constants.items() or [("-", math.nan)]
        ),
    )
