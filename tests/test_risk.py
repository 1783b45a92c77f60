"""Tests for analytic and Monte Carlo population risk."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from advlab import network
from advlab.data import NOISE_DISTS, MixtureSpec, generate
from advlab.norms import PerturbationModel, lp_norm, worst_case_perturbation
from advlab.risk import (
    _CHUNK_FLOATS,
    RiskReport,
    _risks_of_margins,
    _stream_eval_rows,
    analytic_risk,
    misclassified_adversarially,
    monte_carlo_risk,
    normal_cdf,
)
from oracles import _one_block_draw, _phi


def empirical_risks(theta, feats, labels, model) -> tuple[float, float]:
    """Oracle: fractions misclassified (standard, adversarial) on given samples."""
    margins = labels * (feats @ theta)
    shift = model.epsilon * lp_norm(theta, model.q)
    return float(np.mean(margins < 0.0)), float(np.mean(margins - shift < 0.0))


def _spec(mu, eta=0.0, dist="gaussian", seed=0) -> MixtureSpec:
    mu = np.asarray(mu, dtype=float)
    return MixtureSpec(d=mu.size, mu=mu, noise_dist=dist, eta=eta, seed=seed)


# ------------------------------------------------------ pointwise conditions


def test_misclassified_adversarially_examples():
    theta = np.array([1.0, 0.0])
    x = np.array([2.0, 0.0])
    assert not misclassified_adversarially(theta, x, 1, PerturbationModel(2.0, 1.0))
    assert misclassified_adversarially(theta, x, 1, PerturbationModel(2.0, 3.0))
    # exact boundary counts as correct
    assert not misclassified_adversarially(theta, x, 1, PerturbationModel(2.0, 2.0))
    assert not misclassified_adversarially(
        theta, np.array([0.0, 5.0]), 1, PerturbationModel(2.0, 0.0)
    )
    with pytest.raises(ValueError):
        misclassified_adversarially(theta, x, 0, PerturbationModel(2.0, 1.0))


def test_misclassified_agrees_with_explicit_worst_case():
    rng = np.random.default_rng(0)
    for p in (1.0, 2.0, np.inf):
        model = PerturbationModel(p, 0.4)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            theta = rng.normal(size=d)
            x = rng.normal(size=d)
            y = int(rng.choice([-1, 1]))
            u = worst_case_perturbation(theta, y, model)
            explicit = y * float((x + u) @ theta) < 0.0
            assert misclassified_adversarially(theta, x, y, model) == explicit


# ------------------------------------------------------------- normal cdf


@pytest.mark.parametrize("half_width, rel_bound", [(5.0, 2e-15), (20.0, 2e-14)])
def test_normal_cdf_matches_scipy_ndtr(half_width, rel_bound):
    # libm's erf/erfc and cephes' differ in the last bits on about 40% of
    # points; each bound is ~1.3x the largest difference seen on its range
    rng = np.random.default_rng(11)
    xs = np.concatenate(
        [np.linspace(-half_width, half_width, 20001), rng.uniform(-half_width, half_width, 20000)]
    )
    got = np.array([normal_cdf(float(x)) for x in xs])
    want = ndtr(xs)
    assert np.all(np.abs(got - want) <= rel_bound * want)


def test_normal_cdf_exact_values():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(math.inf) == 1.0
    assert normal_cdf(-math.inf) == 0.0
    assert math.isnan(normal_cdf(math.nan))
    assert type(normal_cdf(np.float64(1.0))) is float


# ------------------------------------------------------------- analytic risk


def test_analytic_standard_risk_frozen_value():
    # theta along mu, ||mu|| = 2, flip rate 0.1: 0.9*Phi(-2) + 0.1*Phi(2)
    mu = np.array([2.0, 0.0])
    spec = _spec(mu, eta=0.1)
    rep = analytic_risk(mu, spec, PerturbationModel(2.0, 0.0))
    expected = 0.9 * _phi(-2.0) + 0.1 * _phi(2.0)
    assert rep.std_risk == pytest.approx(expected, rel=1e-12)
    assert rep.std_risk == pytest.approx(0.118200, abs=5e-7)
    assert rep.adv_risk == rep.std_risk
    assert rep.method == "analytic"
    assert rep.mc_samples == 0
    assert rep.mc_stderr == 0.0


def test_analytic_risk_is_half_when_mu_vanishes():
    spec = _spec(np.zeros(3))
    rep = analytic_risk(np.array([1.0, -2.0, 0.5]), spec, PerturbationModel(2.0, 0.0))
    assert rep.std_risk == pytest.approx(0.5, rel=1e-15)


def test_analytic_adversarial_shift_along_mu():
    # at q = 2 and theta along mu the shift is exactly epsilon
    mu = np.array([1.0, 1.0, 1.0])
    b = float(np.linalg.norm(mu))
    eta, eps = 0.2, 0.3
    rep = analytic_risk(mu, _spec(mu, eta=eta), PerturbationModel(2.0, eps))
    expected = (1 - eta) * _phi(-(b - eps)) + eta * _phi(b + eps)
    assert rep.adv_risk == pytest.approx(expected, rel=1e-12)


def test_analytic_risk_scale_invariant():
    rng = np.random.default_rng(1)
    mu = rng.normal(size=4)
    spec = _spec(mu, eta=0.12)
    model = PerturbationModel(1.5, 0.2)
    theta = rng.normal(size=4)
    base = analytic_risk(theta, spec, model)
    # the extreme scales overflow and underflow the squares of theta
    for c in (1e-170, 1e-6, 3.0, 1e6, 1e160):
        rep = analytic_risk(c * theta, spec, model)
        assert rep.std_risk == pytest.approx(base.std_risk, rel=1e-12)
        assert rep.adv_risk == pytest.approx(base.adv_risk, rel=1e-12)


def test_analytic_adv_risk_monotone_in_epsilon():
    rng = np.random.default_rng(2)
    mu = rng.normal(size=5)
    spec = _spec(mu, eta=0.1)
    theta = rng.normal(size=5)
    for p in (1.0, 2.0, np.inf):
        prev = None
        for eps in (0.0, 0.05, 0.1, 0.3, 1.0):
            rep = analytic_risk(theta, spec, PerturbationModel(p, eps))
            assert rep.adv_risk >= rep.std_risk
            if prev is not None:
                assert rep.adv_risk >= prev
            prev = rep.adv_risk


def test_analytic_risk_domain_errors():
    spec = _spec(np.ones(2), eta=0.1)
    with pytest.raises(ValueError):
        analytic_risk(np.zeros(2), spec, PerturbationModel(2.0, 0.1))
    rad = _spec(np.ones(2), eta=0.1, dist="rademacher")
    with pytest.raises(ValueError):
        analytic_risk(np.ones(2), rad, PerturbationModel(2.0, 0.1))


def test_standard_risk_minimized_along_mu_in_plane():
    mu = np.array([1.2, 0.9])
    eta = 0.15
    spec = _spec(mu, eta=eta)
    model = PerturbationModel(2.0, 0.0)
    floor = eta + (1 - 2 * eta) * _phi(-float(np.linalg.norm(mu)))

    rep = analytic_risk(mu, spec, model)
    assert rep.std_risk == pytest.approx(floor, rel=1e-12)

    angles = np.linspace(0.0, 2 * math.pi, 4001)
    vals = [
        analytic_risk(np.array([math.cos(t), math.sin(t)]), spec, model).std_risk
        for t in angles
    ]
    assert min(vals) >= floor - 1e-12
    assert min(vals) <= floor + 1e-6


# ---------------------------------------------------------- monte carlo risk


def test_mc_risk_zero_classifier_boundary_convention():
    spec = _spec(np.ones(4), eta=0.3, seed=5)
    rep = monte_carlo_risk(np.zeros(4), spec, PerturbationModel(2.0, 0.5), m=500)
    # every margin is exactly 0, which counts as correct
    assert rep.std_risk == 0.0
    assert rep.adv_risk == 0.0
    assert rep.method == "monte_carlo"
    assert rep.mc_samples == 500
    assert rep.mc_stderr == 0.0


def test_mc_risk_deterministic_and_seed_defaulting():
    spec = _spec(np.array([1.0, 0.5, 0.0]), eta=0.1, seed=42)
    model = PerturbationModel(2.0, 0.2)
    theta = np.array([0.8, 0.7, -0.1])
    a = monte_carlo_risk(theta, spec, model, m=2000)
    b = monte_carlo_risk(theta, spec, model, m=2000, seed=42)
    assert (a.std_risk, a.adv_risk, a.mc_stderr) == (b.std_risk, b.adv_risk, b.mc_stderr)
    c = monte_carlo_risk(theta, spec, model, m=2000, seed=43)
    assert (c.std_risk, c.adv_risk) != (a.std_risk, a.adv_risk)


def test_mc_risk_validates_sample_count():
    spec = _spec(np.ones(2))
    with pytest.raises(ValueError):
        monte_carlo_risk(np.ones(2), spec, PerturbationModel(2.0, 0.0), m=0)


def test_mc_risk_near_zero_at_large_margin():
    mu = np.full(16, 2.0)  # ||mu||_2 = 8
    spec = _spec(mu, eta=0.0, seed=7)
    rep = monte_carlo_risk(mu, spec, PerturbationModel(2.0, 0.0), m=100_000)
    assert rep.std_risk <= 0.001


def test_mc_risk_matches_analytic_within_two_sigma():
    rng = np.random.default_rng(3)
    mu = np.array([0.9, -0.4, 0.6, 0.2])
    spec = _spec(mu, eta=0.1, seed=11)
    m = 200_000
    for p, eps in ((2.0, 0.25), (np.inf, 0.05)):
        model = PerturbationModel(p, eps)
        theta = rng.normal(size=4)
        ana = analytic_risk(theta, spec, model)
        mc = monte_carlo_risk(theta, spec, model, m=m)
        assert mc.adv_risk >= mc.std_risk  # exact dominance on shared samples
        for got, want in ((mc.std_risk, ana.std_risk), (mc.adv_risk, ana.adv_risk)):
            se = math.sqrt(want * (1.0 - want) / m)
            assert abs(got - want) <= 2.0 * se + 1e-12


def test_mc_eval_stream_disjoint_from_training_samples():
    spec = _spec(np.array([1.0, 0.0]), eta=0.0, seed=9)
    train = generate(spec, 50).features
    evals = []
    _stream_eval_rows(
        spec, 50, spec.seed, lambda rows, clean, xi: evals.append(clean[:, None] * spec.mu + xi)
    )
    evals = np.concatenate(evals)
    assert evals.shape == train.shape
    # no evaluation row repeats a training row, nor any single coordinate
    assert not (evals[:, None, :] == train[None, :, :]).all(axis=2).any()
    assert np.intersect1d(evals, train).size == 0
    rep1 = monte_carlo_risk(np.array([1.0, 0.0]), spec, PerturbationModel(2.0, 0.0), m=50)
    rep2 = monte_carlo_risk(np.array([1.0, 0.0]), spec, PerturbationModel(2.0, 0.0), m=50)
    assert rep1 == rep2  # same stream, same samples


@pytest.mark.parametrize("dist", NOISE_DISTS)
def test_mc_risk_chunked_stream_matches_one_block_draw(dist):
    for d in (1, 7, 1000):
        chunk = max(1, _CHUNK_FLOATS // d)
        spec = MixtureSpec(d=d, mu=np.full(d, 0.5 / math.sqrt(d)), noise_dist=dist, eta=0.2, seed=3)
        theta = spec.mu + np.random.default_rng(d).normal(size=d) / math.sqrt(d)
        model = PerturbationModel(2.0, 0.3)
        for m in sorted({1, max(1, chunk - 1), chunk, chunk + 1, 3 * chunk + 5}):
            feats, labels = _one_block_draw(spec, m, 5)
            want = RiskReport.monte_carlo(*empirical_risks(theta, feats, labels, model), m)
            assert monte_carlo_risk(theta, spec, model, m=m, seed=5) == want, (d, m)


@pytest.mark.parametrize("dist", NOISE_DISTS)
def test_stream_chunks_rebuild_one_block_draw_features(dist):
    for d in (1, 7, 1000):
        chunk = max(1, _CHUNK_FLOATS // d)
        spec = MixtureSpec(d=d, mu=np.linspace(-1.0, 2.0, d), noise_dist=dist, eta=0.3, seed=6)
        for m in sorted({1, chunk, chunk + 1, 3 * chunk + 5}):
            feats = np.full((m, d), np.nan)
            seen = []

            def consume(rows, clean, xi):
                seen.append(rows)
                feats[rows] = clean[:, None] * spec.mu + xi

            labels = _stream_eval_rows(spec, m, 8, consume)
            want_feats, want_labels = _one_block_draw(spec, m, 8)
            assert [(r.start, r.stop) for r in seen] == [
                (lo, min(lo + chunk, m)) for lo in range(0, m, chunk)
            ]
            np.testing.assert_array_equal(feats, want_feats)
            np.testing.assert_array_equal(labels, want_labels)


def test_mc_risk_memory_does_not_grow_with_m_times_d():
    # one block would take m*d*8 = 160 MB; the stream keeps O(m) plus a chunk
    spec = MixtureSpec(d=1000, mu=np.full(1000, 0.01), eta=0.1, seed=4)
    theta = np.ones(1000)
    tracemalloc.start()
    try:
        monte_carlo_risk(theta, spec, PerturbationModel(2.0, 0.1), m=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("p", [2.0, np.inf])
def test_nn_evaluation_memory_does_not_grow_with_m_times_d(p):
    # the block alone would take m*d*8 = 153 and 610 MiB; the evaluation keeps
    # m-vectors, a few m x h arrays and one stream chunk, and p = inf a few
    # row chunks of delta of about 512 KB each.  Rademacher noise draws fastest.
    m, h = 20_000, 8
    pgd = network.PgdConfig(model=PerturbationModel(p, 0.1), steps=1)
    peaks = []
    for d in (1000, 4000):
        spec = MixtureSpec(d=d, mu=np.full(d, 0.01), noise_dist="rademacher", eta=0.1, seed=4)
        net = network.init_network(d=d, h=h, seed=0)
        tracemalloc.start()
        try:
            network.evaluate_nn_risks(net, spec, pgd, m=m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert max(peaks) < 24 * 2**20, peaks
    assert abs(peaks[0] - peaks[1]) < _CHUNK_FLOATS * 8, peaks


# ------------------------------------------------------------ empirical risk


def test_empirical_risks_use_strict_inequalities():
    theta = np.array([1.0, 0.0])
    model = PerturbationModel(2.0, 0.5)  # shift = 0.5 * ||theta||_2 = 0.5
    feats = np.array(
        [
            [0.0, 3.0],   # margin 0: correct, adversarially misclassified? 0-0.5<0 yes
            [0.5, 0.0],   # margin 0.5: correct, adversarial boundary exactly 0 -> correct
            [-0.1, 0.0],  # misclassified both ways
            [2.0, 0.0],   # correct both ways
        ]
    )
    labels = np.array([1.0, 1.0, 1.0, 1.0])
    assert empirical_risks(theta, feats, labels, model) == (0.25, 0.5)
    # the convention monte_carlo_risk applies to its streamed margins
    assert _risks_of_margins(labels * (feats @ theta), theta, model) == (0.25, 0.5)
