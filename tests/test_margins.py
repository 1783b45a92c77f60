"""Margin solver: closed-form cases, a planar grid oracle, duality
residuals, and monotonicity in the perturbation radius."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from advlab.data import MixtureSpec, generate, mu_from_scaling
from advlab.margins import MarginResult, adversarial_margin, standard_margin
from advlab.norms import PerturbationModel, dual_exponent, lp_norm
from oracles import _dataset


def _vec_norms(dirs, q):
    if math.isinf(q):
        return np.abs(dirs).max(axis=1)
    if q == 2.0:
        return np.linalg.norm(dirs, axis=1)
    return (np.abs(dirs) ** q).sum(axis=1) ** (1.0 / q)


def _grid_oracle(z, sphere_q, pen_q, eps, m=400_000):
    ang = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    dirs = dirs / _vec_norms(dirs, sphere_q)[:, None]
    vals = (z @ dirs.T).min(axis=0)
    if eps > 0.0:
        vals = vals - eps * _vec_norms(dirs, pen_q)
    return float(vals.max())


def test_single_sample_standard_margin_is_dual_norm():
    # max_{||theta||_q = 1} theta.z = ||z||_p by Hoelder
    rng = np.random.default_rng(0)
    for q in [1.0, 1.5, 2.0, 4.0, math.inf]:
        z = rng.normal(size=6)
        ds = _dataset(z[None, :], [1.0])
        res = standard_margin(ds, q=q)
        assert res.value == pytest.approx(lp_norm(z, dual_exponent(q)), rel=1e-6)
        assert lp_norm(res.direction, q) == pytest.approx(1.0, rel=1e-12)


def test_single_sample_adversarial_margin_euclidean():
    z = np.array([3.0, 4.0])
    ds = _dataset(z[None, :], [1.0])
    model = PerturbationModel(p=2.0, epsilon=0.75)
    res = adversarial_margin(ds, model)
    # theta = z/||z|| is optimal; value = ||z|| - eps
    assert res.value == pytest.approx(5.0 - 0.75, abs=1e-8)
    assert np.linalg.norm(res.direction) == pytest.approx(1.0, rel=1e-12)


def test_antipodal_pair_has_zero_margin():
    z = np.array([1.0, 2.0, -0.5])
    ds = _dataset(np.stack([z, -z]), [1.0, 1.0])
    res = standard_margin(ds, q=2.0)
    assert abs(res.value) <= 1e-7


def test_margin_result_value_matches_direction():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(8, 5))
    labels = np.where(rng.random(8) < 0.5, -1.0, 1.0)
    ds = _dataset(feats, labels)
    model = PerturbationModel(p=2.0, epsilon=0.1)
    res = adversarial_margin(ds, model)
    assert isinstance(res, MarginResult)
    z = ds.signed_features
    recomputed = float((z @ res.direction).min()) - 0.1 * lp_norm(res.direction, 2.0)
    assert recomputed == res.value
    assert res.certificate_gap >= 0.0


def test_planar_instances_match_grid_oracle():
    """Twenty random 3-point planar problems across exponents and radii."""
    rng = np.random.default_rng(2)
    for trial in range(20):
        feats = rng.normal(size=(3, 2))
        labels = np.where(rng.random(3) < 0.5, -1.0, 1.0)
        ds = _dataset(feats, labels)
        z = ds.signed_features
        q = [1.0, 1.5, 2.0, 4.0, math.inf][trial % 5]
        eps = [0.0, 0.05, 0.2][trial % 3]

        got = standard_margin(ds, q=q).value
        want = _grid_oracle(z, q, q, 0.0)
        assert got == pytest.approx(want, abs=1e-3), (trial, q)

        model = PerturbationModel(p=dual_exponent(q), epsilon=eps)
        got_adv = adversarial_margin(ds, model).value
        want_adv = _grid_oracle(z, 2.0, q, eps)
        assert got_adv == pytest.approx(want_adv, abs=1e-3), (trial, q, eps)


def test_adversarial_margin_monotone_in_epsilon():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(10, 5)) + 1.0
    ds = _dataset(feats, np.ones(10))
    for p in [2.0, math.inf]:
        prev = math.inf
        for eps in [0.0, 0.05, 0.1, 0.2, 0.4]:
            val = adversarial_margin(ds, PerturbationModel(p=p, epsilon=eps)).value
            assert val <= prev + 1e-9
            prev = val


def test_adversarial_never_exceeds_standard_at_q2():
    rng = np.random.default_rng(4)
    for seed in range(5):
        feats = rng.normal(size=(12, 8)) + 0.5
        labels = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        ds = _dataset(feats, labels)
        std = standard_margin(ds, q=2.0).value
        adv = adversarial_margin(ds, PerturbationModel(p=2.0, epsilon=0.1)).value
        assert adv <= std + 1e-9


def test_nonseparable_instance_reports_negative_margin():
    # three directions 120 degrees apart surround the origin; the best any
    # unit vector can do against the worst of them is cos(120) = -1/2
    s = math.sqrt(3.0) / 2.0
    feats = np.array([[1.0, 0.0], [-0.5, s], [-0.5, -s]])
    res = standard_margin(_dataset(feats, np.ones(3)), q=2.0)
    assert res.value == pytest.approx(-0.5, abs=1e-6)


# ------------------------------------------------- dual over the simplex


def test_orthogonal_rows_match_closed_form(monkeypatch):
    # signed rows c_k * u_k with orthonormal u_k: the dual optimum weights
    # lam_k ~ 1/c_k^2, so the q = 2 margin is 1/sqrt(sum_k 1/c_k^2)
    from advlab import margins

    basis, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(12, 12)))
    c = np.array([0.5, 1.0, 2.0, 3.0, 4.5])
    labels = np.array([1.0, -1.0, 1.0, -1.0, -1.0])
    ds = _dataset(labels[:, None] * (c[:, None] * basis[:5]), labels)
    want = 1.0 / math.sqrt(float(np.sum(1.0 / c**2)))
    # the default stopping gap, 1e-10, leaves errors near 1e-10 here
    monkeypatch.setattr(margins, "GAP_TOL", 1e-13)
    std = standard_margin(ds, q=2.0)
    assert std.value == pytest.approx(want, abs=1e-12)
    adv = adversarial_margin(ds, PerturbationModel(p=2.0, epsilon=0.3))
    assert adv.value == pytest.approx(want - 0.3, abs=1e-12)


def _mixture(d, seed):
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.3), eta=0.1, seed=seed)
    return generate(spec, 50)


@pytest.mark.parametrize("d", [200, 1000])
def test_dual_certifies_euclidean_margins(d):
    ds = _mixture(d, seed=d)
    results = [standard_margin(ds, q=2.0)] + [
        adversarial_margin(ds, PerturbationModel(p=p, epsilon=eps))
        for p, eps in [(1.0, 0.1), (2.0, 0.1), (math.inf, 0.01)]
    ]
    for res in results:
        assert res.value > 0.0
        assert 0.0 <= res.certificate_gap <= 1e-8 * max(1.0, abs(res.value))
        assert res.iterations < 1000


def test_stopping_gap_scales_with_large_margins():
    # features scaled by 1e6 put the margins near 5e6, where rounding in the
    # margins alone leaves gaps of ~1e-9, above the absolute default 1e-10
    ds = _mixture(1000, seed=0)
    big = _dataset(ds.features * 1e6, ds.labels)
    results = [standard_margin(big, q=2.0)] + [
        adversarial_margin(big, PerturbationModel(p=p, epsilon=0.1)) for p in (2.0, math.inf)
    ]
    for res in results:
        assert res.value > 1e6
        assert res.iterations < 500
        assert 0.0 <= res.certificate_gap <= 1e-10 * abs(res.value)


@pytest.mark.parametrize("d", [200, 1000])
def test_certified_margins_monotone_in_epsilon(d):
    ds = _mixture(d, seed=d + 1)
    for p in [1.0, 2.0, math.inf]:
        vals = [
            adversarial_margin(ds, PerturbationModel(p=p, epsilon=eps)).value
            for eps in (0.0, 0.001, 0.01, 0.05, 0.1)
        ]
        assert float(np.diff(vals).max()) <= 1e-9, (p, vals)


def test_nonseparable_instance_falls_back_to_primal_ascent():
    # rows +-c_i e_i surround the origin: the best unit theta balances
    # c_i |theta_i|, scoring -1/sqrt(sum 1/c_i^2); the dual value is 0
    c = np.array([1.0, 2.0, 3.0])
    ds = _dataset(np.vstack([np.diag(c), -np.diag(c)]), np.ones(6))
    want = -1.0 / math.sqrt(float(np.sum(1.0 / c**2)))
    std = standard_margin(ds, q=2.0)
    assert std.value == pytest.approx(want, abs=1e-6)
    # the dual stops after one step with nothing to certify; the sphere
    # ascent's iterations follow it
    assert std.iterations > 1
    res = adversarial_margin(ds, PerturbationModel(p=2.0, epsilon=0.1))
    assert res.iterations == std.iterations
    assert res.value == pytest.approx(want - 0.1, abs=1e-6)
    # the dual value is about 0, so the bound never certifies the negative
    # optimum; the adversarial bound is that bound shifted by epsilon
    assert std.certificate_gap >= -std.value
    upper = res.value + res.certificate_gap
    assert upper == pytest.approx(std.value + std.certificate_gap - 0.1)
    assert upper >= want - 0.1 - 1e-6


def test_all_zero_sample_returns_the_optimal_direction():
    # every unit theta scores -eps*||theta||_q here: the best are e_0 for
    # q <= 2 and the uniform direction, at -eps*d**(1/q - 1/2), for q > 2
    from advlab import margins

    d, eps = 3, 0.3
    ds = _dataset(np.zeros((4, d)), np.ones(4))
    z = ds.signed_features
    cases = [(standard_margin(ds, q), q, q, 0.0, 0.0) for q in (1.0, 2.0, 3.0, math.inf)]
    for p, want in ((1.0, -eps / math.sqrt(d)), (2.0, -eps), (3.0, -eps), (math.inf, -eps)):
        res = adversarial_margin(ds, PerturbationModel(p, eps))
        cases.append((res, 2.0, dual_exponent(p), eps, want))
    dirs = np.random.default_rng(3).normal(size=(1000, d))
    for res, sphere_q, q, e, want in cases:
        assert res.value == margins._objective(z, res.direction, e, q)[0]
        assert res.value == pytest.approx(want, abs=1e-15)
        assert res.certificate_gap == 0.0
        # up to the rounding of the sampled directions' norms
        sampled = [margins._objective(z, v / lp_norm(v, sphere_q), e, q)[0] for v in dirs]
        assert res.value + res.certificate_gap >= max(sampled) - 1e-15


def test_sphere_ascent_charges_the_norm_at_positive_epsilon(monkeypatch):
    # 40 rows all labelled +1 in 5 dimensions surround the origin: the optimum
    # is negative, so the ascent on the Euclidean sphere runs with its
    # eps*||theta||_q subgradient
    from advlab import margins

    z = np.random.default_rng(7).normal(size=(40, 5))
    ds = _dataset(z, np.ones(40))
    calls = []
    subgradient = margins.norm_subgradient

    def spy(theta, q):
        calls.append(q)
        return subgradient(theta, q)

    monkeypatch.setattr(margins, "norm_subgradient", spy)
    start = margins._normalize(z.sum(axis=0), 2.0)
    dirs = np.random.default_rng(8).normal(size=(20_000, 5))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for p in (math.inf, 1.0, 1.5):
        q, eps = dual_exponent(p), 0.1
        calls.clear()
        res = adversarial_margin(ds, PerturbationModel(p, eps))
        assert calls and set(calls) == {q}
        assert np.linalg.norm(res.direction) == pytest.approx(1.0, rel=1e-12)
        assert res.value == margins._objective(z, res.direction, eps, q)[0]
        assert res.value < 0.0
        assert res.value >= margins._objective(z, start, eps, q)[0]
        sampled = (z @ dirs.T).min(axis=0) - eps * _vec_norms(dirs, q)
        assert res.value >= float(sampled.max())


def test_adversarial_margin_beyond_the_standard_margin_at_p2_is_the_shift(monkeypatch):
    # epsilon above the standard margin leaves a negative optimum, which an
    # epsilon-ball dual cannot certify; the shifted standard solve does
    from advlab import margins

    spec = MixtureSpec(d=200, mu=mu_from_scaling(200, 0.2), eta=0.1, seed=1401)
    ds = generate(spec, 50)
    std = standard_margin(ds, q=2.0)
    assert 2.2 < std.value < 2.3
    assert std.certificate_gap <= margins._tolerance(std.value)

    def unused(*args):
        raise AssertionError("the epsilon-ball dual or the epsilon > 0 ascent ran")

    monkeypatch.setattr(margins, "project_onto_ball", unused)
    monkeypatch.setattr(margins, "norm_subgradient", unused)
    for eps in (2.3, 3.0):
        res = adversarial_margin(ds, PerturbationModel(p=2.0, epsilon=eps))
        assert res.value == pytest.approx(std.value - eps, abs=1e-14)
        assert res.value < 0.0
        assert res.iterations == std.iterations
        np.testing.assert_array_equal(res.direction, std.direction)
        assert res.certificate_gap <= margins._tolerance(std.value)
        assert res.certificate_gap <= 1e-9


@pytest.mark.parametrize("d", [50, 200, 1000, 5000])
def test_p2_adversarial_margin_is_the_standard_solve_shifted(d):
    # the standard direction, its objective value bit for bit, and the
    # standard bound shifted by epsilon, on separable samples
    from advlab import margins

    ds = generate(MixtureSpec(d=d, mu=mu_from_scaling(d, 0.3), eta=0.1, seed=d), 50)
    std = standard_margin(ds, q=2.0)
    assert std.value > 0.0
    for eps in (0.01, 0.1, 0.5):
        res = adversarial_margin(ds, PerturbationModel(p=2.0, epsilon=eps))
        assert res.direction.tobytes() == std.direction.tobytes()
        assert res.value == margins._objective(ds.signed_features, res.direction, eps, 2.0)[0]
        assert res.certificate_gap == max(
            0.0, std.value + std.certificate_gap - eps - res.value
        )


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
@pytest.mark.parametrize("d", [2, 7, 60])
def test_zero_epsilon_is_the_q2_standard_margin(p, d):
    # nothing is charged at epsilon = 0, whatever the norm: the result is the
    # q = 2 standard margin's, bit for bit
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.3), eta=0.2, seed=d)
    for n in (5, 40):
        ds = generate(spec, n)
        std = standard_margin(ds, q=2.0)
        res = adversarial_margin(ds, PerturbationModel(p=p, epsilon=0.0))
        assert res.direction.tobytes() == std.direction.tobytes()
        assert (res.value, res.iterations, res.certificate_gap) == (
            std.value, std.iterations, std.certificate_gap
        )


# ------------------------------------------------- q = 2 on the Gram matrix


def _nnls_q2_bracket(z):
    """(lower, upper) on the q = 2 margin: the simplex least-squares dual by
    scipy's NNLS, with one heavily weighted row for sum(lam) = 1."""
    from scipy.optimize import nnls

    n, d = z.shape
    weight = 1e4 * (1.0 + float(np.abs(z).max()) * math.sqrt(d))
    a = np.vstack([z.T, np.full((1, n), weight)])
    lam, _ = nnls(a, np.append(np.zeros(d), weight), maxiter=50 * n)
    v = (lam / lam.sum()) @ z
    upper = float(np.linalg.norm(v))
    return float(np.min(z @ (v / upper))), upper


def _fista_unused(*args):
    raise AssertionError("the FISTA dual ran")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, d", [(50, 200), (50, 1000), (20, 5000), (50, 60)])
def test_q2_margin_is_solved_exactly_on_the_gram_matrix(monkeypatch, n, d, seed):
    # with n < d every row is a support vector: the active-set solve on the
    # Gram matrix is exact, and the FISTA dual never runs
    from advlab import margins

    monkeypatch.setattr(margins, "_solve_dual", _fista_unused)
    ds = generate(MixtureSpec(d=d, mu=mu_from_scaling(d, 0.3), eta=0.1, seed=seed), n)
    res = standard_margin(ds, q=2.0)
    lower, upper = _nnls_q2_bracket(ds.signed_features)
    scale = max(1.0, abs(res.value))
    assert lower - 1e-12 * scale <= res.value <= upper + 1e-12 * scale
    assert 0.0 <= res.certificate_gap <= 1e-13 * scale
    assert 1 <= res.iterations <= 2 * n
    assert res.value == margins._objective(ds.signed_features, res.direction, 0.0, 2.0)[0]


def _assert_fallback_is_todays_path(ds, max_iter=5000):
    # the Gram solve left the sample uncertified: the result is the FISTA
    # path's, bit for bit, after the solves it spent
    from advlab import margins

    z = ds.signed_features
    ref = margins._solve(z, 2.0, 0.0, 2.0, max_iter)
    solves = 0
    if ds.n <= ds.d:
        lam, solves = margins._gram_dual(ds.gram, max_iter)
        assert solves >= 1
    for res in (
        standard_margin(ds, 2.0, max_iter),
        adversarial_margin(ds, PerturbationModel(p=math.inf, epsilon=0.0), max_iter),
    ):
        assert res.direction.tobytes() == ref.direction.tobytes()
        assert (res.value, res.certificate_gap) == (ref.value, ref.certificate_gap)
        assert res.iterations == ref.iterations + solves
    return ref, solves


def test_gram_solve_falls_back_on_a_nonseparable_sample():
    # rows z and -z among others (n < d): the optimum is 0, which no dual
    # point certifies, so the FISTA dual and the sphere ascent take over
    ds0 = generate(MixtureSpec(d=30, mu=mu_from_scaling(30, 0.3), eta=0.1, seed=4), 10)
    feats = np.vstack([ds0.features, ds0.features[3]])
    ds = _dataset(feats, np.append(ds0.labels, -ds0.labels[3]))
    ref, _ = _assert_fallback_is_todays_path(ds)
    assert ref.value <= 0.0


def test_gram_solve_falls_back_on_duplicate_rows():
    # two equal rows make G singular, exactly, so the first solve fails
    from advlab import margins

    feats = np.array([[1.0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0], [0, 2.0, 0, 0, 0], [0, 0, 1.0, 1.0, 0]])
    ds = _dataset(feats, np.ones(4))
    assert margins._gram_dual(ds.gram, 5000) == (None, 1)
    ref, _ = _assert_fallback_is_todays_path(ds)
    # the rows e0, 2 e1 and e2 + e3: lam ~ (4, 1, 2)/7 on them
    assert ref.value == pytest.approx(2.0 / math.sqrt(7.0), abs=1e-9)


def test_q2_margin_with_more_rows_than_dimensions_uses_no_gram_matrix():
    ds = generate(MixtureSpec(d=20, mu=mu_from_scaling(20, 0.5), eta=0.0, seed=2), 60)
    ref, _ = _assert_fallback_is_todays_path(ds)
    assert ref.value > 0.0
    assert "gram" not in ds.__dict__


# ------------------------------------------------- q = 1 by the covering LP


def _highs_l1_margin(z):
    """min over the simplex of ||Z^T lam||_inf by HiGHS: the q = 1 margin when positive."""
    from scipy.optimize import linprog

    n, d = z.shape
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    t_col = -np.ones((d, 1))
    res = linprog(
        cost,
        A_ub=np.vstack([np.hstack([z.T, t_col]), np.hstack([-z.T, t_col])]),
        b_ub=np.zeros(2 * d),
        A_eq=np.hstack([np.ones((1, n)), np.zeros((1, 1))]),
        b_eq=[1.0],
        bounds=[(0.0, None)] * n + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def _count_ascent_steps(monkeypatch):
    """Record the q-ball projections, which only the primal ascent makes."""
    from advlab import margins

    calls = []
    project = margins.project_onto_ball

    def counting_project(v, p, radius):
        calls.append(p)
        return project(v, p, radius)

    monkeypatch.setattr(margins, "project_onto_ball", counting_project)
    return calls


def _assert_lp_certified(res, want, max_iter):
    tol = 1e-10 * max(1.0, abs(want))
    assert 0.0 <= res.certificate_gap <= tol
    assert res.value == pytest.approx(want, abs=tol)
    assert lp_norm(res.direction, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert 0 < res.iterations <= max_iter


@pytest.mark.parametrize("n, d", [(20, 200), (50, 60), (50, 45), (8, 3)])
def test_l1_margin_matches_highs_on_mixtures(monkeypatch, n, d):
    calls = _count_ascent_steps(monkeypatch)
    for seed in range(3):
        spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.4), eta=0.0, seed=seed)
        ds = generate(spec, n)
        want = _highs_l1_margin(ds.signed_features)
        assert want > 0.0
        _assert_lp_certified(standard_margin(ds, q=1.0, max_iter=1000), want, 1000)
    assert calls == []


def test_l1_margin_on_degenerate_samples(monkeypatch):
    calls = _count_ascent_steps(monkeypatch)
    rng = np.random.default_rng(6)
    base = rng.normal(size=(6, 9)) + 1.0
    zero_col = base.copy()
    zero_col[:, 4] = 0.0
    cases = {
        "duplicate rows": np.vstack([base, base[:3], base[:1]]),
        "zero column": zero_col,
        "one row": base[:1],
        "all rows equal": np.tile(base[0], (7, 1)),
    }
    for name, feats in cases.items():
        ds = _dataset(feats, np.ones(len(feats)))
        want = _highs_l1_margin(feats)
        res = standard_margin(ds, q=1.0)
        _assert_lp_certified(res, want, 5000)
        if name == "zero column":
            assert res.direction[4] == 0.0
        if name in ("one row", "all rows equal"):
            # one distinct row z scores ||z||_inf
            assert res.value == pytest.approx(float(np.abs(base[0]).max()), rel=1e-12)
    assert calls == []


def test_nonseparable_l1_margin_falls_back_to_ascent(monkeypatch):
    # n > d rows of both signs around the origin: no direction separates
    # them, the LP is infeasible and the ascent reports the negative optimum
    calls = _count_ascent_steps(monkeypatch)
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(40, 5))
    ds = _dataset(feats, np.ones(40))
    assert _highs_l1_margin(feats) == pytest.approx(0.0, abs=1e-9)
    res = standard_margin(ds, q=1.0, max_iter=300)
    assert calls
    assert res.value < 0.0
    assert res.iterations > 300  # every pivot and ascent step is counted
    assert res.certificate_gap >= -res.value


def test_l1_margin_with_too_few_pivots_falls_back_to_ascent(monkeypatch):
    calls = _count_ascent_steps(monkeypatch)
    ds = _mixture(200, seed=11)
    exact = standard_margin(ds, q=1.0)
    assert not calls
    res = standard_margin(ds, q=1.0, max_iter=20)
    assert calls
    assert res.iterations > 20
    # the capped ascent reports an honest, open gap around the optimum
    assert res.value < exact.value < res.value + res.certificate_gap
    assert res.certificate_gap > 1e-10


def test_l1_margin_at_sweep_size_is_certified():
    # sweep_linear's p = inf run at d = 1000, r = 0.2: the capped ascent wrote
    # 0.2903 here against the optimum 0.3611, with a gap of about 0.1
    spec = MixtureSpec(d=1000, mu=mu_from_scaling(1000, 0.2), eta=0.1, seed=1401)
    ds = generate(spec, 50)
    res = standard_margin(ds, q=1.0, max_iter=1000)
    _assert_lp_certified(res, _highs_l1_margin(ds.signed_features), 1000)
    assert res.value == pytest.approx(0.3611, abs=1e-4)


def test_margin_solves_do_not_import_scipy_optimize():
    # importing scipy.optimize costs a large share of a fresh process's set-up
    # time, and every warm-up solves margins
    code = (
        "import math, sys\n"
        "import advlab\n"
        "from advlab.data import MixtureSpec, generate, mu_from_scaling\n"
        "from advlab.margins import adversarial_margin, standard_margin\n"
        "from advlab.norms import PerturbationModel\n"
        "ds = generate(MixtureSpec(d=100, mu=mu_from_scaling(100, 0.3), eta=0.1, seed=0), 20)\n"
        "from advlab import margins\n"
        "fista, margins._solve_dual = margins._solve_dual, None  # q = 2: the Gram solve\n"
        "assert standard_margin(ds, 2.0).certificate_gap < 1e-13\n"
        "margins._solve_dual = fista\n"
        "for p in (2.0, math.inf):\n"
        "    model = PerturbationModel(p, 0.05)\n"
        "    standard_margin(ds, model.q)\n"
        "    adversarial_margin(ds, model)\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
