"""Margin solver: closed-form cases, a planar grid oracle, duality
residuals, and monotonicity in the perturbation radius."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from advlab.data import Dataset, MixtureSpec, generate, mu_from_scaling
from advlab.margins import MarginResult, adversarial_margin, standard_margin
from advlab.norms import PerturbationModel, dual_exponent, lp_norm


def _dataset(feats, labels):
    labels = np.asarray(labels, dtype=float)
    return Dataset(
        features=np.asarray(feats, dtype=float),
        labels=labels,
        clean_labels=labels.copy(),
        noise_indices=np.array([], dtype=int),
        spec=None,
    )


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


def test_nonseparable_instance_falls_back_to_primal_ascent(monkeypatch):
    # rows +-c_i e_i surround the origin: the best unit theta balances
    # c_i |theta_i|, scoring -1/sqrt(sum 1/c_i^2); the dual value is 0
    from advlab import margins

    c = np.array([1.0, 2.0, 3.0])
    ds = _dataset(np.vstack([np.diag(c), -np.diag(c)]), np.ones(6))
    want = -1.0 / math.sqrt(float(np.sum(1.0 / c**2)))
    calls = []
    subgradient = margins.norm_subgradient

    def counting_subgradient(theta, q):
        calls.append(q)
        return subgradient(theta, q)

    monkeypatch.setattr(margins, "norm_subgradient", counting_subgradient)
    assert standard_margin(ds, q=2.0).value == pytest.approx(want, abs=1e-6)
    res = adversarial_margin(ds, PerturbationModel(p=2.0, epsilon=0.1))
    assert calls  # only the primal ascent takes subgradients
    assert res.value == pytest.approx(want - 0.1, abs=1e-6)
    assert res.certificate_gap >= -res.value


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
