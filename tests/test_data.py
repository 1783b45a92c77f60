"""Mixture generator: determinism, coupling correctness, noise statistics,
high-dimensional sample geometry, CSV export, and the regime report."""

import csv
import math
import os

import numpy as np
import pytest
from scipy.optimize import linprog

from advlab.data import (
    AssumptionReport,
    Dataset,
    MixtureSpec,
    check_assumptions,
    generate,
    keyed_rng,
    load_dataset_csv,
    mu_from_scaling,
    save_dataset_csv,
)
from advlab.margins import standard_margin
from advlab.norms import PerturbationModel


def _spec(d=20, r=0.3, dist="gaussian", eta=0.1, seed=0):
    return MixtureSpec(d=d, mu=mu_from_scaling(d, r), noise_dist=dist, eta=eta, seed=seed)


def _lp_separable(z):
    """LP feasibility oracle: exists theta with z theta >= 1 (any scale)."""
    n, d = z.shape
    res = linprog(
        c=np.zeros(d), A_ub=-z, b_ub=-np.ones(n), bounds=[(None, None)] * d, method="highs"
    )
    return res.status == 0


def test_generate_is_bit_identical():
    spec = _spec(seed=42)
    a = generate(spec, 40)
    b = generate(spec, 40)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.clean_labels, b.clean_labels)
    assert np.array_equal(a.noise_indices, b.noise_indices)


def test_generate_prefix_stable():
    # sample k depends only on (seed, k), so longer draws extend shorter ones
    spec = _spec(seed=7)
    short = generate(spec, 30)
    long = generate(spec, 50)
    assert np.array_equal(short.features, long.features[:30])
    assert np.array_equal(short.labels, long.labels[:30])


def test_seed_and_stream_separation():
    spec = _spec(seed=1)
    other = _spec(seed=2)
    assert not np.array_equal(generate(spec, 10).features, generate(other, 10).features)
    r1 = keyed_rng(5, 0).standard_normal(4)
    r2 = keyed_rng(5, 1).standard_normal(4)
    assert not np.array_equal(r1, r2)
    assert np.array_equal(r1, keyed_rng(5, 0).standard_normal(4))


def test_labels_and_noise_indices_consistent():
    ds = generate(_spec(eta=0.3, seed=11), 200)
    assert set(np.unique(ds.labels)) <= {-1, 1}
    assert set(np.unique(ds.clean_labels)) <= {-1, 1}
    flipped = np.nonzero(ds.labels != ds.clean_labels)[0]
    assert np.array_equal(np.sort(ds.noise_indices), flipped)
    assert np.array_equal(ds.signed_features, ds.labels[:, None] * ds.features)


def test_signed_features_and_gram_are_computed_once():
    ds = generate(_spec(eta=0.2, seed=12), 30)
    z = ds.signed_features
    assert z is ds.signed_features
    assert ds.gram is ds.gram
    assert not z.flags.writeable and not ds.gram.flags.writeable
    # one product of the signed rows, exactly symmetric
    want = ds.labels[:, None] * ds.features
    np.testing.assert_allclose(ds.gram, want @ want.T, rtol=1e-13, atol=1e-12)
    np.testing.assert_array_equal(ds.gram, z @ z.T)
    np.testing.assert_array_equal(ds.gram, ds.gram.T)


def test_eta_zero_means_no_flips():
    ds = generate(_spec(eta=0.0, seed=3), 100)
    assert ds.noise_indices.size == 0
    assert np.array_equal(ds.labels, ds.clean_labels)


def test_flip_rate_matches_eta_over_seeds():
    # 1000 seeds x 50 samples; binomial stderr of the grand mean
    eta, n, seeds = 0.1, 50, 1000
    total = 0
    for s in range(seeds):
        total += generate(_spec(d=2, eta=eta, seed=s), n).noise_indices.size
    rate = total / (n * seeds)
    sigma = math.sqrt(eta * (1 - eta) / (n * seeds))
    assert abs(rate - eta) <= 3 * sigma


def test_noise_count_window_typical_seeds():
    # |N| <= (eta + 0.1) n in at least 9 of 10 seeds at n=50, eta=0.1
    hits = sum(
        generate(_spec(eta=0.1, seed=s), 50).noise_indices.size <= 0.2 * 50 for s in range(10)
    )
    assert hits >= 9


def test_mu_from_scaling_exact():
    assert np.array_equal(mu_from_scaling(4, 0.5), np.ones(4))
    mu = mu_from_scaling(100, 0.3)
    assert mu == pytest.approx(np.full(100, 100 ** 0.3 / 10.0), rel=1e-15)
    assert np.linalg.norm(mu) == pytest.approx(100 ** 0.3, rel=1e-12)
    assert np.linalg.norm(mu_from_scaling(200, 0.4)) == pytest.approx(200 ** 0.4, rel=1e-12)


def test_feature_rows_decompose_into_mean_plus_noise():
    spec = _spec(d=5, dist="rademacher", eta=0.2, seed=9)
    ds = generate(spec, 300)
    xi = ds.features - ds.clean_labels[:, None] * spec.mu
    assert set(np.unique(xi)) <= {-1.0, 1.0}

    spec_u = _spec(d=5, dist="uniform_pm", eta=0.0, seed=9)
    ds_u = generate(spec_u, 5000)
    xi_u = ds_u.features - ds_u.clean_labels[:, None] * spec_u.mu
    assert np.abs(xi_u).max() <= math.sqrt(3.0)
    assert xi_u.var() == pytest.approx(1.0, abs=0.05)

    spec_g = _spec(d=5, dist="gaussian", eta=0.0, seed=9)
    ds_g = generate(spec_g, 5000)
    xi_g = ds_g.features - ds_g.clean_labels[:, None] * spec_g.mu
    assert xi_g.mean() == pytest.approx(0.0, abs=0.05)
    assert xi_g.var() == pytest.approx(1.0, abs=0.05)


def test_zero_mean_signed_average_obeys_clt_bound():
    d = 10
    spec = MixtureSpec(d=d, mu=np.zeros(d), noise_dist="gaussian", eta=0.1, seed=17)
    ds = generate(spec, 100_000)
    avg = ds.signed_features.mean(axis=0)
    assert np.linalg.norm(avg) <= 4.0 * math.sqrt(d / 100_000)


def test_high_dimensional_sample_geometry():
    """Norm concentration, near-orthogonality, and mean alignment windows
    must hold in at least 9 of 10 seeds at n=50, d=5000, ||mu|| = d^0.3."""
    n, d, r = 50, 5000, 0.3
    mu = mu_from_scaling(d, r)
    mu_sq = float(mu @ mu)
    pair_bound = 2.0 * (mu_sq + math.sqrt(d * math.log(n / 0.1)))
    good = 0
    for s in range(10):
        ds = generate(_spec(d=d, r=r, seed=s), n)
        z = ds.signed_features
        sq = np.sum(z * z, axis=1)
        ok = sq.max() / d <= 2.0 and sq.min() / d >= 0.5
        gram = np.abs(z @ z.T)
        np.fill_diagonal(gram, 0.0)
        ok = ok and gram.max() <= pair_bound
        align = z @ mu
        clean = np.setdiff1d(np.arange(n), ds.noise_indices)
        ok = ok and np.all(align[clean] >= mu_sq / 2) and np.all(align[clean] <= 1.5 * mu_sq)
        noisy = ds.noise_indices
        ok = ok and np.all(align[noisy] <= -mu_sq / 2) and np.all(align[noisy] >= -1.5 * mu_sq)
        good += ok
    assert good >= 9


def test_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(d=3, mu=np.ones(2), noise_dist="gaussian", eta=0.1, seed=0)
    with pytest.raises(ValueError):
        MixtureSpec(d=3, mu=np.ones(3), noise_dist="gaussian", eta=0.5, seed=0)
    with pytest.raises(ValueError):
        MixtureSpec(d=3, mu=np.ones(3), noise_dist="cauchy", eta=0.1, seed=0)
    with pytest.raises(ValueError):
        generate(_spec(), 0)


def test_csv_round_trip(tmp_path):
    spec = _spec(d=7, eta=0.2, seed=23)
    ds = generate(spec, 25)
    path = os.path.join(tmp_path, "mix.csv")
    header = ["y", "clean_y"] + [f"x_{j}" for j in range(7)]
    save_dataset_csv(ds, path)
    with open(path, "rb") as fh:
        text = fh.read()
    assert text.startswith((",".join(header) + "\n").encode()) and b"\r" not in text
    back = load_dataset_csv(path, spec=spec)
    assert back.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.clean_labels, ds.clean_labels)
    assert np.array_equal(back.noise_indices, ds.noise_indices)

    # extremes: the smallest subnormal, negative zero, the largest floats, 1/3
    big = 1.7976931348623157e308
    edge = np.array([[5e-324, -0.0, big], [-big, 1 / 3, 0.0]])
    hand = Dataset(
        features=edge,
        labels=np.array([1, -1]),
        clean_labels=np.array([1, 1]),
        noise_indices=np.array([1]),
    )
    save_dataset_csv(hand, path)
    back = load_dataset_csv(path)
    assert back.features.tobytes() == edge.tobytes()
    assert np.array_equal(back.labels, hand.labels)
    assert np.array_equal(back.noise_indices, hand.noise_indices)

    # the earlier csv.writer format (CRLF line ends, 17 significant digits) still loads
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for y, c, x in zip(ds.labels, ds.clean_labels, ds.features):
            writer.writerow([int(y), int(c)] + [f"{v:.17g}" for v in x])
    old = load_dataset_csv(path, spec=spec)
    assert old.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(old.labels, ds.labels)
    assert np.array_equal(old.clean_labels, ds.clean_labels)

    # rows wider than the header are rejected
    with open(path, "w") as fh:
        fh.write("y,clean_y,x_0\n1,1,0.5,0.25\n")
    with pytest.raises(ValueError, match="columns"):
        load_dataset_csv(path)


def _report(ds, model):
    return check_assumptions(ds, model, standard_margin(ds, model.q).value)


def test_check_assumptions_arithmetic_and_separability():
    model = PerturbationModel(p=2.0, epsilon=0.05)

    ds = generate(_spec(d=400, r=0.3, eta=0.1, seed=1), 20)
    rep = _report(ds, model)
    assert isinstance(rep, AssumptionReport)
    thresh = max(20 * 400 ** 0.6, 400 * math.log(20 / 0.1))
    assert rep.dimension_threshold == pytest.approx(thresh, rel=1e-12)
    assert rep.dimension_ratio == pytest.approx(400 / thresh, rel=1e-12)
    assert rep.dimension_ok == (400 >= thresh)
    assert rep.separable == _lp_separable(ds.signed_features)
    if rep.separable:
        assert rep.margin_q > 0.0
        assert rep.radius_ok == (model.epsilon <= rep.margin_q)

    # low dimension, many samples: overlapping classes, not separable
    crowded = generate(_spec(d=2, r=0.3, eta=0.2, seed=5), 150)
    rep2 = _report(crowded, model)
    assert not _lp_separable(crowded.signed_features)
    assert not rep2.separable
    assert rep2.margin_q <= 0.0

    # epsilon = 0 keeps the radius condition vacuously true on separable data
    rep3 = _report(ds, PerturbationModel(p=2.0, epsilon=0.0))
    if rep3.separable:
        assert rep3.radius_ok

    # the flags read the margin the caller passes
    rep4 = check_assumptions(ds, model, -0.5)
    assert rep4.margin_q == -0.5
    assert not rep4.separable and not rep4.radius_ok
