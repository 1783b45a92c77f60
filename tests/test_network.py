"""Tests for the two-layer ReLU network, its attack, and its trainer."""

import math

import numpy as np
import pytest

from advlab.data import Dataset, MixtureSpec, generate, mu_from_scaling
from advlab.network import (
    PgdConfig,
    TwoLayerNet,
    adv_train_nn,
    evaluate_nn_risks,
    forward,
    init_network,
    loss_and_gradients,
    pgd_attack,
)
from advlab.norms import PerturbationModel, lp_norm


def _dataset(features, labels) -> Dataset:
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    return Dataset(
        features=features,
        labels=labels,
        clean_labels=labels.copy(),
        noise_indices=np.zeros(0, dtype=int),
        spec=None,
    )


def _linear_net(a: np.ndarray) -> TwoLayerNet:
    # relu(x) - relu(-x) = x coordinatewise, so this net scores exactly a.x
    d = a.size
    W1 = np.vstack([np.eye(d), -np.eye(d)])
    w2 = np.concatenate([a, -a])
    return TwoLayerNet(W1=W1, b1=np.zeros(2 * d), w2=w2, b2=0.0)


# -------------------------------------------------------------------- forward


def test_forward_closed_forms():
    d = 4
    net = TwoLayerNet(W1=np.eye(d), b1=np.zeros(d), w2=np.ones(d), b2=0.0)
    x = np.array([1.0, 2.0, 0.5, 3.0])
    assert forward(net, x) == pytest.approx(x.sum(), rel=1e-15)

    zero = TwoLayerNet(W1=np.zeros((3, d)), b1=np.zeros(3), w2=np.zeros(3), b2=0.0)
    assert forward(zero, x) == 0.0

    unit = TwoLayerNet(
        W1=np.array([[1.0]]), b1=np.array([-2.0]), w2=np.array([1.0]), b2=0.0
    )
    assert forward(unit, np.array([1.0])) == 0.0


def test_forward_batch_matches_rows():
    rng = np.random.default_rng(0)
    net = init_network(d=6, h=5, seed=1)
    feats = rng.normal(size=(9, 6))
    batch = forward(net, feats)
    assert batch.shape == (9,)
    for k in range(9):
        assert batch[k] == pytest.approx(forward(net, feats[k]), rel=1e-12)


def test_forward_rejects_dimension_mismatch():
    net = init_network(d=6, h=5, seed=1)
    with pytest.raises(ValueError):
        forward(net, np.ones(7))


# ------------------------------------------------------------------ gradients


def test_zero_network_loss_and_gradients():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(11, 4))
    labels = rng.choice([-1.0, 1.0], size=11)
    net = TwoLayerNet(W1=np.zeros((3, 4)), b1=np.zeros(3), w2=np.zeros(3), b2=0.0)
    loss, g = loss_and_gradients(net, feats, labels)
    assert loss == 11.0
    # score 0 everywhere: only the output bias sees a nonzero gradient
    np.testing.assert_array_equal(g.W1, np.zeros((3, 4)))
    np.testing.assert_array_equal(g.b1, np.zeros(3))
    np.testing.assert_array_equal(g.w2, np.zeros(3))
    assert g.b2 == pytest.approx(-labels.sum(), rel=1e-15)


def test_duplicated_sample_scales_loss_and_gradients():
    rng = np.random.default_rng(3)
    net = init_network(d=5, h=4, seed=7)
    x = rng.normal(size=5)
    one, g1 = loss_and_gradients(net, x[None, :], np.array([1.0]))
    k = 6
    many, gk = loss_and_gradients(net, np.tile(x, (k, 1)), np.ones(k))
    assert many == pytest.approx(k * one, rel=1e-12)
    np.testing.assert_allclose(gk.W1, k * g1.W1, rtol=1e-12)
    np.testing.assert_allclose(gk.b1, k * g1.b1, rtol=1e-12)
    np.testing.assert_allclose(gk.w2, k * g1.w2, rtol=1e-12)
    assert gk.b2 == pytest.approx(k * g1.b2, rel=1e-12)


def _fd_gradients(net, feats, labels, h=1e-5):
    def loss_at(n):
        return loss_and_gradients(n, feats, labels)[0]

    out = TwoLayerNet(
        W1=np.zeros_like(net.W1), b1=np.zeros_like(net.b1),
        w2=np.zeros_like(net.w2), b2=0.0,
    )
    for block in ("W1", "b1", "w2"):
        arr = getattr(net, block)
        garr = getattr(out, block)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = net.copy()
            getattr(plus, block)[idx] += h
            minus = net.copy()
            getattr(minus, block)[idx] -= h
            garr[idx] = (loss_at(plus) - loss_at(minus)) / (2 * h)
    plus = net.copy()
    plus.b2 += h
    minus = net.copy()
    minus.b2 -= h
    out.b2 = (loss_at(plus) - loss_at(minus)) / (2 * h)
    return out


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 100:
        net = TwoLayerNet(
            W1=rng.normal(size=(8, 10)) * 0.4,
            b1=rng.normal(size=8) * 0.2,
            w2=rng.normal(size=8) * 0.4,
            b2=float(rng.normal() * 0.2),
        )
        feats = rng.normal(size=(5, 10))
        labels = rng.choice([-1.0, 1.0], size=5)
        pre = feats @ net.W1.T + net.b1
        if float(np.min(np.abs(pre))) < 1e-3:
            continue  # a finite-difference step would cross a ReLU kink
        checked += 1
        _, g = loss_and_gradients(net, feats, labels)
        fd = _fd_gradients(net, feats, labels)
        for got, want in (
            (g.W1, fd.W1), (g.b1, fd.b1), (g.w2, fd.w2),
            (np.array([g.b2]), np.array([fd.b2])),
        ):
            scale = max(float(np.linalg.norm(want)), 1.0)
            assert float(np.linalg.norm(got - want)) <= 1e-4 * scale


# --------------------------------------------------------------------- attack


def test_pgd_zero_budget_returns_input():
    net = init_network(d=4, h=6, seed=0)
    x = np.array([1.0, -2.0, 0.5, 0.0])
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.0))
    np.testing.assert_array_equal(pgd_attack(net, x, 1, cfg), x)


def test_pgd_label_validation():
    net = init_network(d=2, h=3, seed=0)
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.1))
    with pytest.raises(ValueError):
        pgd_attack(net, np.ones(2), 2, cfg)


def test_pgd_stays_inside_ball():
    rng = np.random.default_rng(5)
    for p in (2.0, np.inf, 3.0):
        net = init_network(d=8, h=16, seed=3)
        eps = 0.3
        cfg = PgdConfig(model=PerturbationModel(p, eps), steps=10)
        for _ in range(20):
            x = rng.normal(size=8)
            y = int(rng.choice([-1, 1]))
            adv = pgd_attack(net, x, y, cfg)
            assert lp_norm(adv - x, p) <= eps * (1 + 1e-12)


def test_pgd_from_clean_start_never_decreases_loss():
    rng = np.random.default_rng(6)
    net = init_network(d=6, h=12, seed=9)
    cfg = PgdConfig(model=PerturbationModel(np.inf, 0.2), steps=10)
    for _ in range(30):
        x = rng.normal(size=6)
        y = int(rng.choice([-1, 1]))
        adv = pgd_attack(net, x, y, cfg)
        assert y * forward(net, adv) <= y * forward(net, x) + 1e-12


def test_pgd_recovers_closed_form_on_induced_linear_net():
    rng = np.random.default_rng(7)
    for p in (2.0, np.inf):
        model = PerturbationModel(p, 0.25)
        q = model.q
        cfg = PgdConfig(model=model, steps=10)
        a = rng.normal(size=5)
        a[np.abs(a) < 0.1] = 0.3  # keep coordinates away from the relu kink
        net = _linear_net(a)
        feats = rng.normal(size=(40, 5)) + 0.5
        labels = rng.choice([-1.0, 1.0], size=40)
        clean = np.sum(np.exp(-labels * (feats @ a)))
        exact = np.sum(np.exp(-(labels * (feats @ a)) + model.epsilon * lp_norm(a, q)))
        attacked = 0.0
        for k in range(40):
            adv = pgd_attack(net, feats[k], int(labels[k]), cfg)
            attacked += math.exp(-labels[k] * forward(net, adv))
        assert attacked <= exact * (1 + 1e-9)
        assert attacked - clean >= 0.99 * (exact - clean)


def test_pgd_random_start_is_contained_and_reproducible():
    net = init_network(d=5, h=8, seed=2)
    x = np.arange(5, dtype=float) / 3.0
    for p in (2.0, np.inf, 4.0):
        cfg = PgdConfig(model=PerturbationModel(p, 0.2), steps=5, random_start=True)
        a = pgd_attack(net, x, 1, cfg, rng=np.random.default_rng(11))
        b = pgd_attack(net, x, 1, cfg, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)
        assert lp_norm(a - x, p) <= 0.2 * (1 + 1e-12)


def test_pgd_config_default_step():
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.4), steps=10)
    assert cfg.effective_step() == pytest.approx(0.1)
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.4), steps=10, step_size=0.07)
    assert cfg.effective_step() == 0.07


# ------------------------------------------------------------ initialization


def test_init_network_deterministic_and_scaled():
    a = init_network(d=50, h=32, seed=5)
    b = init_network(d=50, h=32, seed=5)
    np.testing.assert_array_equal(a.W1, b.W1)
    np.testing.assert_array_equal(a.w2, b.w2)
    c = init_network(d=50, h=32, seed=6)
    assert not np.array_equal(a.W1, c.W1)
    assert a.W1.shape == (32, 50)
    np.testing.assert_array_equal(a.b1, np.zeros(32))
    assert a.b2 == 0.0
    # fan-in scaling: E||W1||_F^2 = h, E||w2||^2 = 1
    assert 0.5 * 32 <= float(np.sum(a.W1**2)) <= 2.0 * 32
    assert 0.3 <= float(np.sum(a.w2**2)) <= 3.0


# ------------------------------------------------------------------- training


def test_adv_train_nn_lr_zero_keeps_parameters():
    spec = MixtureSpec(d=6, mu=mu_from_scaling(6, 0.4), eta=0.0, seed=1)
    ds = generate(spec, 10)
    net0 = init_network(d=6, h=4, seed=0)
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.1), steps=3)
    net, log = adv_train_nn(ds, net0, cfg, epochs=1, lr=0.0)
    np.testing.assert_array_equal(net.W1, net0.W1)
    np.testing.assert_array_equal(net.b1, net0.b1)
    np.testing.assert_array_equal(net.w2, net0.w2)
    assert net.b2 == net0.b2
    assert log.epochs == 1
    assert log.losses.shape == (2,)


def test_adv_train_nn_learns_a_separable_problem():
    spec = MixtureSpec(d=20, mu=mu_from_scaling(20, 0.45), eta=0.0, seed=4)
    ds = generate(spec, 30)
    net0 = init_network(d=20, h=16, seed=2)
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.05), steps=5)
    net, log = adv_train_nn(ds, net0, cfg, epochs=120, lr=5e-3)
    assert log.h == 16
    assert np.all(np.isfinite(log.losses))
    assert log.losses[-1] < log.losses[0]
    assert log.train_errors[-1] == 0.0
    assert log.adv_train_errors[-1] == 0.0
    assert log.param_l2[-1] > 0.0
    # the original network object is untouched
    assert not np.array_equal(net.W1, net0.W1)


def test_evaluate_nn_risks_bounds_and_dominance():
    spec = MixtureSpec(d=10, mu=mu_from_scaling(10, 0.5), eta=0.05, seed=3)
    ds = generate(spec, 40)
    net0 = init_network(d=10, h=8, seed=1)
    cfg = PgdConfig(model=PerturbationModel(np.inf, 0.02), steps=5)
    net, _ = adv_train_nn(ds, net0, cfg, epochs=60, lr=5e-3)
    rep = evaluate_nn_risks(net, spec, cfg, m=2000)
    assert 0.0 <= rep.std_risk <= 1.0
    assert rep.adv_risk >= rep.std_risk  # attack can only add mistakes
    assert rep.method == "monte_carlo"
    assert rep.mc_samples == 2000
    again = evaluate_nn_risks(net, spec, cfg, m=2000)
    assert again == rep

