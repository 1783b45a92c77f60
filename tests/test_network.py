"""Tests for the two-layer ReLU network, its attack, and its trainer."""

import math
import warnings

import numpy as np
import pytest

from advlab import network
from advlab.data import MixtureSpec, generate, mu_from_scaling
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
from advlab.norms import (
    PerturbationModel,
    dual_exponent,
    lp_norm,
    norm_subgradient_rows,
    project_onto_ball,
)
from advlab.risk import _CHUNK_FLOATS
from oracles import _block_nn_evaluation, _dataset, _log_exp_loss


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
    message = "^the network takes d=6 inputs, the data has d=7$"
    for x in (np.ones(7), np.ones((3, 7))):
        with pytest.raises(ValueError, match=message):
            forward(net, x)
    with pytest.raises(ValueError, match=message):
        loss_and_gradients(net, np.ones((3, 7)), np.ones(3))
    with pytest.raises(ValueError, match=r"^x must be one input or a 2-d array of rows; got shape"):
        forward(net, 3.0)


# ------------------------------------------------------------------ gradients


def test_loss_and_gradients_rejects_labels_of_another_length():
    net = init_network(d=6, h=5, seed=1)
    with pytest.raises(ValueError, match="^the data has 4 rows and 3 labels$"):
        loss_and_gradients(net, np.ones((4, 6)), np.ones(3))
    with pytest.raises(ValueError, match=r"^feats must be a 2-d array of rows; got shape \(6,\)$"):
        loss_and_gradients(net, np.ones(6), np.ones(1))


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


def test_pgd_attack_rejects_an_input_of_another_size():
    net = init_network(d=6, h=4, seed=0)
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.1), steps=3)
    with pytest.raises(ValueError, match="^the network takes d=6 inputs, the data has d=7$"):
        pgd_attack(net, np.ones(7), 1, cfg)


def test_pgd_attack_rejects_more_than_one_input():
    net = init_network(d=3, h=4, seed=0)
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.1), steps=3)
    with pytest.raises(ValueError, match=r"^x must be one input, a 1-d array; got shape \(1, 3\)$"):
        pgd_attack(net, np.ones((1, 3)), 1, cfg)


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


# the ids keep the case names from when a random-start flag was a second parameter
@pytest.mark.parametrize("p", [2.0, np.inf], ids=["2.0-False", "inf-False"])
def test_pgd_batch_margins_rescore_clean_and_returned_points(p):
    """The attack's margins are y * forward at the clean rows and at its iterates,
    and its pre-activations are those of its iterates."""
    rng = np.random.default_rng(12)
    net = init_network(d=7, h=9, seed=4)
    feats = rng.normal(size=(25, 7))
    labels = rng.choice([-1.0, 1.0], size=25)
    cfg = PgdConfig(model=PerturbationModel(p, 0.3), steps=6)
    best, clean, adv, u = network._pgd_attack_batch(net, feats, labels, cfg)
    np.testing.assert_array_equal(clean, labels * forward(net, feats))
    np.testing.assert_array_equal(adv, labels * forward(net, best))
    np.testing.assert_array_equal(u, best @ net.W1.T + net.b1)
    assert np.any(adv < clean)
    assert np.all(adv <= clean)


def test_pgd_batch_without_budget_returns_clean_margins_twice():
    rng = np.random.default_rng(13)
    net = init_network(d=4, h=5, seed=1)
    feats = rng.normal(size=(6, 4))
    labels = rng.choice([-1.0, 1.0], size=6)
    for cfg in (
        PgdConfig(model=PerturbationModel(2.0, 0.0)),
        PgdConfig(model=PerturbationModel(2.0, 0.2), steps=0),
    ):
        best, clean, adv, u = network._pgd_attack_batch(net, feats, labels, cfg)
        np.testing.assert_array_equal(best, feats)
        np.testing.assert_array_equal(clean, labels * forward(net, feats))
        np.testing.assert_array_equal(adv, clean)
        np.testing.assert_array_equal(u, feats @ net.W1.T + net.b1)


def _dense_attack(net, feats, labels, p, eps, steps):
    """Reference: the attack from the clean point, stepped on the n x d iterates."""
    q = dual_exponent(p)
    step = 2.5 * eps / steps

    def score(x):
        u = x @ net.W1.T + net.b1
        grad = (-labels)[:, None] * (((u > 0.0) * net.w2) @ net.W1)
        return labels * (np.maximum(u, 0.0) @ net.w2 + net.b2), grad

    best_margin, grad = score(feats)
    best, cur = feats.copy(), feats
    for _ in range(steps):
        cand = cur + step * norm_subgradient_rows(grad, q)
        cur = feats + project_onto_ball(cand - feats, p, eps)
        margin, grad = score(cur)
        better = margin < best_margin
        best_margin = np.where(better, margin, best_margin)
        best[better] = cur[better]
    return best


def _assert_attack_matches_the_input_space_reference(net, feats, labels, p=2.0, eps=0.3, steps=8):
    cfg = PgdConfig(model=PerturbationModel(p, eps), steps=steps)
    best, clean, adv, u = network._pgd_attack_batch(net, feats, labels, cfg)
    ref = _dense_attack(net, feats, labels, p, eps, steps)
    assert np.all(np.isfinite(best))
    gap = np.linalg.norm(best - ref, axis=1)
    assert np.all(gap <= 1e-12 * np.linalg.norm(ref, axis=1))
    np.testing.assert_array_equal(clean, labels * forward(net, feats))
    np.testing.assert_array_equal(adv, labels * forward(net, best))
    np.testing.assert_array_equal(u, best @ net.W1.T + net.b1)
    assert np.all(adv <= clean)
    assert np.all(np.linalg.norm(best - feats, ord=p, axis=1) <= eps * (1 + 1e-12))
    return adv, clean


# the l2 attack runs on row coefficients, every other one on delta from the
# clean pre-activations; each agrees with stepping x (the ids of the l2 cases
# keep their form from before the other norms were added)
@pytest.mark.parametrize(
    "p, n",
    [(2.0, 1), (2.0, 50), (np.inf, 1), (np.inf, 50), (1.0, 1), (1.0, 50), (3.0, 1), (3.0, 50)],
    ids=["1", "50", "inf-1", "inf-50", "1.0-1", "1.0-50", "3.0-1", "3.0-50"],
)
def test_pgd_attack_matches_the_input_space_reference(p, n):
    rng = np.random.default_rng(14)
    net = init_network(d=30, h=8, seed=6)
    net.b1 = rng.normal(size=8) * 0.1
    feats = rng.normal(size=(n, 30))
    labels = rng.choice([-1.0, 1.0], size=n)
    adv, clean = _assert_attack_matches_the_input_space_reference(net, feats, labels, p)
    assert np.any(adv < clean)


def test_pgd_l2_row_space_with_zero_and_repeated_rows():
    rng = np.random.default_rng(15)
    net = init_network(d=12, h=6, seed=8)
    net.W1[0] = 0.0
    net.W1[3] = net.W1[2]
    feats = rng.normal(size=(40, 12))
    labels = rng.choice([-1.0, 1.0], size=40)
    adv, clean = _assert_attack_matches_the_input_space_reference(net, feats, labels)
    assert np.any(adv < clean)


def test_pgd_l2_row_space_stays_in_ball_when_rows_nearly_cancel():
    """Nearly equal rows with output weights of both signs: a K a^T is
    rounding noise, yet no step warns and every returned point lies in the
    ball and is scored truly."""
    rng = np.random.default_rng(18)
    eps = 0.3
    cfg = PgdConfig(model=PerturbationModel(2.0, eps), steps=10)

    def check(net, feats, labels):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best, clean, adv, u = network._pgd_attack_batch(net, feats, labels, cfg)
        assert np.all(np.linalg.norm(best - feats, axis=1) <= eps * (1 + 1e-12))
        np.testing.assert_array_equal(adv, labels * forward(net, best))
        # a row sent back to the clean point takes the clean pre-activations
        np.testing.assert_array_equal(u, best @ net.W1.T + net.b1)
        assert np.all(adv <= clean)

    for _ in range(30):
        W1 = rng.normal(size=(4, 10))
        W1[1] = W1[0] * (1 + 10.0 ** rng.uniform(-12, -4))
        net = TwoLayerNet(
            W1=W1, b1=np.array([0.0, 0.0, -50.0, -50.0]), w2=np.array([1.0, -1.0, 0.0, 0.0]), b2=0.0
        )
        check(net, rng.normal(size=(20, 10)), rng.choice([-1.0, 1.0], size=20))
    # six rows equal to ~1e-14: the carried c K c^T rounds below 0 on a step
    rng = np.random.default_rng(2)
    base = rng.normal(size=10)
    W1 = base * (1 + rng.normal(size=(6, 1)) * 1e-14) + rng.normal(size=(6, 10)) * 1e-16
    net = TwoLayerNet(W1=W1, b1=rng.normal(size=6) * 0.01, w2=rng.choice([-1.0, 1.0], size=6), b2=0.0)
    check(net, rng.normal(size=(20, 10)), rng.choice([-1.0, 1.0], size=20))


def test_pgd_l2_row_space_reaches_closed_form_on_two_unit_linear_net():
    """W1 = [u; -u], w2 = [c; -c] scores c u.x with h = 2 < d."""
    rng = np.random.default_rng(16)
    d, c, eps = 9, 1.7, 0.25
    u = rng.normal(size=d)
    net = TwoLayerNet(W1=np.vstack([u, -u]), b1=np.zeros(2), w2=np.array([c, -c]), b2=0.0)
    feats = rng.normal(size=(40, d)) + 0.5
    labels = rng.choice([-1.0, 1.0], size=40)
    cfg = PgdConfig(model=PerturbationModel(2.0, eps), steps=10)
    _, _, adv, _ = network._pgd_attack_batch(net, feats, labels, cfg)
    a = c * u
    clean = np.sum(np.exp(-labels * (feats @ a)))
    exact = np.sum(np.exp(-labels * (feats @ a) + eps * lp_norm(a, 2.0)))
    attacked = np.sum(np.exp(-adv))
    assert attacked <= exact * (1 + 1e-9)
    assert attacked - clean >= 0.99 * (exact - clean)


# the delta steps of a dense attack take subgradients of d-wide rows A W1;
# the l2 attack steps on n x h coefficients and takes none
@pytest.mark.parametrize("h, p", [(8, 2.0), (12, 2.0), (16, 2.0), (8, np.inf), (8, 3.0)])
def test_pgd_takes_d_wide_subgradient_rows_unless_l2(monkeypatch, h, p):
    widths = []

    def spy(mat, q):
        widths.append(mat.shape[1])
        return norm_subgradient_rows(mat, q)

    monkeypatch.setattr(network, "norm_subgradient_rows", spy)
    rng = np.random.default_rng(17)
    net = init_network(d=12, h=h, seed=1)
    feats = rng.normal(size=(10, 12))
    labels = rng.choice([-1.0, 1.0], size=10)
    cfg = PgdConfig(model=PerturbationModel(p, 0.2), steps=4)
    network._pgd_attack_batch(net, feats, labels, cfg)
    assert widths == ([] if p == 2.0 else [12] * 4)


def _spy_on_attack(monkeypatch) -> list:
    """Record (network copy, clean rows, labels, returned iterates) per attack."""
    calls = []
    attack = network._pgd_attack_batch

    def spy(net, feats, labels, cfg):
        out = attack(net, feats, labels, cfg)
        calls.append((net.copy(), feats.copy(), labels.copy(), out[0].copy()))
        return out

    monkeypatch.setattr(network, "_pgd_attack_batch", spy)
    return calls


def test_pgd_config_default_step():
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.4), steps=10)
    assert cfg.effective_step() == pytest.approx(0.1)


def test_pgd_config_rejects_negative_steps():
    model = PerturbationModel(2.0, 0.4)
    for steps in (-1, -3):
        with pytest.raises(ValueError, match=f"^steps must be >= 0, got {steps}$"):
            PgdConfig(model=model, steps=steps)
    assert PgdConfig(model=model, steps=0).effective_step() == pytest.approx(1.0)


def test_pgd_config_rejects_non_integer_steps():
    model = PerturbationModel(2.0, 0.4)
    for steps in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match=f"^steps must be an integer, got {steps!r}$"):
            PgdConfig(model=model, steps=steps)
    assert PgdConfig(model=model, steps=np.int64(4)).effective_step() == pytest.approx(0.25)


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


# p = 2 attacks the coordinates X Q, not the inputs, so it is not rescored here
@pytest.mark.parametrize("p", [np.inf])
def test_adv_train_nn_log_equals_rescoring_with_forward(monkeypatch, p):
    spec = MixtureSpec(d=12, mu=mu_from_scaling(12, 0.4), eta=0.1, seed=5)
    ds = generate(spec, 24)
    cfg = PgdConfig(model=PerturbationModel(p, 0.1), steps=4)
    calls = _spy_on_attack(monkeypatch)
    _, log = adv_train_nn(ds, init_network(d=12, h=6, seed=3), cfg, epochs=15, lr=1e-2)
    assert len(calls) == 16
    labels = ds.labels.astype(float)
    for t, (net, feats, _, attacked) in enumerate(calls):
        np.testing.assert_array_equal(feats, ds.features)
        clean = labels * forward(net, feats)
        adv = labels * forward(net, attacked)
        assert log.losses[t] == float(np.sum(np.exp(-adv)))
        assert log.log_losses[t] == _log_exp_loss(adv)
        assert log.train_errors[t] == float(np.mean(clean < 0.0))
        assert log.adv_train_errors[t] == float(np.mean(adv < 0.0))
    assert log.train_errors[0] > 0.0 and log.adv_train_errors[0] > log.train_errors[0]


def _reference_adv_train_nn(ds, net, pgd, epochs, lr):
    """adv_train_nn as attack, loss_and_gradients on the attacked rows, update,
    with each epoch's log values scored by ``forward``."""
    net = net.copy()
    feats, labels = ds.features, ds.labels.astype(float)
    log = []
    for t in range(epochs + 1):
        attacked = network._pgd_attack_batch(net, feats, labels, pgd)[0]
        clean = labels * forward(net, feats)
        adv = labels * forward(net, attacked)
        with np.errstate(over="ignore"):
            loss = float(np.sum(np.exp(-adv)))
        log.append(
            (loss, _log_exp_loss(adv), net.param_l2(), np.mean(clean < 0.0), np.mean(adv < 0.0))
        )
        if t == epochs:
            break
        _, grads = loss_and_gradients(net, attacked, labels)
        net.W1 -= lr * grads.W1
        net.b1 -= lr * grads.b1
        net.w2 -= lr * grads.w2
        net.b2 -= lr * grads.b2
    return net, np.array(log).T


@pytest.mark.parametrize("d, h, p", [(12, 6, np.inf)], ids=["linf"])
def test_adv_train_nn_is_bitwise_the_attack_then_loss_and_gradients_loop(d, h, p):
    # the epoch reuses the attack's pre-activations and margins for the
    # gradient and fills the log after the loop; neither may change a bit
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.4), eta=0.2, seed=7)
    ds = generate(spec, 24)
    net0 = init_network(d=d, h=h, seed=4)
    cfg = PgdConfig(model=PerturbationModel(p, 0.15), steps=5)
    net, log = adv_train_nn(ds, net0, cfg, epochs=40, lr=5e-3)
    ref_net, ref_log = _reference_adv_train_nn(ds, net0, cfg, epochs=40, lr=5e-3)
    for block in ("W1", "b1", "w2"):
        np.testing.assert_array_equal(getattr(net, block), getattr(ref_net, block))
    assert net.b2 == ref_net.b2
    for got, want in zip(
        (log.losses, log.log_losses, log.param_l2, log.train_errors, log.adv_train_errors), ref_log
    ):
        np.testing.assert_array_equal(got, want)
    assert log.losses[-1] < log.losses[0]


def _assert_close(got, want, rtol=1e-12):
    want = np.asarray(want, dtype=float)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize(
    "n, d, h, lr",
    [
        (1, 40, 4, 1e-3),
        (24, 60, 6, 1e-3),
        (50, 300, 32, 1e-3),
        (24, 12, 6, 5e-3),
        (24, 6, 12, 5e-3),
        (200, 5, 32, 1e-4),
    ],
    ids=["1-40-4", "24-60-6", "50-300-32", "l2-h<d", "l2-h>=d", "n>>d"],
)
def test_adv_train_nn_in_row_coordinates_matches_the_input_space_loop(monkeypatch, n, d, h, lr):
    # at p = 2 the net trains in coordinates on an orthonormal basis of the
    # rows of [W1_0; X], with min(d, h + n) columns, and agrees with the
    # attack-then-gradient loop on W1 to rounding
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.4), eta=0.2, seed=n)
    ds = generate(spec, n)
    net0 = init_network(d=d, h=h, seed=n + 1)
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.15), steps=5)
    ref_net, ref_log = _reference_adv_train_nn(ds, net0, cfg, epochs=40, lr=lr)
    calls = _spy_on_attack(monkeypatch)
    net, log = adv_train_nn(ds, net0, cfg, epochs=40, lr=lr)
    assert [c[1].shape[1] for c in calls] == [min(d, h + n)] * 41
    for block in ("W1", "b1", "w2"):
        _assert_close(getattr(net, block), getattr(ref_net, block))
    assert net.b2 == pytest.approx(ref_net.b2, rel=1e-12, abs=0.0)
    losses, log_losses, param_l2, train_errors, adv_train_errors = ref_log
    np.testing.assert_allclose(log.losses, losses, rtol=1e-12, atol=0.0)
    # log-losses pass through zero, where only an absolute error means anything
    np.testing.assert_allclose(log.log_losses, log_losses, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(log.param_l2, param_l2, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(log.train_errors, train_errors)
    np.testing.assert_array_equal(log.adv_train_errors, adv_train_errors)
    assert log.losses[-1] < log.losses[0]


@pytest.mark.parametrize(
    "h, p, eps, steps",
    [(6, 2.0, 0.1, 4), (30, 2.0, 0.1, 4), (6, np.inf, 0.1, 4), (6, 2.0, 0.0, 4), (6, 2.0, 0.1, 0)],
    ids=["l2-h+n<d", "l2-h+n=d", "linf", "eps0", "steps0"],
)
def test_adv_train_nn_attacks_in_coordinates_only_for_the_l2_attack(
    monkeypatch, h, p, eps, steps
):
    # at p = 2 with an attack each epoch attacks the coordinates X Q, with
    # min(d, h + n) columns; otherwise it attacks the inputs X
    d, n = 40, 10
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.4), eta=0.1, seed=2)
    ds = generate(spec, n)
    cfg = PgdConfig(model=PerturbationModel(p, eps), steps=steps)
    calls = _spy_on_attack(monkeypatch)
    adv_train_nn(ds, init_network(d=d, h=h, seed=5), cfg, epochs=6, lr=1e-3)
    coordinates = p == 2.0 and eps > 0.0 and steps > 0
    assert [c[1].shape[1] for c in calls] == [min(d, h + n) if coordinates else d] * 7
    assert [np.array_equal(c[1], ds.features) for c in calls] == [not coordinates] * 7


def _nearly_cancelling_net(d, h, offset, other_w2, other_b1) -> TwoLayerNet:
    """W1 rows 0 and 1 parallel to within offset, with w2 weights +1 and -1;
    the other units' w2 scaled by other_w2 and their b1 set to other_b1."""
    net = init_network(d=d, h=h, seed=0)
    net.W1[1] = net.W1[0] * (1 + offset)
    net.w2[:2] = 1.0, -1.0
    net.w2[2:] *= other_w2
    net.b1[2:] = other_b1
    return net


def test_adv_train_nn_in_row_coordinates_stays_in_ball_when_rows_nearly_cancel(monkeypatch):
    """Two nearly parallel W1 rows with opposite w2 weights and a repeated
    sample: each epoch's delta is rescaled by the norm of its coordinates on
    the orthonormal basis, where no digits cancel, so every perturbation lies
    in the ball and the errors are those of the input-space loop."""
    n, d, h, eps = 20, 60, 6, 0.2
    cfg = PgdConfig(model=PerturbationModel(2.0, eps), steps=8)
    for other_w2, other_b1 in ((0.0, -50.0), (1e-6, 0.0)):
        for offset in (1e-4, 1e-8, 1e-12):
            spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.4), eta=0.1, seed=0)
            ds = generate(spec, n)
            ds.features[-1], ds.labels[-1] = ds.features[0], ds.labels[0]
            net0 = _nearly_cancelling_net(d, h, offset, other_w2, other_b1)
            Q = np.linalg.qr(np.vstack([net0.W1, ds.features]).T)[0]
            calls = _spy_on_attack(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, log = adv_train_nn(ds, net0, cfg, epochs=30, lr=1e-2)
            monkeypatch.undo()
            assert [c[1].shape[1] for c in calls] == [min(d, h + n)] * 31
            norms = []
            for _, coords, _, rows in calls:
                # delta's norm on the orthonormal basis and in input space
                norms.append(np.linalg.norm(rows - coords, axis=1))
                norms.append(np.linalg.norm((rows - coords) @ Q.T, axis=1))
            assert len(norms) == 2 * 31
            assert np.max(norms) <= eps * (1 + 1e-12)
            _, ref_log = _reference_adv_train_nn(ds, net0, cfg, epochs=30, lr=1e-2)
            np.testing.assert_array_equal(log.train_errors, ref_log[3])
            np.testing.assert_array_equal(log.adv_train_errors, ref_log[4])


@pytest.mark.parametrize("lr", [0.3, 1e8])
def test_adv_train_nn_in_row_coordinates_diverges_where_the_input_space_loop_does(
    monkeypatch, lr
):
    spec = MixtureSpec(d=60, mu=mu_from_scaling(60, 0.4), eta=0.2, seed=3)
    ds = generate(spec, 24)
    net0 = init_network(d=60, h=6, seed=2)
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.15), steps=5)
    net, feats, labels = net0.copy(), ds.features, ds.labels.astype(float)
    with np.errstate(all="ignore"):
        for stop in range(50):
            attacked = network._pgd_attack_batch(net, feats, labels, cfg)[0]
            if not np.isfinite(labels * forward(net, attacked)).all():
                break
            _, g = loss_and_gradients(net, attacked, labels)
            if not all(np.isfinite(x).all() for x in (g.W1, g.b1, g.w2, g.b2)):
                break
            net.W1 -= lr * g.W1
            net.b1 -= lr * g.b1
            net.w2 -= lr * g.w2
            net.b2 -= lr * g.b2
    assert stop < 49
    calls = _spy_on_attack(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=f"^network training diverged at epoch {stop}$"):
            adv_train_nn(ds, net0, cfg, epochs=50, lr=lr)
    assert [c[1].shape[1] for c in calls] == [min(60, 6 + 24)] * (stop + 1)


def test_adv_train_nn_rejects_negative_epochs():
    spec = MixtureSpec(d=6, mu=mu_from_scaling(6, 0.4), eta=0.0, seed=1)
    ds = generate(spec, 10)
    net0 = init_network(d=6, h=4, seed=0)
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.1), steps=3)
    with pytest.raises(ValueError, match="epochs must be >= 0"):
        adv_train_nn(ds, net0, cfg, epochs=-1)
    net, log = adv_train_nn(ds, net0, cfg, epochs=0)
    np.testing.assert_array_equal(net.W1, net0.W1)
    assert log.epochs == 0 and np.isfinite(log.losses[0])


def test_adv_train_nn_rejects_a_network_of_another_input_size():
    spec = MixtureSpec(d=6, mu=mu_from_scaling(6, 0.4), eta=0.0, seed=1)
    ds = generate(spec, 10)
    for p in (2.0, np.inf):
        cfg = PgdConfig(model=PerturbationModel(p, 0.1), steps=3)
        with pytest.raises(ValueError, match="^the network takes d=5 inputs, the data has d=6$"):
            adv_train_nn(ds, init_network(d=5, h=4, seed=0), cfg, epochs=2)


def test_adv_train_nn_rejects_negative_or_non_finite_lr():
    spec = MixtureSpec(d=6, mu=mu_from_scaling(6, 0.4), eta=0.0, seed=1)
    ds = generate(spec, 10)
    net0 = init_network(d=6, h=4, seed=0)
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.1), steps=3)
    for lr in (-1e-3, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^lr must be finite and >= 0, got "):
            adv_train_nn(ds, net0, cfg, epochs=2, lr=lr)


def test_evaluate_nn_risks_rejects_nonpositive_m():
    spec = MixtureSpec(d=6, mu=mu_from_scaling(6, 0.4), eta=0.0, seed=1)
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.1), steps=3)
    for m in (0, -3):
        with pytest.raises(ValueError, match="m must be >= 1"):
            evaluate_nn_risks(init_network(d=6, h=4, seed=0), spec, cfg, m=m)


def test_evaluate_nn_risks_rejects_a_network_of_another_input_size():
    spec = MixtureSpec(d=6, mu=mu_from_scaling(6, 0.4), eta=0.0, seed=1)
    for p in (2.0, np.inf):
        cfg = PgdConfig(model=PerturbationModel(p, 0.1), steps=3)
        with pytest.raises(ValueError, match="^the network takes d=7 inputs, the data has d=6$"):
            evaluate_nn_risks(init_network(d=7, h=4, seed=0), spec, cfg, m=10)


@pytest.mark.parametrize("dist", ["gaussian", "rademacher"])
@pytest.mark.parametrize("p", [2.0, np.inf, 1.0, 3.0])
def test_evaluate_nn_risks_equal_the_whole_block_evaluation(p, dist):
    d = 2000
    chunk = _CHUNK_FLOATS // d
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.4), noise_dist=dist, eta=0.1, seed=1)
    net = init_network(d=d, h=8, seed=3)
    cfg = PgdConfig(model=PerturbationModel(p, 0.3), steps=3)
    for m in (1, chunk, chunk + 1, 3 * chunk + 5):
        want, feats, labels = _block_nn_evaluation(net, spec, cfg, m, 4)
        rep = evaluate_nn_risks(net, spec, cfg, m=m, seed=4)
        assert rep == want, m
        assert rep.std_risk == float(np.mean(labels * forward(net, feats) < 0.0)), m


@pytest.mark.parametrize(
    "p, eps, steps, dense",
    [
        (2.0, 0.2, 3, False),
        (2.0, 0.0, 3, False),
        (np.inf, 0.0, 3, False),
        (1.0, 0.2, 0, False),
        (np.inf, 0.2, 3, True),
    ],
    ids=["l2", "l2-eps0", "linf-eps0", "l1-steps0", "linf"],
)
def test_evaluate_nn_risks_attacks_stream_chunks_only_for_dense_attacks(
    monkeypatch, p, eps, steps, dense
):
    # every evaluation draws the stream once and attacks the clean
    # pre-activations; the dense attack runs on row chunks of about 512 KB
    # of delta, the l2 attack on all rows at once
    d, m = 300, 659
    chunk = _CHUNK_FLOATS // d
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.4), eta=0.2, seed=2)
    net = init_network(d=d, h=4, seed=0)
    cfg = PgdConfig(model=PerturbationModel(p, eps), steps=steps)
    want, _, _ = _block_nn_evaluation(net, spec, cfg, m, 7)
    streams, dense_rows = [], []
    stream, dense_steps = network._stream_eval_rows, network._dense_steps

    def stream_spy(*args):
        streams.append(args[1])
        return stream(*args)

    def dense_spy(net, u0, labels, cfg):
        dense_rows.append(len(u0))
        return dense_steps(net, u0, labels, cfg)

    monkeypatch.setattr(network, "_stream_eval_rows", stream_spy)
    monkeypatch.setattr(network, "_dense_steps", dense_spy)
    calls = _spy_on_attack(monkeypatch)
    assert evaluate_nn_risks(net, spec, cfg, m=m, seed=7) == want
    assert streams == [m]
    assert calls == []
    assert dense_rows == ([min(chunk, m - lo) for lo in range(0, m, chunk)] if dense else [])


def test_evaluate_nn_risks_stays_on_one_pass_when_rows_nearly_cancel(monkeypatch):
    """Where c K c^T would lose its digits to nearly cancelling W1 rows, the
    l2 evaluation still rescales on the one pass, from the norm of delta's
    coordinates on an orthonormal basis of W1's rows, and its risks are
    those of the whole-block attack."""
    d, m = 60, 2000
    cfg = PgdConfig(model=PerturbationModel(2.0, 0.2), steps=8)
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.4), eta=0.1, seed=0)
    for other_w2, other_b1 in ((0.0, -50.0), (1e-6, 0.0)):
        for offset in (1e-4, 1e-8, 1e-12):
            net = _nearly_cancelling_net(d, 6, offset, other_w2, other_b1)
            want, _, _ = _block_nn_evaluation(net, spec, cfg, m, 3)
            calls = _spy_on_attack(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert evaluate_nn_risks(net, spec, cfg, m=m, seed=3) == want
            monkeypatch.undo()
            assert calls == []


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

