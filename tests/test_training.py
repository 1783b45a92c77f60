"""Tests for the worst-case exponential loss and the full-batch trainer."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from advlab import training
from advlab.data import Dataset, MixtureSpec, generate, mu_from_scaling
from advlab.norms import PerturbationModel, lp_norm, worst_case_perturbation
from advlab.risk import _CHUNK_FLOATS
from advlab.training import (
    TrainConfig,
    TrainingDiverged,
    adversarial_log_loss,
    adversarial_loss,
    adversarial_loss_gradient,
    alignment,
    save_record_csv,
    train,
)
from oracles import _dataset, _log_exp_loss


def _random_dataset(rng, n, d) -> Dataset:
    feats = rng.normal(size=(n, d))
    labels = rng.choice([-1.0, 1.0], size=n)
    return _dataset(feats, labels)


# ---------------------------------------------------------------- loss values


def test_loss_at_zero_counts_samples():
    rng = np.random.default_rng(0)
    for n in (1, 7, 40):
        ds = _random_dataset(rng, n, 5)
        for model in (PerturbationModel(2.0, 0.0), PerturbationModel(np.inf, 0.3)):
            assert adversarial_loss(np.zeros(5), ds, model) == float(n)
            assert adversarial_log_loss(np.zeros(5), ds, model) == pytest.approx(
                math.log(n), abs=1e-12
            )


def test_loss_single_sample_linf_matches_brute_force():
    # one sample x=(1,1), y=+1, theta=(1,-2), linf budget 0.5: the exact
    # worst case sits at the corner (-0.5, +0.5) and the loss is exp(2.5)
    theta = np.array([1.0, -2.0])
    x = np.array([1.0, 1.0])
    model = PerturbationModel(np.inf, 0.5)
    ds = _dataset([x], [1.0])

    rng = np.random.default_rng(123)
    pts = rng.uniform(-0.5, 0.5, size=(10_000, 2))
    corners = 0.5 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    cand = np.vstack([pts, corners])
    brute = float(np.max(np.exp(-(x + cand) @ theta)))

    assert brute == pytest.approx(math.exp(2.5), rel=1e-12)
    assert adversarial_loss(theta, ds, model) == pytest.approx(brute, rel=1e-12)


def test_loss_without_budget_is_standard_exponential_loss():
    rng = np.random.default_rng(1)
    ds = _random_dataset(rng, 12, 4)
    theta = rng.normal(size=4)
    expected = float(np.sum(np.exp(-(ds.signed_features @ theta))))
    got = adversarial_loss(theta, ds, PerturbationModel(2.0, 0.0))
    assert got == pytest.approx(expected, rel=1e-14)


def test_loss_equals_sum_of_per_sample_worst_cases():
    # the closed form must agree with explicitly perturbing every sample by
    # its own exact maximizer
    rng = np.random.default_rng(2)
    for p in (1.0, 1.5, 2.0, 4.0, np.inf):
        model = PerturbationModel(p, 0.37)
        for _ in range(20):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            ds = _random_dataset(rng, n, d)
            theta = rng.normal(size=d)
            total = 0.0
            for k in range(n):
                y = int(ds.labels[k])
                u = worst_case_perturbation(theta, y, model)
                assert lp_norm(u, p) <= model.epsilon * (1 + 1e-12)
                total += math.exp(-y * float((ds.features[k] + u) @ theta))
            got = adversarial_loss(theta, ds, model)
            assert got == pytest.approx(total, rel=1e-9)


def test_log_loss_stays_finite_when_linear_loss_overflows():
    ds = _dataset([[1.0, 0.0], [-1.0, 0.5]], [1.0, 1.0])
    model = PerturbationModel(2.0, 0.1)
    theta = np.array([1200.0, 0.0])
    assert adversarial_loss(theta, ds, model) == math.inf
    margins = ds.signed_features @ theta
    expected = float(logsumexp(-margins) + 0.1 * np.linalg.norm(theta))
    got = adversarial_log_loss(theta, ds, model)
    assert math.isfinite(got)
    assert got == pytest.approx(expected, rel=1e-12)


def test_log_loss_is_log_of_loss_when_finite():
    rng = np.random.default_rng(3)
    ds = _random_dataset(rng, 9, 3)
    theta = rng.normal(size=3)
    model = PerturbationModel(3.0, 0.2)
    assert adversarial_log_loss(theta, ds, model) == pytest.approx(
        math.log(adversarial_loss(theta, ds, model)), rel=1e-12
    )


# ------------------------------------------------------------------ gradients


def test_gradient_at_zero_is_negative_signed_sum():
    rng = np.random.default_rng(4)
    ds = _random_dataset(rng, 15, 6)
    for model in (PerturbationModel(2.0, 0.0), PerturbationModel(1.5, 0.4)):
        g = adversarial_loss_gradient(np.zeros(6), ds, model)
        np.testing.assert_allclose(g, -ds.signed_features.sum(axis=0), rtol=1e-14)


def test_gradient_single_sample_closed_form():
    ds = _dataset([[1.0, 0.0]], [1.0])
    g = adversarial_loss_gradient(np.array([1.0, 0.0]), ds, PerturbationModel(2.0, 0.0))
    np.testing.assert_allclose(g, [-math.exp(-1.0), 0.0], rtol=1e-15)


def _central_difference(theta, ds, model, h=1e-6):
    g = np.zeros_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        g[j] = (
            adversarial_loss(theta + e, ds, model)
            - adversarial_loss(theta - e, ds, model)
        ) / (2 * h)
    return g


def test_gradient_matches_central_differences_smooth():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n, d = int(rng.integers(2, 10)), int(rng.integers(2, 8))
        ds = _random_dataset(rng, n, d)
        theta = rng.normal(size=d) * 0.5
        model = PerturbationModel(2.0, float(rng.uniform(0.0, 0.5)))
        g = adversarial_loss_gradient(theta, ds, model)
        fd = _central_difference(theta, ds, model)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)


def test_gradient_matches_central_differences_polyhedral():
    # q = 1 (p = inf) away from zero coordinates; q = inf (p = 1) with a
    # well-separated top coordinate, so no finite-difference step crosses a kink
    rng = np.random.default_rng(6)
    for p in (np.inf, 1.0):
        model = PerturbationModel(p, 0.3)
        for _ in range(15):
            n, d = int(rng.integers(2, 8)), int(rng.integers(2, 6))
            ds = _random_dataset(rng, n, d)
            theta = rng.uniform(0.2, 1.0, size=d) * rng.choice([-1.0, 1.0], size=d)
            theta[0] = 2.0  # unique max in absolute value
            g = adversarial_loss_gradient(theta, ds, model)
            fd = _central_difference(theta, ds, model)
            assert np.linalg.norm(g - fd) <= 1e-4 * max(np.linalg.norm(fd), 1.0)


# ------------------------------------------------------------------ alignment


def test_alignment_closed_forms():
    mu = np.array([3.0, 4.0])
    assert alignment(mu, mu) == pytest.approx(5.0, rel=1e-15)
    assert alignment(-mu, mu) == pytest.approx(-5.0, rel=1e-15)
    assert alignment(np.array([-4.0, 3.0]), mu) == pytest.approx(0.0, abs=1e-15)
    assert alignment(2.5 * mu, mu) == pytest.approx(5.0, rel=1e-15)
    with pytest.raises(ValueError):
        alignment(np.zeros(2), mu)


def test_alignment_is_overflow_safe():
    # |theta|^2 overflows near |theta| ~ 1e154; the l2 norm it divides by must not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = alignment(np.full(20, 1e160), np.ones(20))
    assert got == pytest.approx(math.sqrt(20), rel=1e-12)


# ------------------------------------------------------------------- training


def test_train_config_validation():
    model = PerturbationModel(2.0, 0.1)
    with pytest.raises(ValueError):
        TrainConfig(model=model, step_mode="momentum")
    with pytest.raises(ValueError):
        TrainConfig(model=model, T=0)
    with pytest.raises(ValueError):
        TrainConfig(model=model, alpha=0.0)
    with pytest.raises(ValueError):
        TrainConfig(model=model, record_every=0)
    with pytest.raises(ValueError, match="theta0 must have shape"):
        train(_dataset([[1.0, 0.0]], [1.0]), TrainConfig(model=model, T=2), theta0=np.zeros(3))


def test_train_single_step_unrolls_exactly():
    rng = np.random.default_rng(7)
    ds = _random_dataset(rng, 10, 4)
    alpha = 0.05
    cfg = TrainConfig(model=PerturbationModel(2.0, 0.2), alpha=alpha, T=1)
    rec = train(ds, cfg)
    # theta0 = 0 means the budget term contributes nothing to the first step
    np.testing.assert_array_equal(rec.thetas[0], np.zeros(4))
    np.testing.assert_allclose(
        rec.final_theta(), alpha * ds.signed_features.sum(axis=0), rtol=1e-13
    )
    assert rec.losses[0] == float(ds.n)
    assert rec.T == 1
    assert len(rec.losses) == 2


def test_train_without_budget_is_bitwise_standard_descent():
    rng = np.random.default_rng(8)
    ds = _random_dataset(rng, 14, 5)
    alpha = 0.01
    T = 40
    cfg = TrainConfig(model=PerturbationModel(2.0, 0.0), alpha=alpha, T=T, record_every=7)
    rec = train(ds, cfg)

    z = ds.signed_features
    theta = np.zeros(5)
    for _ in range(T):
        w = np.exp(-(z @ theta))
        grad = -(z.T @ w)
        theta = theta - alpha * grad
    np.testing.assert_array_equal(rec.final_theta(), theta)


def test_record_snapshots_and_diagnostics_are_consistent():
    rng = np.random.default_rng(9)
    ds = _random_dataset(rng, 8, 3)
    model = PerturbationModel(2.0, 0.15)
    cfg = TrainConfig(model=model, alpha=0.02, T=25, record_every=10)
    rec = train(ds, cfg)

    assert rec.snapshot_ts == [0, 1, 10, 20, 25]
    assert len(rec.thetas) == len(rec.per_sample_margins) == 5
    assert rec.train_errors.shape == rec.adv_train_errors.shape == (5,)
    assert np.all(np.isfinite(rec.losses))
    assert rec.alphas.shape == (25,)
    assert np.all(rec.alphas == 0.02)

    z = ds.signed_features
    for i, t in enumerate(rec.snapshot_ts):
        th = rec.thetas[i]
        m = z @ th
        np.testing.assert_allclose(rec.per_sample_margins[i], m, rtol=1e-15)
        assert rec.losses[t] == pytest.approx(adversarial_loss(th, ds, model), rel=1e-12)
        assert rec.log_losses[t] == pytest.approx(
            adversarial_log_loss(th, ds, model), rel=1e-12
        )
        assert rec.theta_l2[t] == pytest.approx(np.linalg.norm(th), rel=1e-15)
        assert rec.theta_q[t] == pytest.approx(lp_norm(th, model.q), rel=1e-15)
        assert rec.margin_spread[t] == pytest.approx(m.max() - m.min(), rel=1e-15)
        assert rec.train_errors[i] == float(np.mean(m < 0.0))
        pen = model.epsilon * lp_norm(th, model.q)
        assert rec.adv_train_errors[i] == float(np.mean(m - pen < 0.0))

    # the trainer and the loss/gradient functions share one kernel: the
    # recorded values and one step are equal to theirs, not just close
    theta0 = rng.normal(size=3)
    for p in (np.inf, 2.0, 1.5, 1.0):  # q = 1, 2, 3, inf
        model_p = PerturbationModel(p, 0.15)
        rec_p = train(ds, TrainConfig(model=model_p, alpha=0.02, T=3, record_every=1), theta0)
        for i, t in enumerate(rec_p.snapshot_ts):
            th = rec_p.thetas[i]
            assert rec_p.losses[t] == adversarial_loss(th, ds, model_p)
            assert rec_p.log_losses[t] == adversarial_log_loss(th, ds, model_p)
        step = theta0 - 0.02 * adversarial_loss_gradient(theta0, ds, model_p)
        np.testing.assert_array_equal(rec_p.thetas[1], step)

    assert rec.snapshot_ts.index(10) == 2
    assert 11 not in rec.snapshot_ts


@pytest.mark.parametrize(
    "p, eps, start",
    [
        (2.0, 0.15, "zero"),  # row space
        (2.0, 0.15, "theta0"),  # a supplied start: theta itself
        (np.inf, 0.15, "zero"),  # q = 1
        (1.0, 0.15, "theta0"),  # q = inf
        (2.0, 0.0, "zero"),  # plain descent
    ],
)
def test_record_filled_after_the_loop_matches_each_iterate(p, eps, start):
    # the loop keeps each iterate's margins and norms; the log-losses,
    # spreads and errors computed from them afterwards are the one-iterate
    # formulas, bit for bit
    spec = MixtureSpec(d=40, mu=mu_from_scaling(40, 0.4), eta=0.2, seed=5)
    ds = generate(spec, 12)
    theta0 = None if start == "zero" else np.random.default_rng(5).normal(size=40) / 6.0
    cfg = TrainConfig(model=PerturbationModel(p, eps), alpha=2e-3, T=30, record_every=1)
    rec = train(ds, cfg, theta0)

    assert rec.snapshot_ts == list(range(31))
    assert rec.per_sample_margins.shape == (31, 12)
    for t in rec.snapshot_ts:
        m = rec.per_sample_margins[t]
        log_loss = _log_exp_loss(m)
        if eps != 0.0:
            log_loss += eps * rec.theta_q[t]
        assert rec.log_losses[t] == log_loss
        assert rec.margin_spread[t] == m.max() - m.min()
        assert rec.train_errors[t] == np.mean(m < 0.0)
        assert rec.adv_train_errors[t] == np.mean(m - eps * rec.theta_q[t] < 0.0)
    assert np.any(rec.train_errors > 0.0)  # label noise: some margins stay negative


def test_scheduled_steps_recomputed_from_margin():
    # separable pair with known margins: the schedule must expose its own
    # margin and M, with M reproducible from them
    ds = _dataset([[2.0, 0.0], [0.0, 2.0]], [1.0, 1.0])
    G, eps = 10.0, 0.1
    n = d = 2

    cfg = TrainConfig(model=PerturbationModel(2.0, eps), step_mode="scheduled", G=G, T=5)
    rec = train(ds, cfg)
    gamma = rec.adv_margin
    assert gamma == pytest.approx(math.sqrt(2.0) - eps, abs=1e-6)
    curvature = eps * (2.0 - 1.0) * d ** ((3 * 2 - 2) / (2 * 2 - 2)) / gamma
    M = max((2 * d + curvature) * math.exp(-gamma**2 / (G * d) + eps / G), 1.0)
    assert rec.schedule_M == pytest.approx(M, rel=1e-12)
    alpha0 = 1.0 / (G * d * n)
    assert rec.alphas[0] == alpha0
    np.testing.assert_allclose(rec.alphas[1:], alpha0 / M, rtol=1e-15)

    # polyhedral budget norms carry no curvature term
    for p in (1.0, np.inf):
        cfg = TrainConfig(model=PerturbationModel(p, eps), step_mode="scheduled", G=G, T=3)
        rec = train(ds, cfg)
        gamma = rec.adv_margin
        assert gamma > 0.0
        M = max(2 * d * math.exp(-gamma**2 / (G * d) + eps / G), 1.0)
        assert rec.schedule_M == pytest.approx(M, rel=1e-12)


# schedule_M on criterion 4's seeds 0-9 when the FISTA dual set the
# schedule, to its 1e-10 stopping gap
_FISTA_SCHEDULE_M = (
    218292.50043233018, 201074.28884703093, 198942.71985199398, 214722.99546851838,
    193872.43311430461, 208475.7270870373, 202035.20144457865, 210504.21692639834,
    212598.23172920136, 182479.7866367142,
)


def test_scheduled_margin_is_solved_exactly_on_the_gram_matrix(monkeypatch):
    # criterion 4's regime (n = 50, d = 5000): the schedule's margin comes
    # from the Gram solve, and moves M by no more than FISTA's gap did
    from advlab import margins
    from advlab.margins import adversarial_margin

    def unused(*args):
        raise AssertionError("the FISTA dual ran")

    monkeypatch.setattr(margins, "_solve_dual", unused)
    model = PerturbationModel(2.0, 0.1)
    cfg = TrainConfig(model=model, step_mode="scheduled", G=10.0, T=1)
    for seed, want in enumerate(_FISTA_SCHEDULE_M):
        ds = generate(MixtureSpec(d=5000, mu=mu_from_scaling(5000, 0.3), eta=0.1, seed=seed), 50)
        rec = train(ds, cfg)
        assert rec.adv_margin == adversarial_margin(ds, model).value
        assert rec.schedule_M == pytest.approx(want, rel=1e-9)


def test_scheduled_mode_warns_and_falls_back_when_not_separable():
    # three classes of identical label at 120 degrees: no separating direction
    s = math.sqrt(3.0) / 2.0
    ds = _dataset([[1.0, 0.0], [-0.5, s], [-0.5, -s]], [1.0, 1.0, 1.0])
    cfg = TrainConfig(model=PerturbationModel(2.0, 0.1), step_mode="scheduled", G=5.0, T=3)
    with pytest.warns(RuntimeWarning):
        rec = train(ds, cfg)
    assert rec.schedule_M == 1.0
    np.testing.assert_allclose(rec.alphas, 1.0 / (5.0 * 2 * 3), rtol=1e-15)


def test_scheduled_descent_is_monotone_with_bounded_first_step():
    spec = MixtureSpec(d=200, mu=mu_from_scaling(200, 0.4), eta=0.0, seed=11)
    ds = generate(spec, 20)
    cfg = TrainConfig(
        model=PerturbationModel(2.0, 0.05), step_mode="scheduled", G=10.0, T=60
    )
    rec = train(ds, cfg)
    assert rec.adv_margin is not None and rec.adv_margin > 0.0
    assert rec.losses[1] <= 2 * ds.n
    assert np.all(np.diff(rec.losses) <= 1e-12)


def test_divergence_aborts_with_partial_record():
    # non-separable pair plus a huge step: the first iterate misclassifies
    # sample 2 by thousands, so the next gradient overflows
    ds = _dataset([[1.0, 0.0], [-0.9, 0.1]], [1.0, 1.0])
    cfg = TrainConfig(model=PerturbationModel(2.0, 0.0), alpha=1e5, T=5)
    with pytest.raises(TrainingDiverged) as exc:
        train(ds, cfg)
    err = exc.value
    assert err.iteration == 1
    rec = err.record
    assert rec.losses[0] == 2.0
    assert rec.losses[1] == math.inf
    assert math.isfinite(rec.log_losses[1])
    assert np.all(np.isnan(rec.losses[2:]))
    assert rec.snapshot_ts[-1] == 1


def test_divergence_when_every_margin_overflows_upward():
    # theta_1 = (inf, 0) scores the one sample at +inf: every weight, and so
    # the gradient, is zero, but the log-loss is -inf
    ds = _dataset([[100.0, 0.0]], [1.0])
    cfg = TrainConfig(model=PerturbationModel(2.0, 0.0), alpha=1e308, T=3)
    with pytest.raises(TrainingDiverged, match="at iteration 1") as exc:
        train(ds, cfg)
    rec = exc.value.record
    assert exc.value.iteration == 1
    assert rec.per_sample_margins[1][0] == math.inf and rec.losses[1] == 0.0
    assert rec.log_losses[1] == -math.inf


@pytest.mark.parametrize("path", ["theta", "row_space"])
def test_divergence_at_the_final_iterate(path):
    # one finite step of 1e308 overflows theta_1, so only the loss at t = T
    # leaves the range; its margins are inf or nan, and filling the record
    # from them, or reading its thetas (on the row space, c_1 @ Z), must not warn
    feats = [[100.0, 0.0, 0.0], [-90.0, 10.0, 0.0]]
    ds = _dataset(feats, [1.0, 1.0])
    model = PerturbationModel(2.0, 0.0 if path == "theta" else 0.1)
    cfg = TrainConfig(model=model, alpha=1e308, T=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged, match="non-finite loss at iteration 1") as exc:
            train(ds, cfg)
        thetas = list(exc.value.record.thetas)
    err = exc.value
    assert err.iteration == cfg.T
    rec = err.record
    assert rec.snapshot_ts == [0, 1]
    assert len(thetas) == len(rec.per_sample_margins) == 2
    assert rec.alphas[0] == 1e308
    assert rec.losses[0] == 2.0 and rec.log_losses[0] == pytest.approx(math.log(2.0))
    # slot T holds theta_T's values, not the nan of an unfilled slot
    assert rec.theta_q[1] == rec.theta_l2[1] == lp_norm(thetas[1], 2.0) == math.inf
    assert not np.any(np.isfinite(rec.per_sample_margins[1]))
    assert not math.isfinite(rec.log_losses[1])
    assert rec.train_errors.shape == rec.adv_train_errors.shape == (2,)


# ------------------------------------------ divergence tested once per block

_RECORD_ARRAYS = (
    "losses", "log_losses", "theta_l2", "theta_q", "alignments", "margin_spread",
    "alphas", "per_sample_margins", "train_errors", "adv_train_errors",
)
_KERNELS = {"row_space": "_row_space_worst_case", "theta": "_worst_case"}


def _outcome(ds, cfg, block, monkeypatch):
    """(iteration and message of a divergence or None, record) at a block size."""
    monkeypatch.setattr(training, "_BLOCK", block)
    try:
        return None, train(ds, cfg)
    except TrainingDiverged as exc:
        return (exc.iteration, str(exc)), exc.record


def _assert_same_outcome(got, want):
    # bit for bit, nan payloads included
    (stop, rec), (want_stop, want_rec) = got, want
    assert stop == want_stop
    assert rec.snapshot_ts == want_rec.snapshot_ts
    for name in _RECORD_ARRAYS:
        a, b = getattr(rec, name), getattr(want_rec, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert [th.tobytes() for th in rec.thetas] == [th.tobytes() for th in want_rec.thetas]
    assert (rec.adv_margin, rec.schedule_M) == (want_rec.adv_margin, want_rec.schedule_M)


def _block_case(path):
    """A run of T = 130 (blocks [0, 64), [64, 128), [128, 131)) on either path."""
    spec = MixtureSpec(d=20, mu=mu_from_scaling(20, 0.4), eta=0.1, seed=3)
    p = 2.0 if path == "row_space" else np.inf
    cfg = TrainConfig(model=PerturbationModel(p, 0.1), alpha=1e-2, T=_T, record_every=3)
    return generate(spec, 8), cfg


def _iterates_seen(ds, cfg, path, monkeypatch):
    """The bytes of the iterate the kernel sees at each t of a clean run."""
    kernel, seen = getattr(training, _KERNELS[path]), []

    def spy(x, *args):
        seen.append(x.tobytes())
        return kernel(x, *args)

    monkeypatch.setattr(training, _KERNELS[path], spy)
    train(ds, cfg)
    monkeypatch.setattr(training, _KERNELS[path], kernel)
    assert len(seen) == cfg.T + 1
    return seen


def _faulty_kernel(path, at, fault):
    """The kernel, with a fault wherever it sees the iterate ``at``."""
    kernel = getattr(training, _KERNELS[path])

    def faulty(x, *args):
        m, loss, pen_norm, grad = kernel(x, *args)
        if x.tobytes() == at:
            if fault == "inf_gradient":
                grad = grad.copy()
                grad[0] = np.inf
            else:
                m = m.copy()
                value = {"nan_margin": np.nan, "neg_inf_margin": -np.inf, "one_inf_margin": np.inf}
                m[np.argmax(m) if fault == "one_inf_margin" else 0] = value[fault]
        return m, loss, pen_norm, grad

    return faulty


_T = 130
_FAULT_CASES = [
    (fault, t)
    for fault in ("neg_inf_margin", "nan_margin", "inf_gradient", "one_inf_margin")
    for t in (1, 63, 64, 65, 127, _T - 1, _T)
    if not (fault == "inf_gradient" and t == _T)  # no gradient is taken at T
]


@pytest.mark.parametrize("path", ["theta", "row_space"])
@pytest.mark.parametrize("fault, t", _FAULT_CASES)
def test_divergence_at_every_position_around_a_block(path, fault, t, monkeypatch):
    # a fault at t on either side of a block boundary stops the run where,
    # and with the record with which, a test at every step stops it; a single
    # +inf margin leaves the row's minimum finite and the run goes on
    ds, cfg = _block_case(path)
    at = _iterates_seen(ds, cfg, path, monkeypatch)[t]
    monkeypatch.setattr(training, _KERNELS[path], _faulty_kernel(path, at, fault))
    got = _outcome(ds, cfg, 64, monkeypatch)
    _assert_same_outcome(got, _outcome(ds, cfg, 1, monkeypatch))
    if fault == "one_inf_margin":
        assert got[0] is None and got[1].margin_spread[t] == math.inf
    elif t < _T:
        assert got[0] == (t, f"non-finite loss or gradient at iteration {t}")
    else:
        assert got[0] == (_T, f"non-finite loss at iteration {_T}")


@pytest.mark.parametrize("path", ["theta", "row_space"])
def test_divergence_when_a_finite_gradient_overflows_the_iterate(path, monkeypatch):
    # two opposed rows of scale 1e-152 and a step of 1.25 / s^2: the margins
    # oscillate about the minimiser with a growing amplitude, until a step
    # whose gradient is finite overflows the iterate, past the first block
    s = 1e-152
    ds = _dataset([[s, 0.0, 0.0], [-(1.0 + 2.0**-52) * s, 0.0, 0.0]], [1.0, 1.0])
    model = PerturbationModel(2.0, 0.0 if path == "theta" else 1e-170)
    cfg = TrainConfig(model=model, alpha=1.25 / (s * s), T=130, record_every=1)
    got = _outcome(ds, cfg, 64, monkeypatch)
    _assert_same_outcome(got, _outcome(ds, cfg, 1, monkeypatch))
    (stop, message), rec = got
    assert 64 < stop < 128 and message == f"non-finite loss or gradient at iteration {stop}"
    thetas = list(rec.thetas)
    # the step from stop - 1 passed the per-step test, so its gradient was finite
    assert rec.alphas[stop - 1] == cfg.alpha and math.isfinite(rec.losses[stop - 1])
    assert np.isfinite(thetas[stop - 1]).all() and not np.isfinite(thetas[stop]).all()


@pytest.mark.parametrize("path", ["theta", "row_space"])
def test_an_error_inside_an_unchecked_block_reaches_the_caller(path, monkeypatch):
    # the kernel raises at t = 70: the block is replayed step by step, where
    # it raises again, and that error is the one the caller sees
    ds, cfg = _block_case(path)
    at = _iterates_seen(ds, cfg, path, monkeypatch)[70]
    kernel, calls = getattr(training, _KERNELS[path]), []

    def raising(x, *args):
        if x.tobytes() == at:
            calls.append(len(calls))
            raise ValueError(f"kernel fault {len(calls)}")
        return kernel(x, *args)

    monkeypatch.setattr(training, _KERNELS[path], raising)
    with pytest.raises(ValueError, match="^kernel fault 2$"):
        train(ds, cfg)
    assert len(calls) == 2


@pytest.mark.parametrize("path", ["theta", "row_space"])
def test_a_rolled_back_block_leaves_no_trace_in_the_record(path, monkeypatch):
    # an error at t = 70 that the replay does not meet: the record is the
    # clean run's, with no snapshot or value kept from the rolled-back block
    ds, cfg = _block_case(path)
    at = _iterates_seen(ds, cfg, path, monkeypatch)[70]
    clean = _outcome(ds, cfg, 64, monkeypatch)
    kernel, calls = getattr(training, _KERNELS[path]), []

    def raising_once(x, *args):
        if x.tobytes() == at:
            calls.append(len(calls))
            if len(calls) == 1:
                raise ValueError("kernel fault")
        return kernel(x, *args)

    monkeypatch.setattr(training, _KERNELS[path], raising_once)
    got = _outcome(ds, cfg, 64, monkeypatch)
    assert len(calls) == 2
    _assert_same_outcome(got, clean)


def test_theta_l2_record_is_overflow_safe_off_q2():
    # |theta|^2 overflows near |theta| ~ 1e154; the recorded l2 norm must not
    spec = MixtureSpec(d=20, mu=mu_from_scaling(20, 0.4), eta=0.0, seed=4)
    ds = generate(spec, 8)
    theta0 = np.full(20, 1e160)
    for p in (1.0, math.inf):
        cfg = TrainConfig(model=PerturbationModel(p, 0.1), T=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                rec = train(ds, cfg, theta0=theta0)
            except TrainingDiverged as exc:
                rec = exc.record
        assert rec.theta_l2[0] == pytest.approx(1e160 * math.sqrt(20), rel=1e-12)


@pytest.mark.parametrize("p", [np.inf, 1.0, 1.5], ids=["q1", "qinf", "q3"])
def test_theta_l2_off_q2_is_lp_norm_of_each_snapshot(p):
    # the dense loop takes ||theta||_2 from theta . theta, with lp_norm's bits
    spec = MixtureSpec(d=40, mu=mu_from_scaling(40, 0.4), eta=0.2, seed=5)
    ds = generate(spec, 12)
    cfg = TrainConfig(model=PerturbationModel(p, 0.15), alpha=2e-3, T=60, record_every=1)
    rec = train(ds, cfg)
    assert rec.snapshot_ts == list(range(61))
    for t, theta in zip(rec.snapshot_ts, rec.thetas):
        assert rec.theta_l2[t] == lp_norm(theta, 2.0)
    assert rec.theta_l2[0] == 0.0 and rec.theta_l2[-1] > 0.0


def test_record_csv_round_trips(tmp_path):
    rng = np.random.default_rng(10)
    spec = MixtureSpec(d=6, mu=mu_from_scaling(6, 0.4), eta=0.0, seed=3)
    ds = generate(spec, 9)
    model = PerturbationModel(2.0, 0.1)
    cfg = TrainConfig(model=model, alpha=0.05, T=12, record_every=5)
    rec = train(ds, cfg)

    path = tmp_path / "run.csv"
    save_record_csv(rec, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,loss,log_loss,theta_l2,theta_q,alignment,train_err,adv_train_err"
    assert len(lines) == 1 + len(rec.snapshot_ts)
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        t = int(parts[0])
        assert t == rec.snapshot_ts[i]
        assert float(parts[1]) == rec.losses[t]
        assert float(parts[2]) == rec.log_losses[t]
        assert float(parts[3]) == rec.theta_l2[t]
        assert float(parts[4]) == rec.theta_q[t]
        assert float(parts[5]) == rec.alignments[t] or (
            math.isnan(float(parts[5])) and math.isnan(rec.alignments[t])
        )
        assert float(parts[6]) == rec.train_errors[i]
        assert float(parts[7]) == rec.adv_train_errors[i]


# ------------------------------------------------------ row space at q = 2


def _theta_descent(ds, eps, alphas, theta0=None, record_every=10):
    """Bare descent on theta at q = 2, recording what ``train`` records."""
    z = ds.signed_features
    mu = ds.spec.mu
    theta = np.zeros(ds.d) if theta0 is None else theta0.copy()
    T = len(alphas)
    out = {key: [] for key in ("losses", "log_losses", "theta_l2", "alignments")}
    snaps, margins_snap = [], []
    for t in range(T + 1):
        m = z @ theta
        nrm = float(np.linalg.norm(theta))
        w = np.exp(eps * nrm - m)
        out["losses"].append(float(w.sum()))
        out["log_losses"].append(float(logsumexp(-m)) + eps * nrm)
        out["theta_l2"].append(nrm)
        out["alignments"].append(float(mu @ theta) / nrm if nrm > 0 else math.nan)
        if t in (0, 1, T) or t % record_every == 0:
            snaps.append(theta)
            margins_snap.append(m)
        if t < T:
            sub = theta / nrm if nrm > 0 else np.zeros_like(theta)
            theta = theta - alphas[t] * (-(z.T @ w) + eps * float(w.sum()) * sub)
    return {key: np.array(v) for key, v in out.items()}, snaps, margins_snap


def _normwise(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("start", ["zero", "theta0"])
@pytest.mark.parametrize("step_mode", ["constant", "scheduled"])
@pytest.mark.parametrize("eps", [0.05, 0.2])
@pytest.mark.parametrize("d", [200, 1000])
def test_row_space_path_matches_theta_descent(d, eps, step_mode, start):
    # n = 20 rows < d: from the zero start train() descends on row
    # coefficients; from theta0 it descends on theta, against the same reference
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.3), eta=0.1, seed=d)
    ds = generate(spec, 20)
    theta0 = None
    if start == "theta0":
        theta0 = np.random.default_rng(d).standard_normal(d) / math.sqrt(d)
    cfg = TrainConfig(
        model=PerturbationModel(2.0, eps), step_mode=step_mode, alpha=5e-4, T=300,
        record_every=25,
    )
    rec = train(ds, cfg, theta0)
    want, snaps, margins_snap = _theta_descent(ds, eps, rec.alphas, theta0, 25)

    assert rec.snapshot_ts == [0, 1] + list(range(25, 301, 25))
    for key, ref in want.items():
        # log-losses pass through zero, where only an absolute error means anything
        atol = 1e-12 if key == "log_losses" else 0.0
        np.testing.assert_allclose(getattr(rec, key), ref, rtol=1e-12, atol=atol, err_msg=key)
    for got, ref in zip(rec.thetas, snaps):
        if np.any(ref):
            assert _normwise(got, ref) <= 1e-12
        else:
            np.testing.assert_array_equal(got, ref)
    for got, ref in zip(rec.per_sample_margins, margins_snap):
        if np.any(ref):
            assert _normwise(got, ref) <= 1e-12
        else:
            np.testing.assert_array_equal(got, ref)


def _nearly_opposed_rows():
    """Three rows in d = 8, two of them nearly opposed, and a step of 100."""
    feats = np.zeros((3, 8))
    feats[0, 0], feats[1, :2], feats[2, 2] = 1.0, (-0.9, 0.1), 0.5
    ds = _dataset(feats, [1.0, 1.0, 1.0])
    return ds, TrainConfig(model=PerturbationModel(2.0, 0.1), alpha=100.0, T=50, record_every=1)


def test_row_space_path_diverges_where_theta_descent_does():
    # a large step makes the weights overflow after a few iterations
    ds, cfg = _nearly_opposed_rows()
    eps, alpha, T = cfg.model.epsilon, cfg.alpha, cfg.T
    with pytest.raises(TrainingDiverged) as exc:
        train(ds, cfg)

    z = ds.signed_features
    theta = np.zeros(8)
    for stop in range(T):
        nrm = lp_norm(theta, 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.exp(eps * nrm - z @ theta)
            grad = -(z.T @ w) + eps * float(w.sum()) * (theta / nrm if nrm > 0 else 0.0)
        if not np.all(np.isfinite(grad)):
            break
        theta = theta - alpha * grad
    assert stop == 2
    err = exc.value
    assert err.iteration == stop
    rec = err.record
    assert rec.snapshot_ts == list(range(stop + 1))
    assert len(rec.thetas) == len(rec.per_sample_margins) == stop + 1
    assert np.all(np.isfinite(rec.losses[:stop])) and rec.losses[stop] == math.inf
    assert np.all(np.isfinite(rec.log_losses[: stop + 1]))
    assert np.all(np.isnan(rec.losses[stop + 1 :]))
    assert np.all(rec.alphas[:stop] == alpha) and np.all(rec.alphas[stop:] == 0.0)
    np.testing.assert_allclose(rec.thetas[-1], theta, rtol=1e-12)


def test_theta_path_is_bitwise_where_the_row_space_does_not_apply():
    # q = 2 with n >= d or a supplied start, and q in {1, inf}
    rng = np.random.default_rng(12)
    cases = [
        (_random_dataset(rng, 8, 6), 2.0, None),
        (_random_dataset(rng, 5, 6), 2.0, rng.normal(size=6)),
        (_random_dataset(rng, 5, 40), np.inf, None),
        (_random_dataset(rng, 5, 40), 1.0, rng.normal(size=40) / math.sqrt(40)),
        (_random_dataset(rng, 5, 40), 2.0, rng.normal(size=40) / math.sqrt(40)),
    ]
    for ds, p, theta0 in cases:
        model = PerturbationModel(p, 0.1)
        rec = train(ds, TrainConfig(model=model, alpha=1e-3, T=20, record_every=1), theta0)
        theta = np.zeros(ds.d) if theta0 is None else theta0
        for t in range(21):
            np.testing.assert_array_equal(rec.thetas[t], theta)
            assert rec.losses[t] == adversarial_loss(theta, ds, model)
            theta = theta - 1e-3 * adversarial_loss_gradient(theta, ds, model)


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_row_space_norm_is_overflow_safe(scale):
    # c.Gc squares |theta|, so it leaves the floating range near 1e154 and
    # 1e-154; the recorded norm must follow lp_norm(theta, 2) there.  From
    # the zero start every weight is 1, so a first step of size scale lands
    # on theta_1 = scale * sum_k z_k
    spec = MixtureSpec(d=20, mu=mu_from_scaling(20, 0.4), eta=0.0, seed=4)
    ds = generate(spec, 8)
    model = PerturbationModel(2.0, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = train(ds, TrainConfig(model=model, alpha=scale, T=1))
    want = scale * lp_norm(ds.signed_features.sum(axis=0), 2.0)
    assert rec.theta_l2[1] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rec.theta_l2[1] == lp_norm(rec.thetas[1], 2.0)
    assert rec.log_losses[1] == pytest.approx(
        adversarial_log_loss(rec.thetas[1], ds, model), rel=1e-12
    )


def test_row_space_record_keeps_coefficients_not_thetas():
    # 201 snapshots of theta at d = 20,000 would take 201 * 160 KB = 32 MB;
    # the record keeps each snapshot's n = 20 coefficients instead
    d = 20_000
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.3), eta=0.1, seed=7)
    ds = generate(spec, 20)
    ds.signed_features, ds.gram  # the dataset's own cached arrays, made beforehand
    cfg = TrainConfig(model=PerturbationModel(2.0, 0.1), alpha=1e-4, T=200, record_every=1)
    tracemalloc.start()
    try:
        rec = train(ds, cfg)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rec.thetas) == 201
    assert kept < 2 * 2**20, kept


def test_theta_path_record_returns_the_stored_thetas():
    # off the row space the iterate is theta itself, stored once and returned as is
    spec = MixtureSpec(d=30, mu=mu_from_scaling(30, 0.3), eta=0.1, seed=8)
    ds = generate(spec, 10)
    rec = train(ds, TrainConfig(model=PerturbationModel(np.inf, 0.1), alpha=1e-3, T=20))
    first = [theta.copy() for theta in rec.thetas]
    for i, want in enumerate(first):
        assert rec.thetas[i] is rec.thetas[i]
        np.testing.assert_array_equal(rec.thetas[i], want)
    assert rec.final_theta() is rec.thetas[-1]
    assert all(a is b for a, b in zip(rec.thetas[:], rec.thetas))


def _read_blocks(thetas):
    """(index, row) for every row of thetas.blocks(), and the block lengths."""
    rows, sizes = [], []
    for start, block in thetas.blocks():
        assert start == len(rows)
        sizes.append(len(block))
        rows.extend(enumerate(block, start))
    return rows, sizes


def test_snapshot_blocks_on_the_theta_path_are_the_stored_thetas():
    # at d = 20,000 a block holds 65,536 // 20,000 = 3 snapshots
    d = 20_000
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.3), eta=0.1, seed=8)
    ds = generate(spec, 10)
    cfg = TrainConfig(model=PerturbationModel(np.inf, 0.1), alpha=1e-4, T=21, record_every=1)
    rec = train(ds, cfg)
    rows, sizes = _read_blocks(rec.thetas)
    assert sizes == [3] * 7 + [1]
    assert all(row is rec.thetas[i] for i, row in rows)


def test_snapshot_blocks_on_the_row_space_match_the_per_entry_reads():
    # 22 snapshots at d = 20,000: each block of 3 is one product with Z,
    # and the last block holds 1
    d = 20_000
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.3), eta=0.1, seed=7)
    ds = generate(spec, 20)
    cfg = TrainConfig(model=PerturbationModel(2.0, 0.1), alpha=1e-4, T=21, record_every=1)
    rec = train(ds, cfg)
    assert all(block.size <= _CHUNK_FLOATS for _, block in rec.thetas.blocks())
    rows, sizes = _read_blocks(rec.thetas)
    assert sizes == [3] * 7 + [1]
    for i, row in rows:
        want = rec.thetas[i]
        assert lp_norm(row - want, 2.0) <= 1e-15 * lp_norm(want, 2.0), i


@pytest.mark.parametrize("case", ["nearly_opposed", "overflowing"])
def test_snapshot_blocks_of_a_diverged_row_space_run_read_without_warnings(case):
    # the record of the nearly opposed rows, and one whose first step of
    # 1e308 leaves coefficients whose theta overflows
    if case == "nearly_opposed":
        ds, cfg = _nearly_opposed_rows()
    else:
        spec = MixtureSpec(d=20, mu=mu_from_scaling(20, 0.4), eta=0.0, seed=4)
        ds = generate(spec, 8)
        cfg = TrainConfig(model=PerturbationModel(2.0, 0.1), alpha=1e308, T=3)
    with pytest.raises(TrainingDiverged) as exc:
        train(ds, cfg)
    rec = exc.value.record
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, _ = _read_blocks(rec.thetas)
    assert len(rows) == len(rec.thetas)
    assert all(np.isfinite(row).all() for _, row in rows) == (case == "nearly_opposed")
