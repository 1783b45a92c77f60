"""Acceptance suite: ten end-to-end criteria with stated tolerances.

Each test prints one summary line ("criterion NN <name>: PASS/FAIL [...]").
Criterion 4 asserts, among the trajectory diagnostics, that the mean
alignment of the iterate grows between iteration 10 and the final
iteration.  On this implementation that check fails in the stated regime
for every seed (the alignment peaks within the first few steps and then
drifts down by a tiny amount while the theoretical lower bound grows);
the failure is analyzed in README.md and is left to fail rather than be
weakened.
"""

import itertools
import math
import time

import numpy as np
import pytest

from advlab.data import MixtureSpec, generate, mu_from_scaling
from advlab.lemmas import LEMMA_IDS, run_seed_batch
from advlab.margins import adversarial_margin, standard_margin
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
    norm_subgradient,
    worst_case_perturbation,
)
from advlab.risk import analytic_risk, monte_carlo_risk
from advlab.training import (
    TrainConfig,
    adversarial_loss,
    adversarial_loss_gradient,
    train,
)
from oracles import _dataset


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {name}: {status} [{detail}]"
    print(line)
    assert ok, line


def _row_norms(u: np.ndarray, p: float) -> np.ndarray:
    if math.isinf(p):
        return np.abs(u).max(axis=1)
    if p == 1.0:
        return np.abs(u).sum(axis=1)
    return (np.abs(u) ** p).sum(axis=1) ** (1.0 / p)


# --------------------------------------------------------------- criterion 1


def test_criterion_01_inner_maximizer_dominance():
    t0 = time.time()
    rng = np.random.default_rng(101)
    p_grid = (1.0, 1.5, 2.0, 4.0, math.inf)
    worst_slack = -math.inf
    worst_corner = 0.0
    corner_count = 0
    for k in range(1000):
        p = p_grid[k % 5]
        d = int(rng.integers(2, 13))
        theta = rng.normal(size=d)
        y = int(rng.choice([-1, 1]))
        eps = float(rng.uniform(0.01, 2.0))
        model = PerturbationModel(p, eps)
        bound = eps * lp_norm(theta, model.q)

        # the shipped maximizer must attain the bound exactly
        u_star = worst_case_perturbation(theta, y, model)
        assert abs(-y * (theta @ u_star) - bound) <= 1e-12 * max(1.0, bound)
        assert lp_norm(u_star, p) <= eps * (1 + 1e-12)

        # 10^4 random feasible perturbations, one in ten on the boundary
        u = rng.normal(size=(10_000, d))
        radii = eps * rng.uniform(0.0, 1.0, size=10_000) ** (1.0 / d)
        radii[::10] = eps
        deltas = u * (radii / _row_norms(u, p))[:, None]
        gain = -y * (deltas @ theta)
        worst_slack = max(worst_slack, float(gain.max() - bound))

        if math.isinf(p) and d <= 12:
            corners = eps * np.array(
                list(itertools.product((-1.0, 1.0), repeat=d))
            )
            corner_best = float(np.max(-y * (corners @ theta)))
            worst_corner = max(
                worst_corner, abs(corner_best - bound) / max(1.0, bound)
            )
            corner_count += 1
    elapsed = time.time() - t0
    ok = worst_slack <= 1e-12 and worst_corner <= 1e-12 and elapsed <= 30.0
    _check(
        1,
        "inner maximizer dominance",
        ok,
        f"slack={worst_slack:.2e} corner_err={worst_corner:.2e}"
        f" corners={corner_count} {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_02_subgradient_identities():
    t0 = time.time()
    rng = np.random.default_rng(202)
    q_grid = (1.0, 1.5, 2.0, 4.0, math.inf)
    worst = 0.0
    for q in q_grid:
        p = dual_exponent(q)
        for _ in range(2000):
            d = int(rng.integers(2, 30))
            theta = rng.normal(size=d)
            g = norm_subgradient(theta, q)
            nq = lp_norm(theta, q)
            worst = max(
                worst,
                abs(lp_norm(g, p) - 1.0),
                abs(float(theta @ g) - nq) / max(1.0, nq),
                max(0.0, lp_norm(g, 2.0) - math.sqrt(d)),
            )
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed <= 5.0
    _check(2, "subgradient identities", ok, f"worst={worst:.2e} {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 3


def _fd_loss_gradient(theta, ds, model, h):
    g = np.zeros_like(theta)
    for j in range(theta.size):
        tp = theta.copy()
        tp[j] += h
        tm = theta.copy()
        tm[j] -= h
        g[j] = (adversarial_loss(tp, ds, model) - adversarial_loss(tm, ds, model)) / (2 * h)
    return g


def test_criterion_03_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst_smooth = worst_kinked = worst_net = 0.0
    for _ in range(40):
        feats = rng.normal(size=(6, 8))
        labels = rng.choice([-1.0, 1.0], size=6)
        ds = _dataset(feats, labels)
        theta = rng.normal(size=8) * 0.4
        model = PerturbationModel(2.0, float(rng.uniform(0.05, 0.5)))
        g = adversarial_loss_gradient(theta, ds, model)
        fd = _fd_loss_gradient(theta, ds, model, 1e-6)
        worst_smooth = max(
            worst_smooth, float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0))
        )
    for p in (math.inf, 1.0):  # penalty exponents q=1 and q=inf
        for _ in range(30):
            feats = rng.normal(size=(6, 8))
            labels = rng.choice([-1.0, 1.0], size=6)
            ds = _dataset(feats, labels)
            theta = rng.normal(size=8) * 0.4
            # keep away from the q-norm kinks: no zero and no tied-max coordinate
            a = np.abs(theta)
            theta[a < 0.05] = 0.2
            top = np.argsort(np.abs(theta))
            theta[top[-1]] = np.sign(theta[top[-1]]) * (np.abs(theta[top[-2]]) + 0.3)
            model = PerturbationModel(p, float(rng.uniform(0.05, 0.5)))
            g = adversarial_loss_gradient(theta, ds, model)
            fd = _fd_loss_gradient(theta, ds, model, 1e-5)
            worst_kinked = max(
                worst_kinked,
                float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0)),
            )
    checked = 0
    while checked < 20:
        net = TwoLayerNet(
            W1=rng.normal(size=(8, 10)) * 0.4,
            b1=rng.normal(size=8) * 0.2,
            w2=rng.normal(size=8) * 0.4,
            b2=float(rng.normal() * 0.2),
        )
        feats = rng.normal(size=(5, 10))
        labels = rng.choice([-1.0, 1.0], size=5)
        if float(np.min(np.abs(feats @ net.W1.T + net.b1))) < 1e-3:
            continue
        checked += 1
        _, grads = loss_and_gradients(net, feats, labels)
        h = 1e-5
        for block in ("W1", "b1", "w2"):
            arr = getattr(net, block)
            got = getattr(grads, block)
            it = np.nditer(arr, flags=["multi_index"])
            fd = np.zeros_like(arr)
            for _ in it:
                idx = it.multi_index
                plus, minus = net.copy(), net.copy()
                getattr(plus, block)[idx] += h
                getattr(minus, block)[idx] -= h
                fd[idx] = (
                    loss_and_gradients(plus, feats, labels)[0]
                    - loss_and_gradients(minus, feats, labels)[0]
                ) / (2 * h)
            worst_net = max(
                worst_net,
                float(np.linalg.norm(fd - got) / max(np.linalg.norm(got), 1.0)),
            )
    elapsed = time.time() - t0
    ok = (
        worst_smooth <= 1e-6
        and worst_kinked <= 1e-4
        and worst_net <= 1e-4
        and elapsed <= 30.0
    )
    _check(
        3,
        "gradient checks",
        ok,
        f"smooth={worst_smooth:.2e} kinked={worst_kinked:.2e}"
        f" net={worst_net:.2e} {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_04_trajectory_lemma_suite():
    t0 = time.time()
    model = PerturbationModel(2.0, 0.1)
    cfg = TrainConfig(
        model=model, step_mode="scheduled", G=10.0, T=2000, record_every=10
    )
    result = run_seed_batch(
        n=50, d=5000, r=0.3, eta=0.1, model=model, cfg=cfg, seeds=10, base_seed=0
    )
    elapsed = time.time() - t0
    counts = " ".join(f"{lid}={result.pass_counts[lid]}/10" for lid in LEMMA_IDS)
    ok = all(result.pass_counts[lid] >= 9 for lid in LEMMA_IDS) and elapsed <= 300.0
    _check(4, "trajectory lemma suite", ok, f"{counts} {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 5


def test_criterion_05_benign_overfitting_trend():
    t0 = time.time()
    # alpha=0.001 on the sample-averaged loss (protocol convention)
    alpha_sum = 1e-3 / 50
    failures = []
    for p, eps in ((2.0, 0.1), (math.inf, 0.01)):
        model = PerturbationModel(p, eps)
        means: dict[float, tuple[float, float]] = {}
        for r in (0.2, 0.3, 0.4):
            stds, advs = [], []
            for seed in range(10):
                spec = MixtureSpec(
                    d=1000, mu=mu_from_scaling(1000, r), eta=0.1, seed=seed
                )
                ds = generate(spec, 50)
                rec = train(
                    ds,
                    TrainConfig(model=model, alpha=alpha_sum, T=1000, record_every=1000),
                )
                if rec.adv_train_errors[-1] != 0.0:
                    failures.append(f"adv_train_err>0 p={p} r={r} seed={seed}")
                rep = analytic_risk(rec.final_theta(), spec, model)
                stds.append(rep.std_risk)
                advs.append(rep.adv_risk)
            means[r] = (float(np.mean(stds)), float(np.mean(advs)))
        if not means[0.4][0] <= 0.1 + 0.05:
            failures.append(f"p={p} r=0.4 std {means[0.4][0]:.4f} > 0.15")
        if not means[0.4][1] <= 0.1 + 0.07:
            failures.append(f"p={p} r=0.4 adv {means[0.4][1]:.4f} > 0.17")
        for idx, nm in ((0, "std"), (1, "adv")):
            # both high-signal settings sit at the noise floor, so the
            # 0.4 vs 0.3 gap is tiny; require strict order there and a
            # clear >= 0.01 gap for the low-signal pair (piloted)
            if not means[0.4][idx] < means[0.3][idx]:
                failures.append(f"p={p} {nm} order r0.4 !< r0.3")
            if not means[0.3][idx] < means[0.2][idx]:
                failures.append(f"p={p} {nm} order r0.3 !< r0.2")
            if not means[0.2][idx] - means[0.3][idx] >= 0.01:
                failures.append(f"p={p} {nm} gap r0.2-r0.3 < 0.01")
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 600.0
    _check(
        5,
        "benign overfitting trend",
        ok,
        ("; ".join(failures) if failures else "all 60 runs interpolate, ordering holds")
        + f" {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_06_epsilon_monotonicity():
    t0 = time.time()
    alpha_sum = 1e-3 / 50
    worst_drop = 0.0
    for p, grid in ((2.0, (0.0, 0.05, 0.1, 0.2)), (math.inf, (0.0, 0.005, 0.01, 0.02))):
        means = []
        for eps in grid:
            model = PerturbationModel(p, eps)
            advs = []
            for seed in range(10):
                spec = MixtureSpec(
                    d=200, mu=mu_from_scaling(200, 0.3), eta=0.1, seed=seed
                )
                ds = generate(spec, 50)
                rec = train(
                    ds,
                    TrainConfig(model=model, alpha=alpha_sum, T=1000, record_every=1000),
                )
                advs.append(analytic_risk(rec.final_theta(), spec, model).adv_risk)
            means.append(float(np.mean(advs)))
        worst_drop = max(worst_drop, float(-np.diff(means).min()))
    elapsed = time.time() - t0
    ok = worst_drop <= 0.005 and elapsed <= 300.0
    _check(
        6, "epsilon monotonicity", ok, f"worst_drop={worst_drop:.2e} {elapsed:.1f}s"
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_07_eps_zero_reduction():
    spec = MixtureSpec(d=100, mu=mu_from_scaling(100, 0.35), eta=0.1, seed=4)
    ds = generate(spec, 30)
    alpha, T = 1e-4, 300
    model = PerturbationModel(2.0, 0.0)
    rec = train(ds, TrainConfig(model=model, alpha=alpha, T=T, record_every=T))

    # plain exponential-loss gradient descent, written out independently
    z = ds.signed_features
    theta = np.zeros(100)
    for _ in range(T):
        theta = theta - alpha * (-(z.T @ np.exp(-(z @ theta))))
    ok = np.array_equal(rec.final_theta(), theta)
    _check(7, "eps=0 reduction to plain GD", ok, "bitwise")


# --------------------------------------------------------------- criterion 8


def test_criterion_08_risk_evaluator_agreement():
    t0 = time.time()
    rng = np.random.default_rng(808)
    m = 200_000
    p_grid = (1.0, 2.0, math.inf)
    worst_sigma = 0.0
    for k in range(20):
        d = int(rng.integers(5, 41))
        r = float(rng.uniform(0.15, 0.45))
        eta = float(rng.uniform(0.0, 0.3))
        spec = MixtureSpec(d=d, mu=mu_from_scaling(d, r), eta=eta, seed=k)
        theta = spec.mu / np.linalg.norm(spec.mu) + 0.6 * rng.normal(size=d) / math.sqrt(d)
        model = PerturbationModel(p_grid[k % 3], float(rng.uniform(0.0, 0.2)))
        an = analytic_risk(theta, spec, model)
        mc = monte_carlo_risk(theta, spec, model, m=m, seed=k)
        for a, b in ((an.std_risk, mc.std_risk), (an.adv_risk, mc.adv_risk)):
            se = max(math.sqrt(a * (1 - a) / m), 1.0 / m)
            worst_sigma = max(worst_sigma, abs(b - a) / se)

    # coverage at 2 sigma over 100 repetitions of one fixed triple
    d = 20
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, 0.35), eta=0.1, seed=0)
    rng2 = np.random.default_rng(7)
    theta = spec.mu / np.linalg.norm(spec.mu) + 0.6 * rng2.normal(size=d) / math.sqrt(d)
    model = PerturbationModel(2.0, 0.1)
    an = analytic_risk(theta, spec, model)
    se_std = math.sqrt(an.std_risk * (1 - an.std_risk) / m)
    se_adv = math.sqrt(an.adv_risk * (1 - an.adv_risk) / m)
    hits_std = hits_adv = 0
    for i in range(100):
        mc = monte_carlo_risk(theta, spec, model, m=m, seed=2000 + i)
        hits_std += abs(mc.std_risk - an.std_risk) <= 2 * se_std
        hits_adv += abs(mc.adv_risk - an.adv_risk) <= 2 * se_adv
    elapsed = time.time() - t0
    ok = worst_sigma <= 4.0 and hits_std >= 95 and hits_adv >= 95
    _check(
        8,
        "risk evaluator agreement",
        ok,
        f"worst={worst_sigma:.2f}sigma coverage std={hits_std}/100"
        f" adv={hits_adv}/100 {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 9


def _induced_linear_net(a: np.ndarray) -> TwoLayerNet:
    d = a.size
    return TwoLayerNet(
        W1=np.vstack([np.eye(d), -np.eye(d)]),
        b1=np.zeros(2 * d),
        w2=np.concatenate([a, -a]),
        b2=0.0,
    )


def test_criterion_09_pgd_sanity_and_nn_trend():
    t0 = time.time()
    rng = np.random.default_rng(909)
    worst_ratio = 1.0
    for p in (2.0, math.inf):
        for _ in range(5):
            model = PerturbationModel(p, float(rng.uniform(0.1, 0.4)))
            d = int(rng.integers(4, 10))
            a = rng.normal(size=d)
            a[np.abs(a) < 0.1] = 0.3
            net = _induced_linear_net(a)
            feats = rng.normal(size=(30, d)) + 0.5
            labels = rng.choice([-1.0, 1.0], size=30)
            cfg = PgdConfig(model=model, steps=10)
            clean = float(np.sum(np.exp(-labels * (feats @ a))))
            exact = float(
                np.sum(np.exp(-(labels * (feats @ a)) + model.epsilon * lp_norm(a, model.q)))
            )
            attacked = sum(
                math.exp(-labels[k] * forward(net, pgd_attack(net, feats[k], int(labels[k]), cfg)))
                for k in range(30)
            )
            worst_ratio = min(worst_ratio, (attacked - clean) / (exact - clean))

    failures = []
    for r in (0.3, 0.4):
        means: dict[int, tuple[float, float]] = {}
        for d in (50, 200, 1000):
            stds, advs = [], []
            for seed in range(5):
                spec = MixtureSpec(d=d, mu=mu_from_scaling(d, r), eta=0.1, seed=seed)
                ds = generate(spec, 50)
                pgd = PgdConfig(model=PerturbationModel(2.0, 0.1), steps=10)
                net, log = adv_train_nn(
                    ds, init_network(d, h=32, seed=seed), pgd, epochs=400, lr=0.01 / 50
                )
                if log.adv_train_errors[-1] != 0.0:
                    failures.append(f"nn adv_train_err>0 r={r} d={d} seed={seed}")
                rep = evaluate_nn_risks(net, spec, pgd, m=2000, seed=seed)
                stds.append(rep.std_risk)
                advs.append(rep.adv_risk)
            means[d] = (float(np.mean(stds)), float(np.mean(advs)))
        for idx, nm in ((0, "std"), (1, "adv")):
            if not means[1000][idx] < means[200][idx] < means[50][idx]:
                failures.append(
                    f"nn {nm} ordering r={r}: "
                    f"{means[1000][idx]:.4f} !< {means[200][idx]:.4f} !< {means[50][idx]:.4f}"
                )
    elapsed = time.time() - t0
    ok = worst_ratio >= 0.99 and not failures and elapsed <= 900.0
    _check(
        9,
        "pgd sanity and nn trend",
        ok,
        f"linear_ratio={worst_ratio:.4f} "
        + ("; ".join(failures) if failures else "risk falls with d toward the noise floor")
        + f" {elapsed:.1f}s",
    )


# -------------------------------------------------------------- criterion 10


def test_criterion_10_margin_solver_vs_grid_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    angles = np.linspace(0.0, 2.0 * math.pi, 1_000_000, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)])  # unit l2 columns
    p_grid = (1.0, 2.0, math.inf)
    worst_std = worst_adv = 0.0
    worst_bump = 0.0
    for k in range(100):
        feats = rng.normal(size=(3, 2))
        labels = rng.choice([-1.0, 1.0], size=3)
        ds = _dataset(feats, labels)
        model = PerturbationModel(p_grid[k % 3], float(rng.uniform(0.05, 0.3)))
        q = model.q

        scores = (feats * labels[:, None]) @ dirs  # (3, directions)
        mins = scores.min(axis=0)
        if q == 2.0:
            qn = np.ones_like(angles)
        elif q == 1.0:
            qn = np.abs(dirs).sum(axis=0)
        elif math.isinf(q):
            qn = np.abs(dirs).max(axis=0)
        else:
            qn = (np.abs(dirs) ** q).sum(axis=0) ** (1.0 / q)
        oracle_std = float((mins / qn).max())
        oracle_adv = float((mins - model.epsilon * qn).max())

        std = standard_margin(ds, q).value
        adv = adversarial_margin(ds, model).value
        worst_std = max(worst_std, abs(std - oracle_std))
        worst_adv = max(worst_adv, abs(adv - oracle_adv))

        if k % 5 == 0:  # adversarial margin never grows with the budget
            vals = [
                adversarial_margin(ds, PerturbationModel(model.p, e)).value
                for e in (0.0, 0.1, 0.2, 0.4)
            ]
            worst_bump = max(worst_bump, float(np.diff(vals).max()))
    elapsed = time.time() - t0
    ok = worst_std <= 1e-3 and worst_adv <= 1e-3 and worst_bump <= 1e-9
    _check(
        10,
        "margin solver vs grid oracle",
        ok,
        f"std_err={worst_std:.2e} adv_err={worst_adv:.2e}"
        f" eps_bump={worst_bump:.2e} {elapsed:.1f}s",
    )
