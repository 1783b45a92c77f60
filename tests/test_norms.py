"""Norm layer: conjugate exponents, subgradients, the closed-form attack,
and ball projections, each checked against an independent route."""

import math

import numpy as np
import pytest

from advlab.norms import (
    PerturbationModel,
    _threshold,
    dual_exponent,
    lp_norm,
    norm_subgradient,
    norm_subgradient_rows,
    project_onto_ball,
    worst_case_perturbation,
)

Q_GRID = [1.0, 1.25, 1.5, 2.0, 3.0, 8.0, 40.0, math.inf]
P_GRID = [1.0, 1.5, 2.0, 4.0, math.inf]


def test_dual_exponent_known_pairs():
    assert dual_exponent(1.0) == math.inf
    assert dual_exponent(math.inf) == 1.0
    assert dual_exponent(2.0) == 2.0
    assert dual_exponent(1.5) == 3.0
    assert dual_exponent(4.0) == 4.0 / 3.0


def test_dual_exponent_involution():
    for p in [1.0, 1.2, 1.5, 2.0, 3.7, 10.0, math.inf]:
        q = dual_exponent(p)
        assert dual_exponent(q) == pytest.approx(p, rel=1e-12)
        if p > 1.0 and not math.isinf(p):
            # Hoelder relation directly
            assert 1.0 / p + 1.0 / q == pytest.approx(1.0, abs=1e-15)


def test_dual_exponent_rejects_bad_input():
    for bad in [0.0, 0.99, -2.0, math.nan]:
        with pytest.raises(ValueError):
            dual_exponent(bad)


@pytest.mark.parametrize("bad", [0.99, -2.0, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        dual_exponent,
        lambda p: lp_norm(np.ones(3), p),
        lambda p: norm_subgradient_rows(np.ones((2, 3)), p),
        lambda p: project_onto_ball(np.ones(3), p, 1.0),
    ],
    ids=["dual_exponent", "lp_norm", "norm_subgradient_rows", "project_onto_ball"],
)
def test_norm_exponent_is_checked_everywhere(call, bad):
    with pytest.raises(ValueError, match=r"norm exponent must lie in \[1, inf\]"):
        call(bad)


def test_perturbation_model_validation():
    m = PerturbationModel(p=2.0, epsilon=0.1)
    assert m.q == 2.0
    assert PerturbationModel(p=1.0, epsilon=0.0).q == math.inf
    with pytest.raises(ValueError):
        PerturbationModel(p=0.5, epsilon=0.1)
    with pytest.raises(ValueError):
        PerturbationModel(p=2.0, epsilon=-1e-9)


def test_lp_norm_against_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 20))
        assert lp_norm(v, 1.0) == pytest.approx(np.linalg.norm(v, 1), rel=1e-14)
        assert lp_norm(v, 2.0) == pytest.approx(np.linalg.norm(v, 2), rel=1e-14)
        assert lp_norm(v, math.inf) == pytest.approx(np.linalg.norm(v, np.inf), rel=1e-14)
        # plain power-sum reference at moderate scale
        assert lp_norm(v, 1.5) == pytest.approx(np.sum(np.abs(v) ** 1.5) ** (1 / 1.5), rel=1e-12)
        assert lp_norm(v, 4.0) == pytest.approx(np.sum(np.abs(v) ** 4.0) ** 0.25, rel=1e-12)


def test_lp_norm_extreme_scales_no_overflow():
    # naive |v|**p would overflow (1e300**4) or underflow (1e-300**4)
    big = np.full(5, 1e300)
    small = np.full(5, 1e-300)
    assert math.isfinite(lp_norm(big, 4.0))
    assert lp_norm(big, 4.0) == pytest.approx(1e300 * 5 ** 0.25, rel=1e-12)
    assert lp_norm(small, 4.0) == pytest.approx(1e-300 * 5 ** 0.25, rel=1e-12)
    assert lp_norm(np.zeros(3), 7.0) == 0.0
    # p = 2: the plain sum of squares overflows at 1e200 and underflows at 1e-200
    for scale in (1e200, 1e-200):
        assert lp_norm(np.array([3.0, 4.0]) * scale, 2.0) == pytest.approx(5.0 * scale, rel=1e-12)
    assert lp_norm(big, 2.0) == pytest.approx(1e300 * math.sqrt(5.0), rel=1e-12)
    assert lp_norm(small, 2.0) == pytest.approx(1e-300 * math.sqrt(5.0), rel=1e-12)


def test_subgradient_identities_across_q_grid():
    """Dual-norm one, Hoelder tightness, and the sqrt(d) bound, at 1e-12."""
    rng = np.random.default_rng(1)
    for trial in range(400):
        d = int(rng.integers(1, 30))
        theta = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4)
        q = Q_GRID[trial % len(Q_GRID)]
        g = norm_subgradient(theta, q)
        p = dual_exponent(q)
        assert lp_norm(g, p) == pytest.approx(1.0, abs=1e-12)
        assert float(theta @ g) == pytest.approx(lp_norm(theta, q), rel=1e-12, abs=1e-300)
        assert np.linalg.norm(g) <= math.sqrt(d) + 1e-12


def test_subgradient_identities_at_extreme_scales():
    """Hoelder identities where squares or powers of the entries over/underflow."""
    base = np.array([[3.0, -4.0, 0.5, 0.0], [-1.0, 2.0, 2.0, 0.25]])
    for scale in (1e200, 1e-200):
        mat = base * scale
        for q in (1.0, 2.0, 3.0, math.inf):
            p = dual_exponent(q)
            rows = norm_subgradient_rows(mat, q)
            for theta, g_row in zip(mat, rows):
                for g in (norm_subgradient(theta, q), g_row):
                    assert lp_norm(g, p) == pytest.approx(1.0, abs=1e-12)
                    assert float(theta @ g) == pytest.approx(lp_norm(theta, q), rel=1e-12)


def test_subgradient_matches_finite_differences():
    # smooth branch only: q finite and > 1, entries away from 0 and ties
    rng = np.random.default_rng(2)
    for q in [1.5, 2.0, 3.0, 8.0]:
        for _ in range(20):
            d = int(rng.integers(2, 10))
            theta = rng.normal(size=d)
            theta[np.abs(theta) < 0.1] += 0.2 * np.sign(theta[np.abs(theta) < 0.1] + 0.5)
            g = norm_subgradient(theta, q)
            h = 1e-6
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd = (lp_norm(theta + e, q) - lp_norm(theta - e, q)) / (2 * h)
                assert g[i] == pytest.approx(fd, abs=5e-9)


def test_subgradient_conventions_at_kinks():
    assert np.array_equal(norm_subgradient(np.zeros(4), 2.0), np.zeros(4))
    # q=1: sign, with sign(0) = 0
    g = norm_subgradient(np.array([3.0, 0.0, -2.0]), 1.0)
    assert np.array_equal(g, np.array([1.0, 0.0, -1.0]))
    # q=inf: full mass on the lowest-index maximizer
    g = norm_subgradient(np.array([-5.0, 5.0, 5.0]), math.inf)
    assert np.array_equal(g, np.array([-1.0, 0.0, 0.0]))
    g = norm_subgradient(np.array([1.0, -7.0, 7.0]), math.inf)
    assert np.array_equal(g, np.array([0.0, -1.0, 0.0]))


def test_subgradient_rows_matches_vector_version():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(40, 7))
    mat[5] = 0.0
    for q in Q_GRID:
        rows = norm_subgradient_rows(mat, q)
        for i in range(mat.shape[0]):
            assert np.allclose(rows[i], norm_subgradient(mat[i], q), atol=1e-14)


def test_subgradient_rows_l2_does_not_depend_on_other_rows():
    # a zero row, or a row whose squares over- or underflow, must not change
    # the closed form row / ||row||_2 of the other rows by a single bit
    rng = np.random.default_rng(5)
    for n, d in ((50, 1000), (7, 5)):
        mat = rng.normal(size=(n, d))
        want = norm_subgradient_rows(mat, 2.0)
        for odd in (np.zeros(d), np.full(d, 1e200), np.full(d, 1e-200)):
            for at in (0, n // 2, n):
                got = norm_subgradient_rows(np.insert(mat, at, odd, axis=0), 2.0)
                assert np.array_equal(np.delete(got, at, axis=0), want)
                assert np.array_equal(got[at], norm_subgradient(odd, 2.0))
    assert np.array_equal(norm_subgradient(np.full(4, 1e200), 2.0), np.full(4, 0.5))
    assert np.array_equal(norm_subgradient(np.full(4, 1e-200), 2.0), np.full(4, 0.5))


def _random_feasible(rng, d, p, eps, k):
    """k points with ||u||_p <= eps, mixing interior and boundary."""
    g = rng.normal(size=(k, d))
    norms = np.array([lp_norm(row, p) for row in g])
    scales = eps * rng.random(k) ** (1.0 / d)
    scales[:: 4] = eps  # force boundary points, the minimizer lives there
    return g * (scales / norms)[:, None]


def test_worst_case_perturbation_dominates_random_feasible():
    rng = np.random.default_rng(4)
    for trial in range(60):
        d = int(rng.integers(1, 15))
        p = P_GRID[trial % len(P_GRID)]
        eps = float(rng.random() * 0.5 + 0.01)
        theta = rng.normal(size=d)
        x = rng.normal(size=d)
        y = 1.0 if rng.random() < 0.5 else -1.0
        model = PerturbationModel(p=p, epsilon=eps)
        u_star = worst_case_perturbation(theta, y, model)
        q = model.q
        assert lp_norm(u_star, p) <= eps * (1 + 1e-12)
        achieved = y * theta @ (x + u_star)
        # the closed form attains margin minus the Hoelder penalty exactly
        assert achieved == pytest.approx(y * theta @ x - eps * lp_norm(theta, q), rel=1e-12)
        feas = _random_feasible(rng, d, p, eps, 200)
        others = y * (x + feas) @ theta
        assert np.all(achieved <= others + 1e-9 * max(1.0, np.abs(others).max()))


def test_worst_case_perturbation_linf_matches_corner_search():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(1, 9))
        eps = float(rng.random() + 0.05)
        theta = rng.normal(size=d)
        x = rng.normal(size=d)
        y = -1.0
        model = PerturbationModel(p=math.inf, epsilon=eps)
        achieved = y * theta @ (x + worst_case_perturbation(theta, y, model))
        corners = eps * (2.0 * ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1) - 1.0)
        best = np.min(y * (x + corners) @ theta)
        assert achieved == pytest.approx(best, abs=1e-12 * max(1.0, abs(best)))


def test_worst_case_perturbation_rejects_bad_label():
    model = PerturbationModel(p=2.0, epsilon=0.1)
    with pytest.raises(ValueError):
        worst_case_perturbation(np.ones(3), 0.0, model)
    with pytest.raises(ValueError):
        worst_case_perturbation(np.ones(3), 2.0, model)


def test_project_onto_ball_closed_forms():
    v = np.array([3.0, -4.0])
    assert np.allclose(project_onto_ball(v, 2.0, 1.0), v / 5.0)
    assert np.allclose(project_onto_ball(v, math.inf, 2.0), [2.0, -2.0])
    assert np.allclose(project_onto_ball(np.array([3.0, 0.0]), 1.0, 1.0), [1.0, 0.0])
    # soft threshold: lambda = 1 moves (2,2) to the simplex face
    assert np.allclose(project_onto_ball(np.array([2.0, 2.0]), 1.0, 2.0), [1.0, 1.0])


def test_project_onto_ball_is_identity_inside():
    rng = np.random.default_rng(6)
    for p in P_GRID:
        v = rng.normal(size=6) * 0.01
        w = project_onto_ball(v, p, 1.0)
        assert np.array_equal(w, v)


def test_project_onto_ball_rows_match_one_row_projections():
    """A 2-d input is projected row by row, as if each row were a 1-d input."""
    rng = np.random.default_rng(8)
    v = rng.normal(size=(7, 5)) * np.array([[3.0], [2.0], [0.01], [0.0], [1.0], [0.02], [5.0]])
    for p in P_GRID:
        for radius in (0.0, 0.5, 1.0):
            w = project_onto_ball(v, p, radius)
            assert w.shape == v.shape
            ref = np.array([project_onto_ball(row, p, radius) for row in v])
            if p in (1.0, 2.0, math.inf):
                np.testing.assert_array_equal(w, ref)
            else:
                np.testing.assert_allclose(w, ref, rtol=0.0, atol=1e-12)
            # the mix holds rows inside the ball and rows outside it
            inside = np.array([lp_norm(row, p) <= radius for row in v])
            np.testing.assert_array_equal(w[inside], v[inside])
            if radius > 0.0:
                assert 0 < inside.sum() < len(v)


@pytest.mark.parametrize(
    "v, radius, want",
    [
        ([1e200, 1e200], 1.0, [math.sqrt(0.5), math.sqrt(0.5)]),
        ([3e-170, 4e-170], 1e-170, [6e-171, 8e-171]),
        ([3e200, -4e200], 1e200, [0.6e200, -0.8e200]),
        ([3e-200, 4e-200], 1e-300, [6e-301, 8e-301]),
        ([3e-150, 4e-150], 1.0, [3e-150, 4e-150]),
        # the factor radius / ||v||_2 underflows to 0 here, and to a subnormal below
        ([1e200, 1e200], 1e-170, [math.sqrt(0.5) * 1e-170, math.sqrt(0.5) * 1e-170]),
        ([3e300, 4e300], 1e-10, [6e-11, 8e-11]),
    ],
)
def test_project_onto_l2_ball_at_extreme_scales(v, radius, want):
    """Squares that overflow or underflow must not hide the row's l2 norm."""
    w = project_onto_ball(np.array(v), 2.0, radius)
    np.testing.assert_allclose(w, want, rtol=1e-15)


def test_project_onto_l2_ball_mixed_scale_rows():
    """Rows out of the squares' range get the safe norm; the rest stay bitwise."""
    r = 1e-145
    plain = np.array([[3.0, 4.0], [0.3, 0.1], [0.0, 0.0]])
    v = np.vstack(
        [plain, [[2e154, -2e154], [0.0, 0.0], [3e-145, 4e-145], [1e-200, 0.0], [1e200, -1e200]]]
    )
    w = project_onto_ball(v, 2.0, r)
    np.testing.assert_array_equal(w[:3], project_onto_ball(plain, 2.0, r))
    np.testing.assert_allclose(w[3], [r * math.sqrt(0.5), -r * math.sqrt(0.5)], rtol=1e-15)
    np.testing.assert_array_equal(w[4], [0.0, 0.0])
    np.testing.assert_allclose(w[5], [0.6 * r, 0.8 * r], rtol=1e-15)
    np.testing.assert_array_equal(w[6], v[6])  # inside the ball
    # radius / ||row||_2 underflows to 0 for this row
    np.testing.assert_allclose(w[7], [r * math.sqrt(0.5), -r * math.sqrt(0.5)], rtol=1e-15)
    # in range, the norm is sqrt(row . row) exactly as before
    nrm = np.sqrt((plain * plain).sum(axis=1, keepdims=True))
    np.testing.assert_array_equal(
        project_onto_ball(plain, 2.0, 0.5), plain * (0.5 / np.maximum(nrm, 0.5))
    )


def test_project_onto_ball_feasible_and_closest():
    """Projection beats every sampled feasible point in Euclidean distance."""
    rng = np.random.default_rng(7)
    for trial in range(40):
        d = int(rng.integers(2, 10))
        p = P_GRID[trial % len(P_GRID)]
        radius = float(rng.random() * 2 + 0.1)
        v = rng.normal(size=d) * 3.0
        w = project_onto_ball(v, p, radius)
        assert lp_norm(w, p) <= radius * (1 + 1e-9)
        if lp_norm(v, p) > radius:
            # exterior points project onto the boundary
            assert lp_norm(w, p) == pytest.approx(radius, rel=1e-7)
        feas = _random_feasible(rng, d, p, radius, 500)
        dists = np.linalg.norm(feas - v, axis=1)
        assert np.linalg.norm(w - v) <= dists.min() + 1e-7


def _threshold_rows():
    """Random rows, rows with ties and constant rows, n = 1 to 50, scales 1e-3 to 1e3."""
    rng = np.random.default_rng(11)
    for scale in (1e-3, 1e-1, 1.0, 10.0, 1e3):
        for n in (1, 2, 3, 7, 50):
            yield rng.normal(size=n) * scale
            yield rng.integers(-2, 3, size=n) * scale
            yield np.full(n, 0.7 * scale)
            yield np.full(n, -0.7 * scale)


def _sum_tol(v, radius):
    # v - tau cancels down to the radius: n roundings at the scale of max(|v|, radius);
    # these rows measured at most 1.3 of this unit
    return 4.0 * v.size * np.spacing(max(float(np.abs(v).max()), radius))


def test_simplex_step_meets_kkt():
    """max(v - tau, 0) with tau = _threshold(v, 1), the dual solver's simplex step."""
    for v in _threshold_rows():
        tau = float(_threshold(v, 1.0)[0])
        x = np.maximum(v - tau, 0.0)
        tol = _sum_tol(v, 1.0)
        assert x.min() >= 0.0
        assert abs(x.sum() - 1.0) <= tol
        on = x > 0.0
        assert on.any()
        assert np.abs(v[on] - x[on] - tau).max() <= tol
        assert np.all(v[~on] <= tau + tol)


def test_l1_projection_lands_on_the_sphere_or_returns_the_row():
    radius = 0.5
    for v in _threshold_rows():
        w = project_onto_ball(v, 1.0, radius)
        if np.abs(v).sum() > radius:
            assert abs(np.abs(w).sum() - radius) <= _sum_tol(v, radius)
            assert np.all(w * v >= 0.0)
        else:
            np.testing.assert_array_equal(w, v)


def test_threshold_batch_is_bitwise_its_rows():
    rows = [v for v in _threshold_rows() if v.size == 7]
    batch = np.array(rows)
    for radius in (1.0, 0.5):
        np.testing.assert_array_equal(
            _threshold(batch, radius), np.array([_threshold(v, radius) for v in rows])
        )
