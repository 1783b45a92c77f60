"""Tests for the structural-inequality diagnostic suite."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from advlab import lemmas
from advlab.data import Dataset, MixtureSpec, generate, mu_from_scaling
from advlab.lemmas import (
    LEMMA_IDS,
    LemmaReport,
    SeedBatchResult,
    format_reports,
    geometry_constant,
    run_seed_batch,
    run_suite,
    save_reports_csv,
)
from advlab.norms import PerturbationModel, norm_subgradient
from advlab.training import TrainConfig, train


def _mixture_run(d=800, n=12, r=0.3, eta=0.1, seed=0, eps=0.05, T=150, p=2.0, **train_kw):
    spec = MixtureSpec(d=d, mu=mu_from_scaling(d, r), eta=eta, seed=seed)
    ds = generate(spec, n)
    model = PerturbationModel(p, eps)
    cfg = TrainConfig(model=model, alpha=1e-3, T=T, **train_kw)
    return ds, train(ds, cfg), model


# ------------------------------------------------------------- norm constant


def test_geometry_constant_closed_forms():
    ones = np.ones((4, 3))
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    ds = Dataset(ones, labels, labels.copy(), np.zeros(0, dtype=int), spec=None)
    assert geometry_constant(ds) == 1.0  # every ||z_k||^2 = d exactly

    feats = np.ones((3, 4))
    feats[0] *= math.sqrt(2.0)  # ||z_0||^2 = 2d
    labels = np.ones(3)
    ds = Dataset(feats, labels, labels.copy(), np.zeros(0, dtype=int), spec=None)
    assert geometry_constant(ds) == pytest.approx(2.0, rel=1e-12)

    feats = np.ones((3, 4))
    feats[1] /= math.sqrt(3.0)  # ||z_1||^2 = d/3
    ds = Dataset(feats, labels, labels.copy(), np.zeros(0, dtype=int), spec=None)
    assert geometry_constant(ds) == pytest.approx(3.0, rel=1e-12)


def test_geometry_constant_concentrates_in_high_dimension():
    hits = 0
    for seed in range(10):
        spec = MixtureSpec(d=5000, mu=mu_from_scaling(5000, 0.3), eta=0.1, seed=seed)
        ds = generate(spec, 50)
        if geometry_constant(ds) <= 1.5:
            hits += 1
    assert hits >= 9


# ------------------------------------------------------------------ the suite


def test_suite_structure_and_read_only():
    ds, rec, model = _mixture_run()
    feats_before = ds.features.copy()
    losses_before = rec.losses.copy()

    reports = run_suite(ds, rec, model)
    assert [r.lemma_id for r in reports] == list(LEMMA_IDS)
    for r in reports:
        assert isinstance(r, LemmaReport)
        assert isinstance(r.passed, bool)
        assert isinstance(r.measured_constants, dict)
        assert r.details
    np.testing.assert_array_equal(ds.features, feats_before)
    np.testing.assert_array_equal(rec.losses, losses_before)


def test_suite_rejects_mismatched_inputs():
    ds, rec, model = _mixture_run(d=100, T=5)
    other_spec = MixtureSpec(d=50, mu=mu_from_scaling(50, 0.3), eta=0.0, seed=1)
    other = generate(other_spec, 12)
    with pytest.raises(ValueError):
        run_suite(other, rec, model)
    with pytest.raises(ValueError):
        run_suite(ds, rec, PerturbationModel(2.0, 0.9))


def test_trajectory_bounds_pass_from_zero_start():
    # the norm and ratio bounds are statements about trajectories launched
    # at zero; all of them hold in the benign regime
    ds, rec, model = _mixture_run(seed=0)
    by_id = {r.lemma_id: r for r in run_suite(ds, rec, model)}
    for lid in ("sample_geometry", "loss_descent", "iterate_norm", "loss_ratio",
                "dual_subgradient"):
        assert by_id[lid].passed, (lid, by_id[lid].details)
    assert by_id["sample_geometry"].measured_constants["norm_spread"] <= 2.0
    assert by_id["loss_descent"].measured_constants["first_loss_over_n"] <= 2.0
    assert by_id["iterate_norm"].measured_constants["worst_ratio"] <= 1.0
    assert by_id["dual_subgradient"].measured_constants["worst_identity_error"] <= 1e-12


def test_alignment_grows_from_poorly_aligned_start():
    # from the zero start the very first step already lands on the sample
    # mean direction, and later steps drift toward the noisy samples, so the
    # growth check needs a start that is not yet aligned to show a pass
    spec = MixtureSpec(d=200, mu=mu_from_scaling(200, 0.35), eta=0.05, seed=0)
    ds = generate(spec, 30)
    model = PerturbationModel(2.0, 0.05)
    theta0 = np.random.default_rng(1000).normal(size=200) * 0.05
    rec = train(ds, TrainConfig(model=model, alpha=1e-3, T=400), theta0=theta0)
    rep = {r.lemma_id: r for r in run_suite(ds, rec, model)}["alignment_growth"]
    assert rep.passed
    assert rep.measured_constants["alignment_final"] > rep.measured_constants["alignment_ref"]


def test_descent_check_flags_an_increase():
    ds, rec, model = _mixture_run(d=100, n=8, T=20)
    rec.losses[4] = rec.losses[3] + 1.0
    by_id = {r.lemma_id: r for r in run_suite(ds, rec, model)}
    rep = by_id["loss_descent"]
    assert not rep.passed
    assert rep.worst_iteration == 3
    assert rep.measured_constants["worst_increase"] >= 1.0


def test_descent_check_compares_log_losses_once_the_loss_overflows():
    # one step of 800 along z_0 + z_1 leaves margins -800 and 1608: the loss
    # overflows to inf, so the step is judged on log-losses 0.693 -> 800
    feats = np.array([[1.0, 0.0], [-2.0, 0.1]])
    labels = np.ones(2)
    ds = Dataset(feats, labels, labels.copy(), np.zeros(0, dtype=int), spec=None)
    rec = train(ds, TrainConfig(model=PerturbationModel(2.0, 0.0), alpha=800.0, T=1))
    assert rec.losses[0] == 2.0 and math.isinf(rec.losses[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = lemmas._check_descent(rec)
    assert rep.measured_constants["worst_increase"] == rec.log_losses[1] - rec.log_losses[0]
    assert rep.measured_constants["worst_increase"] == pytest.approx(800.0 - math.log(2.0))
    assert rep.worst_iteration == 0
    assert not rep.passed


def test_iterate_norm_check_flags_a_violation():
    ds, rec, model = _mixture_run(d=100, n=8, T=20)
    rec.theta_l2[7] = 1e9
    by_id = {r.lemma_id: r for r in run_suite(ds, rec, model)}
    rep = by_id["iterate_norm"]
    assert not rep.passed
    assert rep.worst_iteration == 7


def test_loss_ratio_check_flags_a_violation():
    ds, rec, model = _mixture_run(d=100, n=8, T=20)
    c = geometry_constant(ds)
    rec.margin_spread[11] = math.log(5.0 * c * c) + 1.0
    by_id = {r.lemma_id: r for r in run_suite(ds, rec, model)}
    rep = by_id["loss_ratio"]
    assert not rep.passed
    assert rep.worst_iteration == 11
    assert rep.measured_constants["ratio_limit"] == pytest.approx(5.0 * c * c)


def test_alignment_check_compares_final_to_early():
    ds, rec, model = _mixture_run(seed=5, T=200)
    rec.alignments[200] = rec.alignments[10] + 0.5
    rep = {r.lemma_id: r for r in run_suite(ds, rec, model)}["alignment_growth"]
    assert rep.passed
    assert rep.measured_constants["log_term_coeff"] >= 0.0

    rec.alignments[200] = rec.alignments[10] - 0.1
    rep = {r.lemma_id: r for r in run_suite(ds, rec, model)}["alignment_growth"]
    assert not rep.passed
    assert rep.worst_iteration == 10


class _OneAtATime:
    """A record's thetas read one entry at a time, each as a block of one."""

    def __init__(self, thetas):
        self.thetas = thetas

    def blocks(self):
        for i in range(len(self.thetas)):
            yield i, [self.thetas[i]]


@pytest.mark.parametrize("p", [2.0, math.inf, 1.0, 1.5])
def test_subgradient_check_agrees_with_per_entry_reads(p):
    # 32 snapshots at d = 5000 make 3 blocks of up to 13; at p = 2 each is
    # one product with Z, elsewhere the rows are the stored thetas
    ds, rec, model = _mixture_run(d=5000, T=300, p=p)
    got = lemmas._check_subgradient(rec)
    want = lemmas._check_subgradient(dataclasses.replace(rec, thetas=_OneAtATime(rec.thetas)))
    assert got.passed == want.passed
    assert got.details.split(" over ")[1] == want.details.split(" over ")[1] == "31 snapshots"
    if p != 2.0:
        assert got == want
    else:  # rounding at the 1e-16 level may reorder the snapshots' errors
        err, ref = (r.measured_constants["worst_identity_error"] for r in (got, want))
        assert abs(err - ref) <= 1e-15


def test_subgradient_check_flags_a_broken_subgradient(monkeypatch):
    # the check calls lemmas.norm_subgradient per snapshot; twice the
    # subgradient has dual norm 2, an identity error of 1
    ds, rec, model = _mixture_run(d=100, n=8, T=20)
    monkeypatch.setattr(lemmas, "norm_subgradient", lambda th, q: 2.0 * norm_subgradient(th, q))
    rep = {r.lemma_id: r for r in run_suite(ds, rec, model)}["dual_subgradient"]
    assert not rep.passed
    assert rep.measured_constants["worst_identity_error"] >= 0.9
    # a failing check names the snapshot with the largest error
    assert rep.worst_iteration in rec.snapshot_ts


def test_passing_subgradient_check_names_no_worst_snapshot():
    # errors at the rounding level have an argmax that moves with any change
    # in rounding, so a passing check reports none
    ds, rec, model = _mixture_run(d=5000, n=20, T=100)
    rep = lemmas._check_subgradient(rec)
    assert rep.passed
    assert 0.0 < rep.measured_constants["worst_identity_error"] <= 1e-12
    assert rep.worst_iteration == -1


def test_subgradient_check_holds_one_block_of_thetas():
    # 201 snapshots of theta at d = 20,000 would take 32 MB at once; the
    # check forms them 3 at a time
    ds, rec, model = _mixture_run(d=20_000, n=20, seed=7, eps=0.1, T=200, record_every=1)
    assert len(rec.thetas) == 201
    tracemalloc.start()
    try:
        rep = lemmas._check_subgradient(rec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 2 * 2**20, peak


def test_non_separable_data_is_flagged_not_fatal():
    s = math.sqrt(3.0) / 2.0
    feats = np.array([[1.0, 0.0], [-0.5, s], [-0.5, -s]])
    labels = np.ones(3)
    spec = MixtureSpec(d=2, mu=np.array([1.0, 0.0]), eta=0.0, seed=0)
    ds = Dataset(feats, labels, labels.copy(), np.zeros(0, dtype=int), spec=spec)
    model = PerturbationModel(2.0, 0.1)
    cfg = TrainConfig(model=model, alpha=1e-3, T=5)
    rec = train(ds, cfg)
    reports = run_suite(ds, rec, model)
    assert "<= 0" in reports[0].details  # margin warning lands in the first report


# ------------------------------------------------------------------ batching


def test_seed_batch_counts_and_threshold():
    model = PerturbationModel(2.0, 0.05)
    cfg = TrainConfig(model=model, alpha=1e-3, T=100)
    res = run_seed_batch(
        n=12, d=800, r=0.3, eta=0.0, model=model, cfg=cfg, seeds=4, base_seed=0
    )
    assert res.seeds == 4
    assert set(res.pass_counts) == set(LEMMA_IDS)
    assert len(res.reports) == 4
    assert all(len(reps) == len(LEMMA_IDS) for reps in res.reports)
    for lid in ("sample_geometry", "loss_descent", "iterate_norm", "loss_ratio",
                "dual_subgradient"):
        assert res.pass_counts[lid] == 4, lid
    # from the zero start the mean direction is reached in one step and the
    # alignment then only drifts down, so the growth check fails every seed
    assert res.pass_counts["alignment_growth"] == 0

    synthetic = SeedBatchResult(
        seeds=3, pass_counts={"a": 3, "b": 2}, reports=[]
    )
    assert synthetic.passing(2)
    assert not synthetic.passing(3)


# -------------------------------------------------------------------- export


def test_format_reports_one_line_per_check():
    reports = [
        LemmaReport("sample_geometry", True, {"norm_spread": 1.2}, -1, "fine"),
        LemmaReport("loss_descent", False, {}, 3, "broke"),
    ]
    text = format_reports(reports)
    lines = text.split("\n")
    assert lines[0] == "PASS sample_geometry: fine"
    assert lines[1] == "FAIL loss_descent: broke"


def test_save_reports_csv_schema(tmp_path):
    ds, rec, model = _mixture_run(d=100, n=8, T=10)
    reports = run_suite(ds, rec, model)
    path = tmp_path / "reports.csv"
    save_reports_csv(reports, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "lemma_id,passed,constant_name,constant_value,worst_iteration"
    n_constants = sum(len(r.measured_constants) or 1 for r in reports)
    assert len(lines) == 1 + n_constants
    for line in lines[1:]:
        lid, passed, name, value, worst = line.split(",")
        assert lid in LEMMA_IDS
        assert passed in ("true", "false")
        float(value)
        int(worst)
