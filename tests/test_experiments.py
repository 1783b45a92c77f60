"""Tests for the sweep engine: config parsing, CSV output, SVG panels."""

import math
import xml.etree.ElementTree as ET
from dataclasses import fields

import pytest

from advlab.experiments import (
    _READERS,
    RAW_COLUMNS,
    ExperimentConfig,
    SweepRow,
    _aggregate,
    config_from_mapping,
    load_config_file,
    run_figure,
)


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# --------------------------------------------------------------------- config


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# linear sweep\n"
        "figure_id = risk_vs_d\n"
        "name = tiny   # output prefix\n"
        "d_grid = 30, 60\n"
        "epsilon = 0.0, 0.1\n"
        "r = 0.35\n"
        "p = inf\n"
        "seeds = 3\n"
        "margins = false\n"
        "alpha = 1e-3\n"
        "\n"
    )
    cfg = config_from_mapping(load_config_file(str(path)))
    assert cfg.figure_id == "risk_vs_d"
    assert cfg.name == "tiny"
    assert cfg.prefix == "tiny"
    assert cfg.d_grid == (30, 60)
    assert cfg.epsilon == (0.0, 0.1)
    assert cfg.r == 0.35
    assert cfg.p == math.inf
    assert cfg.seeds == 3
    assert cfg.margins is False
    assert cfg.alpha == 1e-3


def test_config_scalar_d_grid_becomes_tuple():
    cfg = config_from_mapping({"d_grid": 100})
    assert cfg.d_grid == (100,)
    assert cfg.epsilon_values() == (0.1,)
    assert cfg.r_values() == (0.3,)


def test_config_trailing_comma_makes_singleton_tuple(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("epsilon = 0.1,\n")
    cfg = config_from_mapping(load_config_file(str(path)))
    assert cfg.epsilon == (0.1,)
    assert cfg.epsilon_values() == (0.1,)


def test_config_rejects_unknown_keys_and_bad_lines(tmp_path):
    with pytest.raises(ValueError, match="unknown config keys.*bogus"):
        config_from_mapping({"bogus": 1})
    path = tmp_path / "bad.cfg"
    path.write_text("no equals sign here\n")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        load_config_file(str(path))


def test_config_int_fields_read_integral_floats(tmp_path):
    path = tmp_path / "mc.cfg"
    path.write_text("eval = monte_carlo\nmc_samples = 1e5\nseeds = 3\n")
    cfg = config_from_mapping(load_config_file(str(path)))
    assert cfg.mc_samples == 100000 and type(cfg.mc_samples) is int
    assert cfg.seeds == 3 and type(cfg.seeds) is int


def test_every_config_field_has_a_reader():
    # a field with a new annotation must get a reader here, not fail a user
    for f in fields(ExperimentConfig):
        assert f.type in _READERS, f.name
        if f.default is None:
            continue
        default = f.default
        text = ",".join(map(str, default)) + "," if isinstance(default, tuple) else str(default)
        value = _READERS[f.type](text)
        assert value == default and type(value) is type(default), f.name


def test_config_validation():
    with pytest.raises(ValueError, match="figure_id"):
        ExperimentConfig(figure_id="nope")
    with pytest.raises(ValueError, match="eval"):
        ExperimentConfig(eval="guess")
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(seeds=0)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("n", 0), ("T", 0), ("record_every", 0), ("margin_iters", 0), ("mc_samples", 0),
        ("h", 0), ("epochs", -1), ("pgd_steps", -1), ("d_grid", ()), ("d_grid", (50, 0)),
        ("eta", 0.5), ("eta", -0.1), ("eta", math.nan), ("p", 0.5), ("alpha", 0.0),
        ("G", -1.0), ("lr", math.inf), ("epsilon", -0.1), ("epsilon", (0.1, math.nan)),
        ("epsilon", ()), ("r", math.inf), ("r", (0.3, math.nan)),
    ],
)
def test_config_rejects_bad_numeric_fields(field, bad):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: bad})


def test_config_accepts_boundary_values():
    ExperimentConfig(epochs=0, pgd_steps=0, eta=0.0, epsilon=0.0, p=math.inf, r=-1.0)


# ---------------------------------------------------------------- aggregation


def _row(seed, t, adv_risk, d=40, eps=0.1, r=0.3):
    return SweepRow(
        seed=seed, d=d, n=8, eta=0.1, p=2.0, epsilon=eps, r=r, t=t,
        train_err=0.0, adv_train_err=0.0, std_risk=0.2, adv_risk=adv_risk,
        risk_method="analytic", loss=1.0, alignment=0.5, theta_l2=1.0,
        margin_std=math.nan, margin_adv=math.nan,
    )


def test_aggregate_means_stderr_and_baselines():
    rows = [_row(0, 10, 0.30), _row(1, 10, 0.34), _row(2, 10, 0.38)]
    agg = _aggregate(rows)
    assert len(agg) == 1
    rec = agg[0]
    assert rec["seeds"] == 3
    assert rec["adv_risk_mean"] == pytest.approx(0.34)
    expect_se = (
        0.04 / math.sqrt(3) * math.sqrt(2.0 / 2.0)
    )  # sample std of {0.30,0.34,0.38} is 0.04
    assert rec["adv_risk_stderr"] == pytest.approx(expect_se, rel=1e-12)
    assert rec["baseline_eta"] == 0.1
    assert rec["baseline_opt"] == pytest.approx(
        0.1 + 0.8 * _phi(-(40 ** 0.3)), rel=1e-12
    )
    # nan metrics drop out instead of poisoning the mean
    assert math.isnan(rec["margin_std_mean"])


def test_aggregate_non_gaussian_baseline_is_nan():
    rec = _aggregate([_row(0, 5, 0.3)], gaussian=False)[0]
    assert math.isnan(rec["baseline_opt"])
    assert rec["baseline_eta"] == 0.1


def test_aggregate_groups_by_grid_point_and_keeps_order():
    rows = [_row(0, 10, 0.3, d=40), _row(0, 10, 0.3, d=80), _row(1, 10, 0.5, d=40)]
    agg = _aggregate(rows)
    assert [rec["d"] for rec in agg] == [40, 80]
    assert agg[0]["seeds"] == 2
    assert agg[1]["seeds"] == 1
    assert agg[1]["adv_risk_stderr"] == 0.0


# -------------------------------------------------------------------- figures


def _tiny_cfg(outdir, **kw):
    base = dict(
        figure_id="risk_vs_d",
        name="tiny",
        n=12,
        eta=0.1,
        epsilon=0.05,
        r=(0.3, 0.4),
        d_grid=(30, 60),
        T=30,
        alpha=1e-3,
        record_every=15,
        seeds=2,
        margins=True,
        margin_iters=1000,
        output_dir=str(outdir),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_figure_risk_vs_d_files_and_rows(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    written = run_figure(cfg)
    assert set(written) == {"raw", "agg", "panel_a", "panel_b"}
    assert written["panel_a"].endswith("tiny_a.svg")
    assert written["panel_b"].endswith("tiny_b.svg")

    lines = open(written["raw"]).read().strip().split("\n")
    assert lines[0] == RAW_COLUMNS
    # 2 r values x 2 dims x 2 seeds, snapshots at t in {0, 1, 15, 30}
    assert len(lines) == 1 + 2 * 2 * 2 * 4

    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    for row in rows:
        if row["t"] == "0":
            assert row["std_risk"] == "nan"  # zero vector has no direction
        else:
            assert 0.0 <= float(row["std_risk"]) <= 1.0
            assert float(row["adv_risk"]) >= float(row["std_risk"]) - 1e-15
            assert row["risk_method"] == "analytic"
        assert float(row["margin_adv"]) <= float(row["margin_std"]) + 1e-6

    for key in ("panel_a", "panel_b"):
        root = ET.parse(written[key]).getroot()
        assert root.tag.endswith("svg")


def test_run_figure_agg_matches_raw_recompute(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    written = run_figure(cfg, svg=False)
    assert set(written) == {"raw", "agg"}

    raw_lines = open(written["raw"]).read().strip().split("\n")
    header = raw_lines[0].split(",")
    raw = [dict(zip(header, ln.split(","))) for ln in raw_lines[1:]]

    agg_lines = open(written["agg"]).read().strip().split("\n")
    acols = agg_lines[0].split(",")
    for ln in agg_lines[1:]:
        rec = dict(zip(acols, ln.split(",")))
        grp = [
            r
            for r in raw
            if (r["d"], r["epsilon"], r["r"], r["t"])
            == (rec["d"], rec["epsilon"], rec["r"], rec["t"])
        ]
        assert len(grp) == int(rec["seeds"]) == 2
        vals = [float(r["adv_risk"]) for r in grp]
        vals = [v for v in vals if not math.isnan(v)]
        if vals:
            mean = sum(vals) / len(vals)
            assert float(rec["adv_risk_mean"]) == pytest.approx(mean, rel=1e-12)
        else:
            assert math.isnan(float(rec["adv_risk_mean"]))
        d, r_ = int(rec["d"]), float(rec["r"])
        assert float(rec["baseline_opt"]) == pytest.approx(
            0.1 + 0.8 * _phi(-(d**r_)), rel=1e-10
        )


def test_run_figure_is_byte_deterministic(tmp_path):
    w1 = run_figure(_tiny_cfg(tmp_path / "one", seeds=1, d_grid=(30,), r=0.3))
    w2 = run_figure(_tiny_cfg(tmp_path / "two", seeds=1, d_grid=(30,), r=0.3))
    for key in ("raw", "agg", "panel_a", "panel_b"):
        assert open(w1[key], "rb").read() == open(w2[key], "rb").read()


def test_run_figure_monte_carlo_eval(tmp_path):
    cfg = _tiny_cfg(
        tmp_path, eval="monte_carlo", mc_samples=400, d_grid=(30,), r=0.4,
        seeds=1, margins=False,
    )
    written = run_figure(cfg, svg=False)
    lines = open(written["raw"]).read().strip().split("\n")
    header = lines[0].split(",")
    for ln in lines[1:]:
        row = dict(zip(header, ln.split(",")))
        assert row["risk_method"] == "monte_carlo"
        if row["t"] != "0":
            assert 0.0 <= float(row["std_risk"]) <= 1.0
        assert row["margin_std"] == "nan"


def test_run_figure_adv_risk_vs_t_panel(tmp_path):
    cfg = ExperimentConfig(
        figure_id="adv_risk_vs_t",
        n=10,
        epsilon=(0.0, 0.1),
        r=0.35,
        d_grid=(40,),
        T=20,
        record_every=10,
        seeds=2,
        margins=False,
        output_dir=str(tmp_path),
    )
    written = run_figure(cfg)
    assert set(written) == {"raw", "agg", "panel_a"}
    assert written["panel_a"].endswith("adv_risk_vs_t_a.svg")
    root = ET.parse(written["panel_a"]).getroot()
    assert root.tag.endswith("svg")
    text = open(written["panel_a"]).read()
    assert "epsilon=0" in text and "epsilon=0.1" in text


def test_run_figure_nn_tiny(tmp_path):
    cfg = ExperimentConfig(
        figure_id="nn_risk_vs_d",
        n=10,
        eta=0.0,
        epsilon=0.02,
        r=(0.4,),
        d_grid=(12,),
        seeds=1,
        h=4,
        epochs=10,
        lr=1e-3,
        pgd_steps=3,
        mc_samples=200,
        margins=False,
        output_dir=str(tmp_path),
    )
    written = run_figure(cfg)
    assert set(written) == {"raw", "agg", "panel_a", "panel_b"}
    lines = open(written["raw"]).read().strip().split("\n")
    assert len(lines) == 2  # one final-epoch row per run
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["risk_method"] == "monte_carlo"
    assert row["t"] == "10"
    assert row["alignment"] == "nan"
    assert 0.0 <= float(row["adv_risk"]) <= 1.0


def test_sweep_alpha_is_averaged_loss_step(tmp_path):
    # the raw trainer steps on the summed loss; the protocol layer divides by n
    from advlab.data import MixtureSpec, generate, mu_from_scaling
    from advlab.norms import PerturbationModel
    from advlab.training import TrainConfig, train

    cfg = _tiny_cfg(
        tmp_path, n=10, d_grid=(15,), r=0.4, seeds=1, T=5, record_every=5,
        margins=False, alpha=2e-3,
    )
    written = run_figure(cfg, svg=False)
    lines = open(written["raw"]).read().strip().split("\n")
    header = lines[0].split(",")
    final = dict(zip(header, lines[-1].split(",")))

    spec = MixtureSpec(d=15, mu=mu_from_scaling(15, 0.4), eta=cfg.eta, seed=0)
    rec = train(
        generate(spec, 10),
        TrainConfig(model=PerturbationModel(cfg.p, 0.05), alpha=2e-3 / 10, T=5),
    )
    assert float(final["theta_l2"]) == rec.theta_l2[5]
    assert float(final["loss"]) == rec.losses[5]


def test_scheduled_sweep_writes_the_margin_that_set_the_schedule(tmp_path, monkeypatch):
    # one standard and one adversarial margin solve per run: the adversarial
    # margin is solved once inside train() and reused for the margin_adv column
    from advlab import margins
    from advlab.data import MixtureSpec, generate, mu_from_scaling
    from advlab.norms import PerturbationModel

    calls = []
    solve = margins._solve

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(margins, "_solve", counting_solve)
    cfg = _tiny_cfg(
        tmp_path, figure_id="custom", n=10, d_grid=(15,), r=0.4, seeds=1, T=5,
        record_every=5, step_mode="scheduled", margin_iters=100,
    )
    written = run_figure(cfg, svg=False)
    assert len(calls) == 2
    lines = open(written["raw"]).read().strip().split("\n")
    header = lines[0].split(",")
    row = dict(zip(header, lines[-1].split(",")))

    ds = generate(MixtureSpec(d=15, mu=mu_from_scaling(15, 0.4), eta=cfg.eta, seed=0), 10)
    gamma = margins.adversarial_margin(ds, PerturbationModel(cfg.p, 0.05)).value
    assert float(row["margin_adv"]) == gamma


def test_run_figure_custom_writes_csv_only(tmp_path):
    cfg = ExperimentConfig(
        figure_id="custom",
        n=8,
        epsilon=0.0,
        r=0.4,
        d_grid=(20,),
        T=10,
        record_every=5,
        seeds=1,
        margins=False,
        output_dir=str(tmp_path),
    )
    written = run_figure(cfg)
    assert set(written) == {"raw", "agg"}
