"""End-to-end tests of the command-line interface (exit codes and output)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from advlab.cli import cli_main
from advlab.data import load_dataset_csv


def test_no_command_is_usage_error(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error(capsys):
    assert cli_main(["gen", "--n", "abc", "--out", "x.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "gen" in capsys.readouterr().out


def test_gen_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "ds.csv"
    code = cli_main(
        ["gen", "--n", "15", "--d", "8", "--r", "0.4", "--eta", "0.2",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    msg = capsys.readouterr().out
    assert "n=15" in msg and "d=8" in msg
    ds = load_dataset_csv(str(out))
    assert ds.n == 15 and ds.d == 8
    assert set(np.unique(ds.labels)) <= {-1.0, 1.0}


def test_module_entry_point_runs_command(tmp_path):
    # python -m advlab.cli must dispatch like the installed advlab script
    out = tmp_path / "ds.csv"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "advlab.cli", "gen", "--n", "6", "--d", "4", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert load_dataset_csv(str(out)).n == 6


def test_cli_runs_do_not_import_scipy(tmp_path):
    # scipy is a test-only dependency: importing scipy.special alone costs
    # about half of a fresh process's set-up time
    cfg = tmp_path / "fig.cfg"
    cfg.write_text(
        "figure_id = risk_vs_d\n"
        "n = 8\n"
        "d_grid = 20\n"
        "r = 0.4\n"
        "epsilon = 0.05\n"
        "T = 10\n"
        "record_every = 5\n"
        "seeds = 1\n"
        f"output_dir = {tmp_path / 'figs'}\n"
    )
    run = tmp_path / "run"
    code = (
        "import sys\n"
        "import advlab\n"
        "from advlab.cli import cli_main\n"
        f"assert cli_main(['train', '--n', '8', '--d', '20', '--T', '10', '--out', {str(run)!r}]) == 0\n"
        f"assert cli_main(['risk', '--theta', {str(run / 'theta.csv')!r}]) == 0\n"
        f"assert cli_main(['sweep', '--config', {str(cfg)!r}, '--format', 'csv']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "method=analytic" in proc.stdout
    header, row = (tmp_path / "figs" / "risk_vs_d_agg.csv").read_text().splitlines()[:2]
    baseline_opt = float(row.split(",")[header.split(",").index("baseline_opt")])
    assert 0.0 < baseline_opt < 0.5


def test_gen_seed_determinism(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    base = ["gen", "--n", "10", "--d", "6", "--out"]
    assert cli_main(base[:-1] + ["--seed", "5", "--out", str(a)]) == 0
    assert cli_main(base[:-1] + ["--seed", "5", "--out", str(b)]) == 0
    assert cli_main(base[:-1] + ["--seed", "6", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_invalid_eta_is_runtime_error(tmp_path, capsys):
    assert cli_main(["gen", "--eta", "0.7", "--out", str(tmp_path / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_writes_record_and_theta(tmp_path, capsys):
    outdir = tmp_path / "run"
    code = cli_main(
        ["train", "--n", "12", "--d", "40", "--r", "0.4", "--eta", "0.1",
         "--p", "2", "--eps", "0.05", "--T", "30", "--alpha", "1e-3",
         "--record-every", "10", "--seed", "1", "--out", str(outdir)]
    )
    assert code == 0
    msg = capsys.readouterr().out
    assert "loss=" in msg and "std_risk=" in msg
    record = (outdir / "record.csv").read_text().strip().split("\n")
    assert record[0] == "t,loss,log_loss,theta_l2,theta_q,alignment,train_err,adv_train_err"
    theta = np.loadtxt(outdir / "theta.csv")
    assert theta.shape == (40,)
    assert np.any(theta)


def test_train_alpha_is_averaged_loss_step(tmp_path, capsys):
    from advlab.data import MixtureSpec, generate, mu_from_scaling
    from advlab.norms import PerturbationModel
    from advlab.training import TrainConfig, train

    outdir = tmp_path / "run"
    code = cli_main(
        ["train", "--n", "10", "--d", "15", "--r", "0.4", "--eta", "0.1",
         "--p", "2", "--eps", "0.05", "--T", "5", "--alpha", "2e-3",
         "--seed", "0", "--out", str(outdir)]
    )
    assert code == 0
    capsys.readouterr()
    theta = np.loadtxt(outdir / "theta.csv")
    spec = MixtureSpec(d=15, mu=mu_from_scaling(15, 0.4), eta=0.1, seed=0)
    rec = train(
        generate(spec, 10),
        TrainConfig(model=PerturbationModel(2.0, 0.05), alpha=2e-3 / 10, T=5),
    )
    np.testing.assert_array_equal(theta, rec.final_theta())


def test_lemmas_alpha_is_averaged_loss_step(tmp_path, capsys):
    from advlab.data import MixtureSpec, generate, mu_from_scaling
    from advlab.lemmas import run_suite, save_reports_csv
    from advlab.norms import PerturbationModel
    from advlab.training import TrainConfig, train

    out = tmp_path / "cli.csv"
    code = cli_main(
        ["lemmas", "--n", "10", "--d", "40", "--r", "0.4", "--eta", "0.1",
         "--p", "2", "--eps", "0.05", "--seeds", "1", "--T", "20", "--alpha", "2e-3",
         "--step-mode", "constant", "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    model = PerturbationModel(2.0, 0.05)
    ds = generate(MixtureSpec(d=40, mu=mu_from_scaling(40, 0.4), eta=0.1, seed=0), 10)
    rec = train(ds, TrainConfig(model=model, alpha=2e-3 / 10, T=20))
    expected = tmp_path / "expected.csv"
    save_reports_csv(run_suite(ds, rec, model), str(expected))
    assert out.read_text() == expected.read_text()


def test_train_divergence_is_runtime_error(capsys):
    code = cli_main(
        ["train", "--n", "10", "--d", "5", "--r", "0.45", "--T", "50",
         "--alpha", "1e8", "--eps", "0"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_margins_reports_separable_case(capsys):
    code = cli_main(
        ["margins", "--n", "10", "--d", "50", "--r", "0.45", "--eta", "0",
         "--p", "2", "--eps", "0.05", "--seed", "0", "--max-iter", "800"]
    )
    assert code == 0
    msg = capsys.readouterr().out
    assert "margin_std=" in msg and "margin_adv=" in msg
    assert "separable=True" in msg


def test_risk_analytic_and_monte_carlo(tmp_path, capsys):
    theta_path = tmp_path / "theta.txt"
    np.savetxt(theta_path, np.ones(30))
    assert cli_main(["risk", "--theta", str(theta_path), "--r", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "method=analytic" in out

    assert cli_main(
        ["risk", "--theta", str(theta_path), "--r", "0.4", "--mc", "500"]
    ) == 0
    out = capsys.readouterr().out
    assert "method=monte_carlo" in out and "m=500" in out and "stderr=" in out


def test_risk_zero_vector_is_runtime_error(tmp_path, capsys):
    theta_path = tmp_path / "zero.txt"
    np.savetxt(theta_path, np.zeros(10))
    assert cli_main(["risk", "--theta", str(theta_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_risk_missing_file_is_runtime_error(capsys):
    assert cli_main(["risk", "--theta", "/no/such/theta.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_risk_non_finite_theta_is_runtime_error(tmp_path, capsys):
    theta_path = tmp_path / "theta.txt"
    np.savetxt(theta_path, [1.0, float("nan"), 2.0])
    assert cli_main(["risk", "--theta", str(theta_path)]) == 2
    captured = capsys.readouterr()
    assert "--theta" in captured.err and captured.out == ""


def test_risk_negative_mc_is_runtime_error(tmp_path, capsys):
    theta_path = tmp_path / "theta.txt"
    np.savetxt(theta_path, np.ones(10))
    assert cli_main(["risk", "--theta", str(theta_path), "--mc", "-5"]) == 2
    captured = capsys.readouterr()
    assert "--mc" in captured.err and captured.out == ""


@pytest.mark.parametrize("with_out", [False, True])
def test_lemmas_zero_seeds_is_runtime_error(tmp_path, capsys, with_out):
    out = tmp_path / "reports.csv"
    argv = ["lemmas", "--n", "8", "--d", "60", "--seeds", "0", "--T", "5"]
    assert cli_main(argv + (["--out", str(out)] if with_out else [])) == 2
    captured = capsys.readouterr()
    assert "--seeds" in captured.err and captured.out == ""
    assert not out.exists()


def test_lemmas_batch_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "reports.csv"
    code = cli_main(
        ["lemmas", "--n", "8", "--d", "60", "--r", "0.4", "--eta", "0",
         "--p", "2", "--eps", "0", "--seeds", "2", "--T", "30",
         "--alpha", "1e-3", "--step-mode", "constant", "--out", str(out)]
    )
    assert code == 0
    msg = capsys.readouterr().out
    for lid in ("sample_geometry", "loss_descent", "iterate_norm",
                "loss_ratio", "alignment_growth", "dual_subgradient"):
        assert f"{lid}: " in msg
    assert "overall:" in msg
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lemma_id,passed,constant_name,constant_value,worst_iteration"
    # one row per reported constant, at least one per check
    ids = {ln.split(",")[0] for ln in lines[1:]}
    assert ids == {"sample_geometry", "loss_descent", "iterate_norm",
                   "loss_ratio", "alignment_growth", "dual_subgradient"}


def test_sweep_from_config_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "fig.cfg"
    cfg.write_text(
        "figure_id = custom\n"
        "name = smoke\n"
        "n = 8\n"
        "d_grid = 20\n"
        "r = 0.4\n"
        "epsilon = 0.0\n"
        "T = 10\n"
        "record_every = 5\n"
        "seeds = 1\n"
        "margins = false\n"
    )
    outdir = tmp_path / "results"
    code = cli_main(
        ["sweep", "--config", str(cfg), "--out", str(outdir), "--format", "csv"]
    )
    assert code == 0
    msg = capsys.readouterr().out
    assert "raw:" in msg and "agg:" in msg
    assert (outdir / "smoke_raw.csv").exists()
    assert (outdir / "smoke_agg.csv").exists()
    assert not list(outdir.glob("*.svg"))


def test_sweep_missing_config_is_runtime_error(capsys):
    assert cli_main(["sweep", "--config", "/no/such/file.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_nn_config_without_mc_samples_fails_before_training(tmp_path, capsys, monkeypatch):
    from advlab import experiments

    def no_training(*args, **kwargs):
        raise AssertionError("trained a network")

    monkeypatch.setattr(experiments, "adv_train_nn", no_training)
    cfg = tmp_path / "nn.cfg"
    cfg.write_text(
        "figure_id = nn_risk_vs_d\n"
        "n = 8\n"
        "d_grid = 12\n"
        "epochs = 2\n"
        "seeds = 1\n"
        "mc_samples = 0\n"
    )
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "mc_samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_TINY_SWEEP = (
    "figure_id = custom\n"
    "n = 8\n"
    "d_grid = 20\n"
    "T = 10\n"
    "record_every = 5\n"
    "seeds = 1\n"
    "margins = false\n"
)


@pytest.mark.parametrize(
    "line",
    [
        "seeds = 2.7", "T = true", "n = inf", "margins = no", "d_grid = 100.5, 200",
        "p = two", "epsilon = 0.1, x",
    ],
)
def test_sweep_unreadable_config_value_is_runtime_error(tmp_path, capsys, line):
    # a later line overrides the tiny sweep's value of the same key
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_TINY_SWEEP + line + "\n")
    key = line.split(" = ")[0]
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_keeps_text_values_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "text.cfg"
    cfg.write_text(_TINY_SWEEP + "output_dir = 2024\nname = 1e3\n")
    assert cli_main(["sweep", "--config", str(cfg), "--format", "csv"]) == 0
    assert (tmp_path / "2024" / "1e3_raw.csv").exists()
    assert (tmp_path / "2024" / "1e3_agg.csv").exists()


def test_sweep_svg_format_writes_panels(tmp_path):
    cfg = tmp_path / "fig.cfg"
    cfg.write_text(
        "figure_id = risk_vs_d\n"
        "n = 8\n"
        "d_grid = 20, 40\n"
        "r = 0.3, 0.4\n"
        "epsilon = 0.05\n"
        "T = 10\n"
        "record_every = 5\n"
        "seeds = 1\n"
        "margins = false\n"
        f"output_dir = {tmp_path / 'figs'}\n"
    )
    assert cli_main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "figs" / "risk_vs_d_a.svg").exists()
    assert (tmp_path / "figs" / "risk_vs_d_b.svg").exists()
