"""Command-line front end.

Subcommands: gen, train, margins, risk, lemmas, sweep.  Exit codes:
0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .data import (
    NOISE_DISTS,
    MixtureSpec,
    check_assumptions,
    generate,
    mu_from_scaling,
    save_dataset_csv,
)
from .experiments import config_from_mapping, load_config_file, run_figure
from .lemmas import LEMMA_IDS, run_seed_batch, save_reports_csv
from .margins import DEFAULT_MAX_ITER, adversarial_margin, standard_margin
from .norms import PerturbationModel, lp_norm
from .risk import analytic_risk, monte_carlo_risk
from .training import STEP_MODES, TrainConfig, save_record_csv, summed_step, train

__all__ = ["cli_main", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _problem_args(sp: argparse.ArgumentParser, with_model: bool = True) -> None:
    sp.add_argument("--n", type=int, default=50, help="number of samples")
    sp.add_argument("--d", type=int, default=1000, help="dimension")
    sp.add_argument("--r", type=float, default=0.3, help="mean norm scaling exponent")
    sp.add_argument("--eta", type=float, default=0.1, help="label flip probability")
    sp.add_argument("--noise", choices=NOISE_DISTS, default="gaussian")
    if with_model:
        sp.add_argument("--p", type=float, default=2.0, help="perturbation norm (inf ok)")
        sp.add_argument("--eps", type=float, default=0.1, help="perturbation radius")


def _build_parser() -> _Parser:
    parser = _Parser(prog="advlab", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("gen", help="generate a dataset and write it as CSV")
    _problem_args(sp, with_model=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output CSV path")

    sp = sub.add_parser("train", help="train a linear classifier")
    _problem_args(sp)
    sp.add_argument("--T", type=int, default=1000)
    sp.add_argument("--alpha", type=float, default=1e-3,
                    help="step size on the sample-averaged loss")
    sp.add_argument("--step-mode", choices=STEP_MODES, default="constant")
    sp.add_argument("--G", type=float, default=10.0)
    sp.add_argument("--record-every", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="directory for record.csv and theta.csv")

    sp = sub.add_parser("margins", help="standard and perturbation-adjusted margins")
    _problem_args(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)

    sp = sub.add_parser("risk", help="evaluate risks of a saved classifier")
    sp.add_argument("--theta", required=True, help="text file, one coefficient per line")
    sp.add_argument("--r", type=float, default=0.3)
    sp.add_argument("--eta", type=float, default=0.1)
    sp.add_argument("--noise", choices=NOISE_DISTS, default="gaussian")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--mc", type=int, default=0, help="Monte Carlo samples (0 = analytic)")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("lemmas", help="trajectory diagnostics over a seed batch")
    _problem_args(sp)
    sp.add_argument("--seeds", type=int, default=10)
    sp.add_argument("--T", type=int, default=2000)
    sp.add_argument("--alpha", type=float, default=1e-3,
                    help="step size on the sample-averaged loss (constant mode)")
    sp.add_argument("--step-mode", choices=STEP_MODES, default="scheduled")
    sp.add_argument("--G", type=float, default=10.0)
    sp.add_argument("--record-every", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0, help="base seed of the batch")
    sp.add_argument("--out", help="write the first seed's report rows to this CSV")

    sp = sub.add_parser("sweep", help="run a figure sweep from a config file")
    sp.add_argument("--config", required=True, help="flat key = value config file")
    sp.add_argument("--out", help="override output_dir")
    sp.add_argument("--seed", type=int, help="override base_seed")
    sp.add_argument("--format", choices=("csv", "svg"), default="svg",
                    help="csv skips the SVG panels")
    return parser


def _spec(args, d: int | None = None) -> MixtureSpec:
    """The mixture named by --d (or d), --r, --eta, --noise and --seed."""
    d = args.d if d is None else d
    return MixtureSpec(
        d=d, mu=mu_from_scaling(d, args.r), noise_dist=args.noise, eta=args.eta, seed=args.seed
    )


def _train_config(args, model: PerturbationModel) -> TrainConfig:
    """The trainer config of train and lemmas; --alpha is on the averaged loss."""
    return TrainConfig(
        model=model,
        step_mode=args.step_mode,
        alpha=summed_step(args.alpha, args.n),
        G=args.G,
        T=args.T,
        record_every=args.record_every,
    )


def _cmd_gen(args) -> int:
    spec = _spec(args)
    ds = generate(spec, args.n)
    save_dataset_csv(ds, args.out)
    print(
        f"wrote {args.out}: n={ds.n} d={ds.d} flipped={len(ds.noise_indices)}"
        f" mu_norm={lp_norm(spec.mu, 2):.6g}"
    )
    return 0


def _cmd_train(args) -> int:
    model = PerturbationModel(p=args.p, epsilon=args.eps)
    spec = _spec(args)
    ds = generate(spec, args.n)
    rec = train(ds, _train_config(args, model))
    theta = rec.final_theta()
    line = (
        f"T={rec.T} loss={rec.losses[-1]:.6g} log_loss={rec.log_losses[-1]:.6g}"
        f" train_err={rec.train_errors[-1]:.4f} adv_train_err={rec.adv_train_errors[-1]:.4f}"
    )
    if args.noise == "gaussian" and np.any(theta):
        rep = analytic_risk(theta, spec, model)
        line += f" std_risk={rep.std_risk:.6f} adv_risk={rep.adv_risk:.6f}"
    print(line)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        save_record_csv(rec, str(outdir / "record.csv"))
        np.savetxt(outdir / "theta.csv", theta, fmt="%.17g")
        print(f"wrote {outdir / 'record.csv'} and {outdir / 'theta.csv'}")
    return 0


def _cmd_margins(args) -> int:
    model = PerturbationModel(p=args.p, epsilon=args.eps)
    ds = generate(_spec(args), args.n)
    std = standard_margin(ds, model.q, max_iter=args.max_iter)
    adv = adversarial_margin(ds, model, max_iter=args.max_iter)
    rep = check_assumptions(ds, model, std.value)
    print(
        f"margin_std={std.value:.8g} margin_adv={adv.value:.8g}"
        f" margin_gap={max(std.certificate_gap, adv.certificate_gap):.3g}"
        f" separable={rep.separable} dimension_ok={rep.dimension_ok}"
    )
    return 0


def _cmd_risk(args) -> int:
    if args.mc < 0:
        raise ValueError(f"--mc must be >= 0, got {args.mc}")
    theta = np.loadtxt(args.theta, ndmin=1)
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"--theta {args.theta}: every coefficient must be finite")
    model = PerturbationModel(p=args.p, epsilon=args.eps)
    spec = _spec(args, d=theta.shape[0])
    if args.mc > 0:
        rep = monte_carlo_risk(theta, spec, model, m=args.mc, seed=args.seed)
        print(
            f"std_risk={rep.std_risk:.6f} adv_risk={rep.adv_risk:.6f}"
            f" method={rep.method} m={rep.mc_samples} stderr={rep.mc_stderr:.6f}"
        )
    else:
        rep = analytic_risk(theta, spec, model)
        print(f"std_risk={rep.std_risk:.6f} adv_risk={rep.adv_risk:.6f} method={rep.method}")
    return 0


def _cmd_lemmas(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    model = PerturbationModel(p=args.p, epsilon=args.eps)
    result = run_seed_batch(
        n=args.n,
        d=args.d,
        r=args.r,
        eta=args.eta,
        model=model,
        cfg=_train_config(args, model),
        noise_dist=args.noise,
        seeds=args.seeds,
        base_seed=args.seed,
    )
    for lid in LEMMA_IDS:
        print(f"{lid}: {result.pass_counts[lid]}/{result.seeds}")
    required = result.seeds - 1 if result.seeds > 1 else 1
    print(f"overall: {'PASS' if result.passing(required) else 'FAIL'} (>= {required} required)")
    if args.out:
        save_reports_csv(result.reports[0], args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    mapping = load_config_file(args.config)  # overrides are read as config text
    if args.out:
        mapping["output_dir"] = args.out
    if args.seed is not None:
        mapping["base_seed"] = str(args.seed)
    cfg = config_from_mapping(mapping)
    written = run_figure(cfg, svg=args.format == "svg")
    for kind, path in written.items():
        print(f"{kind}: {path}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "margins": _cmd_margins,
    "risk": _cmd_risk,
    "lemmas": _cmd_lemmas,
    "sweep": _cmd_sweep,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, BrokenPipeError):
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
