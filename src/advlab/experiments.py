"""Sweep engine: grids of training runs, deterministic CSVs, SVG panels.

A figure is a grid of configurations crossed with a block of seeds.  Run i
of every grid point uses dataset seed ``base_seed + i``; evaluation draws
come from the same seed through the dedicated evaluation stream tag, so
they never collide with training samples.  Grid points and seeds execute
in a fixed order and all output is written with round-trip float formatting,
which makes every CSV byte-reproducible on one platform.

Figures:

- risk_vs_d:      linear trainer, curves over d for each mean-norm scaling r
- adv_risk_vs_t:  linear trainer, curves over iteration t for each epsilon
- nn_risk_vs_d:   two-layer net with PGD attacks, curves over d for each r
- custom:         full product of the supplied grids, CSV output only
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .data import Dataset, MixtureSpec, generate, mu_from_scaling, write_csv
from .margins import adversarial_margin, standard_margin
from .network import (
    PgdConfig,
    adv_train_nn,
    evaluate_nn_risks,
    init_network,
)
from .norms import PerturbationModel
from .risk import _eval_margin_risks, analytic_risk, normal_cdf
from .svgplot import Series, write_line_plot
from .training import TrainConfig, summed_step, train

__all__ = [
    "FIGURE_IDS",
    "ExperimentConfig",
    "SweepRow",
    "load_config_file",
    "run_figure",
]

FIGURE_IDS = ("risk_vs_d", "adv_risk_vs_t", "nn_risk_vs_d", "custom")

_AGG_METRICS = (
    "train_err",
    "adv_train_err",
    "std_risk",
    "adv_risk",
    "loss",
    "alignment",
    "theta_l2",
    "margin_std",
    "margin_adv",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one figure needs.  Scalar or tuple fields define the grid.

    ``epsilon`` and ``r`` accept a single value or a tuple of values;
    ``d_grid`` is always a tuple.  ``eval`` picks the risk evaluator
    ("analytic" needs gaussian noise; "monte_carlo" uses mc_samples fresh
    points per run).  The network fields (h, epochs, lr, pgd_steps) matter
    only for nn_risk_vs_d.

    ``alpha`` is the step size on the sample-averaged loss, the convention
    of the experimental protocol; the trainer itself steps on the summed
    loss, so runs pass it through ``training.summed_step``.  (Summed-loss steps
    of 1e-3 overflow the exponential weights within two iterations once
    d**(2r) * n * alpha is large, e.g. d=1000, r=0.4.)
    """

    figure_id: str = "custom"
    name: Optional[str] = None
    n: int = 50
    eta: float = 0.1
    noise_dist: str = "gaussian"
    p: float = 2.0
    epsilon: float | tuple[float, ...] = 0.1
    r: float | tuple[float, ...] = 0.3
    d_grid: tuple[int, ...] = (1000,)
    T: int = 1000
    alpha: float = 1e-3
    step_mode: str = "constant"
    G: float = 10.0
    record_every: int = 10
    seeds: int = 10
    base_seed: int = 0
    eval: str = "analytic"
    mc_samples: int = 2000
    margins: bool = True
    margin_iters: int = 1000
    h: int = 32
    epochs: int = 400
    lr: float = 0.01
    pgd_steps: int = 10
    output_dir: str = "."

    def __post_init__(self) -> None:
        if self.figure_id not in FIGURE_IDS:
            raise ValueError(f"figure_id must be one of {FIGURE_IDS}, got {self.figure_id!r}")
        if self.eval not in ("analytic", "monte_carlo"):
            raise ValueError(f"eval must be 'analytic' or 'monte_carlo', got {self.eval!r}")
        for name, least in (
            ("n", 1), ("T", 1), ("record_every", 1), ("seeds", 1), ("margin_iters", 1),
            ("mc_samples", 1), ("h", 1), ("epochs", 0), ("pgd_steps", 0),
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        if not self.d_grid or min(self.d_grid) < 1:
            raise ValueError(f"d_grid must hold dimensions >= 1, got {self.d_grid!r}")
        if not 0.0 <= self.eta < 0.5:
            raise ValueError(f"eta must lie in [0, 0.5), got {self.eta!r}")
        if not 1.0 <= self.p <= math.inf:
            raise ValueError(f"p must lie in [1, inf], got {self.p!r}")
        for name in ("alpha", "G", "lr"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        eps_values, r_values = self.epsilon_values(), self.r_values()
        if not eps_values or not all(0.0 <= eps < math.inf for eps in eps_values):
            raise ValueError(f"epsilon must hold finite values >= 0, got {self.epsilon!r}")
        if not r_values or not all(math.isfinite(r) for r in r_values):
            raise ValueError(f"r must hold finite values, got {self.r!r}")

    @property
    def prefix(self) -> str:
        return self.name or self.figure_id

    def epsilon_values(self) -> tuple[float, ...]:
        e = self.epsilon
        return tuple(e) if isinstance(e, (tuple, list)) else (float(e),)

    def r_values(self) -> tuple[float, ...]:
        r = self.r
        return tuple(r) if isinstance(r, (tuple, list)) else (float(r),)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated point of a sweep: a (grid point, seed, iteration) triple."""

    seed: int
    d: int
    n: int
    eta: float
    p: float
    epsilon: float
    r: float
    t: int
    train_err: float
    adv_train_err: float
    std_risk: float
    adv_risk: float
    risk_method: str
    loss: float
    alignment: float
    theta_l2: float
    margin_std: float
    margin_adv: float


RAW_COLUMNS = ",".join(f.name for f in fields(SweepRow))


def load_config_file(path: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines ('#' comments) into {key: value text}.

    The text is stripped and left for ``config_from_mapping`` to read.
    """
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            out[key.strip()] = raw.strip()
    return out


def _read_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        value = float(text)  # 1e5 is an integer; 2.7, inf and nan are not
    if not value.is_integer():
        raise ValueError(text)
    return int(value)


def _read_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


def _items(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# the reader of each ExperimentConfig annotation (a string: see __future__)
_READERS = {
    "int": _read_int,
    "float": float,
    "bool": _read_bool,
    "str": str,
    "Optional[str]": str,
    "tuple[int, ...]": lambda text: tuple(map(_read_int, _items(text))),
    "float | tuple[float, ...]": (
        lambda text: tuple(map(float, _items(text))) if "," in text else float(text)
    ),
}


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from {key: value text}, e.g. a config file's.

    Each field's annotation picks the reader of its text, ``str(value)``:
    integers (1e5 too), floats (inf too), true/false, text as written, and
    comma lists, so "0.1," is a one-value tuple.  An unknown key or a text
    its reader rejects raises ValueError naming the key.
    """
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    unknown = set(mapping) - set(types)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for key, value in mapping.items():
        try:
            values[key] = _READERS[types[key]](str(value))
        except ValueError:
            raise ValueError(f"config key {key!r}: cannot read {value!r} as {types[key]}") from None
    return ExperimentConfig(**values)


def _run_setup(
    cfg: ExperimentConfig, d: int, r: float, eps: float, seed: int, solve_adv: bool = True
) -> tuple[PerturbationModel, MixtureSpec, Dataset, dict]:
    """Model, spec and dataset of one (grid point, seed) run.

    Also returns the SweepRow fields that every row of the run shares: the
    grid keys and the margins (margin_adv is left to the caller unless solve_adv).
    """
    model = PerturbationModel(p=cfg.p, epsilon=eps)
    spec = MixtureSpec(
        d=d, mu=mu_from_scaling(d, r), noise_dist=cfg.noise_dist, eta=cfg.eta, seed=seed
    )
    ds = generate(spec, cfg.n)
    m_std = m_adv = math.nan
    if cfg.margins:
        m_std = standard_margin(ds, model.q, max_iter=cfg.margin_iters).value
        if solve_adv:
            m_adv = adversarial_margin(ds, model, max_iter=cfg.margin_iters).value
    shared = dict(
        seed=seed, d=d, n=cfg.n, eta=cfg.eta, p=cfg.p, epsilon=eps, r=r,
        margin_std=m_std, margin_adv=m_adv,
    )
    return model, spec, ds, shared


def _linear_rows(
    cfg: ExperimentConfig, d: int, r: float, eps: float, seed: int
) -> list[SweepRow]:
    # a scheduled run writes the adversarial margin that set its steps
    solve_adv = cfg.step_mode != "scheduled"
    model, spec, ds, shared = _run_setup(cfg, d, r, eps, seed, solve_adv)
    tc = TrainConfig(
        model=model,
        step_mode=cfg.step_mode,
        alpha=summed_step(cfg.alpha, cfg.n),
        G=cfg.G,
        T=cfg.T,
        record_every=cfg.record_every,
    )
    rec = train(ds, tc)
    if cfg.margins and not solve_adv:
        shared["margin_adv"] = rec.adv_margin

    if cfg.eval == "monte_carlo":
        nonzero = [theta for theta in rec.thetas if np.any(theta)]
        mc_risks = iter(_eval_margin_risks(nonzero, spec, cfg.mc_samples, seed, model))

    rows = []
    for i, t in enumerate(rec.snapshot_ts):
        theta = rec.thetas[i]
        if not np.any(theta):
            std = adv = math.nan
            method = cfg.eval
        elif cfg.eval == "analytic":
            rep = analytic_risk(theta, spec, model)
            std, adv, method = rep.std_risk, rep.adv_risk, rep.method
        else:
            std, adv = next(mc_risks)
            method = "monte_carlo"
        rows.append(
            SweepRow(
                **shared,
                t=t,
                train_err=float(rec.train_errors[i]),
                adv_train_err=float(rec.adv_train_errors[i]),
                std_risk=std,
                adv_risk=adv,
                risk_method=method,
                loss=float(rec.losses[t]),
                alignment=float(rec.alignments[t]),
                theta_l2=float(rec.theta_l2[t]),
            )
        )
    return rows


def _nn_rows(
    cfg: ExperimentConfig, d: int, r: float, eps: float, seed: int
) -> list[SweepRow]:
    model, spec, ds, shared = _run_setup(cfg, d, r, eps, seed)
    pgd = PgdConfig(model=model, steps=cfg.pgd_steps)
    net0 = init_network(d, h=cfg.h, seed=seed)
    net, log = adv_train_nn(ds, net0, pgd, epochs=cfg.epochs, lr=summed_step(cfg.lr, cfg.n))
    rep = evaluate_nn_risks(net, spec, pgd, m=cfg.mc_samples, seed=seed)
    t = log.epochs
    return [
        SweepRow(
            **shared,
            t=t,
            train_err=float(log.train_errors[t]),
            adv_train_err=float(log.adv_train_errors[t]),
            std_risk=rep.std_risk,
            adv_risk=rep.adv_risk,
            risk_method=rep.method,
            loss=float(log.losses[t]),
            alignment=math.nan,
            theta_l2=float(log.param_l2[t]),
        )
    ]


def _grid(cfg: ExperimentConfig) -> Iterable[tuple[int, float, float]]:
    """Deterministic (d, r, epsilon) grid order: r outer, d middle, eps inner."""
    for r in cfg.r_values():
        for d in cfg.d_grid:
            for eps in cfg.epsilon_values():
                yield d, r, eps


def _aggregate(rows: list[SweepRow], gaussian: bool = True) -> list[dict]:
    groups: dict[tuple, list[SweepRow]] = {}  # insertion order is first-seen order
    for row in rows:
        key = (row.d, row.n, row.eta, row.p, row.epsilon, row.r, row.t)
        groups.setdefault(key, []).append(row)
    out = []
    for key, grp in groups.items():
        rec: dict = dict(zip(("d", "n", "eta", "p", "epsilon", "r", "t"), key))
        rec["seeds"] = len(grp)
        # two candidate "optimal risk" baselines: the flip rate alone, and
        # the best achievable risk of any linear rule under gaussian noise
        rec["baseline_eta"] = rec["eta"]
        rec["baseline_opt"] = (
            rec["eta"] + (1.0 - 2.0 * rec["eta"]) * normal_cdf(-(rec["d"] ** rec["r"]))
            if gaussian
            else math.nan
        )
        for metric in _AGG_METRICS:
            vals = np.array([getattr(g, metric) for g in grp], dtype=float)
            vals = vals[np.isfinite(vals)]
            if vals.size == 0:
                rec[f"{metric}_mean"] = math.nan
                rec[f"{metric}_stderr"] = math.nan
            else:
                rec[f"{metric}_mean"] = float(vals.mean())
                rec[f"{metric}_stderr"] = (
                    float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
                )
        out.append(rec)
    return out


def _final_t(agg: list[dict]) -> int:
    return max(rec["t"] for rec in agg)


def _panel_series(agg: list[dict], x_key: str, curve_key: str, metric: str) -> list[Series]:
    series = []
    for cv in sorted({rec[curve_key] for rec in agg}):
        pts = sorted((rec for rec in agg if rec[curve_key] == cv), key=lambda rec: rec[x_key])
        series.append(
            Series(
                label=f"{curve_key}={cv:g}" if isinstance(cv, float) else f"{curve_key}={cv}",
                xs=np.array([rec[x_key] for rec in pts], dtype=float),
                ys=np.array([rec[f"{metric}_mean"] for rec in pts], dtype=float),
                yerr=np.array([rec[f"{metric}_stderr"] for rec in pts], dtype=float),
            )
        )
    return series


def run_figure(cfg: ExperimentConfig, svg: bool = True) -> dict[str, str]:
    """Run the grid, write raw/aggregated CSVs and SVG panels.

    Returns a mapping from artifact kind ("raw", "agg", and one entry per
    SVG panel) to the written path.  svg=False skips the panels.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows: list[SweepRow] = []
    runner = _nn_rows if cfg.figure_id == "nn_risk_vs_d" else _linear_rows
    for d, r, eps in _grid(cfg):
        for i in range(cfg.seeds):
            rows.extend(runner(cfg, d, r, eps, cfg.base_seed + i))

    raw_path = outdir / f"{cfg.prefix}_raw.csv"
    agg_path = outdir / f"{cfg.prefix}_agg.csv"
    columns = RAW_COLUMNS.split(",")
    write_csv(str(raw_path), columns, map(attrgetter(*columns), rows))
    agg = _aggregate(rows, gaussian=cfg.noise_dist == "gaussian")
    if not agg:
        raise ValueError("no rows to aggregate")
    write_csv(str(agg_path), list(agg[0]), (rec.values() for rec in agg))
    written = {"raw": str(raw_path), "agg": str(agg_path)}

    if not svg:
        return written
    # panels are lettered in figure order; the SVG title names the metric
    if cfg.figure_id in ("risk_vs_d", "nn_risk_vs_d"):
        t_fin = _final_t(agg)
        finals = [rec for rec in agg if rec["t"] == t_fin]
        for letter, metric in zip("ab", ("std_risk", "adv_risk")):
            series = _panel_series(finals, "d", "r", metric)
            path = outdir / f"{cfg.prefix}_{letter}.svg"
            write_line_plot(
                str(path),
                series,
                xlabel="d",
                ylabel=metric.replace("_", " "),
                title=f"{metric.replace('_', ' ')}  (p={cfg.p:g}, "
                f"eps={cfg.epsilon_values()[0]:g}, n={cfg.n}, eta={cfg.eta:g})",
                xlog=True,
            )
            written[f"panel_{letter}"] = str(path)
    elif cfg.figure_id == "adv_risk_vs_t":
        metric = "adv_risk"
        pos = [rec for rec in agg if rec["t"] >= 1]
        series = _panel_series(pos, "t", "epsilon", metric)
        path = outdir / f"{cfg.prefix}_a.svg"
        write_line_plot(
            str(path),
            series,
            xlabel="iteration",
            ylabel=metric.replace("_", " "),
            title=f"{metric.replace('_', ' ')} over training  (p={cfg.p:g}, "
            f"d={cfg.d_grid[0]}, n={cfg.n}, eta={cfg.eta:g})",
            xlog=False,
        )
        written["panel_a"] = str(path)
    return written
