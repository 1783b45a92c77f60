"""The four workloads: inputs made from a seed, one timed pass, output checks.

A pass does the user-visible job once: two figure sweeps, one nn sweep, a
batch of lemma seeds, or three Monte Carlo triples.  Every pass of a process
repeats the same inputs, so pass k must reproduce pass 0 exactly; pass 0 is
checked in full.  A run is one grid point x seed, one lemma seed or one MC
triple; the checks name the runs that failed and never time anything.

Shapes are fixed.  ``smoke=True`` shrinks every shape so that a whole run
takes a few seconds; the warm-up call of every workload is its smoke pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np

from advlab import cli, lemmas, risk
from advlab.data import MixtureSpec, generate, mu_from_scaling
from advlab.network import PgdConfig, TwoLayerNet, forward, pgd_attack
from advlab.norms import PerturbationModel, dual_exponent, lp_norm
from advlab.training import TrainConfig

# risks from the trainer vs the reference loop; margins vs the exact bracket
MEASURED = ("train_err", "adv_train_err", "std_risk", "adv_risk", "loss", "theta_l2",
            "margin_std", "margin_adv")
RISK_TOL = 1e-8
MARGIN_TOL = 1e-8
PGD_RATIO_MIN = 0.99
MC_SIGMAS = 4.0


def _sweep_key(args) -> tuple:
    cfg, d, r, eps, seed = args
    return (cfg.prefix, d, r, eps, seed)


def _write_config(path: Path, mapping: dict) -> Path:
    """Flat ``key = value`` lines; tuples become comma lists."""
    lines = (
        f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
        for k, v in mapping.items()
    )
    path.write_text("".join(lines))
    return path


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class _Sweep:
    """In-process ``advlab sweep`` of one or more config files."""

    name = ""
    runner = ""  # experiments function that executes one grid point x seed

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.configs = self.sweeps(smoke)
        self.paths = {
            prefix: _write_config(workdir / f"{prefix}.cfg", mapping)
            for prefix, mapping in self.configs.items()
        }

    @staticmethod
    def sweeps(smoke: bool) -> dict[str, dict]:
        raise NotImplementedError

    def warmup(self) -> None:
        for prefix, mapping in self.sweeps(True).items():
            path = _write_config(self.workdir / f"warmup_{prefix}.cfg", mapping)
            self._sweep(path, self.workdir / "warmup")

    def hooks(self, rec, stack) -> None:
        rec.wrap_runs(stack, "advlab.experiments", self.runner, _sweep_key)

    def _sweep(self, path: Path, outdir: Path) -> int:
        argv = ["sweep", "--config", str(path), "--out", str(outdir), "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.cli_main(argv)

    def run_pass(self, rec, outdir: Path) -> None:
        for path in self.paths.values():
            self._sweep(path, outdir)

    def planned(self) -> list[tuple]:
        keys = []
        for prefix, c in self.configs.items():
            rs = c["r"] if isinstance(c["r"], tuple) else (c["r"],)
            for r in rs:
                for d in c["d_grid"]:
                    keys.append((prefix, d, float(r), float(c["epsilon"]), self.seed))
        return keys

    def _outputs(self, outdir: Path) -> bytes:
        return b"".join(
            (outdir / f"{prefix}_{kind}.csv").read_bytes()
            for prefix in self.configs
            for kind in ("raw", "agg")
        )

    def check(self, passes) -> dict:
        """Failed runs as {(pass index, key): reason}."""
        failed: dict = {}
        first = passes[0]
        try:
            first_bytes = self._outputs(first.outdir)
        except OSError as exc:
            return {(p.index, key): f"missing output: {exc}" for p in passes for key in self.planned()}
        runs = {s[5]["key"]: s for s in first.runs}
        margin_spans = {}
        for span in first.spans:
            if span[0].startswith("margins.") and span[4] >= 0:
                margin_spans[(span[4], span[0])] = span[5]
        for prefix, c in self.configs.items():
            raw = _read_csv(first.outdir / f"{prefix}_raw.csv")
            agg = _read_csv(first.outdir / f"{prefix}_agg.csv")
            final_t = str(max(int(row["t"]) for row in raw))
            for key in self.planned():
                if key[0] != prefix:
                    continue
                _, d, r, eps, seed = key
                rows = [
                    row for row in raw
                    if int(row["d"]) == d and float(row["r"]) == r and int(row["seed"]) == seed
                    and row["t"] == final_t
                ]
                aggs = [row for row in agg if int(row["d"]) == d and float(row["r"]) == r
                        and row["t"] == final_t]
                if len(rows) != 1 or len(aggs) != 1 or key not in runs:
                    failed[(0, key)] = "run missing from the output"
                    continue
                run = runs[key]
                gaps = {
                    name: margin_spans.get((run[4], f"margins.{name}"))
                    for name in ("standard", "adversarial")
                }
                reason = self.check_run(c, key, rows[0], aggs[0], gaps)
                if reason:
                    failed[(0, key)] = reason
        for p in passes[1:]:
            try:
                same = self._outputs(p.outdir) == first_bytes
            except OSError:
                same = False
            if not same:
                for key in self.planned():
                    failed[(p.index, key)] = "output differs from pass 0"
        return failed

    @staticmethod
    def _dataset(c: dict, d: int, r: float, seed: int):
        spec = MixtureSpec(d=d, mu=mu_from_scaling(d, r), eta=c["eta"], seed=seed)
        return spec, generate(spec, c["n"])

    @staticmethod
    def _margin_reason(c: dict, z: np.ndarray, eps: float, row: dict, gaps: dict) -> str:
        """Each margin lies within its certificate gap of the exact optimum."""
        import reference

        q = dual_exponent(float(c["p"]))
        brackets = {
            "standard": ("margin_std", reference.exact_standard_margin(z, q)),
            "adversarial": ("margin_adv", reference.exact_adversarial_margin(z, eps, q)),
        }
        for name, (col, (lo, hi)) in brackets.items():
            value = float(row[col])
            tap = gaps[name]
            if not tap or tap["value"] != value:
                return f"{col} {value!r} was not returned by the solver"
            tol = MARGIN_TOL * max(1.0, abs(hi))
            if not lo - tap["gap"] - tol <= value <= hi + tol:
                return f"{col} {value!r} outside [{lo!r} - gap {tap['gap']!r}, {hi!r}]"
        return ""


class SweepLinear(_Sweep):
    """Figure ``risk_vs_d`` for p=2 and p=inf: linear trainer, margins, SVG."""

    name = "sweep_linear"
    runner = "_linear_rows"

    @staticmethod
    def sweeps(smoke: bool) -> dict[str, dict]:
        base = dict(
            figure_id="risk_vs_d", n=50, eta=0.1, r=(0.2, 0.3, 0.4), d_grid=(200, 1000),
            T=1000, alpha=1e-3, step_mode="constant", margins="true", margin_iters=1000,
            eval="analytic", seeds=1,
        )
        if smoke:
            base.update(r=(0.3,), d_grid=(100,), T=50, margin_iters=50)
        return {
            "linear_p2": dict(base, name="linear_p2", p=2.0, epsilon=0.1),
            "linear_pinf": dict(base, name="linear_pinf", p="inf", epsilon=0.01),
        }

    def check_run(self, c, key, row, agg, gaps) -> str:
        import reference

        _, d, r, eps, seed = key
        vals = {k: float(row[k]) for k in MEASURED + ("alignment",)}
        bad = [k for k, v in vals.items() if not math.isfinite(v)]
        if bad:
            return f"non-finite final-iterate columns {bad}"
        std, adv = vals["std_risk"], vals["adv_risk"]
        if not float(agg["baseline_opt"]) <= std <= adv <= 1.0:
            return f"baseline_opt <= std_risk <= adv_risk <= 1 fails: {agg['baseline_opt']}, {std}, {adv}"
        spec, ds = self._dataset(c, d, r, seed)
        q = dual_exponent(float(c["p"]))
        theta = reference.bare_train(ds.signed_features, eps, q, c["alpha"] / c["n"], c["T"])
        ref_std, ref_adv = reference.gaussian_risks(theta, spec.mu, c["eta"], eps, q)
        if abs(std - ref_std) > RISK_TOL or abs(adv - ref_adv) > RISK_TOL:
            return f"risks ({std}, {adv}) differ from the reference ({ref_std}, {ref_adv})"
        return self._margin_reason(c, ds.signed_features, eps, row, gaps)


class SweepNN(_Sweep):
    """Figure ``nn_risk_vs_d``: two-layer ReLU net trained against PGD."""

    name = "sweep_nn"
    runner = "_nn_rows"

    @staticmethod
    def sweeps(smoke: bool) -> dict[str, dict]:
        c = dict(
            figure_id="nn_risk_vs_d", name="nn_p2", n=50, eta=0.1, p=2.0, epsilon=0.1,
            r=0.3, d_grid=(50, 200, 1000), h=32, pgd_steps=10, epochs=400, lr=0.01,
            mc_samples=2000, margins="true", seeds=1,
        )
        if smoke:
            c.update(d_grid=(50,), epochs=20, mc_samples=200, margin_iters=50)
        return {"nn_p2": c}

    def check(self, passes) -> dict:
        failed = super().check(passes)
        ratio = self.pgd_linear_ratio()
        if ratio < PGD_RATIO_MIN:
            for p in passes:
                for key in self.planned():
                    failed.setdefault((p.index, key), f"induced-linear PGD ratio {ratio:.4f}")
        return failed

    def pgd_linear_ratio(self) -> float:
        """Worst PGD loss gain over the exact closed-form gain, on linear nets.

        A net with W1 = [I; -I], w2 = [a; -a] scores a.x exactly, so PGD in
        the l2 ball must reach the closed-form worst case (as in acceptance
        criterion 9).
        """
        rng = np.random.default_rng((self.seed, 909))
        c = self.configs["nn_p2"]
        worst = 1.0
        for _ in range(5):
            model = PerturbationModel(float(c["p"]), float(rng.uniform(0.1, 0.4)))
            d = int(rng.integers(4, 10))
            a = rng.normal(size=d)
            a[np.abs(a) < 0.1] = 0.3
            net = TwoLayerNet(
                W1=np.vstack([np.eye(d), -np.eye(d)]), b1=np.zeros(2 * d),
                w2=np.concatenate([a, -a]), b2=0.0,
            )
            feats = rng.normal(size=(30, d)) + 0.5
            labels = rng.choice([-1.0, 1.0], size=30)
            cfg = PgdConfig(model=model, steps=c["pgd_steps"])
            clean = float(np.sum(np.exp(-labels * (feats @ a))))
            exact = float(np.sum(np.exp(-labels * (feats @ a) + model.epsilon * lp_norm(a, model.q))))
            attacked = sum(
                math.exp(-labels[k] * forward(net, pgd_attack(net, feats[k], int(labels[k]), cfg)))
                for k in range(30)
            )
            worst = min(worst, (attacked - clean) / (exact - clean))
        return worst

    def check_run(self, c, key, row, agg, gaps) -> str:
        _, d, r, eps, seed = key
        vals = {k: float(row[k]) for k in MEASURED}  # a net has no alignment
        bad = [k for k, v in vals.items() if not math.isfinite(v)]
        if bad:
            return f"non-finite final-iterate columns {bad}"
        if not vals["adv_risk"] >= vals["std_risk"]:
            return f"adv_risk {vals['adv_risk']} < std_risk {vals['std_risk']}"
        _, ds = self._dataset(c, d, r, seed)
        return self._margin_reason(c, ds.signed_features, eps, row, gaps)


class LemmaSuite:
    """``lemmas.run_seed_batch`` in the criterion-4 regime, one run per seed."""

    name = "lemma_suite"
    N, R, ETA = 50, 0.3, 0.1
    MODEL = PerturbationModel(2.0, 0.1)
    # consequences of the training trajectory: they must hold on every seed
    TRAJECTORY = ("loss_descent", "iterate_norm", "loss_ratio", "dual_subgradient")
    # sample_geometry tests a probability-(1 - delta) event of the sample
    # itself, so its verdict must match the reference, not always pass;
    # alignment_growth is reported as a count and not checked

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.d, T, self.seeds = (1000, 200, 1) if smoke else (5000, 2000, 2)
        self.cfg = self._cfg(T)

    @classmethod
    def _cfg(cls, T: int) -> TrainConfig:
        return TrainConfig(model=cls.MODEL, step_mode="scheduled", G=10.0, T=T, record_every=10)

    def _batch(self, d: int, cfg: TrainConfig, seed: int):
        return lemmas.run_seed_batch(
            n=self.N, d=d, r=self.R, eta=self.ETA, model=self.MODEL, cfg=cfg, seeds=1,
            base_seed=seed,
        )

    def warmup(self) -> None:
        self._batch(1000, self._cfg(200), self.seed)

    def hooks(self, rec, stack) -> None:
        pass

    def planned(self) -> list[int]:
        return [self.seed * self.seeds + i for i in range(self.seeds)]

    def run_pass(self, rec, outdir: Path) -> None:
        for s in self.planned():
            with rec.run(s) as info:
                info["lemma_pass"] = dict(self._batch(self.d, self.cfg, s).pass_counts)

    def check(self, passes) -> dict:
        import reference

        failed = {}
        first = {s[5]["key"]: s[5].get("lemma_pass") for s in passes[0].runs}
        for key, counts in first.items():
            if counts is None:
                continue
            spec = MixtureSpec(d=self.d, mu=mu_from_scaling(self.d, self.R), eta=self.ETA, seed=key)
            ds = generate(spec, self.N)
            noisy = ds.labels != ds.clean_labels
            typical = reference.sample_geometry_holds(ds.signed_features, spec.mu, noisy, self.ETA)
            missed = [lid for lid in self.TRAJECTORY if not counts[lid]]
            if missed:
                failed[(0, key)] = f"lemma checks failed: {missed}"
            elif bool(counts["sample_geometry"]) != typical:
                failed[(0, key)] = (
                    f"sample_geometry says {bool(counts['sample_geometry'])}, reference {typical}"
                )
        for p in passes[1:]:
            for run in p.runs:
                if "lemma_pass" in run[5] and run[5]["lemma_pass"] != first.get(run[5]["key"]):
                    failed[(p.index, run[5]["key"])] = "pass counts differ from pass 0"
        return failed


class MCRisk:
    """Monte Carlo and analytic risk of fixed thetas at d=1000, p in {1, 2, inf}.

    m is fixed so that one m x d float64 block (448 MB) is at least four
    times a 105 MiB L3; run.py records both sizes.
    """

    name = "mc_risk"
    TRIPLES = ((1.0, 0.1), (2.0, 0.1), (math.inf, 0.01))  # (p, epsilon)

    SMOKE = (100, 2000)  # (d, m)

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.d, self.m = self.SMOKE if smoke else (1000, 56_000)
        self.spec = self._spec(self.d, seed)
        self.thetas = self._thetas(self.spec, seed)

    @staticmethod
    def _spec(d: int, seed: int) -> MixtureSpec:
        return MixtureSpec(d=d, mu=mu_from_scaling(d, 0.15), eta=0.1, seed=seed)

    @staticmethod
    def _thetas(spec: MixtureSpec, seed: int) -> list[np.ndarray]:
        # unit mean direction plus noise, as in acceptance criterion 8
        unit = spec.mu / np.linalg.norm(spec.mu)
        return [
            unit + 0.6 * np.random.default_rng((seed, i)).normal(size=spec.d) / math.sqrt(spec.d)
            for i in range(len(MCRisk.TRIPLES))
        ]

    def warmup(self) -> None:
        d, m = self.SMOKE
        spec = self._spec(d, self.seed)
        theta, model = self._thetas(spec, self.seed)[0], PerturbationModel(2.0, 0.1)
        risk.monte_carlo_risk(theta, spec, model, m=m, seed=self.seed)
        risk.analytic_risk(theta, spec, model)

    def hooks(self, rec, stack) -> None:
        pass

    def planned(self) -> list[float]:
        return [p for p, _ in self.TRIPLES]

    def run_pass(self, rec, outdir: Path) -> None:
        for i, ((p, eps), theta) in enumerate(zip(self.TRIPLES, self.thetas)):
            model = PerturbationModel(p, eps)
            with rec.run(p) as info:
                mc = risk.monte_carlo_risk(theta, self.spec, model, m=self.m, seed=self.seed * 3 + i)
                an = risk.analytic_risk(theta, self.spec, model)
                info.update(mc=(mc.std_risk, mc.adv_risk), an=(an.std_risk, an.adv_risk), m=mc.mc_samples)

    def check(self, passes) -> dict:
        """|MC - analytic| <= 4 sigma for both risks (criterion 8's bound)."""
        failed = {}
        first = {s[5]["key"]: s[5].get("mc") for s in passes[0].runs}
        for p in passes:
            for run in p.runs:
                info = run[5]
                if "mc" not in info:
                    continue
                for a, b in zip(info["an"], info["mc"]):
                    sigma = max(math.sqrt(a * (1.0 - a) / info["m"]), 1.0 / info["m"])
                    if abs(b - a) > MC_SIGMAS * sigma:
                        failed[(p.index, info["key"])] = f"|mc - analytic| = {abs(b - a):.3g} > 4 sigma"
                if info["mc"] != first.get(info["key"]):
                    failed[(p.index, info["key"])] = "estimate differs from pass 0"
        return failed


WORKLOADS = {w.name: w for w in (SweepLinear, LemmaSuite, SweepNN, MCRisk)}
