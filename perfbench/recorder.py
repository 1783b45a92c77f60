"""Spans recorded from outside advlab, around calls into its public functions.

A span is one call: name, start and end (``perf_counter_ns``), the index of
the enclosing span (-1 at the top) and the run it belongs to.  ``wrap``
replaces a function where the calling module binds it, for example
``advlab.experiments.train``, so the program itself is untouched.  Spans stay
in memory until ``write_spans`` dumps them at the end of the benchmark.

Untraced passes install only the run clock and the margin-result taps the
output checks need (a few dozen spans per pass); traced passes install
``TRACED`` as well.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import statistics
import time
from unittest import mock

from advlab.lemmas import LEMMA_IDS


def _train_info(args, kwargs, rec):
    ds = args[0]
    return {"iters": rec.T, "n": ds.n, "d": ds.d}


def _margin_info(args, kwargs, res):
    return {"iters": res.iterations, "gap": res.certificate_gap, "value": res.value}


def _epochs_info(args, kwargs, out):
    return {"epochs": out[1].epochs}


def _mc_info(args, kwargs, rep):
    return {"samples": rep.mc_samples, "d": args[1].d}


# (module, attribute, span name, info); every workload's code paths in one table
MARGIN_TAPS = (
    ("advlab.experiments", "standard_margin", "margins.standard", _margin_info),
    ("advlab.experiments", "adversarial_margin", "margins.adversarial", _margin_info),
)
TRACED = (
    ("advlab.cli", "cli_main", "cli.cli_main", None),
    ("advlab.cli", "run_figure", "experiments.run_figure", None),
    ("advlab.experiments", "generate", "data.generate", None),
    ("advlab.experiments", "train", "training.train", _train_info),
    ("advlab.experiments", "analytic_risk", "risk.analytic", None),
    ("advlab.experiments", "write_line_plot", "svgplot.write_line_plot", None),
    ("advlab.experiments", "init_network", "network.init_network", None),
    ("advlab.experiments", "adv_train_nn", "network.adv_train_nn", _epochs_info),
    ("advlab.experiments", "evaluate_nn_risks", "network.evaluate_nn_risks", None),
    ("advlab.training", "adversarial_margin", "margins.adversarial", _margin_info),
    ("advlab.training", "norm_subgradient", "norms.subgrad", None),
    ("advlab.margins", "norm_subgradient", "norms.subgrad", None),
    ("advlab.margins", "project_onto_ball", "norms.project", None),
    ("advlab.network", "norm_subgradient_rows", "norms.subgrad_rows", None),
    ("advlab.network", "project_onto_ball", "norms.project", None),
    ("advlab.lemmas", "run_seed_batch", "lemmas.run_seed_batch", None),
    ("advlab.lemmas", "generate", "data.generate", None),
    ("advlab.lemmas", "train", "training.train", _train_info),
    ("advlab.lemmas", "run_suite", "lemmas.run_suite", None),
    ("advlab.lemmas", "adversarial_margin", "margins.adversarial", _margin_info),
    ("advlab.lemmas", "norm_subgradient", "norms.subgrad", None),
    ("advlab.risk", "monte_carlo_risk", "risk.mc", _mc_info),
    ("advlab.risk", "analytic_risk", "risk.analytic", None),
)

# per-layer metrics: name -> unit; every one is printed for every workload
PER_LAYER = {
    "training.iter_us": "us",
    "training.iters": "count",
    "training.bytes_computed": "B",
    "training.gbps_computed": "GB/s",
    "margins.solve_ms": "ms",
    "margins.calls": "count",
    "margins.iters": "count",
    "margins.gap_max": "1",
    "network.epoch_ms": "ms",
    "network.eval_s": "s",
    "norms.subgrad_rows.s": "s",
    "norms.subgrad_rows.calls": "count",
    "norms.subgrad.s": "s",
    "norms.subgrad.calls": "count",
    "norms.project.s": "s",
    "norms.project.calls": "count",
    "risk.mc.s": "s",
    "risk.mc.samples": "count",
    "risk.mc.msamples_per_s": "1e6/s",
    "risk.mc.bytes_computed": "B",
    "risk.analytic.s": "s",
    "risk.analytic.calls": "count",
    "data.generate.s": "s",
    "data.generate.calls": "count",
    "lemmas.s": "s",
    **{f"lemmas.pass.{lid}": "count" for lid in LEMMA_IDS},
    "experiments.self_s": "s",
    "cli.self_s": "s",
    "svgplot.s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
# exact counts: identical on every traced pass of one seed
COUNTS = tuple(k for k, unit in PER_LAYER.items() if unit in ("count", "B"))


class Recorder:
    """In-memory spans, plus the run clock every workload reports through."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent, run_id, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._run_id = -1

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self._run_id, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def run(self, key):
        """Time one run; its span is the parent of the spans inside it.

        The yielded dict is the run's info; a run that raises is marked
        failed and the exception propagates.
        """
        span = self._open("run")
        self._run_id = len(self.spans) - 1
        span[4] = self._run_id
        span[5]["key"] = key
        try:
            yield span[5]
        except Exception as exc:
            span[5]["error"] = repr(exc)
            raise
        finally:
            self._close(span)
            self._run_id = -1

    def _wrapper(self, fn, name: str, info):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span[5] = info(args, kwargs, out)
            return out

        return traced

    def wrap(self, stack: contextlib.ExitStack, module: str, attr: str, name: str, info=None):
        """Route ``module.attr`` through a span until ``stack`` closes."""
        mod = importlib.import_module(module)
        stack.enter_context(
            mock.patch.object(mod, attr, self._wrapper(getattr(mod, attr), name, info))
        )

    def wrap_runs(self, stack: contextlib.ExitStack, module: str, attr: str, key) -> None:
        """Make every call of ``module.attr`` one run, keyed by ``key(args)``."""
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)

        def run(*args, **kwargs):
            with self.run(key(args)):
                return fn(*args, **kwargs)

        stack.enter_context(mock.patch.object(mod, attr, run))

    @contextlib.contextmanager
    def installed(self, traced: bool):
        """The margin taps always, the ``TRACED`` table too when traced."""
        with contextlib.ExitStack() as stack:
            for entry in MARGIN_TAPS + (TRACED if traced else ()):
                self.wrap(stack, *entry)
            yield stack

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_ns", "end_ns", "parent", "run_id", "info"))
            for i, (name, t0, t1, parent, run_id, info) in enumerate(self.spans):
                out.writerow((i, name, t0, t1, parent, run_id, info or ""))


def _dur(span) -> float:
    return (span[2] - span[1]) * 1e-9


def layer_metrics(spans: list[list], base: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``base`` is its first span's index."""
    by_name: dict[str, list[int]] = {}
    child_s = [0.0] * len(spans)
    margin_child_s = [0.0] * len(spans)
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
        parent = span[3] - base
        if parent >= 0:
            child_s[parent] += _dur(span)
            if span[0].startswith("margins."):
                margin_child_s[parent] += _dur(span)

    def named(name):
        return [spans[i] for i in by_name.get(name, ())]

    def total(name):
        return sum(_dur(s) for s in named(name))

    def calls(name):
        return len(by_name.get(name, ()))

    def info_sum(name, key):  # a call that raised has no info
        return sum(s[5].get(key, 0) for s in named(name))

    def self_s(name):
        return sum(_dur(spans[i]) - child_s[i] for i in by_name.get(name, ()))

    # sweep runs are experiments code (row building) around their child spans
    sweep_run_self_s = sum(
        _dur(spans[i]) - child_s[i]
        for i in by_name.get("run", ())
        if spans[i][3] - base >= 0 and spans[spans[i][3] - base][0] == "experiments.run_figure"
    )
    trains = named("training.train")
    train_s = sum(_dur(spans[i]) - margin_child_s[i] for i in by_name.get("training.train", ()))
    iters = info_sum("training.train", "iters")
    train_bytes = sum(s[5]["iters"] * 2 * s[5]["n"] * s[5]["d"] * 8 for s in trains if s[5])
    margins = [s for s in spans if s[0].startswith("margins.")]
    epochs = info_sum("network.adv_train_nn", "epochs")
    mc_s = total("risk.mc")
    samples = info_sum("risk.mc", "samples")
    passes = {lid: 0 for lid in LEMMA_IDS}
    for run in named("run"):
        for lid, n_pass in run[5].get("lemma_pass", {}).items():
            passes[lid] += n_pass
    return {
        "training.iter_us": train_s / iters * 1e6 if iters else 0.0,
        "training.iters": iters,
        "training.bytes_computed": train_bytes,
        "training.gbps_computed": train_bytes / train_s / 1e9 if train_s else 0.0,
        "margins.solve_ms": statistics.median(_dur(s) for s in margins) * 1e3 if margins else 0.0,
        "margins.calls": len(margins),
        "margins.iters": sum(s[5].get("iters", 0) for s in margins),
        "margins.gap_max": max((s[5]["gap"] for s in margins if s[5]), default=0.0),
        "network.epoch_ms": total("network.adv_train_nn") / epochs * 1e3 if epochs else 0.0,
        "network.eval_s": total("network.evaluate_nn_risks"),
        "norms.subgrad_rows.s": total("norms.subgrad_rows"),
        "norms.subgrad_rows.calls": calls("norms.subgrad_rows"),
        "norms.subgrad.s": total("norms.subgrad"),
        "norms.subgrad.calls": calls("norms.subgrad"),
        "norms.project.s": total("norms.project"),
        "norms.project.calls": calls("norms.project"),
        "risk.mc.s": mc_s,
        "risk.mc.samples": samples,
        "risk.mc.msamples_per_s": samples / mc_s / 1e6 if mc_s else 0.0,
        "risk.mc.bytes_computed": sum(
            s[5]["samples"] * s[5]["d"] * 8 for s in named("risk.mc") if s[5]
        ),
        "risk.analytic.s": total("risk.analytic"),
        "risk.analytic.calls": calls("risk.analytic"),
        "data.generate.s": total("data.generate"),
        "data.generate.calls": calls("data.generate"),
        "lemmas.s": total("lemmas.run_suite"),
        **{f"lemmas.pass.{lid}": n for lid, n in passes.items()},
        "experiments.self_s": self_s("experiments.run_figure") + sweep_run_self_s,
        "cli.self_s": self_s("cli.cli_main"),
        "svgplot.s": total("svgplot.write_line_plot"),
        "trace.spans": len(spans),
    }
