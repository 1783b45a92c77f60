"""advlab benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload sweep_linear --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; advlab is imported from its ``src/``
and nothing is installed.  The process measures set-up in fresh child
processes, warms up, then repeats the workload's pass until ``--seconds``
is spent and checks every pass's output after the timer stops.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; their times
are scaled to a reference host speed (``hostspeed.py``) and reported raw
beside them.  ``--trace 1``
interleaves untraced and traced passes and reports the per-layer metrics,
including the tracing overhead.  A report for people and the provenance come
first; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  Outputs, ``result.json``
and ``spans.csv`` go to ``.perfbench_out/`` in the checkout.
``--smoke`` shrinks every shape, for the harness's own test.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# BLAS reads its thread count once, when numpy loads.  One thread: with two
# (nproc on a 2-vCPU Xeon) no workload ran faster, and spinning BLAS threads
# slow several-fold whenever something else holds one of the cores.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

SETUP_PROBES = 5
TAIL_LADDER = (99, 95, 90, 75, 50)  # percentiles a tail may be reported at
# *_norm_s: seconds on a host where one hostspeed sample takes REFERENCE_S
END_TO_END = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "run_norm_s.p50": "s",
    "peak_rss_mb": "MB",
}
# reported by name and unit, not gated: raw wall-clock follows the host's speed
REPORTED = ("wall_s", "run_s.p50", "run_s.tail", "margin_gap.max", "host.probe_s")


@dataclass
class Pass:
    index: int
    outdir: Path
    traced: bool
    wall_s: float = 0.0  # host-speed samples excluded
    base: int = 0  # index of the pass's first span in the recorder
    spans: list = field(default_factory=list)
    # untraced passes: (start_ns, end_ns) of the host-speed samples taken during it
    probes: list = field(default_factory=list)
    error: str = ""

    @property
    def runs(self) -> list:
        return [s for s in self.spans if s[0] == "run"]

    def run_seconds(self) -> list[float]:
        """Each run's duration, host-speed samples excluded."""
        from hostspeed import overlap_s

        return [(s[2] - s[1]) * 1e-9 - overlap_s(s[1], s[2], self.probes) for s in self.runs]


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="minimal shapes, one set-up probe")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_advlab() -> None:
    """Import advlab from this checkout's src/, and nowhere else."""
    import advlab

    if Path(advlab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"advlab came from {advlab.__file__}, not from {SRC}")


def _workdir(args) -> Path:
    tag = f"seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    return ROOT / ".perfbench_out" / args.workload / (tag + ("-probe" if args.probe else ""))


def _build(args):
    from workloads import WORKLOADS

    workdir = _workdir(args)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    workload.warmup()
    return workload, workdir


def _setup_seconds(argv: list[str], probes: int) -> list[float]:
    """Process start to ready-for-the-first-timed-call, in fresh processes."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--probe"]
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(t1 - t0)
    return times


def _measure(workload, workdir: Path, seconds: float, trace: bool):
    """Repeat passes until ``seconds`` is spent; traced runs mix in untraced passes.

    Untraced passes sample the host's speed while they run; the samples'
    time is taken out of the pass's wall time and its runs' durations.
    """
    from hostspeed import Probe, overlap_s
    from recorder import Recorder

    rec = Recorder()
    probe = Probe()
    passes: list[Pass] = []
    min_passes = 2 if trace else 1
    start = time.perf_counter()
    while True:
        # untraced, traced, traced, untraced, ...: drift cancels in the overhead
        traced = trace and len(passes) % 4 in (1, 2)
        p = Pass(len(passes), workdir / f"pass{len(passes)}", traced, base=len(rec.spans))
        p.outdir.mkdir()
        first_probe = len(probe.samples)
        with rec.installed(p.traced) as stack:
            workload.hooks(rec, stack)
            with contextlib.nullcontext() if p.traced else probe.sampling():
                t0 = time.perf_counter_ns()
                try:
                    workload.run_pass(rec, p.outdir)
                except Exception as exc:  # a run raised; the runs it skipped count as failed
                    p.error = repr(exc)
                t1 = time.perf_counter_ns()
        p.probes = probe.samples[first_probe:]
        p.wall_s = (t1 - t0) * 1e-9 - overlap_s(t0, t1, p.probes)
        p.spans = rec.spans[p.base:]
        passes.append(p)
        elapsed = time.perf_counter() - start
        # stop when the next pass would end more than half a pass past the budget
        if len(passes) >= min_passes and elapsed + 0.5 * elapsed / len(passes) > seconds:
            # read before the checks, which allocate too: the peak is the workload's
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            return rec, passes, peak_rss_mb


def _failures(workload, passes: list[Pass]) -> dict:
    try:
        failed = workload.check(passes)
    except Exception as exc:  # malformed output: no run of any pass is trusted
        failed = {(p.index, key): f"check raised {exc!r}" for p in passes for key in workload.planned()}
    for p in passes:
        done = {s[5]["key"]: s[5].get("error") for s in p.runs}
        for key in workload.planned():
            if key not in done:
                failed.setdefault((p.index, key), p.error or "run did not happen")
            elif done[key]:
                failed.setdefault((p.index, key), done[key])
    return failed


def _tail(values: list[float]):
    """Highest ladder percentile with at least 10 runs beyond it, or None."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return None


def _end_to_end(setup: list[float], passes: list[Pass], peak_rss_mb: float) -> tuple[dict, dict]:
    from hostspeed import scale_during

    durations, norm_runs, norm_walls = [], [], []
    for p in passes:
        norm_walls.append(p.wall_s * scale_during(p.probes))
        for s, run_s in zip(p.runs, p.run_seconds()):
            durations.append(run_s)
            norm_runs.append(run_s * scale_during(p.probes, s[1], s[2]))
    walls = [p.wall_s for p in passes]
    probes = [(b - a) * 1e-9 for p in passes for a, b in p.probes]
    gaps = [s[5]["gap"] for p in passes for s in p.spans if s[0].startswith("margins.") and s[5]]
    tail = _tail(durations)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_norm_s": statistics.median(norm_walls),
        "run_norm_s.p50": statistics.median(norm_runs),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "wall_s": {"value": statistics.median(walls), "unit": "s", "passes": len(passes)},
        "run_s.p50": {"value": statistics.median(durations), "unit": "s",
                      "runs": len(durations)},
        "host.probe_s": {"value": statistics.fmean(probes), "unit": "s",
                         "probes": len(probes)},
        "run_s.tail": (
            {"value": tail[1], "unit": "s", "percentile": tail[0], "runs": len(durations)}
            if tail else {"value": None, "unit": "s", "runs": len(durations),
                          "note": "fewer than 20 runs: p50 only"}
        ),
        "margin_gap.max": {"value": max(gaps) if gaps else None, "unit": "1",
                           "solves": len(gaps)},
        "setup_s.samples": setup,
    }
    return metrics, extra


def _per_layer(passes: list[Pass]) -> tuple[dict, dict]:
    from recorder import COUNTS, PER_LAYER, layer_metrics

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = [layer_metrics(p.spans, p.base) for p in traced]
    metrics = {
        name: per_pass[0][name] if name in COUNTS else statistics.median(m[name] for m in per_pass)
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain)
    )
    extra = {
        "counts_repeat": all(m[c] == per_pass[0][c] for m in per_pass for c in COUNTS),
        "traced_wall_s": [p.wall_s for p in traced],
        "untraced_wall_s": [p.wall_s for p in plain],
    }
    return metrics, extra


def _provenance(args, workload) -> dict:
    import numpy as np
    import scipy

    def read(path: Path) -> str:
        try:
            return path.read_text().strip()
        except OSError:
            return ""

    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in read(Path("/proc/cpuinfo")).splitlines()
         if ln.startswith("model name")),
        platform.processor(),
    )
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = read(ROOT / ".git" / "HEAD")
    sha = read(ROOT / ".git" / head[5:]) if head.startswith("ref: ") else head
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": NPROC,
        "cpu": cpu,
        "l3": read(Path("/sys/devices/system/cpu/cpu0/cache/index3/size")) or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_sha": sha or None,
        "src_lines": src_lines,
    }
    if hasattr(workload, "m"):
        out["mc_block_bytes"] = workload.m * workload.d * 8
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    try:
        _import_advlab()
    except ImportError as exc:
        print(f"perfbench: cannot import advlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.probe:
        _build(args)
        print("ready", flush=True)
        return 0

    # set-up is an end-to-end metric; a traced run does not measure it
    setup = [] if args.trace else _setup_seconds(argv, 1 if args.smoke else SETUP_PROBES)
    workload, workdir = _build(args)
    rec, passes, peak_rss_mb = _measure(workload, workdir, args.seconds, bool(args.trace))
    failed = _failures(workload, passes)
    attempted = len(workload.planned()) * len(passes)
    if args.trace:
        metrics, extra = _per_layer(passes)
        from recorder import PER_LAYER as units
    else:
        metrics, extra = _end_to_end(setup, passes, peak_rss_mb)
        units = END_TO_END
    provenance = _provenance(args, workload)
    fail_frac = len(failed) / attempted

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}"
          f" runs={sum(len(p.runs) for p in passes)}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    if not args.trace:
        for name in REPORTED:
            e = extra[name]
            detail = {k: v for k, v in e.items() if k not in ("value", "unit")}
            shown = "-" if e["value"] is None else f"{e['value']:.6g}"
            print(f"  {name:<28} {shown} {e['unit']} {json.dumps(detail)}")
    else:
        print(f"  counts repeat on every traced pass: {extra['counts_repeat']}")
    print(f"  {'fail_frac':<28} {fail_frac:.6g} 1 ({len(failed)}/{attempted})")
    for (index, key), reason in sorted(failed.items(), key=str)[:10]:
        print(f"  failed pass {index} run {key}: {reason}")
    print("provenance " + json.dumps(provenance))

    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail = dict(result, fail_frac=fail_frac, extra=extra, provenance=provenance,
                  failures={f"{i} {k}": r for (i, k), r in failed.items()},
                  pass_wall_s=[p.wall_s for p in passes],
                  host_samples_ns=[p.probes for p in passes],
                  run_s=[(s[5]["key"], t) for p in passes for s, t in zip(p.runs, p.run_seconds())])
    (workdir / "result.json").write_text(json.dumps(detail, indent=1, default=str))
    rec.write_spans(workdir / "spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
