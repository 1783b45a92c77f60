"""The benchmark harness's own test, at smoke size.

    python3 -m pytest perfbench/test_harness.py -q

Every workload runs as the benchmark is run, in a subprocess, once untraced
and once traced; its last line must carry every metric BENCHMARK.json names,
with its unit, and no failed run.  Then one output of each workload is
corrupted in-process and its check must fail the run, so the checks are not
vacuous.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402  (pins BLAS threads and puts src/ on the path)
from workloads import WORKLOADS  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    report = out.stdout.splitlines()[:-1]
    shown = ["fail_frac"] + ([] if trace else list(run.REPORTED))
    for name in [*expected, *shown]:
        assert any(line.split()[:1] == [name] for line in report), name


def _set_final(path: Path, column: str, value: str) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[-1][column] = value
    with open(path, "w", newline="") as fh:
        out = csv.DictWriter(fh, fieldnames=list(rows[0]))
        out.writeheader()
        out.writerows(rows)


def _corrupt(workload: str, passes) -> None:
    first = passes[0]
    if workload == "sweep_linear":
        _set_final(first.outdir / "linear_p2_raw.csv", "adv_risk", "1.5")
    elif workload == "sweep_nn":
        _set_final(first.outdir / "nn_p2_raw.csv", "adv_risk", "-0.5")
    elif workload == "lemma_suite":
        first.runs[0][5]["lemma_pass"]["loss_descent"] = 0
    else:
        info = first.runs[0][5]
        info["mc"] = (info["mc"][0] + 0.5, info["mc"][1])


@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_output_fails_its_run(workload, tmp_path):
    wl = WORKLOADS[workload](3, True, tmp_path)
    _, passes, _ = run._measure(wl, tmp_path, seconds=0.0, trace=False)
    assert run._failures(wl, passes) == {}
    _corrupt(workload, passes)
    failed = run._failures(wl, passes)
    assert len(failed) / (len(wl.planned()) * len(passes)) > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
