"""Every binding the benchmark's recorder patches exists in advlab.

``perfbench/recorder.py`` wraps functions where a module binds them, with
``mock.patch.object``; a binding that was renamed or removed crashes the
benchmark run, so it is checked here against the recorder's own tables.
The recorder's info extractors read the tapped calls' arguments and return
values, so each one is also fed a real call.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from advlab.data import MixtureSpec, generate, mu_from_scaling
from advlab.network import PgdConfig, init_network
from advlab.norms import PerturbationModel
from advlab.training import TrainConfig

RECORDER = Path(__file__).resolve().parent.parent / "perfbench" / "recorder.py"


def _recorder():
    spec = importlib.util.spec_from_file_location("perfbench_recorder", RECORDER)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder


def test_recorder_taps_exist():
    recorder = _recorder()
    missing = [
        (module, attr)
        for module, attr, *_ in recorder.MARGIN_TAPS + recorder.TRACED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_recorder_info_reads_real_return_values():
    recorder = _recorder()
    spec = MixtureSpec(d=6, mu=mu_from_scaling(6, 0.5), eta=0.0, seed=2)
    ds = generate(spec, 12)
    model = PerturbationModel(2.0, 0.05)
    pgd = PgdConfig(model=model, steps=2)
    # attribute -> (positional arguments, the info its extractor must give)
    calls = {
        "train": ((ds, TrainConfig(model=model, alpha=1e-3, T=5)), {"iters": 5, "n": 12, "d": 6}),
        "standard_margin": ((ds, model.q), None),
        "adversarial_margin": ((ds, model), None),
        "adv_train_nn": ((ds, init_network(d=6, h=3, seed=0), pgd, 3), {"epochs": 3}),
        "monte_carlo_risk": ((np.ones(6), spec, model, 50), {"samples": 50, "d": 6}),
    }
    checked = set()
    for module, attr, _, info in recorder.MARGIN_TAPS + recorder.TRACED:
        if info is None:
            continue
        args, want = calls[attr]
        out = getattr(importlib.import_module(module), attr)(*args)
        got = info(args, {}, out)
        if want is None:  # a margin solve: its iterations, certificate gap and value
            assert set(got) == {"iters", "gap", "value"}
            assert got["iters"] >= 1 and got["gap"] >= 0.0 and got["value"] > 0.0
        else:
            assert got == want, (module, attr)
        checked.add(attr)
    assert checked == set(calls)
