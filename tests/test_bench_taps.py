"""Every binding the benchmark's recorder patches exists in advlab.

``perfbench/recorder.py`` wraps functions where a module binds them, with
``mock.patch.object``; a binding that was renamed or removed crashes the
benchmark run, so it is checked here against the recorder's own tables.
"""

import importlib
import importlib.util
from pathlib import Path

RECORDER = Path(__file__).resolve().parent.parent / "perfbench" / "recorder.py"


def test_recorder_taps_exist():
    spec = importlib.util.spec_from_file_location("perfbench_recorder", RECORDER)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    missing = [
        (module, attr)
        for module, attr, *_ in recorder.MARGIN_TAPS + recorder.TRACED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
