"""The benchmark's tracer wraps library functions by name; every name it
lists must still resolve, or a traced run would fail at install time."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    missing = []
    for metric, module, attr in _span_targets():
        obj = importlib.import_module(f"k3mirror.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(metric)
    assert not missing
