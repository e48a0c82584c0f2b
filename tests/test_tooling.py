"""The traced benchmark run wraps package functions by name; every name it
wraps must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_in_the_package():
    tracer = load_tracer()
    for name, mod, attr in tracer.TARGETS:
        module = importlib.import_module(f"wittpoint.{mod}")
        if attr.startswith("Mat."):
            assert callable(module.Mat.__dict__.get(attr.split(".", 1)[1])), name
        else:
            assert callable(getattr(module, attr, None)), name
    for name, mod, suffix in tracer.GROUPS:
        module = importlib.import_module(f"wittpoint.{mod}")
        assert any(attr.endswith(suffix) and callable(value)
                   for attr, value in vars(module).items()), name
    for mod in tracer.MODULES:
        importlib.import_module(f"wittpoint.{mod}")
