"""Guards on the package source.

The traced benchmark run wraps package functions by name; every name it
wraps must still exist, or ``perfbench/run.py --trace 1`` breaks.  A
certificate check must run under ``python -O``, so the package holds no
``assert`` statement.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "wittpoint"


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


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(PACKAGE.glob("*.py")), PACKAGE
    assert not found, f"bare asserts vanish under python -O; raise CertificateError: {found}"
