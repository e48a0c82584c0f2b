"""Tracer arithmetic on synthetic spans, and wrapper installation."""

import importlib
import inspect
import sys

import pytest

import tracer
import worker
from tracer import Tracer, aggregate


def installed_wrappers() -> list[str]:
    """Every binding in the loaded wittpoint modules, and on Mat, that is a
    tracer wrapper."""
    found = []
    for module in tracer._package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{module.__name__}.{attr}")
        mat = vars(module).get("Mat")
        if isinstance(mat, type):
            found += [f"{module.__name__}.Mat.{attr}" for attr, value in vars(mat).items()
                      if hasattr(value, "__perfbench_original__")]
    return found


def span(name, start, end, parent, note=0):
    return [name, start, end, parent, 0, note]


def test_self_time_subtracts_child_spans():
    spans = [
        span("witt.equivalent", 0.0, 10.0, -1),          # 0
        span("forms.diagonalize", 1.0, 4.0, 0),          # 1
        span("core.factor", 2.0, 3.0, 1),                # 2
        span("forms.diagonalize", 5.0, 6.0, 0, tracer.REPEAT),  # 3
        span("core.factor", 7.0, 9.0, 0, tracer.RAISED),  # 4
        span("core.factor", 7.5, 8.0, 4, tracer.REPEAT),  # 5: recursion into the same name
    ]
    m = aggregate(spans)
    assert m["witt.equivalent.calls"] == 1
    assert m["witt.equivalent.total_s"] == 10.0
    assert m["witt.equivalent.self_s"] == 10.0 - 3.0 - 1.0 - 2.0
    assert m["forms.diagonalize.calls"] == 2
    assert m["forms.diagonalize.total_s"] == 4.0
    assert m["forms.diagonalize.self_s"] == (3.0 - 1.0) + 1.0
    # the nested factor span is counted as a call but not again in total_s
    assert m["core.factor.calls"] == 3
    assert m["core.factor.total_s"] == 1.0 + 2.0
    assert m["core.factor.self_s"] == 1.0 + 1.5 + 0.5
    assert m["core.factor.repeat_ratio"] == 1 / 3
    assert m["core.factor.fail_count"] == 1
    assert m["forms.diagonalize.distinct_ratio"] == 1 / 2
    assert m["witt.equivalent.diagonalize_per_call"] == 2.0
    assert m["linalg.Mat.rref.calls"] == 0


def test_covered_time_is_a_union_clipped_to_the_parent():
    assert tracer._covered(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)]) == 4.0 + 1.0
    assert tracer._covered(0.0, 1.0, []) == 0.0


def test_merge_shifts_parents():
    a = [span("cli.main", 0.0, 1.0, -1), span("jsonio.parse", 0.1, 0.2, 0)]
    b = [span("cli.main", 2.0, 3.0, -1), span("jsonio.parse", 2.1, 2.2, 0)]
    merged = tracer.merge([a, b])
    assert [s[tracer.PARENT] for s in merged] == [-1, 0, -1, 2]
    assert aggregate(merged)["cli.main.self_s"] == pytest.approx(1.8)


def _package_functions():
    """Every function bound in a loaded wittpoint module, with where it lives."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "wittpoint" or name.startswith("wittpoint.")):
            continue
        for attr, value in vars(module).items():
            if inspect.isfunction(value):
                found.append((name, attr, value))
    return found


def _is_original(value):
    home = sys.modules[value.__module__]
    owner = getattr(home, value.__qualname__.split(".")[0])
    for part in value.__qualname__.split(".")[1:]:
        owner = vars(owner)[part]
    return owner is value and not hasattr(value, "__perfbench_original__")


@pytest.mark.parametrize("traced", [False, True])
def test_untraced_worker_installs_no_wrapper(traced, monkeypatch, capsys):
    """While an untraced worker runs items, every wittpoint function is the
    original object; the traced worker is the control."""
    import workloads

    w = workloads.WORKLOADS["oracle_heights"]
    seen = []

    def checking_run(item):
        importlib.import_module("wittpoint.cli")
        functions = _package_functions()
        seen.append((installed_wrappers(), len(functions),
                     all(_is_original(fn) for _, _, fn in functions)))
        return w.run(item)

    monkeypatch.setitem(workloads.WORKLOADS, "oracle_heights", w._replace(run=checking_run))
    argv = ["oracle_heights", "3", "pass", "0", "--smoke"] + (["--trace"] if traced else [])
    assert worker.main(argv) == 0
    assert capsys.readouterr().out.startswith("ready")
    assert len(seen) == w.smoke_items
    if traced:
        assert all(wrapped and not originals for wrapped, _, originals in seen)
    else:
        assert all(wrapped == [] and count > 100 and originals for wrapped, count, originals in seen)
    assert installed_wrappers() == []


def test_install_wraps_every_binding_and_uninstall_restores():
    import wittpoint.cli
    import wittpoint.witt
    from wittpoint.linalg import Mat

    original_class_of = wittpoint.witt.witt_class_of
    original_mul = Mat.__dict__["__mul__"]
    t = Tracer()
    t.install()
    try:
        wrapped = set(installed_wrappers())
        # the cli module's own binding is replaced too
        assert {"wittpoint.witt.witt_class_of", "wittpoint.cli.witt_class_of",
                "wittpoint.linalg.Mat.__mul__", "wittpoint.jsonio.form_from_json"} <= wrapped
        assert wittpoint.cli.witt_class_of is wittpoint.witt.witt_class_of
        from wittpoint.forms import BilinearForm

        wittpoint.cli.witt_class_of(BilinearForm.from_diagonal([2, -3]))
        names = {s[tracer.NAME] for s in t.spans}
        assert {"witt.witt_class_of", "forms.diagonalize", "core.square_class"} <= names
    finally:
        t.uninstall()
    assert installed_wrappers() == []
    assert wittpoint.witt.witt_class_of is original_class_of
    assert wittpoint.cli.witt_class_of is original_class_of
    assert Mat.__dict__["__mul__"] is original_mul
