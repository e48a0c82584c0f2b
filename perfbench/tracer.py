"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each wittpoint layer from outside
the package.  Modules import each other's functions by name, so a wrapper
replaces every binding of the original function object in every loaded
``wittpoint.*`` module namespace; ``Mat`` methods are patched on the class.
Each call records a span ``[name, start, end, parent, item, note]`` in
memory; ``aggregate`` turns a span list into per-layer metrics.

Nothing here is imported by an untraced run, and ``install`` is the only
code that touches the package.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Indices into a span list.
NAME, START, END, PARENT, ITEM, NOTE = range(6)

# note bits
RAISED = 1
REPEAT = 2  # the keyed argument was already seen in this process
TRUTHY = 4  # the call returned a true value

MODULES = ("core", "linalg", "forms", "witt", "cobordism", "hodge", "jsonio", "cli", "selfcheck")

# (span name, module, attribute); "Mat.x" patches a method on the class.
TARGETS = [
    ("core.factor", "core", "factor"),
    ("core.square_class", "core", "square_class"),
    ("core.hilbert_symbol", "core", "hilbert_symbol"),
    ("core.is_prime", "core", "is_prime"),
    ("core.sturm_positive_real_roots", "core", "sturm_positive_real_roots"),
    ("linalg.Mat.__mul__", "linalg", "Mat.__mul__"),
    ("linalg.Mat.rref", "linalg", "Mat.rref"),
    ("linalg.Mat.solve", "linalg", "Mat.solve"),
    ("linalg.Mat.nullspace", "linalg", "Mat.nullspace"),
    ("linalg.Mat.inv", "linalg", "Mat.inv"),
    ("linalg.Mat.det", "linalg", "Mat.det"),
    ("linalg.Mat.charpoly", "linalg", "Mat.charpoly"),
    ("forms.diagonalize", "forms", "diagonalize"),
    ("forms.invariants", "forms", "invariants"),
    ("forms.radical_split", "forms", "radical_split"),
    ("forms.symplectic_reduce", "forms", "symplectic_reduce"),
    ("forms.metabolic_reduce", "forms", "metabolic_reduce"),
    ("witt.witt_class_of", "witt", "witt_class_of"),
    ("witt.psi", "witt", "psi"),
    ("witt.equivalent", "witt", "equivalent"),
    ("witt.classes_equal_hasse_route", "witt", "classes_equal_hasse_route"),
    ("cobordism.validate", "cobordism", "validate"),
    ("cobordism.h0_form", "cobordism", "h0_form"),
    ("cobordism.cobordism_class", "cobordism", "cobordism_class"),
    ("cobordism.verify_witness", "cobordism", "verify_witness"),
    ("cobordism.random_witness_chain", "cobordism", "random_witness_chain"),
    ("cobordism.form_height_ok", "cobordism", "form_height_ok"),
    ("hodge.is_polarization", "hodge", "is_polarization"),
    ("hodge.weil_operator", "hodge", "weil_operator"),
    ("hodge.compare_polarizations", "hodge", "compare_polarizations"),
    ("hodge.random_polarization_pair", "hodge", "random_polarization_pair"),
    ("cli.main", "cli", "main"),
    ("selfcheck.run_all", "selfcheck", "run_all"),
]
# Every jsonio reader and writer is summed under one name each.
GROUPS = [("jsonio.parse", "jsonio", "_from_json"), ("jsonio.format", "jsonio", "_to_json")]

SPAN_NAMES = [name for name, _, _ in TARGETS] + [name for name, _, _ in GROUPS]


def _gram_key(args):
    gram = args[0].gram
    return args[0].field, args[0].symmetry, tuple(tuple(r) for r in gram.rows)


def _factor_key(args):
    return abs(args[0]), args[1] if len(args) > 1 else None


# Arguments whose repeats are counted, and calls whose truth is recorded.
KEYS = {"core.factor": _factor_key, "forms.diagonalize": _gram_key}
OUTCOMES = {"cobordism.form_height_ok"}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "wittpoint" or name.startswith("wittpoint."))]


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = -1  # -1 marks set-up work
        self._stack: list[int] = []
        self._seen: dict[str, set] = {name: set() for name in KEYS}
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        key = KEYS.get(name)
        seen = self._seen.get(name)
        truth = name in OUTCOMES
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            note = 0
            if key is not None:
                k = key(args)
                if k in seen:
                    note = REPEAT
                else:
                    seen.add(k)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, note]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                span[NOTE] |= RAISED
                stack.pop()
                raise
            span[END] = clock()
            stack.pop()
            if truth and result:
                span[NOTE] |= TRUTHY
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> float:
        """Import every traced module, wrap the targets, and return the time
        the first ``import wittpoint.cli`` took (0.0 if it was already loaded)."""
        t0 = time.perf_counter()
        already = "wittpoint.cli" in sys.modules
        importlib.import_module("wittpoint.cli")
        import_s = 0.0 if already else time.perf_counter() - t0
        mods = {m: importlib.import_module(f"wittpoint.{m}") for m in MODULES}
        replacements = {}  # id(original) -> wrapper
        for name, mod, attr in TARGETS:
            if attr.startswith("Mat."):
                cls = mods[mod].Mat
                meth = attr.split(".", 1)[1]
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
            else:
                original = getattr(mods[mod], attr)
                replacements[id(original)] = (original, self._wrap(name, original))
        for name, mod, suffix in GROUPS:
            for attr, value in list(vars(mods[mod]).items()):
                if attr.endswith(suffix) and callable(value):
                    replacements[id(value)] = (value, self._wrap(name, value))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return import_s

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _covered(start, end, children) -> float:
    """Length of the union of child intervals, clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(children):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from spans whose parents precede them in the list.

    ``calls`` counts every span; ``total_s`` sums spans that have no
    ancestor of the same name, so recursion is not counted twice;
    ``self_s`` is each span's duration minus the part of it that its
    child spans cover.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    # ancestor name sets, shared between siblings
    ancestors: list[frozenset] = []
    memo: dict[tuple, frozenset] = {}
    for span in spans:
        p = span[PARENT]
        if p < 0:
            ancestors.append(frozenset())
            continue
        key = (id(ancestors[p]), spans[p][NAME])
        anc = memo.get(key)
        if anc is None:
            anc = memo[key] = ancestors[p] | {spans[p][NAME]}
        ancestors.append(anc)

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    counts = {"factor_repeat": 0, "factor_raised": 0, "diag_repeat": 0,
              "diag_under_equivalent": 0, "height_ok": 0, "pol_under_compare": 0}
    for i, span in enumerate(spans):
        name = span[NAME]
        dur = span[END] - span[START]
        out[f"{name}.calls"] += 1
        if name not in ancestors[i]:
            out[f"{name}.total_s"] += dur
        out[f"{name}.self_s"] += dur - _covered(span[START], span[END], children.get(i, ()))
        note = span[NOTE]
        if name == "core.factor":
            counts["factor_repeat"] += bool(note & REPEAT)
            counts["factor_raised"] += bool(note & RAISED)
        elif name == "forms.diagonalize":
            counts["diag_repeat"] += bool(note & REPEAT)
            counts["diag_under_equivalent"] += "witt.equivalent" in ancestors[i]
        elif name == "cobordism.form_height_ok":
            counts["height_ok"] += bool(note & TRUTHY)
        elif name == "hodge.is_polarization":
            counts["pol_under_compare"] += "hodge.compare_polarizations" in ancestors[i]

    def ratio(num, den):
        return num / den if den else 0.0

    factor_calls = out["core.factor.calls"]
    diag_calls = out["forms.diagonalize.calls"]
    out["core.factor.repeat_ratio"] = ratio(counts["factor_repeat"], factor_calls)
    out["core.factor.fail_count"] = counts["factor_raised"]
    out["forms.diagonalize.distinct_ratio"] = ratio(diag_calls - counts["diag_repeat"], diag_calls)
    out["witt.equivalent.diagonalize_per_call"] = ratio(
        counts["diag_under_equivalent"], out["witt.equivalent.calls"])
    out["cobordism.form_height_ok.accept_ratio"] = ratio(
        counts["height_ok"], out["cobordism.form_height_ok.calls"])
    out["hodge.is_polarization.per_compare"] = ratio(
        counts["pol_under_compare"], out["hodge.compare_polarizations.calls"])
    return out


def merge(span_lists: list[list[list]]) -> list[list]:
    """Concatenate span lists from separate processes, shifting parent indices."""
    merged: list[list] = []
    for spans in span_lists:
        base = len(merged)
        for span in spans:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += base
            merged.append(span)
    return merged
