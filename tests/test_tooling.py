"""Guards on the package source.

The traced benchmark run wraps package functions by name; every name it
wraps must still exist, or ``perfbench/run.py --trace 1`` breaks.  No
benchmark item pickles with a diagonalization that ``diagonalize`` keeps
in a form, so set-up does no work that the timed passes then skip.  The
first witness chains of two seeds hash to pinned digests, so the chain
generators' stream stays the same, and so do the comparisons of the first
polarization pairs of one seed, whose outputs hash to a pinned digest and
whose signatures are read with no diagonalization.  A certificate check
must run under ``python -O``, so the package holds no ``assert`` statement.
A ``Mat`` stores one form, its integer form, made at construction and
shared between matrices; the row lists it is built from are kept only as its
``rows`` view, which no kernel reads.  A write to ``rows`` would change no result, so
neither the package nor its tests write rows or the form, and inside ``Mat``
only the ``rows`` property reads them.
No package module but ``linalg`` names a ``Mat``'s private slots; the others
read matrices through its methods, such as ``integer_columns``.
The package loads its submodules lazily, but re-exports the same names.
It keeps no process-wide state: no ``global`` statement and no memo cache.
Degree-0 subquotient witnesses are built by one function, so their block
conventions live in one place.  The matrix kernel works over Q only: the
Hodge layer hands it rational matrices, and a Q(i) matrix is refused.  The
package has no Q(i) scalar at all; the one the tests build Q(i) matrices
from lives in ``test_kernel``.  No module imports ``dataclasses``: importing it
and creating each dataclass were a large share of a CLI process's start-up,
so the record classes build on ``core.Record`` instead.  Only ``jsonio``, the
input edge, builds a matrix with ``Mat.from_columns``; computations build
matrices from rows or from integer forms and read columns as ``.T.rows``.
No function in ``cobordism`` is longer than 60 lines, so each witness
condition stays a function of its own.  Every module-level function and
class of the package is named elsewhere in it or in the benchmark, so no
code stays that nothing calls.  No parameter has a boolean default: a new
one must be listed in ``OPTIONS`` with the callers that need each value, so
a new knob comes with its reason.  Outside ``forms``, only ``cobordism``'s
height check binds ``diagonalize``: every other module reads a form's
diagonal entries through ``forms.pivots``.  The README's CLI block lists the commands
the parser registers, in its order, so the command table and the docs
cannot drift apart; its package layout block lists every module of the
package (but ``__init__``) and its ``data/`` folder.
"""

import argparse
import ast
import copyreg
import hashlib
import importlib
import importlib.util
import io
import pickle
import re
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path
from random import Random

import pytest

import wittpoint
from wittpoint import forms, linalg, poly
from wittpoint.cli import build_parser
from wittpoint.forms import BilinearForm, Pivots
from wittpoint.hodge import compare_polarizations, is_polarization, random_polarization_pair
from wittpoint.linalg import Mat
from test_kernel import GaussianRational

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS_FILE = ROOT / "perfbench" / "workloads.py"
PACKAGE = ROOT / "src" / "wittpoint"
TESTS = ROOT / "tests"


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


def load_workloads(monkeypatch):
    """The benchmark's workloads module, run from its file as it is; it is
    listed in ``sys.modules`` for the test, as dataclasses and pickle look
    its ``Item`` class up there."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


MEMOS = (b"_diagonalization", b"_pivots", b"_classes")  # the keys diagonalize and pivots keep beside the fields


class WholeDictPickler(pickle.Pickler):
    """Pickles each form and each pivots record, a diagonalization too, with
    its whole ``__dict__``."""

    def reducer_override(self, obj):
        if isinstance(obj, (BilinearForm, Pivots)):
            return copyreg.__newobj__, (type(obj),), dict(vars(obj))
        return NotImplemented


def memos_pickled(item, pickler=pickle.Pickler) -> list[bytes]:
    out = io.BytesIO()
    pickler(out, pickle.HIGHEST_PROTOCOL).dump(item)
    return [key for key in MEMOS if key in out.getvalue()]


def test_no_pickled_benchmark_item_holds_a_memo(monkeypatch, tmp_path):
    # a timed run loads pickled items, so a memo made in set-up would be work
    # the timed passes skip; cli_oneshot items are command lines.  Running an
    # item keeps memos in it, and its pickle still holds none.
    workloads = load_workloads(monkeypatch)
    held = set()
    for name in ("witness_chains", "polarization_pairs", "oracle_heights"):
        workload = workloads.WORKLOADS[name]
        for item in islice(workload.stream(1, tmp_path), 4):
            assert memos_pickled(item) == [], name
            assert workload.run(item) is None, name
            held.update(memos_pickled(item, WholeDictPickler))
            assert memos_pickled(item) == [], name
    assert held == set(MEMOS)


# SHA-256 of the reprs of the first 60 witness_chains items of part 0, one a line
CHAIN_STREAM_DIGESTS = {
    20260810: "8b248152279dc83a0e7efbcf905134cd9a5102c9ad54bdd51a30b0ca68e69df5",
    1: "492165fd5777b641c650fb80e475b3b7187d203c52262b7165696cbb89199fcf",
}


# runs of _diagonalized in making those items, and in running pickled copies
# of them, as the timed passes do; the runs read 180 and 180 when every Witt
# class took a diagonalization, 65 and 70 when the pivots of a diagonal Gram
# matrix took one, and 36 and 43 when a zero leading minor did
CHAIN_STREAM_DIAGONALIZATIONS = {20260810: (237, 0), 1: (255, 0)}


def test_chain_stream_repeats_its_digest(monkeypatch, tmp_path):
    # the generators' stream, hashed by value: repr reads the fields alone, so
    # what a form or a matrix keeps beside them does not enter.  Set-up's
    # height check diagonalizes; a Witt class takes the pivots of one pivoted
    # LDL^T pass, or the no-loop diagonalization of a diagonal Gram matrix,
    # so the timed passes diagonalize nothing
    workloads = load_workloads(monkeypatch)
    runs = []
    diagonalized = forms._diagonalized
    monkeypatch.setattr(forms, "_diagonalized", lambda f: runs.append(f) or diagonalized(f))
    for seed, digest in CHAIN_STREAM_DIGESTS.items():
        runs.clear()
        items = list(islice(workloads.WORKLOADS["witness_chains"].stream(seed, tmp_path), 60))
        assert hashlib.sha256("\n".join(map(repr, items)).encode()).hexdigest() == digest, seed
        made = len(runs)
        runs.clear()
        for item in items:
            assert workloads.WORKLOADS["witness_chains"].run(pickle.loads(pickle.dumps(item))) is None
        assert (made, len(runs)) == CHAIN_STREAM_DIAGONALIZATIONS[seed], seed


# SHA-256 of the comparisons of the first 56 seed-41 polarization_pairs items, one a line
COMPARISON_DIGEST = "9f422c9b81b3101d8eeb7f79a32a5e94320bbce4a628123621b8ec7c59296f0b"


def comparison_line(pair) -> str:
    """What a comparison certifies, by value: everything but phi and the pairings."""
    sturm = pair.sturm
    return repr((pair.char_poly, [getattr(sturm, f) for f in sturm._fields], sturm.squarefree_part,
                 pair.semisimple, pair.identity_chain_ok, pair.preserves_bigrading,
                 pair.signature_s, pair.signature_s_prime, pair.eigenspaces))


def test_comparison_outputs_repeat_their_digest(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    items = list(islice(workloads.WORKLOADS["polarization_pairs"].stream(41, tmp_path), 56))
    # no pairing here has a zero leading minor, so Jacobi's rule reads every
    # signature and no form's pivots are taken
    runs = []
    diagonalized, ldl_pivots = forms._diagonalized, Mat.ldl_pivots
    monkeypatch.setattr(forms, "_diagonalized", lambda f: runs.append(f) or diagonalized(f))
    monkeypatch.setattr(Mat, "ldl_pivots", lambda a: runs.append(a) or ldl_pivots(a))
    lines = [comparison_line(compare_polarizations(*item.data)) for item in items]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == COMPARISON_DIGEST
    assert runs == []


def readme_commands(text: str) -> list[str]:
    """The commands of the first code block under ``## CLI``, one a line."""
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = block.splitlines()
    assert all(line.startswith("wittpoint ") for line in lines), lines
    return [line.split()[1] for line in lines]


def test_readme_lists_the_commands_the_parser_registers():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert readme_commands((ROOT / "README.md").read_text()) == list(sub.choices)


def test_readme_command_reader_reads_the_cli_block_only():
    text = ("# x\n```\nwittpoint early a.json\n```\n## CLI\n\nprose `wittpoint other`\n\n"
            "```\nwittpoint b-c x.json   # note\nwittpoint d --k 0 y.json\n```\n\n"
            "```\nwittpoint later\n```\n")
    assert readme_commands(text) == ["b-c", "d"]


def readme_modules(text: str) -> list[str]:
    """The entries of the code block under ``## Package layout``: the first
    word of each line indented by two spaces under ``src/wittpoint/``."""
    block = text.split("\n## Package layout\n", 1)[1].split("```\n", 2)[1]
    lines = block.splitlines()
    assert lines[0] == "src/wittpoint/", lines[0]
    return [line.split()[0] for line in lines[1:] if line.startswith("  ") and not line.startswith("   ")]


def test_readme_lists_the_modules_of_the_package():
    listed = readme_modules((ROOT / "README.md").read_text())
    modules = [p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    folders = [f"{p.name}/" for p in PACKAGE.iterdir() if p.is_dir() and p.name != "__pycache__"]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(modules + folders)


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(PACKAGE.glob("*.py")), PACKAGE
    assert not found, f"bare asserts vanish under python -O; raise CertificateError: {found}"


def long_functions(tree, limit: int) -> list[str]:
    """The functions longer than limit lines, methods and nested ones too, as name:lines."""
    return [f"{node.name}:{node.end_lineno - node.lineno + 1}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.end_lineno - node.lineno + 1 > limit]


def test_no_cobordism_function_is_over_sixty_lines():
    path = PACKAGE / "cobordism.py"
    found = long_functions(ast.parse(path.read_text(), filename=str(path)), 60)
    assert not found, f"give each witness condition a function of its own: {found}"


def test_long_function_guard_sees_every_spelling():
    source = """def a():
    x = 1
    return x
class C:
    def b(self):

        return 1
    async def c(self):
        def d():
            pass
        return d
"""
    assert sorted(long_functions(ast.parse(source), 2)) == ["a:3", "b:3", "c:4"]


ROW_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
# the rows view (``rows`` reads ``_rows``), the integer rows and the integer columns
MATRIX_SLOTS = {"rows", "_rows", "_ints", "_cols"}


def reaches_rows(node) -> bool:
    """Whether ``node`` is a matrix slot, ``x.rows`` or ``x._ints``, or a
    subscript of one, ``x.rows[i][j]``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in MATRIX_SLOTS


def row_writes(tree) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ROW_MUTATORS and reaches_rows(node.func.value)):
            lines.append(node.lineno)
            continue
        else:
            continue
        if any(isinstance(t, ast.Subscript) and reaches_rows(t)
               for target in targets for t in ast.walk(target)):
            lines.append(node.lineno)
    return lines


def test_package_never_writes_matrix_rows():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in paths
             for line in row_writes(ast.parse(path.read_text(), filename=str(path)))]
    assert len(paths) > len(list(PACKAGE.glob("*.py"))), TESTS
    assert not found, f"build row lists and wrap them once instead of writing a Mat's rows: {found}"


def test_row_write_guard_sees_every_kind_of_write():
    writes = """
m.rows[0][1] = x
m.rows[0] = r
m.rows[i][j] += 1
a, m.rows[1][1] = 1, 2
del m.rows[0]
m.rows.append(r)
m.rows[0].sort()
m._rows[0][1] = x
m._ints[0] = (1, r)
m._ints[0][1][2] += 1
m._ints[0][1].append(0)
m._cols[1][0] = c
del m._cols[1]
"""
    reads = """
rows[0][1] = x
y = m.rows[0][1]
out.append(m.rows[0])
r = list(m.rows[0]); r.append(1)
self.rows = rows
self._ints = [(1, r)]
a.m, a._rows, a._ints, a._cols = m, None, ints, None
nums = [list(r) for _, r in m._ints]; nums[0][0] = 1
"""
    assert sorted(row_writes(ast.parse(writes))) == list(range(2, 15))
    assert row_writes(ast.parse(reads)) == []


def second_form_uses(tree) -> list[str]:
    """Where class ``Mat`` reads ``_rows`` outside its ``rows`` property, sets
    it outside ``__init__`` and ``rows``, or names ``_integers``, one entry per
    place."""
    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "Mat"):
            continue
        for member in cls.body:
            owner = getattr(member, "name", "<class>")
            for node in ast.walk(member):
                name = getattr(node, "attr", getattr(node, "name", None))
                if name == "_integers":
                    found.append(f"{owner} _integers:{node.lineno}")
                elif (name == "_rows" and isinstance(node, ast.Attribute) and owner != "rows"
                      and (isinstance(node.ctx, ast.Load) or owner != "__init__")):
                    found.append(f"{owner} _rows:{node.lineno}")
    return found


def test_mat_holds_one_form():
    tree = ast.parse((PACKAGE / "linalg.py").read_text())
    assert any(isinstance(node, ast.ClassDef) and node.name == "Mat" for node in ast.walk(tree))
    assert second_form_uses(tree) == [], "kernels read the integer form; only ``rows`` reads the rows view"


def test_one_form_guard_sees_every_spelling():
    source = """
class Mat:
    def __init__(self, rows):
        self.m, self._rows = 1, rows
        self.n = len(self._rows)
    @property
    def rows(self):
        if self._rows is None:
            self._rows = []
        return self._rows
    def _integers(self):
        return self._ints
    def __eq__(self, other):
        return self._rows == other.rows and other._integers() == self._ints
    def neg(self):
        self._rows = None
class Other:
    def f(self):
        return self._rows, self._integers()
"""
    assert second_form_uses(ast.parse(source)) == [
        "__init__ _rows:5", "_integers _integers:11", "__eq__ _rows:14", "__eq__ _integers:14",
        "neg _rows:16"]


PRIVATE_MATRIX_SLOTS = {"_ints", "_rows", "_cols"}


def private_slot_uses(tree) -> list[str]:
    """The places a module names a private ``Mat`` slot: as an attribute, a
    name or an imported name, or looked up by ``getattr``, ``setattr`` or
    ``hasattr``; one entry per place."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("getattr", "setattr", "hasattr")
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            name = node.args[1].value
        else:
            continue
        if name in PRIVATE_MATRIX_SLOTS:
            found.append(f"{name}:{node.lineno}")
    return found


def test_only_linalg_names_the_private_matrix_slots():
    found = {path.name: private_slot_uses(ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("linalg.py")  # the guard sees the slots where they are used
    found = {name: places for name, places in found.items() if places}
    assert found == {}, f"read matrices through Mat methods, such as integer_columns: {found}"


def test_private_slot_guard_sees_every_spelling():
    source = """
d, r = m._ints[0]
m._rows = None
cols = a.b._cols[1]
x = getattr(m, "_ints")
from .linalg import _cols
_rows = 1
setattr(m, "_rows", None)
y = m.rows, m.integer_columns(), m.ints, m._ints_of, "_ints"
"""
    assert sorted(private_slot_uses(ast.parse(source))) == [
        "_cols:4", "_cols:6", "_ints:2", "_ints:5", "_rows:3", "_rows:7", "_rows:8"]


def subquotient_witness_builders(tree) -> list[str]:
    """The functions that call ``CobordismWitness(...)`` with kind
    ``"direct_subquotient"``, by keyword or as the first argument, one entry per call."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", getattr(child.func, "attr", None)) == "CobordismWitness"):
                kinds = [k.value for k in child.keywords if k.arg == "kind"] + child.args[:1]
                if any(isinstance(k, ast.Constant) and k.value == "direct_subquotient" for k in kinds):
                    found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_degree0_witnesses_are_built_in_one_place():
    found = {path.name: subquotient_witness_builders(ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: owners for name, owners in found.items() if owners}
    assert found == {"cobordism.py": ["_degree0_witness"]}, (
        f"build degree-0 subquotient witnesses with cobordism._degree0_witness: {found}")


def test_degree0_witness_guard_sees_every_spelling():
    source = """
def a():
    return CobordismWitness(kind="direct_subquotient", f=f)
def b():
    def inner():
        return cobordism.CobordismWitness("direct_subquotient", f)
    return inner
w = CobordismWitness(kind="direct", f=f)
"""
    assert subquotient_witness_builders(ast.parse(source)) == ["a", "inner"]


QI_SCALAR = re.compile(r"GaussianRational|QI_\w+|i_power|_promote")


def qi_scalar_names(tree) -> list[str]:
    """The Q(i) scalar names a module defines, imports or reads, one entry per place."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.alias):
            names = [node.name.rsplit(".", 1)[-1]]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [name for name in names if QI_SCALAR.fullmatch(name)]
    return found


def test_package_has_no_qi_scalar():
    found = {path.name: qi_scalar_names(ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: names for name, names in found.items() if names}
    assert found == {}, f"keep Q(i) data as (Re, Im) pairs of rational matrices: {found}"


def test_qi_scalar_guard_sees_every_spelling():
    source = """
from .linalg import GaussianRational as G, Mat
class GaussianRational: pass
def i_power(k): return k
def _promote(x): return x
QI_ONE = 1
z = linalg.QI_I
ok = (QI, qi_one, promote, power, GaussianRationals, i_powers, G, Mat)
"""
    assert sorted(qi_scalar_names(ast.parse(source))) == [
        "GaussianRational", "GaussianRational", "QI_I", "QI_ONE", "_promote", "i_power"]


MEMO_DECORATORS = {"lru_cache", "cache"}


def process_state(tree) -> list[str]:
    """The ``global`` statements and memo decorators (``lru_cache`` or
    ``functools.cache``, called or not) of a module, one entry per place."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"global {', '.join(node.names)}:{node.lineno}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in MEMO_DECORATORS:
                    found.append(f"@{name}:{deco.lineno}")
    return found


def test_package_has_no_process_wide_state():
    found = {path.name: process_state(ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: places for name, places in found.items() if places}
    assert found == {}, f"pass state in, or compute it again, instead of keeping it per process: {found}"


def test_process_state_guard_sees_every_spelling():
    source = """
def a():
    global _bound
    _bound = 3
@lru_cache(maxsize=None)
def b(n): return n
@functools.lru_cache
def c(n): return n
@functools.cache
def d(n): return n
class E:
    @cache
    def f(self): return 1
@dataclass(frozen=True)
def g(): return cached
"""
    assert sorted(process_state(ast.parse(source))) == [
        "@cache:12", "@cache:9", "@lru_cache:5", "@lru_cache:7", "global _bound:3"]


def dataclass_imports(tree) -> list[str]:
    """The imports of ``dataclasses`` in a module, by statement or by call,
    one entry per place."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name}:{node.lineno}" for alias in node.names
                      if alias.name.partition(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").partition(".")[0] == "dataclasses":
                found.append(f"from {node.module}:{node.lineno}")
        elif (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant)
              and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("__import__", "import_module")
              and str(node.args[0].value).partition(".")[0] == "dataclasses"):
            found.append(f"call:{node.lineno}")
    return found


def test_package_never_imports_dataclasses():
    found = {path.name: dataclass_imports(ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: places for name, places in found.items() if places}
    assert found == {}, f"build record classes on core.Record, not on dataclasses: {found}"


def test_dataclass_import_guard_sees_every_spelling():
    source = """
import dataclasses
import dataclasses as dc
import json, dataclasses
from dataclasses import dataclass
from dataclasses import dataclass as record, field
def f():
    import dataclasses
m = importlib.import_module("dataclasses")
m = __import__("dataclasses")
from .dataclasses import dataclass
import mydataclasses
from records import dataclass
text = "import dataclasses"
"""
    assert sorted(dataclass_imports(ast.parse(source))) == [
        "call:10", "call:9", "from dataclasses:5", "from dataclasses:6", "import dataclasses:2",
        "import dataclasses:3", "import dataclasses:4", "import dataclasses:8"]


def from_columns_uses(tree) -> list[int]:
    """The lines of a module that name ``from_columns``, read as a name or an
    attribute, imported, or looked up with ``getattr``; defining it is no use."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            name = node.args[1].value
        else:
            continue
        if name == "from_columns":
            found.append(node.lineno)
    return found


def test_only_the_input_edge_builds_matrices_from_columns():
    found = {path.name: from_columns_uses(ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "jsonio.py"}
    found = {name: lines for name, lines in found.items() if lines}
    assert found == {}, f"build matrices from rows or integer forms; read columns as .T.rows: {found}"


def test_from_columns_guard_sees_every_spelling():
    source = """
a = Mat.from_columns(cols, m=2)
b = linalg.Mat.from_columns(cols)
build = Mat.from_columns
from .linalg import from_columns
from wittpoint.linalg import Mat, from_columns as columns
d = getattr(Mat, "from_columns")(cols)
def from_columns(cols):
    return from_columns_of(cols)
e = Mat.from_rows(rows), Mat.identity(2).T.rows, Mat.integer_columns
text = "Mat.from_columns"
"""
    assert sorted(from_columns_uses(ast.parse(source))) == [2, 3, 4, 5, 6, 7]


# The names ``wittpoint`` re-exports, by the submodule that defines them.
EXPORTS = {
    "core": ["REAL_PLACE", "CertificateError", "SquareClass", "SturmCertificate",
             "hilbert_symbol", "square_class", "sturm_positive_real_roots"],
    "forms": ["BilinearForm", "BlockMetabolicForm", "Diagonalization", "FormInvariants",
              "HYPERBOLIC_PLANE", "diagonalize", "invariants", "metabolic_reduce", "radical_split",
              "symplectic_reduce"],
    "witt": ["WittClassFp", "WittClassQ", "equivalent", "fp_class_of", "psi", "witt_class_of"],
    "cobordism": ["ChainComplex", "CobordismWitness", "SelfDualComplex", "cobordism_class",
                  "congruence_witness", "h0_form", "null_witness", "orthogonal_split",
                  "witness_common_core", "truncation_witness", "validate", "verify_witness"],
    "hodge": ["HodgePiece", "HodgeStructure", "PolarizationPair", "compare_polarizations",
              "is_polarization", "pol_class", "weil_operator"],
    "genus": ["HodgeDiamond", "PrimitivePiece", "chi_y", "epsilon", "example_drivers",
              "lefschetz_cancellation_check", "sign_dictionary_check", "specialize"],
}


def test_package_exports_the_same_names_lazily():
    names = sorted(name for group in EXPORTS.values() for name in group)
    assert len(names) == 50
    assert sorted(wittpoint.__all__) == names
    assert set(names) <= set(dir(wittpoint))
    for mod, group in EXPORTS.items():
        module = importlib.import_module(f"wittpoint.{mod}")
        for name in group:
            assert getattr(wittpoint, name) is getattr(module, name), name
            assert vars(wittpoint)[name] is getattr(module, name), name  # bound on first access
    star = {}
    exec("from wittpoint import *", star)
    assert sorted(set(star) - {"__builtins__"}) == names
    with pytest.raises(AttributeError, match="^module 'wittpoint' has no attribute 'no_such_name'$"):
        getattr(wittpoint, "no_such_name")


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
BENCHMARK = ROOT / "perfbench"


def names_read(tree) -> set:
    """(owner, name) for every name a module reads: identifiers, attributes,
    imported names and string constants, but not the entries of an
    ``_EXPORTS`` table, which lists names without using them.  The owner is
    the module-level function or class the name is read in, or None."""
    found = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "_EXPORTS" for t in stmt.targets):
            continue
        owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                found.add((owner, node.attr))
            elif isinstance(node, ast.alias):
                found.add((owner, node.name))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add((owner, node.value))
    return found


def unnamed_definitions(package: dict, others: list) -> list[str]:
    """The module-level functions and classes of ``package`` (module name ->
    source) that no other code names, there or in the ``others`` sources,
    as module.name.  A name read inside its own definition does not count,
    and dunder functions are called by the interpreter."""
    reads = {mod: names_read(ast.parse(src)) for mod, src in package.items()}
    elsewhere = {name for src in others for _, name in names_read(ast.parse(src))}
    found = []
    for mod, src in package.items():
        for node in ast.parse(src).body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("__"):
                continue
            if node.name in elsewhere or any(name == node.name and (m, owner) != (mod, node.name)
                                             for m, names in reads.items() for owner, name in names):
                continue
            found.append(f"{mod}.{node.name}")
    return found


# Public names that only ``_EXPORTS`` lists: no package code and no benchmark
# code names them, and each is kept for library callers for the reason given.
KEPT_PUBLIC = {
    "cobordism.null_witness": "turns a direct witness into one that F' + (F, -S) is null-cobordant, "
                              "the paper's reading of a cobordism as a class difference",
    "cobordism.congruence_witness": "the witness between a form and P^T G P, which the chain "
                                    "generator builds through its private twin",
    "cobordism.orthogonal_split": "splits off a nondegenerate subspace or divides out an isotropic one, "
                                  "with its subquotient witness",
    "cobordism.witness_common_core": "the degree-0 core of a verified witness with its witnesses to "
                                     "both ends, returned as a WitnessCoreResult",
    "genus.sign_dictionary_check": "the two integer identities between the sign conventions of the "
                                   "chi_y calculus",
    "witt.fp_class_of": "the class in W(F_p) of a diagonal form, the one public way to build a "
                        "residue-field class from entries",
}


def test_every_package_function_and_class_is_named_elsewhere():
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    others = [path.read_text() for path in sorted(BENCHMARK.rglob("*.py"))]
    assert "core" in package and others, (PACKAGE, BENCHMARK)
    found = set(unnamed_definitions(package, others))
    orphans = sorted(found - set(KEPT_PUBLIC))
    assert not orphans, f"nothing in the package or the benchmark calls these; remove them: {orphans}"
    named = sorted(set(KEPT_PUBLIC) - found)
    assert not named, f"code names these now; take them off KEPT_PUBLIC: {named}"
    exported = {f"{mod}.{name}" for mod, names in EXPORTS.items() for name in names}
    assert set(KEPT_PUBLIC) <= exported


def test_unnamed_definition_guard_sees_every_spelling():
    package = {
        "a": """
def called(): pass
def read_as_attribute(): pass
def imported(): pass
def exported(): pass
def benchmarked(): pass
def recursive(n):
    return recursive(n - 1)
class Unused:
    def make(self):
        return Unused()
async def unused_async(): pass
def _unused_private(): pass
def __getattr__(name): pass
""",
        "b": """
import a
from .a import imported
_EXPORTS = {"a": ("exported",)}
def main():
    called()
    return a.read_as_attribute
if __name__ == "__main__":
    main()
""",
    }
    others = ["from wittpoint.a import benchmarked"]
    # an _EXPORTS entry lists a name and does not use it
    assert sorted(unnamed_definitions(package, others)) == [
        "a.Unused", "a._unused_private", "a.exported", "a.recursive", "a.unused_async"]


def diagonalize_bindings(tree) -> list[str]:
    """The places a module binds or reads ``forms.diagonalize`` by name: an
    import of it (or of everything) from a ``forms`` module, the attribute
    ``diagonalize``, or a ``getattr`` of it, as kind:line.  Defining it is
    no binding, nor is a string in the lazy ``_EXPORTS`` table."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "forms":
            found += [f"import:{node.lineno}" for alias in node.names if alias.name in ("diagonalize", "*")]
        elif isinstance(node, ast.Attribute) and node.attr == "diagonalize":
            found.append(f"attribute:{node.lineno}")
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and any(isinstance(a, ast.Constant) and a.value == "diagonalize" for a in node.args)):
            found.append(f"getattr:{node.lineno}")
    return found


def test_only_forms_and_cobordism_bind_diagonalize():
    # outside forms, a form's diagonal entries come from forms.pivots alone;
    # cobordism's height check reads diagonalize's entries, which the chain
    # stream digests pin
    found = {path.stem: diagonalize_bindings(ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: places for name, places in found.items() if places}
    assert set(found) == {"cobordism"}, f"read a form's diagonal entries through forms.pivots: {found}"
    readers = {owner for owner, name in names_read(ast.parse((PACKAGE / "cobordism.py").read_text()))
               if name == "diagonalize"}
    assert readers == {None, "form_height_ok"}  # the import, and the one function that calls it


def test_diagonalize_binding_guard_sees_every_spelling():
    source = """
from .forms import diagonalize
from wittpoint.forms import BilinearForm, diagonalize as diag
from .forms import *
from . import forms
entries = forms.diagonalize(f).entries
pick = getattr(forms, "diagonalize")
from .forms import pivots
from .core import diagonalize
def diagonalize(f): return f
_EXPORTS = {"forms": ("diagonalize",)}
text = "diagonalize"
"""
    assert sorted(diagonalize_bindings(ast.parse(source))) == [
        "attribute:6", "getattr:7", "import:2", "import:3", "import:4"]


# Package parameters with a boolean default, as module.function.parameter
# (module.Class.method.parameter for a method), with the package functions
# that call with each value.  A flag that says what the code could work out
# from its inputs is no option: it is computed where it is needed.
# There is none: perfectness on cohomology is one determinant at every degree.
OPTIONS = {}


def boolean_options(tree) -> list[str]:
    """The parameters with a True or False default of every function,
    method and lambda in a module, as owner.parameter, with the owner's
    enclosing classes and functions before it."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                owner = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                positional = a.posonlyargs + a.args
                pairs = [*zip(positional[len(positional) - len(a.defaults):], a.defaults),
                         *zip(a.kwonlyargs, a.kw_defaults)]
                found.extend(f"{owner}.{arg.arg}" for arg, default in pairs
                             if isinstance(default, ast.Constant) and isinstance(default.value, bool))
                visit(child, owner + ".")
            else:
                visit(child, prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix)

    visit(tree, "")
    return found


def test_every_boolean_option_is_listed_with_its_callers():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    found = {f"{mod}.{name}" for mod, tree in trees.items() for name in boolean_options(tree)}
    assert found == set(OPTIONS), (f"list these options with the callers that need each value: "
                                   f"{sorted(found - set(OPTIONS))}; take these off: {sorted(set(OPTIONS) - found)}")
    defined = {f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
               if isinstance(node, DEFINITIONS)}
    for option, callers in OPTIONS.items():
        assert set(callers) == {True, False} and all(callers.values()), option
        assert {c for names in callers.values() for c in names} <= defined, option


def test_boolean_option_guard_sees_every_spelling():
    source = """
def positional(a, flag=False, n=0, name="x", none=None): pass
def keyword_only(a, *, flag: bool = True, count=1): pass
def positional_only(flag=False, /): pass
async def awaited(flag=True): pass
class Owner:
    def method(self, flag=False): pass
    class Inner:
        def method(self, *, strict=True): pass
def outer():
    def inner(flag=False): pass
    return lambda x, flag=True: x
pick = sorted([], key=lambda x, reverse=False: x)
"""
    assert boolean_options(ast.parse(source)) == [
        "positional.flag", "keyword_only.flag", "positional_only.flag", "awaited.flag",
        "Owner.method.flag", "Owner.Inner.method.strict", "outer.inner.flag", "outer.<lambda>.flag",
        "<lambda>.reverse"]


# the (weight, dimension) shapes of acceptance criterion 4
CRITERION_4_SHAPES = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
                      (1, 2), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4)]


def test_no_qi_entry_reaches_the_matrix_kernel(monkeypatch):
    seen = set()
    integer_row = linalg._integer_row

    def spy(r):
        seen.update(map(type, r))
        return integer_row(r)

    for module in (linalg, poly):
        monkeypatch.setattr(module, "_integer_row", spy)
    rng = Random(41)
    for weight, dim in CRITERION_4_SHAPES:
        h, s, s_prime = random_polarization_pair(rng, weight, dim)
        assert is_polarization(h, s_prime).ok
        assert compare_polarizations(h, s, s_prime).certified
    assert seen == {Fraction}


def test_the_matrix_kernel_refuses_qi_matrices():
    z = GaussianRational.of
    for m, n, rows in [(2, 2, [[z(1, 1), z(0, 2)], [z(1), z(1, 1)]]), (1, 2, [[Fraction(1), z(0)]])]:
        with pytest.raises(TypeError, match="over Q, not on GaussianRational entries"):
            Mat(m, n, rows)
