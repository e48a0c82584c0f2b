"""CLI surface: exit codes, JSON round trips, deterministic output."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from wittpoint import cli, witt
from wittpoint.cli import main
from wittpoint.jsonio import (
    complex_from_json,
    complex_to_json,
    form_from_json,
    form_to_json,
    hodge_from_json,
    hodge_to_json,
    witness_from_json,
    witness_to_json,
    witt_class_to_json,
)
from wittpoint.cobordism import (
    CobordismWitness,
    acyclic_extension,
    congruence_witness,
    random_witness_chain,
    truncation_witness,
    verify_witness,
)
from wittpoint.forms import BilinearForm
from wittpoint.hodge import standard_structure
from wittpoint.linalg import Mat
from wittpoint.witt import witt_class_of
from test_cobordism import DEGENERATE_H0


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def form_doc(rows, symmetry="symmetric"):
    return {"symmetry": symmetry, "field": "Q", "gram": [[str(x) for x in r] for r in rows]}


def test_witt_class_command_golden(tmp_path, capsys):
    path = write(tmp_path, "f.json", form_doc([[-2]]))
    assert main(["--json", "witt-class", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"signature": -1, "residues": [{"p": 2, "class": {"rank_parity": 1}}]}


def test_witt_class_round_trip(tmp_path, capsys):
    path = write(tmp_path, "f.json", form_doc([[6, 1], [1, -15]]))
    assert main(["--json", "witt-class", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    form = form_from_json(form_doc([[6, 1], [1, -15]]))
    assert doc == witt_class_to_json(witt_class_of(form))


def test_equivalent_exit_codes(tmp_path):
    hyper = write(tmp_path, "h.json", form_doc([[0, 1], [1, 0]]))
    split = write(tmp_path, "s.json", form_doc([[1, 0], [0, -1]]))
    other = write(tmp_path, "o.json", form_doc([[-2]]))
    assert main(["equivalent", hyper, split]) == 0
    assert main(["equivalent", hyper, other]) == 2


def test_malformed_input_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["witt-class", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "$" in err

    schema_bad = write(tmp_path, "sb.json", {"symmetry": "symmetric", "gram": [["1", "x"]]})
    assert main(["witt-class", schema_bad]) == 1
    assert "$.gram" in capsys.readouterr().err


def test_a_too_deeply_nested_document_is_an_input_error(tmp_path, capsys):
    # json raises RecursionError on it, which left a traceback, not an input error
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    message = f"input error: $: JSON in {deep} is nested too deeply to read\n"
    assert main(["witt-class", str(deep)]) == 1
    assert capsys.readouterr() == ("", message)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-m", "wittpoint.cli", "witt-class", str(deep)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (1, "", message)


def test_unreadable_and_ambiguous_documents_are_input_errors(tmp_path, capsys):
    # a repeated key, in a form or deep in a witness map, would let its last value win
    form = tmp_path / "dup.json"
    form.write_text('{"symmetry": "symmetric", "gram": [[1]], "gram": [[2]]}')
    text = json.dumps(witness_to_json(congruence_witness(BilinearForm.from_diagonal([2]), Mat.from_rows([[3]]))))
    pi = '"pi": {"0": [["1"]]}'
    assert pi in text
    witness = tmp_path / "wdup.json"
    witness.write_text(text.replace(pi, '"pi": {"0": [["1"]], "0": [["5"]]}'))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"symmetry": "sym\xe9tric"}'.encode("latin-1"))
    for argv, message in ((["witt-class", str(form)], "repeated key 'gram' in a JSON object"),
                          (["verify-witness", str(witness)], "repeated key '0' in a JSON object"),
                          (["witt-class", str(tmp_path)], f"cannot read {tmp_path}: "),
                          (["witt-class", str(latin1)], f"{latin1} is not UTF-8 text: ")):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("input error: $: ") and message in err, err


def test_an_exponent_or_an_overlong_integer_is_refused_at_once(tmp_path, capsys):
    # "1e100000" would make Fraction build a 332,000-bit integer, and a JSON
    # integer past CPython's int-string limit would raise a bare ValueError
    exponent = write(tmp_path, "e.json", form_doc([["1e100000"]]))
    overlong = tmp_path / "long.json"
    overlong.write_text('{"symmetry": "symmetric", "gram": [[1, 0], [0, %s]]}' % ("7" * 5000))
    for path, message in ((exponent, "$.gram[0][0]: bad rational string '1e100000'"),
                          (str(overlong), "$.gram[1][1]: an integer of 5000 digits is over the limit of "
                                          "4300 digits")):
        start = time.perf_counter()
        assert main(["invariants", path]) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"input error: {message}\n"


def test_precondition_failure_exits_1(tmp_path, capsys):
    degenerate = write(tmp_path, "d.json", form_doc([[1, 0], [0, 0]]))
    assert main(["invariants", degenerate]) == 1
    assert "radical" in capsys.readouterr().err


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    # a Hasse-route oracle that answers wrong makes the two oracles disagree
    hasse_route = witt._hasse_route_entries
    monkeypatch.setattr(witt, "_hasse_route_entries", lambda *entries: not hasse_route(*entries))
    hyper = write(tmp_path, "h.json", form_doc([[0, 1], [1, 0]]))
    split = write(tmp_path, "s.json", form_doc([[1, 0], [0, -1]]))
    assert main(["equivalent", hyper, split]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: residue and Hasse equality oracles disagree")
    assert captured.err.rstrip().endswith("(this is a bug)")


CORRUPTED_LAST_STEP = """
import sys
from wittpoint import linalg
from wittpoint.cli import main
# for a 2 x 2 phi the one product of Faddeev-LeVerrier is the last step's
# B M_2; each of its entries now comes out 2 too large
linalg.mul = lambda x, y: x * y + 1
sys.exit(main(sys.argv[1:]))
"""


def test_cayley_hamilton_certificate_exits_3_under_python_O(tmp_path):
    h, s = standard_structure(0, 2)
    paths = [write(tmp_path, "h.json", hodge_to_json(h)), write(tmp_path, "s.json", form_to_json(s)),
             write(tmp_path, "s2.json", form_doc([[2, 1], [1, 3]]))]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_LAST_STEP, "hodge-compare", *paths],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 3, out.stderr
    assert out.stdout == ""
    assert out.stderr == ("internal error: Cayley-Hamilton certificate failed: "
                          "p(B) = B M_n + b_0 I is not 0 (this is a bug)\n")


def test_residue_command(tmp_path, capsys):
    path = write(tmp_path, "f.json", form_doc([[-2, 0], [0, 1]]))
    assert main(["--json", "residue", "--prime", "3", "--k", "0", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["class"] == {"mod4": 2}
    assert doc["is_zero"] is False


def test_metabolic_reduce_command(tmp_path, capsys):
    doc = {"s": form_doc([[1]]), "a": [["4"]], "b": [["2"]]}
    path = write(tmp_path, "block.json", doc)
    assert main(["--json", "metabolic-reduce", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hyperbolic_count"] == 1
    assert out["core"]["gram"] == [["1"]]
    assert len(out["transvections"]) == 2


def test_complex_commands(tmp_path, capsys):
    rng = Random(2)
    ext = acyclic_extension(BilinearForm.from_diagonal([-2]), rng, 1)
    cpath = write(tmp_path, "c.json", complex_to_json(ext))
    assert main(["--json", "complex-class", cpath]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["witt_class"]["signature"] == -1

    w = truncation_witness(ext)
    wpath = write(tmp_path, "w.json", witness_to_json(w))
    assert main(["verify-witness", wpath]) == 0

    bad = witness_to_json(w)
    bad["s2"]["0"][0][0] = "17"
    wbad = write(tmp_path, "wb.json", bad)
    assert main(["verify-witness", wbad]) == 2


def test_verify_witness_failures_write_rationals_as_strings(tmp_path, capsys):
    # the adjointness failure carries the two Gram blocks, whose entries are Fractions
    w = truncation_witness(acyclic_extension(BilinearForm.from_diagonal([-2]), Random(2), 1))
    bad = witness_to_json(w)
    bad["s2"]["-1"][0][0] = "17/3"
    wbad = write(tmp_path, "wb.json", bad)
    failure = ('{"check": "adjointness_rho_prime_pi_prime", "degree": -1, '
               '"lhs": [["-1"]], "rhs": [["17/3"]]}')
    assert main(["verify-witness", wbad]) == 2
    assert capsys.readouterr().out == f"witness FAILS\n  {failure}\n"
    assert main(["--json", "verify-witness", wbad]) == 2
    assert json.loads(capsys.readouterr().out) == {"ok": False, "failures": [json.loads(failure)]}


def test_json_output_refuses_what_is_not_a_rational():
    assert json.dumps({"x": Fraction(-3, 4)}, default=cli._rational) == '{"x": "-3/4"}'
    with pytest.raises(TypeError, match="Mat is not JSON serializable"):
        json.dumps({"x": Mat.identity(1)}, default=cli._rational)


def test_verify_witness_command_accepts_a_homotopy_with_blocks(tmp_path, capsys):
    # the identity witness on a three-degree complex: its solved homotopy
    # has blocks in degrees 0 and 1, which the cone comparison must read
    ext = acyclic_extension(BilinearForm.from_diagonal([2, 3]), Random(1), 1)
    cx = ext.complex
    ident = {i: Mat.identity(cx.dim(i)) for i in cx.degrees()}
    w = CobordismWitness(kind="direct", f=ext, f_prime=ext, g=cx, g_prime=cx, pi=ident,
                         rho=ident, rho_prime=ident, pi_prime=ident, s2=dict(ext.pairings))
    wpath = write(tmp_path, "w.json", witness_to_json(w))
    assert main(["verify-witness", wpath]) == 0
    assert capsys.readouterr().out == "witness verifies\n"
    w.homotopy = verify_witness(w).homotopy
    assert sorted(w.homotopy) == [0, 1]
    hpath = write(tmp_path, "wh.json", witness_to_json(w))
    assert main(["verify-witness", hpath]) == 0
    assert capsys.readouterr().out == "witness verifies\n"


@pytest.mark.parametrize("form, seed, vector", DEGENERATE_H0)
def test_complex_class_refuses_a_degenerate_h0_pairing(tmp_path, capsys, form, seed, vector):
    cpath = write(tmp_path, "c.json", complex_to_json(acyclic_extension(form, Random(seed), 1)))
    problem = {"check": "perfect_on_cohomology", "degree": 0, "witness_class_vector": vector}
    for argv in (["complex-class", cpath], ["--json", "complex-class", cpath]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: invalid complex: {[problem]}\n")


def test_skew_complex_class_certificate(tmp_path, capsys):
    skew = BilinearForm.from_rows([[0, 1], [-1, 0]], symmetry=-1)
    rng = Random(5)
    ext = acyclic_extension(skew, rng, 1)
    cpath = write(tmp_path, "sk.json", complex_to_json(ext))
    assert main(["--json", "complex-class", cpath]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["witt_class"] == {"signature": 0, "residues": []}
    assert doc["symplectic_certificate"]["hyperbolic_count"] == 1


def test_hodge_commands(tmp_path, capsys):
    h, s = standard_structure(0, 2)
    hpath = write(tmp_path, "h.json", hodge_to_json(h))
    spath = write(tmp_path, "s.json", form_to_json(s))
    s2path = write(tmp_path, "s2.json", form_doc([[2, 1], [1, 3]]))
    assert main(["hodge-check", hpath, spath]) == 0
    capsys.readouterr()
    assert main(["--json", "hodge-compare", hpath, spath, s2path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is True
    assert doc["char_poly_ascending"] == ["5", "-5", "1"]

    bad = write(tmp_path, "bad.json", form_doc([[1, 0], [0, -1]]))
    assert main(["hodge-check", hpath, bad]) == 2


def test_hodge_compare_certifies_a_pair_whose_radical_it_cannot_factor(tmp_path, capsys):
    # the constant term of the radical, p * q, is beyond Brent's rho
    p, q = 1000000000000037, 3000000000000037
    h, s = standard_structure(0, 2)
    paths = [write(tmp_path, "h.json", hodge_to_json(h)), write(tmp_path, "s.json", form_to_json(s)),
             write(tmp_path, "s2.json", form_doc([[p, 0], [0, q]]))]
    assert main(["--json", "hodge-compare", *paths]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is True and doc["semisimple"] is True
    assert "eigenvalues" not in doc
    assert main(["hodge-compare", *paths]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "eigenvalues" not in captured.out
    assert captured.out.endswith("certified: True\n")


def test_metabolic_reduce_points_at_a_bad_bare_gram(tmp_path, capsys):
    for s_doc, message in (([["1", "2"], ["3", "1"]], "Gram matrix does not match the declared symmetry"),
                           ([["1", "2"]], "Gram matrix must be square")):
        path = write(tmp_path, "block.json", {"s": s_doc, "a": [["1"]], "b": [["1"], ["0"]]})
        assert main(["metabolic-reduce", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"input error: $.s: {message}\n"


def test_metabolic_reduce_points_at_the_bad_block(tmp_path, capsys):
    # each refusal of the block form points at its block
    for doc, message in (({"s": [[1]], "a": [[1, 2], [3, 4]], "b": [[1, 1]]}, "$.a: block A must be symmetric k x k"),
                         ({"s": [[1]], "a": [[1, 2]], "b": [[1, 1]]}, "$.a: block A must be symmetric k x k"),
                         ({"s": [[1]], "a": [[1]], "b": [[1], [2]]}, "$.b: block B must be 1 x 1"),
                         ({"s": [[1]], "a": [[1]], "b": []}, "$.b: block B must be 1 x 1"),
                         ({"s": [[0]], "a": [[1]], "b": [[1]]}, "$.s: core S must be nondegenerate"),
                         ({"s": form_doc([[0, 1], [-1, 0]], "skew"), "a": [[1]], "b": [[1], [1]]},
                          "$.s: core S must be a symmetric form over Q")):
        assert main(["metabolic-reduce", write(tmp_path, "block.json", doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"input error: {message}\n"


def test_metabolic_reduce_reads_an_empty_core(tmp_path, capsys):
    # with S of rank 0, "b": [] is the 0 x k block
    assert main(["--json", "metabolic-reduce", write(tmp_path, "block.json", {"s": [], "a": [[1]], "b": []})]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"core": {"symmetry": "symmetric", "field": "Q", "gram": []}, "hyperbolic_count": 1,
                   "transvections": [["-1/2", 0, 1]]}


def test_hodge_check_rejects_non_integer_degrees(tmp_path, capsys):
    h, s = standard_structure(0, 2)
    spath = write(tmp_path, "s.json", form_to_json(s))
    for key, value, pointer in [("p", "1", "$.pieces[0].p"), ("q", 0.0, "$.pieces[0].q"),
                                ("p", True, "$.pieces[0].p"), ("weight", False, "$.weight")]:
        doc = hodge_to_json(h)
        if key == "weight":
            doc[key] = value
        else:
            doc["pieces"][0][key] = value
        assert main(["hodge-check", write(tmp_path, "h.json", doc), spath]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {pointer}: expected an integer"), captured.err


def well_formed(command) -> list:
    """The input documents of one accepted run of ``command``."""
    if command == "hodge-check":
        h, s = standard_structure(0, 2)
        return [hodge_to_json(h), form_to_json(s)]
    if command == "verify-witness":
        cpx = acyclic_extension(BilinearForm.from_diagonal([2]), Random(1), 1)
        return [witness_to_json(truncation_witness(cpx))]
    if command == "complex-class":
        return [{"symmetry": "symmetric", "spaces": {"0": 1}, "pairing": {"0": [[1]]}}]
    if command == "chi-y":
        return [{"dim": 2, "h": [[1, 0, 1], [0, 20, 0], [1, 0, 1]]}]
    return [{"weight": 2, "pieces": [{"j": 1, "signature": 1}]}]  # lefschetz-check


@pytest.mark.parametrize("command, field, value, message", [
    ("hodge-check", ("pieces", 0, "basis"), 5, "$.pieces[0].basis: expected a list of vectors"),
    ("verify-witness", ("g",), [], "$.g: expected an object"),
    ("lefschetz-check", ("pieces",), 3, "$.pieces: expected a list"),
    ("lefschetz-check", ("pieces", 0, "j"), 1.5, "$.pieces[0].j: expected an integer"),
    ("lefschetz-check", ("pieces", 0, "signature"), "a", "$.pieces[0].signature: expected an integer"),
    ("lefschetz-check", ("pieces", 0, "j"), True, "$.pieces[0].j: expected an integer"),
    ("complex-class", ("spaces", "0"), True, "$.spaces.0: expected an integer"),
    ("chi-y", ("dim",), True, "$.dim: expected an integer"),
    ("chi-y", ("h", 1, 1), 1.9, "$.h[1][1]: expected an integer"),
    ("chi-y", ("h", 1, 1), "20", "$.h[1][1]: expected an integer"),
    ("chi-y", ("h", 0, 0), True, "$.h[0][0]: expected an integer"),
], ids=["hodge-basis-int", "witness-g-list", "lefschetz-pieces-int", "lefschetz-j-float",
        "lefschetz-signature-str", "lefschetz-j-bool", "complex-space-bool", "diamond-dim-bool",
        "diamond-h-float", "diamond-h-str", "diamond-h-bool"])
def test_malformed_documents_are_input_errors(tmp_path, capsys, command, field, value, message):
    # each raised a TypeError or AttributeError traceback, or was read as if well formed
    docs = well_formed(command)
    *path, last = field
    target = docs[0]
    for key in path:
        target = target[key]
    target[last] = value
    assert main([command, *(write(tmp_path, f"{k}.json", d) for k, d in enumerate(docs))]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


FORM_COMMANDS = [  # every command that reads a form, with the form's pointer
    (["witt-class", "FP"], "$"),
    (["invariants", "FP"], "$"),
    (["equivalent", "Q", "FP"], "$"),
    (["residue", "--prime", "3", "--k", "0", "FP"], "$"),
    (["metabolic-reduce", "BLOCK"], "$.s"),
    (["hodge-check", "HODGE", "FP"], "$"),
    (["hodge-compare", "HODGE", "Q", "FP"], "$"),
    (["pol-class", "HODGE", "FP"], "$"),
]


@pytest.mark.parametrize("argv, pointer", FORM_COMMANDS, ids=[argv[0] for argv, _ in FORM_COMMANDS])
def test_every_form_command_refuses_a_prime_field(tmp_path, capsys, argv, pointer):
    # forms are over Q: each command gave its own refusal, and hodge-check
    # a false verdict (exit 2), for a form document over F_5
    h, s = standard_structure(0, 2)
    fp = {**form_to_json(s), "field": {"Fp": 5}}
    docs = {"FP": fp, "Q": form_to_json(s), "HODGE": hodge_to_json(h),
            "BLOCK": {"s": fp, "a": [["0"]], "b": [["0"], ["0"]]}}
    args = [write(tmp_path, f"{a}.json", docs[a]) if a in docs else a for a in argv]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f'input error: {pointer}.field: expected "Q"\n'


def test_a_form_document_without_a_gram_is_an_input_error(tmp_path, capsys):
    # it was read as the rank-0 form: "class is zero", exit 0
    assert main(["witt-class", write(tmp_path, "f.json", {"symmetry": "symmetric"})]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: $.gram: missing\n"
    assert main(["witt-class", write(tmp_path, "f.json", {"symmetry": "symmetric", "gram": []})]) == 0
    assert capsys.readouterr().out == "signature 0\nclass is zero\n"


def test_chi_y_epsilon_lefschetz_commands(tmp_path, capsys):
    k3 = write(tmp_path, "k3.json", {"dim": 2, "h": [[1, 0, 1], [0, 20, 0], [1, 0, 1]]})
    assert main(["--json", "chi-y", k3]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chi_y_coefficients"] == [2, -20, 2]
    assert (doc["euler"], doc["arithmetic_genus"], doc["signature"]) == (24, 2, -16)

    assert main(["epsilon", "2"]) == 0
    assert capsys.readouterr().out.strip() == "epsilon(2) = -1"

    pieces = write(tmp_path, "p.json",
                   {"weight": 3, "pieces": [{"j": 0, "signature": 1}, {"j": 1, "signature": 5}]})
    assert main(["lefschetz-check", pieces]) == 0


def test_worked_examples_command(capsys):
    assert main(["--json", "worked-examples"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_verdicts_true"] is True
    assert doc["double_point_surface"]["psi0_at_3"]["class"] == {"mod4": 2}
    assert [r["degree"] for r in doc["cone_surfaces"]] == [2, 3, 4]


def test_pol_class_command(tmp_path, capsys):
    h, s = standard_structure(2, 4)
    hpath = write(tmp_path, "h2.json", hodge_to_json(h))
    spath = write(tmp_path, "s2.json", form_to_json(s))
    assert main(["--json", "pol-class", hpath, spath]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["signature"] == 0


def test_worked_examples_json_is_stable(capsys):
    assert main(["--json", "worked-examples"]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "worked-examples"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    quadric = doc["cone_surfaces"][0]
    assert quadric == {
        "degree": 2,
        "h20": 0,
        "h11": 2,
        "signature_h2": 0,
        "primitive_signature": -1,
        "residual_signature": 1,
        "nonzero": True,
    }
    dp = doc["double_point_surface"]
    assert dp["sum_class"] == {"signature": 0, "residues": [{"p": 2, "class": {"rank_parity": 1}}]}
    assert dp["psi0_at_3_order"] == 2


def test_selfcheck_command(capsys):
    assert main(["selfcheck", "--seed", "3", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


def test_selfcheck_refuses_a_negative_trial_count(capsys):
    assert main(["selfcheck", "--trials", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the trial count must be nonnegative, not -1\n"


def test_round_trip_structures():
    rng = Random(9)
    ch = random_witness_chain(rng, 2, 2)
    w = ch.links[0].witness
    doc = witness_to_json(w)
    again = witness_from_json(doc)
    assert witness_to_json(again) == doc

    ext = acyclic_extension(BilinearForm.from_diagonal([1, -1]), rng, 2)
    doc = complex_to_json(ext)
    assert complex_to_json(complex_from_json(doc)) == doc

    h, _ = standard_structure(3, 4)
    doc = hodge_to_json(h)
    assert hodge_to_json(hodge_from_json(doc)) == doc


def test_witt_class_factors_a_product_of_two_large_primes(tmp_path, capsys):
    # 1000003 and 1000033 are prime; their product has no factor below 10^6
    path = write(tmp_path, "big.json", form_doc([[1000003 * 1000033]]))
    assert main(["witt-class", path]) == 0
    out = capsys.readouterr().out
    assert "residue at 1000003" in out and "residue at 1000033" in out


def test_a_factor_beyond_the_rho_budget_is_an_input_error(tmp_path, capsys):
    n = 1000000000000037 * 1000000000000091  # two primes near 10^15
    path = write(tmp_path, "huge.json", form_doc([[n]]))
    assert main(["witt-class", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cofactor {n} is composite")


def test_the_trial_division_flag_is_gone(tmp_path, capsys):
    path = write(tmp_path, "f.json", form_doc([[6]]))
    with pytest.raises(SystemExit) as exc:
        main(["--trial-division-bound", "100", "witt-class", path])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage: wittpoint")


@pytest.mark.parametrize("argv, message", [
    (["witt-class"], "wittpoint witt-class: error: the following arguments are required: form"),
    (["residue", "--prime", "x", "--k", "0", "FORM"],
     "wittpoint residue: error: argument --prime: invalid int value: 'x'"),
    (["residue", "--prime", "3", "--k", "5", "FORM"],
     "wittpoint residue: error: argument --k: invalid choice: 5 (choose from 0, 1)"),
    (["nosuch"], "wittpoint: error: argument command: invalid choice: 'nosuch' (choose from "),
    (["--bogus", "witt-class", "FORM"], "wittpoint: error: unrecognized arguments: --bogus"),
], ids=["missing-form", "prime-not-int", "k-not-a-choice", "unknown-command", "unknown-flag"])
def test_usage_errors_are_input_errors(tmp_path, capsys, argv, message):
    # argparse exits 2, the exit code of a computed false verdict
    path = write(tmp_path, "f.json", form_doc([[6]]))
    with pytest.raises(SystemExit) as exc:
        main([path if a == "FORM" else a for a in argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: wittpoint")
    assert captured.err.splitlines()[-1].startswith(message)


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["residue", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wittpoint")


# Runs each argv of sys.argv[1] through cli.main in one process and prints,
# after each import and each command, the wittpoint submodules then loaded,
# and which of dataclasses and inspect (which dataclasses imports) are.
LOADED_MODULES = """
import contextlib, io, json, sys

def loaded():
    return (sorted(k.split(".", 1)[1] for k in sys.modules if k.startswith("wittpoint.")),
            [m for m in ("dataclasses", "inspect") if m in sys.modules])

stages = {}
import wittpoint
stages["import wittpoint"] = [0, *loaded()]
import wittpoint.cli
stages["import wittpoint.cli"] = [0, *loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        stages[argv[0]] = [wittpoint.cli.main(argv), *loaded()]
print(json.dumps(stages))
"""


def test_commands_load_only_the_modules_they_use(tmp_path):
    form = write(tmp_path, "f.json", form_doc([[6, 1], [1, -15]]))
    block = write(tmp_path, "block.json", {"s": form_doc([[1]]), "a": [["4"]], "b": [["2"]]})
    h, s = standard_structure(0, 2)
    hodge = write(tmp_path, "h.json", hodge_to_json(h))
    spath = write(tmp_path, "s.json", form_to_json(s))
    s2path = write(tmp_path, "s2.json", form_doc([[2, 1], [1, 3]]))
    argvs = [["witt-class", form], ["invariants", form], ["equivalent", form, form],
             ["metabolic-reduce", block], ["hodge-check", hodge, spath], ["pol-class", hodge, spath],
             ["hodge-compare", hodge, spath, s2path]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", LOADED_MODULES, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    stages = json.loads(out.stdout)
    # no record class is a dataclass, so no command pays for importing them
    assert {stage: cold for stage, (_, _, cold) in stages.items() if cold} == {}
    assert stages.pop("import wittpoint")[:2] == [0, []]
    check_code, check_loaded, _ = stages.pop("hodge-check")
    assert check_code == 0 and "hodge" in check_loaded
    assert not {"cobordism", "genus", "selfcheck"} & set(check_loaded)
    class_code, class_loaded, _ = stages.pop("pol-class")  # the sign is taken in hodge
    assert class_code == 0 and not {"cobordism", "genus", "selfcheck"} & set(class_loaded)
    hodge_code, hodge_loaded, _ = stages.pop("hodge-compare")
    assert hodge_code == 0 and "hodge" in hodge_loaded
    assert not {"cobordism", "selfcheck"} & set(hodge_loaded)
    assert list(stages) == ["import wittpoint.cli", "witt-class", "invariants", "equivalent",
                            "metabolic-reduce"]
    for stage, (code, loaded, _) in stages.items():
        assert code == 0, stage
        assert not {"cobordism", "hodge", "poly", "genus", "selfcheck"} & set(loaded), (stage, loaded)
