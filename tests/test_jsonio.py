"""Schema validation: good documents round-trip, bad ones point at the field.

Every input refusal of ``jsonio`` fires in one table, each at its pointer
with its exact message, and a guard checks that the table reaches every
``SchemaError(...)`` the module constructs, so a new refusal comes with
its row.
"""

import ast
import sys

import pytest
from hypothesis import given, strategies as st

from wittpoint import jsonio
from wittpoint.forms import BilinearForm
from wittpoint.jsonio import (
    SchemaError,
    block_from_json,
    chain_complex_from_json,
    complex_from_json,
    diamond_from_json,
    fp_class_to_json,
    form_from_json,
    form_to_json,
    hodge_from_json,
    loads,
    parse_matrix,
    parse_rational,
    pieces_from_json,
    witness_from_json,
    witt_class_to_json,
)
from wittpoint.witt import WittClassFp, WittClassQ, fp_class_of, witt_class_of


def test_parse_rational_accepts_ints_and_strings():
    from fractions import Fraction

    assert parse_rational(3) == 3
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    with pytest.raises(SchemaError, match="bad rational"):
        parse_rational("1/0")
    with pytest.raises(SchemaError, match="boolean"):
        parse_rational(True)


# spellings Fraction reads that the documented grammar, [+-]digits[/digits], refuses
REFUSED_SPELLINGS = ["0.5", ".5", "5.", "1e3", "1E-2", "1e100000", " 3", "3 ", "3/4\n", "1_000",
                     "\u0663", "3 / 4", "0x10", "1/-2", "3/4/5", "", "+", "-/2", "inf", "1/0"]


def test_parse_rational_reads_the_documented_grammar_only():
    from fractions import Fraction

    for text, value in (("+3", 3), ("-0", 0), ("007/010", Fraction(7, 10)), ("-3/04", Fraction(-3, 4)),
                        ("9" * 4300, int("9" * 4300))):
        assert parse_rational(text) == value
    for text in REFUSED_SPELLINGS:
        with pytest.raises(SchemaError) as exc:
            parse_rational(text, "$.gram[0][1]")
        assert str(exc.value) == f"$.gram[0][1]: bad rational string {text!r}"
    for text, digits in (("7" * 5000, 5000), ("-1/" + "3" * 4301, 4301)):
        with pytest.raises(SchemaError) as exc:
            parse_rational(text, "$.s[1][0]")
        assert str(exc.value) == f"$.s[1][0]: an integer of {digits} digits is over the limit of 4300 digits"


def test_loads_refuses_an_overlong_integer_at_its_pointer():
    assert loads('{"a": [1, -2, {"b": 30}]}') == {"a": [1, -2, {"b": 30}]}
    assert loads("[%s]" % ("9" * 4300)) == [int("9" * 4300)]
    long = "-" + "7" * 5000
    for text, pointer in (('{"gram": [[1, 0], [0, %s]]}' % long, "$.gram[1][1]"),
                          ('{"a": {"p": %s}, "b": %s}' % (long, long[1:]), "$.a.p"),
                          (long, "$")):
        with pytest.raises(SchemaError) as exc:
            loads(text)
        assert str(exc.value) == f"{pointer}: an integer of 5000 digits is over the limit of 4300 digits"
    # a repeated key keeps its last value, so an overlong value it replaced is gone
    assert loads('{"a": %s, "a": 1}' % long) == {"a": 1}


def test_form_schema_errors_carry_pointers():
    with pytest.raises(SchemaError, match=r"\$\.symmetry"):
        form_from_json({"gram": [["1"]]})
    with pytest.raises(SchemaError, match=r"\$\.field"):
        form_from_json({"symmetry": "symmetric", "field": "R", "gram": [["1"]]})
    with pytest.raises(SchemaError, match=r"\$\.gram"):
        form_from_json({"symmetry": "skew", "gram": [["1"]]})  # not skew
    with pytest.raises(SchemaError, match=r"\$\.gram"):
        form_from_json({"symmetry": "symmetric", "gram": [["1", "2"]]})  # ragged


def test_a_form_document_is_over_q():
    # a form is over Q; "field" may be left out, and any other value, a
    # prime field's {"Fp": p} among them, is refused at $.field
    for field in ({"Fp": 5}, {"Fp": True}, "R", "q", 5, None, ["Q"]):
        form = {"symmetry": "symmetric", "field": field, "gram": [["1"]]}
        for read, doc, pointer in ((form_from_json, form, "$"),
                                   (block_from_json, {"s": form, "a": [], "b": []}, "$.s")):
            with pytest.raises(SchemaError) as exc:
                read(doc)
            assert str(exc.value) == f'{pointer}.field: expected "Q"'
    for doc in ({"symmetry": "symmetric", "field": "Q", "gram": [["1"]]},
                {"symmetry": "symmetric", "gram": [["1"]]}):
        assert form_from_json(doc) == BilinearForm.from_diagonal([1])
        assert form_to_json(form_from_json(doc))["field"] == "Q"


def test_a_form_document_names_its_gram():
    # a document without "gram" is refused, not read as the rank-0 form
    with pytest.raises(SchemaError, match=r"^\$\.gram: missing$"):
        form_from_json({"symmetry": "symmetric"})
    with pytest.raises(SchemaError, match=r"^\$\.s\.gram: missing$"):
        block_from_json({"s": {"symmetry": "symmetric", "field": "Q"}, "a": [], "b": []})
    assert form_from_json({"symmetry": "symmetric", "gram": []}).gram.n == 0


def test_diamond_entries_are_integers():
    # each entry was read with int(x), so 1.9, "1" and true answered as 1
    assert diamond_from_json({"dim": 1, "h": [[1, 2], [2, 1]]}).h == ((1, 2), (2, 1))
    for value in (1.9, "1", True):
        with pytest.raises(SchemaError, match=r"^\$\.h\[1\]\[0\]: expected an integer$"):
            diamond_from_json({"dim": 1, "h": [[1, 2], [value, 1]]})
    with pytest.raises(SchemaError, match=r"^\$\.h: expected a table of Hodge numbers$"):
        diamond_from_json({"dim": 0, "h": ["1"]})


# -- every refusal ----------------------------------------------------------


SYM = {"symmetry": "symmetric"}
WITNESS_PARTS = dict.fromkeys(("f", "f_prime", "g", "g_prime", "s2"))
PIECE = {"p": 0, "q": 0}

# (reader, the smallest document it refuses, the exact error), one row or
# more for each SchemaError(...) in jsonio, in the order of the module
REFUSALS = [
    (pieces_from_json, {"weight": "2"}, "$.weight: expected an integer"),
    (parse_rational, True, "$: expected a rational, got a boolean"),
    (parse_matrix, [["0.5"]], "$[0][0]: bad rational string '0.5'"),
    (parse_matrix, [["1/0"]], "$[0][0]: bad rational string '1/0'"),
    (parse_matrix, [[1.5]], "$[0][0]: expected a rational string or integer, got float"),
    (parse_rational, "7" * 5000, "$: an integer of 5000 digits is over the limit of 4300 digits"),
    (loads, "[%s]" % ("7" * 5000), "$[0]: an integer of 5000 digits is over the limit of 4300 digits"),
    (parse_matrix, [1], "$: expected a list of rows"),
    (parse_matrix, [[1], [1, 2]], "$: rows have unequal lengths"),
    (form_from_json, [], "$: expected an object"),
    (form_from_json, {"gram": []}, '$.symmetry: expected "symmetric" or "skew"'),
    (form_from_json, {**SYM, "field": "R", "gram": []}, '$.field: expected "Q"'),
    (form_from_json, SYM, "$.gram: missing"),
    (form_from_json, {"symmetry": "skew", "gram": [[1]]},
     "$.gram: Gram matrix does not match the declared symmetry"),
    (block_from_json, [], "$: expected an object"),
    (block_from_json, {"s": [[1]], "b": [[0]]}, "$.a: missing block"),
    (block_from_json, {"s": [[1, 2], [3, 4]], "a": [], "b": []},
     "$.s: Gram matrix does not match the declared symmetry"),
    (block_from_json, {"s": [[1]], "a": [[1, 2]], "b": [[0]]}, "$.a: block A must be symmetric k x k"),
    (chain_complex_from_json, {"spaces": {"x": 1}}, "$.spaces.x: degree keys must be integers"),
    (chain_complex_from_json, {"spaces": {"0": 1, "00": 2}}, "$.spaces.00: degree 0 is given twice"),
    (chain_complex_from_json, {"differentials": []}, "$.differentials: expected an object keyed by degree"),
    (chain_complex_from_json, [], "$: expected an object"),
    (chain_complex_from_json, {"spaces": []}, "$.spaces: expected an object keyed by degree"),
    (chain_complex_from_json, {"spaces": {"0": -1}}, "$.spaces.0: dimensions are nonnegative integers"),
    (chain_complex_from_json, {"spaces": {"0": 2}, "differentials": {"0": [[1, 0]]}},
     "$.differentials: differential at degree 0 has shape 1x2, expected 0x2"),
    (complex_from_json, [], "$: expected an object"),
    (complex_from_json, {}, '$.symmetry: expected "symmetric" or "skew"'),
    (complex_from_json, {**SYM, "spaces": {"-1": 1, "1": 1}, "pairing": {"1": [[1]], "-1": [[1]]}},
     "$.pairing: pairing blocks at degrees 1 and -1 violate the (-1)^i involution symmetry"),
    (witness_from_json, [], "$: expected an object"),
    (witness_from_json, {"kind": "null"}, '$.kind: expected "direct" or "direct_subquotient"'),
    (witness_from_json, {}, "$.f: missing"),
    (witness_from_json, {**WITNESS_PARTS, "maps": []}, "$.maps: expected an object"),
    (witness_from_json, {**WITNESS_PARTS, "maps": {}}, "$.maps.pi: missing"),
    (hodge_from_json, {"weight": 0, "pieces": [{**PIECE, "basis": [[[1]]]}]},
     "$.pieces[0].basis[0][0]: expected a rational or an [re, im] pair"),
    (hodge_from_json, [], "$: expected an object"),
    (hodge_from_json, {"weight": 0, "pieces": []}, "$.pieces: expected a nonempty list"),
    (hodge_from_json, {"weight": 0, "pieces": [{"p": 0}]}, "$.pieces[0]: expected {p, q, basis}"),
    (hodge_from_json, {"weight": 0, "pieces": [{**PIECE, "basis": {}}]},
     "$.pieces[0].basis: expected a list of vectors"),
    (hodge_from_json, {"weight": 0, "pieces": [{**PIECE, "basis": [1]}]},
     "$.pieces[0].basis[0]: expected a vector"),
    (hodge_from_json, {"weight": 0, "pieces": [{**PIECE, "basis": [[1], [1, 0]]}]},
     "$.pieces[0].basis: vector lengths disagree"),
    (hodge_from_json, {"weight": 0, "pieces": [PIECE]}, "$.pieces: no basis vectors given"),
    (diamond_from_json, [], "$: expected an object"),
    (diamond_from_json, {"dim": -1}, "$.dim: expected a nonnegative integer"),
    (diamond_from_json, {"dim": 0, "h": "1"}, "$.h: expected a table of Hodge numbers"),
    (pieces_from_json, [], "$: expected an object"),
    (pieces_from_json, {"weight": 0, "pieces": {}}, "$.pieces: expected a list"),
    (pieces_from_json, {"weight": 0, "pieces": [{"j": 0}]}, "$.pieces[0]: expected {j, signature}"),
    (pieces_from_json, {"weight": 0, "pieces": [{"j": -1, "signature": 0}]},
     "$.pieces[0]: primitive offset j must be nonnegative"),
]


def schema_error_sites(tree) -> list[int]:
    """The lines of a module that construct a ``SchemaError``: a call of
    the name or of an attribute of that name, wherever it stands."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "SchemaError" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_every_input_refusal_fires_at_its_pointer(monkeypatch):
    made = []
    init = SchemaError.__init__

    def record(self, pointer, message):
        caller = sys._getframe(1)
        made.append((caller.f_code.co_filename, caller.f_lineno))
        init(self, pointer, message)

    monkeypatch.setattr(SchemaError, "__init__", record)
    for read, doc, error in REFUSALS:
        with pytest.raises(SchemaError) as exc:
            read(doc)
        assert str(exc.value) == error, (read.__name__, doc)
    path = jsonio.__file__
    assert {file for file, _ in made} == {path}
    sites = schema_error_sites(ast.parse(open(path).read()))
    reached = {line for _, line in made}
    assert reached == set(sites), f"give the refusals at these lines a row: {sorted(set(sites) - reached)}"


def test_schema_error_walk_sees_every_spelling():
    source = """
class SchemaError(ValueError):
    pass
def read(doc):
    if not doc:
        raise SchemaError("$", "empty")
    try:
        return int(doc)
    except ValueError as exc:
        raise SchemaError("$", str(exc)) from exc
def make(pointer):
    return SchemaError(pointer,
                       "over two lines")
check = lambda doc: doc or jsonio.SchemaError("$", "in a lambda")
errors = [SchemaError(p, "in a comprehension") for p in "ab"]
def caught():
    try:
        pass
    except SchemaError:
        raise
text = "SchemaError(pointer, message)"
kind = isinstance(ValueError(), SchemaError), SchemaError
"""
    assert schema_error_sites(ast.parse(source)) == [6, 10, 12, 14, 15]


def test_fp_class_round_trip():
    # one payload shape per p = 3 mod 4, 1 mod 4 and 2
    assert fp_class_to_json(fp_class_of([1], 3)) == {"p": 3, "class": {"mod4": 1}}
    assert fp_class_to_json(fp_class_of([2, 3], 7)) == {"p": 7, "class": {"mod4": 0}}
    assert fp_class_to_json(fp_class_of([1, 2], 5)) == {
        "p": 5, "class": {"rank_parity": 0, "disc_is_residue": False}}
    assert fp_class_to_json(WittClassFp.rank_parity(2, 1)) == {"p": 2, "class": {"rank_parity": 1}}


def test_witt_class_round_trip_drops_zero_residues():
    cls = witt_class_of(BilinearForm.from_diagonal([30, -2]))
    doc = witt_class_to_json(cls)
    assert doc == {"signature": 0, "residues": [
        {"p": 3, "class": {"mod4": 1}},
        {"p": 5, "class": {"rank_parity": 1, "disc_is_residue": True}},
    ]}
    with_zero = WittClassQ.make(cls.signature, {**dict(cls.residues), 11: WittClassFp(11, 0)})
    assert witt_class_to_json(with_zero) == doc  # zero residue normalized away


def test_complex_schema_rejects_inconsistent_mirror_blocks():
    doc = {
        "symmetry": "symmetric",
        "spaces": {"-1": 1, "1": 1},
        "differentials": {},
        "pairing": {"1": [["1"]], "-1": [["1"]]},  # must be -(transpose)
    }
    with pytest.raises(SchemaError, match="involution"):
        complex_from_json(doc)


def test_complex_schema_rejects_bad_differential_shape():
    doc = {
        "symmetry": "symmetric",
        "spaces": {"0": 2},
        "differentials": {"0": [["1", "0"]]},  # target degree 1 has dimension 0
        "pairing": {"0": [["1", "0"], ["0", "1"]]},
    }
    with pytest.raises(SchemaError, match="differentials"):
        complex_from_json(doc)


def test_two_spellings_of_one_degree_are_refused_at_the_second():
    line = {"symmetry": "symmetric", "spaces": {"0": 1}, "pairing": {"0": [["1"]]}}
    with pytest.raises(SchemaError, match=r"^\$\.spaces\.00: degree 0 is given twice$"):
        complex_from_json({**line, "spaces": {"0": 1, "00": 2}})
    with pytest.raises(SchemaError, match=r"^\$\.pairing\.\+0: degree 0 is given twice$"):
        complex_from_json({**line, "pairing": {"0": [["1"]], "+0": [["2"]]}})
    maps = {"pi": {}, "rho": {}, "rho_prime": {"0": [["1"]], " 0": [["2"]]}, "pi_prime": {}}
    witness = {"f": line, "f_prime": line, "g": {"spaces": {"0": 1}}, "g_prime": {"spaces": {"0": 1}},
               "maps": maps, "s2": {}}
    with pytest.raises(SchemaError, match=r"^\$\.maps\.rho_prime\. 0: degree 0 is given twice$"):
        witness_from_json(witness)
    # one spelling of each degree reads as before
    assert witness_from_json({**witness, "maps": {**maps, "rho_prime": {"0": [["1"]]}}}).rho_prime[0].rows == [[1]]


def test_witness_schema_requires_all_parts():
    with pytest.raises(SchemaError, match=r"\$\.f"):
        witness_from_json({"kind": "direct"})


def test_block_schema():
    doc = {"s": [["1"]], "a": [["0"]], "b": [["0"]]}
    block = block_from_json(doc)
    assert block.isotropic_rank == 1
    with pytest.raises(SchemaError, match=r"\$\.a"):
        block_from_json({"s": [["1"]], "b": [["0"]]})


def test_hodge_schema_accepts_real_shorthand():
    from wittpoint.jsonio import hodge_from_json

    doc = {"weight": 0, "pieces": [
        {"p": 0, "q": 0, "basis": [["1", "0"], [["0", "0"], ["1", "0"]]]}]}
    h = hodge_from_json(doc)
    assert h.dimension == 2 and not h.validate()


def test_diamond_and_pieces_schema():
    d = diamond_from_json({"dim": 0, "h": [[1]]})
    assert d.dim == 0
    with pytest.raises(SchemaError, match=r"\$\.dim"):
        diamond_from_json({"h": [[1]]})
    pieces, weight = pieces_from_json({"weight": 2, "pieces": [{"j": 1, "signature": -3}]})
    assert weight == 2 and pieces[0].j == 1 and pieces[0].weight == 2
    with pytest.raises(SchemaError, match="pieces"):
        pieces_from_json({"weight": 2, "pieces": [{"j": 1}]})


def test_integer_fields_reject_booleans_and_strings():
    # JSON true is a Python int; an integer field takes neither it nor "2"
    for value in (True, "2", 2.0):
        with pytest.raises(SchemaError, match=r"^\$\.weight: expected an integer$"):
            pieces_from_json({"weight": value, "pieces": []})


@given(sig=st.integers(min_value=-10, max_value=10),
       parity2=st.integers(min_value=0, max_value=1),
       entries=st.lists(st.sampled_from([(1, 3), (2, 3), (1, 5), (2, 7)]),
                        min_size=0, max_size=3, unique_by=lambda t: t[1]))
def test_witt_class_json_round_trip_property(sig, parity2, entries):
    # the document lists the nonzero residues in increasing p
    residues = {2: WittClassFp.rank_parity(2, parity2)}
    for u, p in entries:
        residues[p] = fp_class_of([u], p)
    value = WittClassQ.make(sig, residues)
    assert witt_class_to_json(value) == {"signature": sig, "residues": [
        fp_class_to_json(c) for _, c in sorted(residues.items()) if not c.is_zero()]}
