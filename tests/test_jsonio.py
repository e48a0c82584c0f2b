"""Schema validation: good documents round-trip, bad ones point at the field."""

import pytest
from hypothesis import given, strategies as st

from wittpoint.forms import BilinearForm
from wittpoint.jsonio import (
    SchemaError,
    block_from_json,
    complex_from_json,
    diamond_from_json,
    fp_class_to_json,
    form_from_json,
    form_to_json,
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
