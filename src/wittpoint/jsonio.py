"""JSON encoding of every external interface.

Rationals travel as strings ("3/4"; bare integers accepted as shorthand)
so no precision is ever lost.  A rational string is read by one grammar,
an optional sign, ASCII digits and an optional "/" and digits; any other
spelling is refused at its pointer, before any integer is built from it.
Documents are read by ``loads``, whose integer hook turns a literal past
CPython's int-string digit limit into an input error at its pointer.
Output ordering is deterministic (sorted primes, sorted degrees) for
golden-file stability.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

# The readers of complexes, witnesses, Hodge structures, diamonds and pieces
# import their types (cobordism, hodge, genus) when called, so reading a form
# loads none of those modules; the annotations are strings.  Witt classes are
# only written, so witt is not imported either.
from .forms import RATIONAL, SKEW, SYMMETRIC, BilinearForm, BlockError, BlockMetabolicForm
from .linalg import Mat


class SchemaError(ValueError):
    """Malformed input document; the message carries a schema pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def _integer(value, pointer: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(pointer, "expected an integer")
    return value


# [0-9], not \d, which takes every Unicode digit
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(value, pointer: str = "$") -> Fraction:
    """An int, or a string [+-]digits[/digits] with a nonzero denominator.
    A decimal, an exponent, a space, an underscore or a non-ASCII digit,
    which ``Fraction`` would read, is refused, as is an integer past
    CPython's int-string digit limit, each at ``pointer``."""
    if isinstance(value, bool):
        raise SchemaError(pointer, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise SchemaError(pointer, f"bad rational string {value!r}")
        num, den = match.groups()
        den = _digits_to_int(den, pointer) if den else 1
        if not den:
            raise SchemaError(pointer, f"bad rational string {value!r}")
        return Fraction(_digits_to_int(num, pointer), den)
    raise SchemaError(pointer, f"expected a rational string or integer, got {type(value).__name__}")


def _digits_to_int(digits: str, pointer: str) -> int:
    """int(digits) for a string of ASCII digits with an optional sign; past
    the int-string digit limit, a ``SchemaError`` at ``pointer``."""
    try:
        return int(digits)
    except ValueError:  # the digits are well formed, so only the limit is left
        raise _overlong_error(pointer, digits) from None


def _overlong_error(pointer: str, digits: str) -> SchemaError:
    return SchemaError(pointer, f"an integer of {len(digits.lstrip('+-'))} digits is over the "
                                f"limit of {sys.get_int_max_str_digits()} digits")


class _Overlong:
    """A JSON integer literal past the int-string digit limit, left unread."""

    __slots__ = ("digits",)

    def __init__(self, digits: str):
        self.digits = digits


def loads(text: str, **hooks):
    """``json.loads(text, **hooks)`` with each integer literal read by a
    ``parse_int`` hook.  A literal past CPython's int-string digit limit
    becomes a marker, and the first marker left in the document, in document
    order, is a ``SchemaError`` at its pointer; without the hook it would be
    a bare ``ValueError`` that names no place."""
    overlong = []

    def integer(digits: str):
        try:
            return int(digits)
        except ValueError:  # the scanner hands over integer literals only
            overlong.append(_Overlong(digits))
            return overlong[-1]

    doc = json.loads(text, parse_int=integer, **hooks)
    found = overlong and _first_overlong(doc, "$")
    if found:  # else a repeated key dropped every marker
        raise _overlong_error(*found)
    return doc


def _first_overlong(node, pointer: str) -> tuple[str, str] | None:
    """(pointer, digits) of the first ``_Overlong`` in a decoded document, or None."""
    if isinstance(node, _Overlong):
        return pointer, node.digits
    if isinstance(node, dict):
        children = ((f"{pointer}.{key}", value) for key, value in node.items())
    elif isinstance(node, list):
        children = ((f"{pointer}[{i}]", value) for i, value in enumerate(node))
    else:
        return None
    for at, child in children:
        found = _first_overlong(child, at)
        if found is not None:
            return found
    return None


def parse_matrix(rows, pointer: str = "$") -> Mat:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SchemaError(pointer, "expected a list of rows")
    if rows and len({len(r) for r in rows}) != 1:
        raise SchemaError(pointer, "rows have unequal lengths")
    parsed = [[parse_rational(x, f"{pointer}[{i}][{j}]") for j, x in enumerate(r)]
              for i, r in enumerate(rows)]
    return Mat(len(parsed), len(parsed[0]) if parsed else 0, parsed)


def format_matrix(m: Mat) -> list:
    return [[str(x) for x in r] for r in m.rows]


# -- forms ---------------------------------------------------------------


def form_from_json(doc, pointer: str = "$") -> BilinearForm:
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected an object")
    sym = doc.get("symmetry")
    if sym not in ("symmetric", "skew"):
        raise SchemaError(f"{pointer}.symmetry", 'expected "symmetric" or "skew"')
    if doc.get("field", "Q") != "Q":
        raise SchemaError(f"{pointer}.field", 'expected "Q"')
    if "gram" not in doc:
        raise SchemaError(f"{pointer}.gram", "missing")
    gram = parse_matrix(doc["gram"], f"{pointer}.gram")
    try:
        return BilinearForm(RATIONAL, SYMMETRIC if sym == "symmetric" else SKEW, gram)
    except ValueError as exc:
        raise SchemaError(f"{pointer}.gram", str(exc)) from exc


def form_to_json(f: BilinearForm) -> dict:
    return {
        "symmetry": "symmetric" if f.symmetry == SYMMETRIC else "skew",
        "field": f.field,
        "gram": format_matrix(f.gram),
    }


def block_from_json(doc, pointer: str = "$") -> BlockMetabolicForm:
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected an object")
    for key in ("s", "a", "b"):
        if key not in doc:
            raise SchemaError(f"{pointer}.{key}", "missing block")
    s_doc = doc["s"]
    if isinstance(s_doc, dict):
        s = form_from_json(s_doc, f"{pointer}.s")
    else:
        gram = parse_matrix(s_doc, f"{pointer}.s")
        try:
            s = BilinearForm(RATIONAL, SYMMETRIC, gram)
        except ValueError as exc:
            raise SchemaError(f"{pointer}.s", str(exc)) from exc
    a, b = parse_matrix(doc["a"], f"{pointer}.a"), parse_matrix(doc["b"], f"{pointer}.b")
    if b.m == 0 and s.gram.n == 0:  # [] is the only spelling of the 0 x k block
        b = Mat.zeros(0, a.n)
    try:
        return BlockMetabolicForm(s, a, b)
    except BlockError as exc:
        raise SchemaError(f"{pointer}.{exc.key}", str(exc)) from exc


# -- witt classes --------------------------------------------------------


def fp_class_to_json(c: WittClassFp) -> dict:
    if c.p == 2:
        payload = {"rank_parity": c.payload}
    elif c.p % 4 == 3:
        payload = {"mod4": c.payload}
    else:
        payload = {"rank_parity": c.payload[0], "disc_is_residue": c.payload[1]}
    return {"p": c.p, "class": payload}


def witt_class_to_json(c: WittClassQ) -> dict:
    return {
        "signature": c.signature,
        "residues": [fp_class_to_json(r) for _, r in c.residues],
    }


# -- complexes and witnesses ----------------------------------------------


def _by_degree(doc: dict, pointer: str):
    """(degree, value, pointer) for each entry of an object keyed by degree.
    A second spelling of one degree ("0" and "+0" or "00") is refused."""
    seen = set()
    for key, value in doc.items():
        at = f"{pointer}.{key}"
        try:
            degree = int(key)
        except ValueError as exc:
            raise SchemaError(at, "degree keys must be integers") from exc
        if degree in seen:
            raise SchemaError(at, f"degree {degree} is given twice")
        seen.add(degree)
        yield degree, value, at


def _degree_map_from_json(doc, pointer: str) -> dict[int, Mat]:
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected an object keyed by degree")
    return {degree: parse_matrix(rows, at) for degree, rows, at in _by_degree(doc, pointer)}


def _degree_map_to_json(maps: dict[int, Mat]) -> dict:
    return {str(i): format_matrix(m) for i, m in sorted(maps.items()) if m.m and m.n}


def chain_complex_from_json(doc, pointer: str = "$") -> ChainComplex:
    from .cobordism import ChainComplex
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected an object")
    spaces_doc = doc.get("spaces", {})
    if not isinstance(spaces_doc, dict):
        raise SchemaError(f"{pointer}.spaces", "expected an object keyed by degree")
    spaces = {}
    for degree, dim, at in _by_degree(spaces_doc, f"{pointer}.spaces"):
        if _integer(dim, at) < 0:
            raise SchemaError(at, "dimensions are nonnegative integers")
        spaces[degree] = dim
    diffs = _degree_map_from_json(doc.get("differentials"), f"{pointer}.differentials")
    try:
        return ChainComplex(spaces, diffs)
    except ValueError as exc:
        raise SchemaError(f"{pointer}.differentials", str(exc)) from exc


def complex_from_json(doc, pointer: str = "$") -> SelfDualComplex:
    from .cobordism import SelfDualComplex
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected an object")
    sym = doc.get("symmetry")
    if sym not in ("symmetric", "skew"):
        raise SchemaError(f"{pointer}.symmetry", 'expected "symmetric" or "skew"')
    cx = chain_complex_from_json(doc, pointer)
    pairings = _degree_map_from_json(doc.get("pairing"), f"{pointer}.pairing")
    try:
        return SelfDualComplex.make(
            SYMMETRIC if sym == "symmetric" else SKEW,
            cx.spaces, cx.differentials, pairings,
        )
    except ValueError as exc:
        raise SchemaError(f"{pointer}.pairing", str(exc)) from exc


def complex_to_json(c: SelfDualComplex) -> dict:
    return {
        "symmetry": "symmetric" if c.epsilon == SYMMETRIC else "skew",
        **chain_complex_to_json(c.complex),
        "pairing": _degree_map_to_json({i: s for i, s in c.pairings.items() if i >= 0}),
    }


def chain_complex_to_json(c: ChainComplex) -> dict:
    return {
        "spaces": {str(i): n for i, n in sorted(c.spaces.items())},
        "differentials": _degree_map_to_json(c.differentials),
    }


def witness_from_json(doc, pointer: str = "$") -> CobordismWitness:
    from .cobordism import CobordismWitness
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected an object")
    kind = doc.get("kind", "direct")
    if kind not in ("direct", "direct_subquotient"):
        raise SchemaError(f"{pointer}.kind", 'expected "direct" or "direct_subquotient"')
    for key in ("f", "f_prime", "g", "g_prime", "maps", "s2"):
        if key not in doc:
            raise SchemaError(f"{pointer}.{key}", "missing")
    maps = doc["maps"]
    if not isinstance(maps, dict):
        raise SchemaError(f"{pointer}.maps", "expected an object")
    for key in ("pi", "rho", "rho_prime", "pi_prime"):
        if key not in maps:
            raise SchemaError(f"{pointer}.maps.{key}", "missing")
    homotopy = None
    if doc.get("homotopy") is not None:
        homotopy = _degree_map_from_json(doc["homotopy"], f"{pointer}.homotopy")
    return CobordismWitness(
        kind=kind,
        f=complex_from_json(doc["f"], f"{pointer}.f"),
        f_prime=complex_from_json(doc["f_prime"], f"{pointer}.f_prime"),
        g=chain_complex_from_json(doc["g"], f"{pointer}.g"),
        g_prime=chain_complex_from_json(doc["g_prime"], f"{pointer}.g_prime"),
        pi=_degree_map_from_json(maps["pi"], f"{pointer}.maps.pi"),
        rho=_degree_map_from_json(maps["rho"], f"{pointer}.maps.rho"),
        rho_prime=_degree_map_from_json(maps["rho_prime"], f"{pointer}.maps.rho_prime"),
        pi_prime=_degree_map_from_json(maps["pi_prime"], f"{pointer}.maps.pi_prime"),
        s2=_degree_map_from_json(doc["s2"], f"{pointer}.s2"),
        homotopy=homotopy,
    )


def witness_to_json(w: CobordismWitness) -> dict:
    doc = {
        "kind": w.kind,
        "f": complex_to_json(w.f),
        "f_prime": complex_to_json(w.f_prime),
        "g": chain_complex_to_json(w.g),
        "g_prime": chain_complex_to_json(w.g_prime),
        "maps": {
            "pi": _degree_map_to_json(w.pi),
            "rho": _degree_map_to_json(w.rho),
            "rho_prime": _degree_map_to_json(w.rho_prime),
            "pi_prime": _degree_map_to_json(w.pi_prime),
        },
        "s2": _degree_map_to_json(w.s2),
    }
    if w.homotopy:
        doc["homotopy"] = _degree_map_to_json(w.homotopy)
    return doc


# -- hodge structures ------------------------------------------------------


def _gaussian_from_json(value, pointer: str) -> tuple[Fraction, Fraction]:
    """An entry of Q(i) as its (re, im) pair; a rational stands for (re, 0)."""
    if isinstance(value, (str, int)):
        return parse_rational(value, pointer), Fraction(0)
    if isinstance(value, list) and len(value) == 2:
        return (parse_rational(value[0], f"{pointer}[0]"),
                parse_rational(value[1], f"{pointer}[1]"))
    raise SchemaError(pointer, "expected a rational or an [re, im] pair")


def hodge_from_json(doc, pointer: str = "$") -> HodgeStructure:
    from .hodge import HodgePiece, HodgeStructure
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected an object")
    weight = _integer(doc.get("weight"), f"{pointer}.weight")
    pieces_doc = doc.get("pieces")
    if not isinstance(pieces_doc, list) or not pieces_doc:
        raise SchemaError(f"{pointer}.pieces", "expected a nonempty list")
    dimension = None
    pieces = []
    for k, pd in enumerate(pieces_doc):
        pp = f"{pointer}.pieces[{k}]"
        if not isinstance(pd, dict) or "p" not in pd or "q" not in pd:
            raise SchemaError(pp, "expected {p, q, basis}")
        basis_doc = pd.get("basis", [])
        if not isinstance(basis_doc, list):
            raise SchemaError(f"{pp}.basis", "expected a list of vectors")
        re, im = [], []
        for vk, vec in enumerate(basis_doc):
            if not isinstance(vec, list):
                raise SchemaError(f"{pp}.basis[{vk}]", "expected a vector")
            pairs = [_gaussian_from_json(x, f"{pp}.basis[{vk}][{xk}]") for xk, x in enumerate(vec)]
            re.append([x for x, _ in pairs])
            im.append([y for _, y in pairs])
        if re:
            if dimension is None:
                dimension = len(re[0])
            if any(len(v) != dimension for v in re):
                raise SchemaError(f"{pp}.basis", "vector lengths disagree")
        pieces.append((_integer(pd["p"], f"{pp}.p"), _integer(pd["q"], f"{pp}.q"), re, im))
    if dimension is None:
        raise SchemaError(f"{pointer}.pieces", "no basis vectors given")
    built = [HodgePiece(p, q, Mat.from_columns(re, m=dimension), Mat.from_columns(im, m=dimension))
             for p, q, re, im in pieces]
    return HodgeStructure(weight=weight, dimension=dimension, pieces=built)


def hodge_to_json(h: HodgeStructure) -> dict:
    return {
        "weight": h.weight,
        "pieces": [
            {
                "p": piece.p,
                "q": piece.q,
                "basis": [[[str(x), str(y)] for x, y in zip(re, im)]
                          for re, im in zip(piece.re.T.rows, piece.im.T.rows)],
            }
            for piece in sorted(h.pieces, key=lambda x: (-x.p, -x.q))
        ],
    }


# -- diamonds and primitive pieces ----------------------------------------


def diamond_from_json(doc, pointer: str = "$") -> HodgeDiamond:
    from .genus import HodgeDiamond
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected an object")
    dim = doc.get("dim")
    if _integer(dim, f"{pointer}.dim") < 0:
        raise SchemaError(f"{pointer}.dim", "expected a nonnegative integer")
    rows = doc.get("h")
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SchemaError(f"{pointer}.h", "expected a table of Hodge numbers")
    return HodgeDiamond(dim, tuple(tuple(_integer(x, f"{pointer}.h[{p}][{q}]") for q, x in enumerate(r))
                                   for p, r in enumerate(rows)))


def pieces_from_json(doc, pointer: str = "$") -> tuple[list[PrimitivePiece], int]:
    from .genus import PrimitivePiece
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected an object")
    weight = _integer(doc.get("weight"), f"{pointer}.weight")
    pieces_doc = doc.get("pieces", [])
    if not isinstance(pieces_doc, list):
        raise SchemaError(f"{pointer}.pieces", "expected a list")
    out = []
    for k, pd in enumerate(pieces_doc):
        pp = f"{pointer}.pieces[{k}]"
        if not isinstance(pd, dict) or "j" not in pd or "signature" not in pd:
            raise SchemaError(pp, "expected {j, signature}")
        j, signature = _integer(pd["j"], f"{pp}.j"), _integer(pd["signature"], f"{pp}.signature")
        piece_weight = _integer(pd.get("weight", weight), f"{pp}.weight")
        try:
            out.append(PrimitivePiece(j=j, weight=piece_weight, signature=signature))
        except ValueError as exc:
            raise SchemaError(pp, str(exc)) from exc
    return out, weight
