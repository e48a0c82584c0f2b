"""Command-line surface: every computation with JSON input and output.

Exit codes: 0 for success and true verdicts, 2 for a false mathematical
verdict (something computed, and it is false), 1 for input or precondition
errors, usage errors included, 3 for an internal error (a certificate
failed its own check, which is a bug).  Output is plain text by default;
--json emits deterministic JSON (sorted keys, sorted primes and degrees) for
golden files, with each ``Fraction`` written as its string.  Each command is
one row of ``_COMMANDS``: its name, help line, handler and arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

# Every form-reading command needs these; the handlers import the rest
# (cobordism, hodge, genus, selfcheck) themselves, so that a process runs
# no more module bodies than its one command uses.
from . import jsonio
from .core import CertificateError, Record
from .forms import SKEW, invariants, metabolic_reduce
from .jsonio import SchemaError
from .witt import equivalent, psi, witt_class_of


class Outcome(Record):
    """A command's verdict, JSON payload and text lines."""

    def __init__(self, verdict: bool | None, payload: dict, text: list[str]):
        self.verdict = verdict  # None: informational command, always exit 0
        self.payload = payload
        self.text = text


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return jsonio.loads(fh.read(), object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise SchemaError("$", f"no such file: {path}")
    except OSError as exc:
        raise SchemaError("$", f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise SchemaError("$", f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"malformed JSON in {path}: {exc}")


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict.  A repeated key is refused, where plain
    ``json.load`` would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for k in keys if keys.count(k) > 1)
        raise SchemaError("$", f"repeated key {key!r} in a JSON object")
    return obj


def _cmd_invariants(args) -> Outcome:
    form = jsonio.form_from_json(_load(args.form))
    inv = invariants(form)
    payload = {
        "rank": inv.rank,
        "signature": {"positive": inv.signature[0], "negative": inv.signature[1]},
        "discriminant": inv.discriminant.representative,
        "hasse": {str(k): v for k, v in inv.hasse.items()},  # sorted primes, then real
    }
    text = [
        f"rank {inv.rank}",
        f"signature ({inv.signature[0]}, {inv.signature[1]})",
        f"discriminant {inv.discriminant.representative}",
        "hasse " + " ".join(f"{k}:{'+1' if v == 1 else '-1'}" for k, v in payload["hasse"].items()),
    ]
    return Outcome(None, payload, text)


def _cmd_witt_class(args) -> Outcome:
    form = jsonio.form_from_json(_load(args.form))
    cls = witt_class_of(form)
    payload = jsonio.witt_class_to_json(cls)
    text = [f"signature {cls.signature}"]
    for p, c in cls.residues:
        text.append(f"residue at {p}: {jsonio.fp_class_to_json(c)['class']}")
    if cls.is_zero():
        text.append("class is zero")
    return Outcome(None, payload, text)


def _cmd_equivalent(args) -> Outcome:
    a = jsonio.form_from_json(_load(args.a))
    b = jsonio.form_from_json(_load(args.b))
    verdict = equivalent(a, b)
    return Outcome(verdict, {"equivalent": verdict},
                   ["equivalent" if verdict else "not equivalent"])


def _cmd_residue(args) -> Outcome:
    form = jsonio.form_from_json(_load(args.form))
    cls = psi(form, args.prime, args.k)
    payload = jsonio.fp_class_to_json(cls)
    payload["is_zero"] = cls.is_zero()
    return Outcome(None, payload,
                   [f"psi^{args.k} at {args.prime}: {payload['class']}"
                    + (" (zero)" if cls.is_zero() else " (nonzero)")])


def _cmd_metabolic_reduce(args) -> Outcome:
    block = jsonio.block_from_json(_load(args.block))
    red = metabolic_reduce(block)
    payload = {
        "core": jsonio.form_to_json(red.core),
        "hyperbolic_count": red.hyperbolic_count,
        "transvections": [[str(alpha), p, q] for alpha, p, q in red.transvections],
    }
    return Outcome(None, payload,
                   [f"core rank {red.core.gram.n}, {red.hyperbolic_count} hyperbolic planes, "
                    f"{len(red.transvections)} elementary congruences"])


def _cmd_complex_class(args) -> Outcome:
    from .cobordism import validate
    cpx = jsonio.complex_from_json(_load(args.complex))
    report = validate(cpx, diagonalize_h0=True)  # a symmetric H^0 form comes diagonalized
    if not report.ok:
        raise ValueError(f"invalid complex: {report.problems}")
    h0 = report.h0_form
    cls = witt_class_of(h0)  # for a skew H^0 form, certified zero by a symplectic basis
    payload = {
        "symmetry": "symmetric" if cpx.epsilon == 1 else "skew",
        "witt_class": jsonio.witt_class_to_json(cls),
        "cohomology": {str(i): d for i, d in sorted(report.cohomology_dims.items())},
    }
    text = [f"cobordism class: signature {cls.signature}, "
            f"{len(cls.residues)} nonzero residues"]
    if cpx.epsilon == SKEW:
        planes = h0.gram.n // 2
        payload["symplectic_certificate"] = {"hyperbolic_count": planes}
        text.append(f"skew sector: certified zero ({planes} hyperbolic planes on H^0)")
    return Outcome(None, payload, text)


def _cmd_verify_witness(args) -> Outcome:
    from .cobordism import verify_witness
    w = jsonio.witness_from_json(_load(args.witness))
    report = verify_witness(w)
    payload = {"ok": report.ok, "failures": report.failures}
    text = ["witness verifies" if report.ok else "witness FAILS"]
    for f in report.failures:
        text.append("  " + json.dumps(f, sort_keys=True, default=_rational))
    return Outcome(report.ok, payload, text)


def _cmd_hodge_check(args) -> Outcome:
    from .hodge import is_polarization
    h = jsonio.hodge_from_json(_load(args.hodge))
    s = jsonio.form_from_json(_load(args.form))
    chk = is_polarization(h, s)
    payload = {"is_polarization": chk.ok, "problems": chk.problems}
    text = ["polarization" if chk.ok else "not a polarization"] + [f"  {p}" for p in chk.problems]
    return Outcome(chk.ok, payload, text)


def _cmd_hodge_compare(args) -> Outcome:
    from .genus import format_poly
    from .hodge import compare_polarizations
    h = jsonio.hodge_from_json(_load(args.hodge))
    s = jsonio.form_from_json(_load(args.s))
    s2 = jsonio.form_from_json(_load(args.s2))
    pair = compare_polarizations(h, s, s2)
    payload = {
        "phi": jsonio.format_matrix(pair.phi),
        "char_poly_ascending": [str(c) for c in pair.char_poly],
        "sturm": {
            "positive_roots": pair.sturm.positive_roots,
            "real_roots": pair.sturm.real_roots,
            "distinct_roots": pair.sturm.distinct_roots,
            "all_real_positive": pair.sturm.all_real_positive,
        },
        "semisimple": pair.semisimple,
        "identity_chain": pair.identity_chain_ok,
        "preserves_bigrading": pair.preserves_bigrading,
        "signatures": {"s": list(pair.signature_s), "s_prime": list(pair.signature_s_prime)},
        "real_witt_classes_equal": pair.real_witt_classes_equal,
        "certified": pair.certified,
    }
    if pair.eigenspaces is not None:
        payload["eigenvalues"] = [str(e.eigenvalue) for e in pair.eigenspaces]
    if all(c.denominator == 1 for c in pair.char_poly):
        char_str = format_poly([int(c) for c in pair.char_poly], var="t")
    else:
        char_str = " + ".join(f"({c})*t^{k}" for k, c in enumerate(pair.char_poly) if c)
    text = [
        f"char poly {char_str}",
        f"spectrum: {pair.sturm.positive_roots}/{pair.sturm.distinct_roots} distinct roots positive real",
        f"semisimple: {pair.semisimple}",
        f"signatures {pair.signature_s} vs {pair.signature_s_prime}",
        f"real Witt classes equal: {pair.real_witt_classes_equal}",
        f"certified: {pair.certified}",
    ]
    if pair.eigenspaces is not None:
        text.insert(2, "eigenvalues " + ", ".join(str(e.eigenvalue) for e in pair.eigenspaces))
    return Outcome(pair.certified, payload, text)


def _cmd_pol_class(args) -> Outcome:
    from .hodge import pol_class
    h = jsonio.hodge_from_json(_load(args.hodge))
    s = jsonio.form_from_json(_load(args.form))
    cls = pol_class(h, s)
    return Outcome(None, jsonio.witt_class_to_json(cls),
                   [f"normalized polarization class: signature {cls.signature}, "
                    f"{len(cls.residues)} nonzero residues"])


def _cmd_chi_y(args) -> Outcome:
    from .genus import chi_y, format_poly, specialize
    d = jsonio.diamond_from_json(_load(args.diamond))
    chi = chi_y(d)
    spec = specialize(chi, d.dim)
    payload = {
        "chi_y_coefficients": chi,
        "chi_y": format_poly(chi),
        "euler": spec.euler,
        "arithmetic_genus": spec.arithmetic_genus,
        "signature": spec.signature,
        "signature_is_middle": spec.signature_is_middle,
    }
    text = [
        f"chi_y = {format_poly(chi)}",
        f"euler characteristic (y=-1): {spec.euler}",
        f"arithmetic genus (y=0): {spec.arithmetic_genus}",
        f"signature (y=1): {spec.signature}"
        + ("" if spec.signature_is_middle else " (odd dimension: not the middle signature)"),
    ]
    return Outcome(None, payload, text)


def _cmd_epsilon(args) -> Outcome:
    from .genus import epsilon
    value = epsilon(args.m)
    return Outcome(None, {"m": args.m, "epsilon": value}, [f"epsilon({args.m}) = {value:+d}"])


def _cmd_lefschetz_check(args) -> Outcome:
    from .genus import lefschetz_cancellation_check
    pieces, weight = jsonio.pieces_from_json(_load(args.pieces))
    report = lefschetz_cancellation_check(pieces, weight)
    payload = {
        "weight": report.weight,
        "lhs": {str(j): c for j, c in sorted(report.lhs_coeffs.items())},
        "rhs": {str(j): c for j, c in sorted(report.rhs_coeffs.items())},
        "pushforward_pairing": {str(j): c for j, c in sorted(report.pushforward_coeffs.items())},
        "lhs_signature": report.lhs_signature,
        "rhs_signature": report.rhs_signature,
        "equal": report.equal,
        "odd_pieces_vanish": report.odd_pieces_vanish,
    }
    text = [
        f"lhs {payload['lhs']}",
        f"rhs {payload['rhs']}",
        f"signature totals {report.lhs_signature} = {report.rhs_signature}",
        "equal" if report.equal else "NOT equal",
    ]
    return Outcome(report.equal, payload, text)


def _cmd_worked_examples(args) -> Outcome:
    from .genus import example_drivers
    report = example_drivers()
    dp = report.double_point
    payload = {
        "double_point_surface": {
            "sum_class": jsonio.witt_class_to_json(dp["class_of_sum"]),
            "psi1_at_2": jsonio.fp_class_to_json(dp["psi1_at_2"]),
            "psi1_at_2_nonzero": dp["psi1_at_2_nonzero"],
            "psi0_at_3": jsonio.fp_class_to_json(dp["psi0_at_3"]),
            "psi0_at_3_order": dp["psi0_at_3_order"],
            "psi0_at_3_nonzero": dp["psi0_at_3_nonzero"],
            "nonvanishing": dp["nonvanishing"],
        },
        "cone_surfaces": [
            {
                "degree": r.m,
                "h20": r.h20,
                "h11": r.h11,
                "signature_h2": r.signature_h2,
                "primitive_signature": r.primitive_signature,
                "residual_signature": r.residual_signature,
                "nonzero": r.nonzero,
            }
            for r in report.cone_surfaces
        ],
        "all_verdicts_true": report.all_true,
    }
    text = [
        "double point: [<1>] + [<-2>] in W(Q)",
        f"  residue route at 2 (psi^1): nonzero = {dp['psi1_at_2_nonzero']}",
        f"  reduction route at 3 (psi^0): 2[<1>] has order {dp['psi0_at_3_order']} in Z/4, "
        f"nonzero = {dp['psi0_at_3_nonzero']}",
        f"  class does not vanish: {dp['nonvanishing']}",
        "cone over a degree-m surface: residual after the intersection-complex term",
    ]
    for r in report.cone_surfaces:
        text.append(f"  m={r.m}: signature(H^2)={r.signature_h2}, primitive part {r.primitive_signature}, "
                    f"residual {r.residual_signature} (nonzero: {r.nonzero})")
    text.append(f"all verdicts true: {report.all_true}")
    return Outcome(report.all_true, payload, text)


def _cmd_selfcheck(args) -> Outcome:
    from .selfcheck import run_all
    results = run_all(args.seed, args.trials)
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "suites": [
            {"name": r.name, "trials": r.trials, "passed": r.passed, "failures": r.failures}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    text = [f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.trials} trials)" for r in results]
    return Outcome(all(r.passed for r in results), payload, text)


def _rational(x) -> str:
    """``json``'s ``default``: a ``Fraction`` is written as its string ("3/4")."""
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1, as exit 2 is a false verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# One row per command: its name, help line, handler and arguments.  An
# argument is a positional name or an (option, argparse settings) pair.
_COMMANDS = (
    ("invariants", "rank, signature, discriminant, Hasse symbols", _cmd_invariants, ("form",)),
    ("witt-class", "canonical Witt class of a form over Q", _cmd_witt_class, ("form",)),
    ("equivalent", "decide Witt equality of two forms", _cmd_equivalent, ("a", "b")),
    ("residue", "residue map psi^k into W(F_p)", _cmd_residue,
     (("--prime", {"type": int, "required": True}),
      ("--k", {"type": int, "choices": (0, 1), "required": True}), "form")),
    ("metabolic-reduce", "clear the A and B blocks of a block-metabolic form", _cmd_metabolic_reduce,
     ("block",)),
    ("complex-class", "cobordism class of a self-dual complex", _cmd_complex_class, ("complex",)),
    ("verify-witness", "check a cobordism witness diagram", _cmd_verify_witness, ("witness",)),
    ("hodge-check", "is the pairing a polarization?", _cmd_hodge_check, ("hodge", "form")),
    ("hodge-compare", "compare two polarizations of one structure", _cmd_hodge_compare,
     ("hodge", "s", "s2")),
    ("pol-class", "Witt class of the sign-normalized polarization", _cmd_pol_class, ("hodge", "form")),
    ("chi-y", "chi_y polynomial of a Hodge diamond", _cmd_chi_y, ("diamond",)),
    ("epsilon", "the sign (-1)^(m(m+1)/2)", _cmd_epsilon, (("m", {"type": int}),)),
    ("lefschetz-check", "double-sum collapse identity on primitive pieces", _cmd_lefschetz_check,
     ("pieces",)),
    ("worked-examples", "run the worked example drivers with certificates", _cmd_worked_examples, ()),
    ("selfcheck", "randomized invariance suites", _cmd_selfcheck,
     (("--seed", {"type": int, "default": 0}), ("--trials", {"type": int, "default": 50}))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wittpoint",
        description="Exact Witt-group, point-cobordism, polarization, and chi_y computations.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_line)
        for arg in arguments:
            option, settings = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(option, **settings)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outcome: Outcome = args.handler(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"internal error: {exc} (this is a bug)", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(outcome.payload, sort_keys=True, indent=2, default=_rational))
    else:
        for line in outcome.text:
            print(line)
    if outcome.verdict is False:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
