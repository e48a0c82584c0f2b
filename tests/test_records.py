"""The package's record classes keep the behaviour of the dataclasses they
replaced.

Each record class is checked against a reference that
``dataclasses.make_dataclass`` builds from the same fields, defaults, frozen
flag and repr/compare exclusions, on instances the package itself makes:
``repr``, ``==`` and the frozen ``hash`` agree with the reference, frozen
records refuse assignment, the others are unhashable, default factories give
a fresh object per instance, and every record survives a pickle round trip.
"""

import dataclasses
import inspect
import pickle
from fractions import Fraction
from random import Random

import pytest

from wittpoint import cli, cobordism, core, forms, genus, hodge, selfcheck, witt
from wittpoint.core import Frozen, Record
from wittpoint.linalg import Mat

# The fields of each record, in order, as its dataclass declared them.
FIELDS = {
    "core.SquareClass": "representative _primes",
    "core.SturmCertificate": "positive_roots real_roots distinct_roots all_real squarefree squarefree_part",
    "forms.BilinearForm": "field symmetry gram",
    "forms.Pivots": "entries radical_dim",
    "forms.Diagonalization": "entries radical_dim congruence",
    "forms.FormInvariants": "rank signature discriminant hasse",
    "forms.RadicalSplit": "nondegenerate radical_dim basis",
    "forms.SymplecticReduction": "hyperbolic_count congruence",
    "forms.BlockMetabolicForm": "s a b",
    "forms.MetabolicReduction": "core hyperbolic_count transvections congruence",
    "witt.WittClassFp": "p payload",
    "witt.WittClassQ": "signature residues",
    "cli.Outcome": "verdict payload text",
    "cobordism.ChainComplex": "spaces differentials",
    "cobordism.SelfDualComplex": "epsilon complex pairings",
    "cobordism.ComplexReport": "ok problems cohomology_dims induced_pairings cohomology h0_form",
    "cobordism.CobordismWitness": "kind f f_prime g g_prime pi rho rho_prime pi_prime s2 homotopy",
    "cobordism.WitnessReport": "ok failures homotopy",
    "cobordism.OrthogonalSplit": "kind restriction complement complement_basis quotient_form witness",
    "cobordism.WitnessCoreResult": "core witness_to_f witness_to_f_prime",
    "cobordism.ChainLink": "step obj witness block",
    "cobordism.WitnessChain": "core links",
    "hodge.HodgePiece": "p q re im",
    "hodge.HodgeStructure": "weight dimension pieces",
    "hodge._Summand": "p q start k coords pivots",
    "hodge._Frame": "basis inverse summands",
    "hodge.PolarizationCheck": "ok problems weil s_c",
    "hodge.Eigenspace": "eigenvalue basis",
    "hodge.PolarizationPair": ("s s_prime phi char_poly sturm semisimple identity_chain_ok "
                               "preserves_bigrading eigenspaces signature_s signature_s_prime"),
    "genus.HodgeDiamond": "dim h",
    "genus.ChiSpecializations": "euler arithmetic_genus signature signature_is_middle",
    "genus.PrimitivePiece": "j weight signature",
    "genus.LefschetzReport": ("weight lhs_coeffs rhs_coeffs pushforward_coeffs lhs_signature "
                              "rhs_signature equal odd_pieces_vanish"),
    "genus.ConeSurfaceReport": "m h20 h11 signature_h2 primitive_signature residual_signature nonzero",
    "genus.DriverReport": "double_point cone_surfaces",
    "selfcheck.SuiteResult": "name trials passed failures",
}
FROZEN = {"core.SquareClass", "core.SturmCertificate", "forms.BilinearForm", "forms.Pivots",
          "forms.Diagonalization", "forms.FormInvariants", "forms.RadicalSplit", "forms.SymplecticReduction",
          "forms.BlockMetabolicForm", "forms.MetabolicReduction", "witt.WittClassFp", "witt.WittClassQ",
          "hodge._Summand", "hodge._Frame", "genus.HodgeDiamond", "genus.ChiSpecializations",
          "genus.PrimitivePiece"}
# fields with a default factory, and fields left out of repr and == (and of __init__)
FACTORIES = {"core.SturmCertificate.squarefree_part": list, "cobordism.ChainComplex.differentials": dict}
HIDDEN = {"core.SturmCertificate.squarefree_part"}
NOT_INIT = {"core.SquareClass._primes"}


def name_of(cls) -> str:
    return f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__qualname__}"


def record_classes() -> list[type]:
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub is not Frozen:
                found.append(sub)
    return found


def reference(cls):
    """The dataclass ``cls`` replaced: same name, fields, defaults, frozen
    flag and exclusions."""
    name = name_of(cls)
    defaults = inspect.signature(cls).parameters
    fields = []
    for f in FIELDS[name].split():
        key = f"{name}.{f}"
        options = {}
        if key in FACTORIES:
            options["default_factory"] = FACTORIES[key]
        elif f in defaults and defaults[f].default is not inspect.Parameter.empty:
            options["default"] = defaults[f].default
        if key in HIDDEN or key in NOT_INIT:
            options.update(repr=False, compare=False, init=key not in NOT_INIT)
        fields.append((f, object, dataclasses.field(**options)))
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=name in FROZEN)


def init_fields(cls) -> list[str]:
    return [f for f in FIELDS[name_of(cls)].split() if f"{name_of(cls)}.{f}" not in NOT_INIT]


def rebuild(record, cls):
    """``cls`` (the record's class or its reference) built from the record's fields."""
    out = cls(**{f: getattr(record, f) for f in init_fields(type(record))})
    for f in FIELDS[name_of(type(record))].split():
        if f"{name_of(type(record))}.{f}" in NOT_INIT:
            object.__setattr__(out, f, getattr(record, f))
    return out


def hash_of(record):
    """The hash of a record, or the message of the ``TypeError`` it raises."""
    try:
        return hash(record)
    except TypeError as exc:
        return str(exc)


def records_in(value, out: dict):
    """Every record reachable from ``value`` through fields, lists, tuples and dicts."""
    if isinstance(value, Record):
        group = out.setdefault(type(value), [])
        if any(r is value for r in group):
            return
        group.append(value)
        value = [getattr(value, f) for f in FIELDS[name_of(type(value))].split()]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for v in value:
            records_in(v, out)


def sample_records() -> dict:
    """Records the package makes, two or more of most classes."""
    made = []
    for seed in range(4):
        chain = cobordism.random_witness_chain(Random(seed), 2, 3)
        made.append(chain)
        for link in chain.links:
            made.append(cobordism.verify_witness(link.witness))
            if link.block is not None:
                made.append(forms.metabolic_reduce(link.block))
            if isinstance(link.obj, cobordism.SelfDualComplex):
                made.append(cobordism.validate(link.obj))
        made += [forms.diagonalize(chain.core), forms.invariants(chain.core), witt.witt_class_of(chain.core)]
    made.append(witt.witt_class_of(forms.BilinearForm.from_diagonal([-5, 3, 13, 2])))
    # LDL^T pivots, of Gram matrices whose leading minors are all nonzero
    made += [forms.pivots(forms.BilinearForm.from_rows(rows)) for rows in ([[2, 1], [1, 3]], [[-1, 2], [2, 0]])]
    made.append(forms.radical_split(forms.BilinearForm.from_rows([[1, 0], [0, 0]])))
    made.append(forms.symplectic_reduce(forms.BilinearForm.from_rows([[0, 1], [-1, 0]], forms.SKEW)))
    made.append(cobordism.orthogonal_split(forms.BilinearForm.from_diagonal([1, 1]),
                                           Mat.from_columns([[Fraction(1), Fraction(0)]], m=2)))
    made.append(cobordism.orthogonal_split(forms.HYPERBOLIC_PLANE,
                                           Mat.from_columns([[Fraction(1), Fraction(0)]], m=2)))
    f = forms.BilinearForm.from_diagonal([2, -3])
    w = cobordism.truncation_witness(cobordism.SelfDualComplex.from_form(f))
    made += [w, cobordism.witness_common_core(w), cobordism.WitnessReport(False, [{"check": "planted"}])]
    rng = Random(41)
    for weight, dim in [(1, 2), (2, 3), (2, 4)]:
        h, s, s_prime = hodge.random_polarization_pair(rng, weight, dim)
        made += [h, hodge._frame(h), hodge.is_polarization(h, s_prime), hodge.compare_polarizations(h, s, s_prime)]
    made.append(hodge.compare_polarizations(h, s, s))  # phi = 1: one eigenspace
    made += [core.sturm_positive_real_roots([Fraction(-2), 0, 1])]
    pieces = [genus.PrimitivePiece(0, 2, 3), genus.PrimitivePiece(2, 2, -1)]
    made += pieces + [genus.HodgeDiamond(1, ((1, 2), (2, 1))), genus.specialize([1, -2, 1], 2),
                      genus.specialize([1, 0], None), genus.lefschetz_cancellation_check(pieces, 2),
                      genus.example_drivers()]
    made += [selfcheck.suite_congruence_invariance(Random(1), 1),
             selfcheck.SuiteResult("planted", 1, False, [{"trial": 0}])]
    made += [cli.Outcome(None, {"rank": 1}, ["rank 1"]), cli.Outcome(True, {}, [])]
    out = {}
    records_in(made, out)
    return out


@pytest.fixture(scope="module")
def samples():
    return sample_records()


def test_every_record_class_is_pinned(samples):
    classes = record_classes()
    assert sorted(map(name_of, classes)) == sorted(FIELDS)
    assert len(classes) == 36
    for cls in classes:
        assert (name_of(cls) in FROZEN) == issubclass(cls, Frozen), name_of(cls)
        assert list(inspect.signature(cls).parameters) == init_fields(cls), name_of(cls)
        assert cls in samples, f"no sample of {name_of(cls)}"


def test_repr_eq_and_hash_match_the_dataclass(samples):
    for cls, group in samples.items():
        ref = reference(cls)
        for record in group:
            twin, mirror, mirror_twin = rebuild(record, cls), rebuild(record, ref), rebuild(record, ref)
            assert repr(record) == repr(mirror) == repr(twin), name_of(cls)
            assert (record == twin) is (mirror == mirror_twin), name_of(cls)
            assert (record != twin) is (mirror != mirror_twin), name_of(cls)
            assert record.__eq__(mirror) is NotImplemented and mirror.__eq__(record) is NotImplemented
            assert record != mirror
            for other in group:
                assert (record == other) is (mirror == rebuild(other, ref)), name_of(cls)
            if name_of(cls) in FROZEN:
                assert hash_of(record) == hash_of(twin) == hash_of(mirror), name_of(cls)


def test_frozen_records_refuse_assignment_and_the_rest_are_unhashable(samples):
    for cls, group in samples.items():
        record = group[0]
        if name_of(cls) in FROZEN:
            for f in [*init_fields(cls), "extra"]:
                with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
                    setattr(record, f, None)
                with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
                    delattr(record, f)
        else:
            with pytest.raises(TypeError, match="unhashable type"):
                hash(record)
            with pytest.raises(TypeError, match="unhashable type"):
                hash(rebuild(record, reference(cls)))
            first = init_fields(cls)[0]
            value = getattr(record, first)
            setattr(record, first, value)  # assignable
            assert getattr(record, first) is value


def test_default_factories_give_a_fresh_object_per_instance():
    made = {"core.SturmCertificate": lambda cls: cls(0, 0, 0, True, True),
            "cobordism.ChainComplex": lambda cls: cls({})}
    classes = {name_of(cls): cls for cls in record_classes()}
    for key, factory in FACTORIES.items():
        name, f = key.rsplit(".", 1)
        for cls in (classes[name], reference(classes[name])):
            a, b = made[name](cls), made[name](cls)
            assert getattr(a, f) == factory() and getattr(a, f) is not getattr(b, f), key


def test_records_survive_a_pickle_round_trip(samples):
    for cls, group in samples.items():
        ref = reference(cls)
        for record in group:
            data = pickle.dumps(record)
            copy = pickle.loads(data)
            assert type(copy) is cls and pickle.dumps(copy) == data, name_of(cls)
            assert (copy == record) is (rebuild(copy, ref) == rebuild(record, ref)), name_of(cls)
            if name_of(cls) in FROZEN:
                assert hash_of(copy) == hash_of(record), name_of(cls)


def test_a_kept_diagonalization_is_never_pickled():
    # diagonalize keeps its result in the form's __dict__, and the result its
    # square classes, beside their fields; a pickle holds the fields alone
    def fresh():
        return forms.BilinearForm.from_rows([[0, 1, 2], [1, 0, 0], [2, 0, Fraction(1, 3)]])

    f = fresh()
    diag = forms.diagonalize(f)
    assert diag.classes and {"_diagonalization"} < set(vars(f)) and {"_classes"} < set(vars(diag))
    assert pickle.dumps(f) == pickle.dumps(fresh())
    assert pickle.dumps(diag) == pickle.dumps(forms.diagonalize(fresh()))
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and "_diagonalization" not in vars(copy)
    assert forms.diagonalize(copy) == diag


def test_kept_pivots_are_never_pickled():
    # pivots keeps its result in the form's __dict__ too, and the result its
    # square classes; the form's leading minors are nonzero, so they are LDL^T pivots
    def fresh():
        return forms.BilinearForm.from_rows([[2, 1, 0], [1, 3, 5], [0, 5, Fraction(7, 2)]])

    f = fresh()
    piv = forms.pivots(f)
    assert type(piv) is forms.Pivots and piv.classes
    assert {"_pivots"} < set(vars(f)) and {"_classes"} < set(vars(piv)) and "_diagonalization" not in vars(f)
    assert pickle.dumps(f) == pickle.dumps(fresh())
    assert pickle.dumps(piv) == pickle.dumps(forms.pivots(fresh()))
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and "_pivots" not in vars(copy)
    assert forms.pivots(copy) == piv
