"""Exact Witt-group arithmetic, point-scale cobordism of self-dual
complexes, polarization comparison for Hodge structures, and the chi_y /
signature sign calculus.

The public names below are loaded lazily (PEP 562): ``import wittpoint``
imports no submodule, and the first access to a name imports the module
that defines it."""

from importlib import import_module

_EXPORTS = {
    "core": (
        "REAL_PLACE", "CertificateError", "SquareClass", "SturmCertificate",
        "hilbert_symbol", "square_class", "sturm_positive_real_roots",
    ),
    "forms": (
        "BilinearForm", "BlockMetabolicForm", "Diagonalization", "FormInvariants",
        "HYPERBOLIC_PLANE", "diagonalize", "invariants", "metabolic_reduce",
        "radical_split", "symplectic_reduce",
    ),
    "witt": (
        "WittClassFp", "WittClassQ", "equivalent", "fp_class_of", "psi",
        "witt_class_of",
    ),
    "cobordism": (
        "ChainComplex", "CobordismWitness", "SelfDualComplex", "cobordism_class",
        "congruence_witness", "h0_form", "null_witness", "orthogonal_split",
        "witness_common_core", "truncation_witness", "validate", "verify_witness",
    ),
    "hodge": (
        "HodgePiece", "HodgeStructure", "PolarizationPair", "compare_polarizations",
        "is_polarization", "pol_class", "weil_operator",
    ),
    "genus": (
        "HodgeDiamond", "PrimitivePiece", "chi_y", "epsilon", "example_drivers",
        "lefschetz_cancellation_check", "sign_dictionary_check", "specialize",
    ),
}
# public name -> the submodule that defines it
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
