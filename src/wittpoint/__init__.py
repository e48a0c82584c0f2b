"""Exact Witt-group arithmetic, point-scale cobordism of self-dual
complexes, polarization comparison for Hodge structures, and the chi_y /
signature sign calculus."""

from .core import (
    REAL_PLACE,
    CertificateError,
    LocalUnitData,
    SquareClass,
    SturmCertificate,
    hilbert_symbol,
    p_adic_split,
    square_class,
    sturm_positive_real_roots,
)
from .forms import (
    BilinearForm,
    BlockMetabolicForm,
    Diagonalization,
    FormInvariants,
    HYPERBOLIC_PLANE,
    diagonalize,
    invariants,
    metabolic_reduce,
    radical_split,
    symplectic_reduce,
)
from .witt import (
    WittClassFp,
    WittClassQ,
    equivalent,
    fp_class_of,
    fp_group_table,
    group_law,
    psi,
    witt_class_of,
)
from .cobordism import (
    ChainComplex,
    CobordismWitness,
    SelfDualComplex,
    cobordism_class,
    h0_form,
    null_witness,
    orthogonal_split,
    witness_common_core,
    truncation_witness,
    validate,
    verify_witness,
)
from .hodge import (
    HodgePiece,
    HodgeStructure,
    PolarizationPair,
    compare_polarizations,
    is_polarization,
    pol_class,
    weil_operator,
)
from .genus import (
    HodgeDiamond,
    PrimitivePiece,
    chi_y,
    epsilon,
    example_drivers,
    lefschetz_cancellation_check,
    sign_dictionary_check,
    specialize,
)

__version__ = "0.1.0"
