"""Exact-arithmetic toolkit for reversing symmetries.

Detects whether a group element (an integer matrix, a planar polynomial
map, or a translation on an elliptic curve) is conjugate to its inverse,
finds the conjugating elements, and classifies the group they generate.
"""

from .exactmath import (
    IntMatrix,
    IntPoly,
    NotUnimodular,
    char_poly,
    cyclotomic,
    finite_order_test,
    mat_det,
    mat_inverse_unimodular,
    mat_mul,
    mat_pow,
    reciprocity_class,
)
from .matgroup import (
    GroupContext,
    ReversibilityReport,
    SymmetryDescriptor,
    analyze,
    are_conjugate_bounded,
    discrete_log_in_symmetries,
    induced_automorphism,
    intertwiner_lattice,
    is_reversor,
    is_symmetry,
    power_of_two_reversor,
    search_reversors,
    symmetry_generator_2x2,
)
from .absgroup import (
    GroupModel,
    MODEL_TAGS,
    Word,
    enumerate_reversors,
    make_model,
    multiply,
    verify_theorem_claims,
    word_order,
)
from .polyauto import (
    MultiPoly,
    PolyMap,
    build_example_family,
    check_reversor_identity,
    check_symmetry_identity,
    compose,
    trace_map_suite,
)
from .elliptic import Curve, CurveMap, add, compose_maps, neg, scalar_mul
from .numth import predicted_count, square_roots_of_unity

__version__ = "0.1.0"
