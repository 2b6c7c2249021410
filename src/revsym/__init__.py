"""Exact-arithmetic toolkit for reversing symmetries.

Detects whether a group element (an integer matrix, a planar polynomial
map, or a translation on an elliptic curve) is conjugate to its inverse,
finds the conjugating elements, and classifies the group they generate.

Each layer is imported on first use of one of its names (PEP 562), so
`import revsym` loads no submodule.  A name is looked up in its layer on
every access and never cached here, so it is always the layer's own object.
"""

from importlib import import_module as _import

_EXPORTS = {
    "exactmath": ("IntMatrix", "IntPoly", "NotUnimodular", "char_poly",
                  "cyclotomic", "finite_order_test", "mat_det",
                  "mat_inverse_unimodular", "mat_mul", "mat_pow",
                  "reciprocity_class"),
    "matgroup": ("GroupContext", "ReversibilityReport", "SymmetryDescriptor",
                 "analyze", "find_conjugator", "intertwiner_lattice",
                 "is_reversor", "is_symmetry", "search_reversors",
                 "symmetry_generator_2x2"),
    "absgroup": ("GroupModel", "MODEL_TAGS", "Word", "make_model",
                 "multiply", "verify_theorem_claims"),
    "polyauto": ("MultiPoly", "PolyMap", "build_example_family",
                 "check_reversor_identity", "check_symmetry_identity",
                 "compose", "trace_map_suite"),
    "elliptic": ("Curve", "CurveMap", "add", "compose_maps", "scalar_mul"),
    "numth": ("predicted_count", "square_roots_of_unity"),
}
__all__ = sorted(n for layer, names in _EXPORTS.items()
                 for n in (layer, *names))
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import(f"{__name__}.{name}")
    for layer, names in _EXPORTS.items():
        if name in names:
            return getattr(_import(f"{__name__}.{layer}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*__all__, *(n for n in globals() if n.startswith("__"))]
