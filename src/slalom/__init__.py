"""Extremal-length machinery of the twice-punctured plane.

Word algebra on two generators, syllable decomposition and the Lambda
invariant, rectangle extremal lengths via elliptic integrals, path lifting
under the logarithmic covering, and the pure-3-braid correspondence.

``import slalom`` loads no submodule: each name below loads its submodule on
first use (PEP 562), so ``from slalom import lambda_invariant`` never loads
the covering or the braids.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

_EXPORTS = {
    "words": "FreeWord Generator Term concat format_word invert parse_word",
    "syllables": "BoundaryCondition BoundConstants Syllable SyllableDecomposition SyllableKind "
                 "classify_exceptional decompose lambda_bounds lambda_invariant",
    "elliptic": "BoundCheckReport ModulusMethod QuadModulus agm rect_extremal_length verify_log_bounds",
    "covering": "ElementaryPiece HalfPlane Plane PolyPath SlalomDecomposition cover_map curve_to_word "
                "lift_path slalom_decompose word_to_curve",
    "braids": "BraidGenerator BraidLetter BraidWord StrandPaths braid_invariant braid_to_strands "
              "cross_ratio_curve cstar full_twist parse_braid permutation",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module 'slalom' has no attribute {name!r}")
    return getattr(_import_module(f"slalom.{_MODULE_OF[name]}"), name)
