"""Extremal-length machinery of the twice-punctured plane.

Word algebra on two generators, syllable decomposition and the Lambda
invariant, rectangle extremal lengths via elliptic integrals, path lifting
under the logarithmic covering, and the pure-3-braid correspondence.
"""

__version__ = "0.1.0"

from slalom.words import FreeWord, Generator, Term, concat, format_word, invert, parse_word
from slalom.syllables import (
    BoundaryCondition,
    BoundConstants,
    Syllable,
    SyllableDecomposition,
    SyllableKind,
    classify_exceptional,
    decompose,
    lambda_bounds,
    lambda_invariant,
)
from slalom.elliptic import (
    BoundCheckReport,
    ModulusMethod,
    QuadModulus,
    agm,
    rect_extremal_length,
    verify_log_bounds,
)
from slalom.covering import (
    ElementaryPiece,
    HalfPlane,
    Plane,
    PolyPath,
    SlalomDecomposition,
    cover_map,
    curve_to_word,
    lift_path,
    slalom_decompose,
    word_to_curve,
)
from slalom.braids import (
    BraidGenerator,
    BraidLetter,
    BraidWord,
    StrandPaths,
    braid_invariant,
    braid_to_strands,
    cross_ratio_curve,
    cstar,
    full_twist,
    parse_braid,
    permutation,
)
