"""Exact combinatorics of dichotomous boxes, polyboxes, genomes, and tilings."""

from .boxes import (
    Box,
    BoxSpace,
    complement_action,
    epsilon_of,
    is_dichotomous,
    is_twin_pair,
    mask_of,
    members_of,
    simple_suit,
)
from .canon import CanonicalForm, canonical_form, project_box, suits_equivalent
from .errors import DEFAULT_BUDGET
from .genomes import (
    Alphabet,
    CoverResult,
    GenomeSet,
    STAR,
    WordCanonicalForm,
    covers,
    genome_canonical,
    genomes_equivalent,
    induced_decomposition,
    reconstruct_minus,
    rigidity_witness,
    word_expand,
    word_index,
)
from .indices import (
    BinaryCode,
    CodeProfile,
    DyadicLabelling,
    apply_epsilon,
    binary_code_profile,
    equicomplementary_labelling,
    eta,
    even_odd_code,
    index_representatives,
    more_less_code,
    phi,
    polybox_equal_by_index,
    suit_index,
    verify_dyadic,
)
from .suits import (
    PointSet,
    Suit,
    box_number,
    hat_cardinality,
    is_minimal_partition,
    is_polybox,
    proper_suit_for,
    strongly_disjoint,
    union_points,
    verify_suit,
)
from .tilings import (
    ChessboardResult,
    ExtremalDecomposition,
    TorusTiling,
    chessboard_check,
    decompose,
    generate_two_extremal,
    is_two_extremal,
    reconstruct,
    tiling_genome,
    tiling_verify,
)

# The word kernel (polybox.words) is internal to the layers above.
__all__ = [name for name in dir() if not name.startswith("_") and name != "words"]
