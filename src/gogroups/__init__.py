"""Graphs of groups over computable group classes.

Build finite graphs of groups and diagrams of groups whose vertex and
edge groups are free abelian, finite (multiplication table), or free;
generate fundamental-group presentations, solve word problems by pinch
reduction, apply structural moves (edge contraction, tree collapse,
diagram-to-graph conversion, edge decomposition), and decide abelianness
with machine-checkable witnesses.
"""

from .analysis import AbelianVerdict, product_rank_family, rank_bound, recognize_abelian
from .errors import (
    CapExceeded,
    GogError,
    GogParseError,
    InvalidStructure,
    LoopContraction,
    NonLoopWord,
    NotIso,
    OracleIncomplete,
    ShapeMismatch,
    SpellingFailure,
    UnknownLetter,
    UnrepresentableImage,
    UnsupportedClass,
    UnsupportedHom,
)
from .gog import (
    DiagramClass,
    GraphOfGroups,
    Letter,
    Presentation,
    classify,
    pi1_presentation,
    presentation_to_text,
    validate_gog,
)
from .gogfile import parse_gog, parse_gog_text, serialize_gog
from .graph import (
    AbstractGraph,
    EdgeOrbit,
    ValidationReport,
    contract_edge_graph,
    orbits,
    spanning_tree,
    validate_graph,
)
from .groups import (
    FiniteTable,
    FreeAbelian,
    FreeGroup,
    GroupDesc,
    Hom,
    MembershipAnswer,
    cogenerator,
    compose,
    cyclic_table,
    dihedral_table,
    direct_product,
    geometric_rank_class,
    group_rank,
    hom_apply,
    hom_is_injective,
    hom_member,
    inverse,
    is_isomorphism,
    is_surjective,
)
from .moves import (
    Decomposition,
    collapse_tree,
    contract_edge,
    convert_diagram,
    decompose_along_edge,
    reassemble,
)
from .quotients import (
    CosetTable,
    InvariantFactors,
    OracleAnswer,
    QuotientOracle,
    SmithForm,
    abelianization,
    coset_enumeration,
    oracle_answer,
)
from .words import (
    LoopWord,
    PinchFreeForm,
    equal,
    format_loop_word,
    is_trivial,
    parse_loop_word,
    reduce,
    word_from_presentation_letters,
)

__version__ = "0.1.0"
