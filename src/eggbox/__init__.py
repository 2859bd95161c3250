"""Finite-semigroup constructions for group embeddings.

Enumerates finitely generated monoids, classifies them under Green's
relations, coordinatizes completely simple minimal ideals, and builds the
two families of witnesses the library exists for: idempotent covers of a
finite group and row-monomial extensions that realize a prescribed group
surjection on a maximal subgroup.  Every construction ships with a
verification report that re-derives its claimed properties.
"""

from .core import (
    FiniteGroup,
    FiniteMonoid,
    MonoidHom,
    SubSemigroup,
    canonical_section,
    direct_power,
    generate_monoid,
    is_isomorphic,
    omega_power,
    underlying,
)
from .elements import (
    Element,
    compose_transformations,
    make_rowmono_mul,
    make_table_mul,
    row_monomial,
    table_element,
    transformation,
    tuple_element,
)
from .errors import (
    CapExceeded,
    EggboxError,
    InternalInconsistency,
    KMismatch,
    NTooSmall,
    NotSimple,
    ParseError,
    PrimeBoundViolated,
    UnknownObject,
)
from .green import (
    GreenStructure,
    ReesCoordinates,
    check_min_ideal_image,
    green_structure,
    idempotent_generated,
    is_simple,
    maximal_subgroup,
    minimal_ideal,
    rees_coordinates,
)
from .groups import builtin_group, cyclic, dihedral, identify, symmetric
from .report import Check, ConstructionReport
from .srank import check_rank_monotone, m_s, normal_subgroups, quotient_group, r_s
from .wreath import (
    constant_wreath,
    is_faithful_on_min_ideal,
    psi,
    rlm,
    schutz_faithful_quotient,
    schutz_rep,
)
from .constructions import (
    CoverResult,
    EmbeddingProblem,
    EmbeddingSolution,
    PreparedBase,
    assemble_embedding,
    build_idempotent_cover,
    cover_idempotent_witnesses,
    cover_modulus_bound,
    prepare_base,
    solve_embedding,
    verify_cover,
    verify_embedding,
)
from .defs import load_definitions, parse_definitions, write_cover_definition

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "Check",
    "ConstructionReport",
    "CoverResult",
    "EggboxError",
    "assemble_embedding",
    "Element",
    "EmbeddingProblem",
    "EmbeddingSolution",
    "FiniteGroup",
    "FiniteMonoid",
    "GreenStructure",
    "InternalInconsistency",
    "KMismatch",
    "MonoidHom",
    "NTooSmall",
    "NotSimple",
    "ParseError",
    "PreparedBase",
    "PrimeBoundViolated",
    "ReesCoordinates",
    "SubSemigroup",
    "UnknownObject",
    "builtin_group",
    "canonical_section",
    "check_min_ideal_image",
    "check_rank_monotone",
    "compose_transformations",
    "constant_wreath",
    "cover_idempotent_witnesses",
    "cover_modulus_bound",
    "cyclic",
    "dihedral",
    "direct_power",
    "generate_monoid",
    "green_structure",
    "identify",
    "idempotent_generated",
    "is_faithful_on_min_ideal",
    "is_isomorphic",
    "is_simple",
    "build_idempotent_cover",
    "load_definitions",
    "m_s",
    "make_rowmono_mul",
    "make_table_mul",
    "maximal_subgroup",
    "minimal_ideal",
    "normal_subgroups",
    "omega_power",
    "parse_definitions",
    "prepare_base",
    "psi",
    "quotient_group",
    "r_s",
    "rees_coordinates",
    "rlm",
    "row_monomial",
    "schutz_faithful_quotient",
    "schutz_rep",
    "solve_embedding",
    "symmetric",
    "table_element",
    "transformation",
    "tuple_element",
    "underlying",
    "verify_cover",
    "verify_embedding",
    "write_cover_definition",
]
