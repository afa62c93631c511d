"""spherig: simplicial sphere combinatorics and generic rigidity over a prime field."""

from .complexes import (
    SimplicialComplex,
    join,
    prime_factors,
)
from .graphs import Graph, complete_graph, cone_graph, graph_of, union
from .rigidity import (
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    RigidityVerdict,
    decide_rigidity,
    derive_seed,
    edge_deletion_ranks,
    random_embedding,
    rigidity_target,
)
from .certificates import (
    Certificate,
    CertificateError,
    certify_missing_face_edge,
    certify_star_rigidity,
    check,
)
from .generators import (
    FlipMove,
    bistellar_flip,
    boundary_simplex,
    cross_polytope,
    cycle_complex,
    cyclic_polytope_boundary,
    join_simplex_cycle,
    join_spheres,
    legal_flips,
    random_flip_walk,
    stack_over_facet,
)
from .harness import (
    CheckRecord,
    CorpusEntry,
    Report,
    SuiteConfig,
    build_corpus,
    flip_walk_corpus,
    run_suite,
    verify,
    verify_contraction_reduction,
    verify_negative_control,
)
from .textio import format_facets, parse_facets

__version__ = "0.1.0"
