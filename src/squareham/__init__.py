"""Constructive machinery for squares of Hamilton cycles in sparse graphs.

Submodules:
    graphcore: graphs with one ``int`` bitset per adjacency row (derived
        graphs built from their parent's rows), random generation written
        straight into packed rows, a block of rows at a time, codegrees and
        triangle counts from one symmetric ``A·Aᵀ`` product (an attacked
        graph's square corrected from its host's on the attacked class's
        rows), family membership.  It holds no file format.
    gadgets: the one square-path check, a loop on short sequences and
        the one distance-1/2 pair pass on long ones, each naming its first
        fault from its one pass; the certificate check and the absorber
        audit run the same pair pass, and the connector's success check is
        the square-path check and the two ports.
    matching: Hall matching over bit rows, pairs or a deficient-set witness.
    connector: pair-to-pair connection jobs over a reservoir, each one
        ``connect_one`` call whose plain arguments are the job (its two
        ports, its reservoir and its longest length), served shortest
        first: the direct arc off the port rows, then one search per length.
    absorber: an absorber is one square path and the absorbees it may
        leave out; it is built from five-vertex units, each the star core
        one depth-first search per absorbee finds, chained onto the unit
        before so that the two meet with no link; only a unit whose chained
        search failed is linked.  Chaining runs the one absorber audit on
        every absorber it returns: the square-path check on the walk and
        on the walk less its absorbees, and one spacing pass.
    hamiltonian: the pipeline, in which any absorbee may anchor a straggler
        or fuel the threading, its one cover stage (searches, the splice,
        one check per path), exhaustive search up to 58 vertices,
        certificates and checkable infeasibility witnesses.
    adversary: triangle-removal attacks, retention profiling, experiments.
    cli: the ``artifact`` command-line front end, and the one module that
        opens files: the edge-list and JSON graph formats and ``read_graph``,
        one reader for every stored record, and the CSV reports.

Vertex sets are ``int`` bitsets, bit ``v`` set for vertex ``v``, and
sequences carry order (paths, certificates, witnesses, report fields); the
CLI converts each parsed vertex list once.  Every argument is read by one
rule, graphcore's: a vertex, count or seed is a Python or numpy integer,
never a ``bool``, read as a plain ``int``; a vertex set is a plain ``int``;
a graph is a ``Graph``.  Anything else raises ``InputError``, and only it.
"""

__version__ = "0.1.0"

from .absorber import (
    Absorber,
    absorb,
    build_single_absorbers,
    chain_absorbers,
    complete_absorbers,
    verify_absorber,
)
from .adversary import (
    AttackResult,
    RetentionProfile,
    k3_attack,
    max_triangle_packing,
    prune_triangle_poor_edges,
    resilience_experiment,
    triangle_retention_profile,
)
from .connector import ConnectResult, connect_one
from .gadgets import is_square_path, validate_embedding
from .graphcore import (
    FamilyParams,
    Graph,
    InputError,
    check_family_membership,
    complete_graph,
    gnp_generate,
    rng_for,
)
from .hamiltonian import (
    Certificate,
    FailureReport,
    InfeasibilityWitness,
    PipelineConfig,
    brute_force_square_ham,
    find_infeasibility_witness,
    find_square_ham,
    verify_certificate,
    verify_witness,
)
from .matching import hall_saturating_matching

__all__ = [
    "__version__",
    "Absorber",
    "AttackResult",
    "Certificate",
    "ConnectResult",
    "FailureReport",
    "FamilyParams",
    "Graph",
    "InfeasibilityWitness",
    "InputError",
    "PipelineConfig",
    "RetentionProfile",
    "absorb",
    "brute_force_square_ham",
    "build_single_absorbers",
    "chain_absorbers",
    "check_family_membership",
    "complete_absorbers",
    "complete_graph",
    "connect_one",
    "find_infeasibility_witness",
    "find_square_ham",
    "gnp_generate",
    "hall_saturating_matching",
    "is_square_path",
    "k3_attack",
    "max_triangle_packing",
    "prune_triangle_poor_edges",
    "resilience_experiment",
    "rng_for",
    "triangle_retention_profile",
    "validate_embedding",
    "verify_absorber",
    "verify_certificate",
    "verify_witness",
]
