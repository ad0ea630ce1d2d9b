"""Train track maps for free group automorphisms.

Exact word arithmetic, graph self-maps with invariant filtrations,
Perron-Frobenius growth data, Nielsen path search, bounded cancellation
estimates, and bounded empirical probes for atoroidality and uniform
(hyperbolic) growth.  The `traintrack` console script exposes the same
operations on two small text formats.
"""

from .words import (
    Automorphism,
    BudgetExceeded,
    CyclicWord,
    Word,
    compose,
    conjugacy_length,
    conjugate_automorphism,
    generator_name,
    identity_automorphism,
    invert_verify,
    nielsen_inverse_search,
    outer_equal,
    spell,
)
from .graphs import (
    Graph,
    GraphMap,
    canonical_circuit,
    induced_automorphism,
    iter_tight_paths,
    preimage_circuit,
    random_circuit,
    random_tight_path,
    rose_of,
)
from .strata import (
    CheckReport,
    Filtration,
    Metric,
    Stratum,
    assign_metric,
    compute_filtration,
    pf_eigen,
    transition_matrix,
    verify_improved,
    verify_rtt,
)
from .nielsen import (
    NielsenPathRecord,
    check_np_constraints,
    find_nielsen_paths,
    is_pre_nielsen,
    split_basic_paths,
    verify_splitting,
)
from .growth import (
    BoundViolation,
    CancellationData,
    DecompositionReport,
    PathStats,
    TrichotomyVerdict,
    bcc_estimate,
    growth_decomposition,
    path_stats,
    trichotomy_classify,
    validate_backgrowth,
    validate_bcc,
    validate_bw1,
    validate_decomp,
    validate_illen,
    validate_tricho,
)
from .hyperbolicity import (
    AtoroidalityReport,
    HyperbolicityCertificate,
    atoroidality_probe,
    certificate_search,
    growth_table,
)
from .formats import (
    FormatWarning,
    ParseError,
    dump_automorphism,
    load_automorphism,
    load_graph_map,
    parse_automorphism,
    parse_graph_map,
)
from .fixtures import load_fixture

__version__ = "0.1.0"
