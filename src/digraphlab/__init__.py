"""digraphlab: an exact desk-scale laboratory for containers of H-free digraphs.

Everything is computed exactly (rationals, big integers, bitsets) and checked
against independent brute-force oracles at small scale; floating point only
appears in explicitly flagged report fields.
"""

__version__ = "0.1.0"

from .digraphs import (
    Digraph,
    PatternDigraph,
    automorphism_count,
    canonical_form,
    count_copies,
    is_pattern_free,
    parse_digraph,
)
from .weights import WeightParam
from .density import (
    ConditionResult,
    DensityReport,
    MDensityResult,
    condition_a,
    degree_lemma_constant,
    density_report,
    m_density,
)
from .extremal import (
    ExtremalResult,
    RatioReport,
    SupersatPoint,
    count_free,
    counting_ratio,
    extremal_number,
    free_classes,
    full_scan,
    supersat_scan,
)
from .pairhypergraph import (
    CodegreeProfile,
    LemmaReport,
    PairHypergraph,
    PairUniverse,
    build_hypergraph,
    codegree_profile,
    verify_degree_lemma,
)
from .containers import (
    ContainerFamily,
    PipelineReport,
    VerifyReport,
    build_containers,
    container_pipeline,
    verify_family,
)
from .errors import (
    BudgetError,
    ContainerBuildError,
    DigraphLabError,
    ParseError,
    PreconditionError,
    VerificationError,
)
