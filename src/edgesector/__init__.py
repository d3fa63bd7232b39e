"""Exact edge-space spectral invariants for simple graphs.

Builds the non-backtracking (Hashimoto) operator and its reversal-sector
block structure in exact rational arithmetic, factors the Ihara determinant
through the line-graph sector, computes the gauge-invariant mixed-shadow
invariants, and screens graph6 censuses for cospectral pairs that these
invariants separate.
"""

from .graphs import (
    CorpusEntry,
    Graph,
    Graph6Error,
    corpus,
    corpus_graph,
    corpus_names,
    encode_graph6,
    is_bipartite,
    is_connected,
    is_regular,
    parse_graph6,
    vertex_triple_multiset,
)
from .matrices import Matrix, det_resolvent
from .polynomials import Poly, PowerSeries, RatFunc, ratfunc_reduce, series_of
from .edge_space import (
    OrientedEdgeSpace,
    build_hashimoto,
    build_hl2,
    build_incidence,
    build_pm_basis,
    build_reversal,
    edge_space,
    regauge,
    sector_blocks,
    verify_sector_identity,
)
from .zeta import (
    ZetaFactorization,
    bass_det,
    factorize,
    hashimoto_det,
    ihara_det,
    log_trace_check,
    resolution_compare,
    schur_series_check,
    trivial_roots,
)
from .shadows import (
    Fingerprint,
    PairReport,
    ShadowSet,
    compare,
    fingerprint,
    regular_collapse_check,
    shadow_set,
    vertex_shadow_set,
)
from .bounds import (
    BoundReport,
    SpectrumEstimate,
    check_bounds,
    hashimoto_spectrum,
    hermitian_part_spectrum_check,
    sym_spectrum,
)
from .census import builtin_generate, canonical_label
from .screen import ScreenConfig, run_screen
from .verify import verify_all

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CorpusEntry",
    "Fingerprint",
    "Graph",
    "Graph6Error",
    "Matrix",
    "OrientedEdgeSpace",
    "PairReport",
    "Poly",
    "PowerSeries",
    "RatFunc",
    "ScreenConfig",
    "ShadowSet",
    "SpectrumEstimate",
    "ZetaFactorization",
    "bass_det",
    "builtin_generate",
    "canonical_label",
    "check_bounds",
    "compare",
    "corpus",
    "corpus_graph",
    "corpus_names",
    "det_resolvent",
    "edge_space",
    "encode_graph6",
    "factorize",
    "fingerprint",
    "hashimoto_det",
    "hashimoto_spectrum",
    "hermitian_part_spectrum_check",
    "ihara_det",
    "is_bipartite",
    "is_connected",
    "is_regular",
    "log_trace_check",
    "parse_graph6",
    "ratfunc_reduce",
    "regauge",
    "regular_collapse_check",
    "resolution_compare",
    "run_screen",
    "schur_series_check",
    "sector_blocks",
    "series_of",
    "shadow_set",
    "sym_spectrum",
    "trivial_roots",
    "verify_all",
    "verify_sector_identity",
    "vertex_shadow_set",
    "vertex_triple_multiset",
]
