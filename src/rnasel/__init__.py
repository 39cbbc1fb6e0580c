"""Select a fixed-size feature subset from an expression matrix by simulated
annealing over a blended correlation/magnitude score, then classify samples
by average-linkage clustering on a correlation dissimilarity."""

from .annealer import AnnealSchedule, AnnealTrace, chain_rng, run
from .clustering import (
    DissimilarityMatrix,
    average_linkage,
    cut,
    dissimilarity,
    to_merge_dict,
    to_newick,
)
from .errors import NumericalError, ParameterError, ValidationError
from .ingest import IngestReport, compute_ratios, load_matrix, load_meta, load_weights
from .model import (
    Dendrogram,
    ExpressionMatrix,
    PairWeights,
    RatioMatrix,
    SampleMeta,
    SampleRecord,
    Selection,
    feature_norms,
)
from .objective import (
    ObjectiveContext,
    ObjectiveParams,
    SubsetState,
    eval_u,
    eval_u1,
    eval_u2,
    pearson_abs,
    swap_delta,
)
from .oracle import OracleResult, exhaustive_optimum, naive_average_linkage
from .synth import GroundTruth, SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule",
    "AnnealTrace",
    "Dendrogram",
    "DissimilarityMatrix",
    "ExpressionMatrix",
    "GroundTruth",
    "IngestReport",
    "NumericalError",
    "ObjectiveContext",
    "ObjectiveParams",
    "OracleResult",
    "PairWeights",
    "ParameterError",
    "RatioMatrix",
    "SampleMeta",
    "SampleRecord",
    "Selection",
    "SubsetState",
    "SynthSpec",
    "ValidationError",
    "average_linkage",
    "chain_rng",
    "compute_ratios",
    "cut",
    "dissimilarity",
    "eval_u",
    "eval_u1",
    "eval_u2",
    "exhaustive_optimum",
    "feature_norms",
    "generate",
    "load_matrix",
    "load_meta",
    "load_weights",
    "naive_average_linkage",
    "pearson_abs",
    "run",
    "swap_delta",
    "to_merge_dict",
    "to_newick",
]
