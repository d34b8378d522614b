"""binsketch: program-level similarity from function embeddings.

Condenses per-function embedding sets into two fixed-length program
sketches: a structural bit-vector (centroid classification + signed
feature hashing, compared by Jaccard) and a semantic pooled vector
(significance-weighted average, compared by cosine), with exact top-k
clone search and retrieval metrics on top.
"""

from .corpus import (
    FunctionRecord,
    ProgramRecord,
    SemanticEmbedding,
    StructuralEmbedding,
    load_corpus,
    load_embeddings,
    load_semantic,
    load_structural,
    save_corpus,
    save_semantic,
    save_structural,
)
from .errors import BinsketchError, ConfigError, FormatError, ParseError, ValidationError
from .kmeans import CentroidModel, classify, load_model, save_model, train
from .metrics import (
    MatchingReport,
    RelevanceJudgment,
    cliffs_delta,
    map_at_k,
    matching_eval,
    mp_at_k,
)
# The top-k `search` function itself stays under binsketch.search.search so
# the submodule name is not shadowed by a function attribute.
from .search import SearchResult, SemanticIndex, StructuralIndex, batch_search, bench, build
from .semantic import WeightConfig, cosine, weight
from .structural import FeatureHasher, jaccard, labels_to_bitvector
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "BinsketchError",
    "CentroidModel",
    "ConfigError",
    "FeatureHasher",
    "FormatError",
    "FunctionRecord",
    "MatchingReport",
    "ParseError",
    "ProgramRecord",
    "RelevanceJudgment",
    "SearchResult",
    "SemanticEmbedding",
    "SemanticIndex",
    "StructuralEmbedding",
    "StructuralIndex",
    "SynthConfig",
    "ValidationError",
    "WeightConfig",
    "batch_search",
    "bench",
    "build",
    "classify",
    "cliffs_delta",
    "cosine",
    "generate",
    "jaccard",
    "labels_to_bitvector",
    "load_corpus",
    "load_embeddings",
    "load_model",
    "load_semantic",
    "load_structural",
    "map_at_k",
    "matching_eval",
    "mp_at_k",
    "save_corpus",
    "save_model",
    "save_semantic",
    "save_structural",
    "train",
    "weight",
]
