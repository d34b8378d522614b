"""Semantic program embeddings: significance-weighted pooling.

Each function embedding is unit-normalized and then averaged with a weight
derived from how much content the function carries: lines of pseudocode and
number of string literals, each passed through a concave power law. Bigger
functions carry more of the program's meaning, so they pull the pooled
vector harder.
The pooled vector is deliberately not re-normalized; callers compare with
cosine, which ignores the length anyway.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import ProgramRecord, SemanticEmbedding
from .errors import ConfigError, ValidationError

logger = logging.getLogger(__name__)

MODES = ("full", "mean_pooling", "loc_only", "nos_only")


@dataclass(frozen=True)
class WeightConfig:
    """Parameters of the significance weight w = loc^a1/a2 + (nos^b1/b2 + 1).

    The ablation modes drop one of the two terms: ``loc_only`` keeps the
    +1 floor so an empty function still counts, ``nos_only`` keeps the
    string-literal term as-is, and ``mean_pooling`` fixes every weight at 1.
    """

    alpha1: float = 0.4
    alpha2: float = 5.0
    beta1: float = 0.45
    beta2: float = 1.0
    mode: str = "full"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha2 <= 0 or self.beta2 <= 0:
            raise ConfigError("alpha2 and beta2 must be > 0")
        if self.alpha1 < 0 or self.beta1 < 0:
            raise ConfigError("alpha1 and beta1 must be >= 0")


def weights_array(locs: np.ndarray, noss: np.ndarray, cfg: WeightConfig) -> np.ndarray:
    locs = np.asarray(locs, dtype=np.float64)
    noss = np.asarray(noss, dtype=np.float64)
    if np.any(locs < 0) or np.any(noss < 0):
        raise ValidationError("loc and nos must be >= 0")
    if cfg.mode == "mean_pooling":
        return np.ones(np.broadcast(locs, noss).shape, dtype=np.float64)
    loc_term = np.power(locs, cfg.alpha1) / cfg.alpha2
    nos_term = np.power(noss, cfg.beta1) / cfg.beta2 + 1.0
    if cfg.mode == "loc_only":
        return loc_term + 1.0
    if cfg.mode == "nos_only":
        return nos_term
    return loc_term + nos_term


def weight(loc: int, nos: int, cfg: WeightConfig) -> float:
    """Significance weight of one function under ``cfg``."""
    return float(weights_array(np.array([loc]), np.array([nos]), cfg)[0])


def hash_program(
    program: ProgramRecord, cfg: WeightConfig, d: int | None = None
) -> SemanticEmbedding:
    """Pool a program's function embeddings into one float32 vector.

    Zero-norm functions cannot be normalized and are skipped with a
    warning; they do not count toward the averaging denominator. A program
    with no usable functions pools to the zero vector, flagged degenerate
    (``d`` must then be supplied or inferable from the skipped functions).
    """
    if program.functions:
        dims = {fn.d for fn in program.functions}
        if len(dims) > 1:
            raise ValidationError(
                f"program {program.program_id!r} mixes embedding dimensions {sorted(dims)}"
            )
        inferred = dims.pop()
        if d is not None and d != inferred:
            raise ValidationError(
                f"program {program.program_id!r} has d={inferred}, expected {d}"
            )
        d = inferred
    elif d is None:
        raise ValidationError(
            f"program {program.program_id!r} has no functions; pass d for the zero vector"
        )

    if not program.functions:
        logger.warning("program %s has no functions; pooled to zero", program.program_id)
        return SemanticEmbedding(np.zeros(d, dtype=np.float32), degenerate=True)

    E = np.stack([fn.embedding for fn in program.functions])
    norms = np.linalg.norm(E, axis=1)
    usable = norms > 0.0
    skipped = int((~usable).sum())
    if skipped:
        logger.warning(
            "program %s: skipped %d zero-norm functions", program.program_id, skipped
        )
    if not np.any(usable):
        return SemanticEmbedding(np.zeros(d, dtype=np.float32), degenerate=True)

    w = weights_array(
        np.array([fn.loc for fn in program.functions], dtype=np.float64),
        np.array([fn.nos for fn in program.functions], dtype=np.float64),
        cfg,
    )
    Xn = E[usable] / norms[usable, np.newaxis]
    pooled = (w[usable] @ Xn) / float(usable.sum())
    return SemanticEmbedding(pooled.astype(np.float32))


def cosine(a: SemanticEmbedding, b: SemanticEmbedding) -> float:
    """Cosine similarity; either vector being zero scores 0."""
    if a.d != b.d:
        raise ValidationError(f"dimensions differ: {a.d} vs {b.d}")
    x = a.values.astype(np.float64)
    y = b.values.astype(np.float64)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(x @ y / (nx * ny))
