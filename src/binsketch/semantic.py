"""Semantic program embeddings: significance-weighted pooling.

Each function embedding is unit-normalized and then averaged with a weight
derived from how much content the function carries: lines of pseudocode and
number of string literals, each passed through a concave power law. Bigger
functions carry more of the program's meaning, so they pull the pooled
vector harder. The functions pooled are those ``corpus.stack_embeddings``
keeps (zero-norm ones cannot be normalized and are dropped, as for every
consumer), so a program with none left pools to the zero vector.
The pooled vector is deliberately not re-normalized; callers compare with
cosine, which ignores the length anyway. :func:`hash_programs` pools a whole
corpus with one ``np.add.reduceat``; :func:`hash_program` is its
one-program case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import FunctionRecord, ProgramRecord, SemanticEmbedding, stack_embeddings
from .errors import ConfigError, ValidationError
from .kmeans import unit_rows

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


def _params(cfg: WeightConfig) -> str:
    return (
        f"mode={cfg.mode}, alpha1={cfg.alpha1!r}, alpha2={cfg.alpha2!r}, "
        f"beta1={cfg.beta1!r}, beta2={cfg.beta2!r}"
    )


def weights_array(locs: np.ndarray, noss: np.ndarray, cfg: WeightConfig) -> np.ndarray:
    locs = np.asarray(locs, dtype=np.float64)
    noss = np.asarray(noss, dtype=np.float64)
    if np.any(locs < 0) or np.any(noss < 0):
        raise ValidationError("loc and nos must be >= 0")
    if cfg.mode == "mean_pooling":
        return np.ones(np.broadcast(locs, noss).shape, dtype=np.float64)
    # A tiny divisor or a large exponent overflows to inf, which would pool
    # to NaN; it is refused here, naming the parameters, without a warning.
    with np.errstate(over="ignore"):
        loc_term = np.power(locs, cfg.alpha1) / cfg.alpha2
        nos_term = np.power(noss, cfg.beta1) / cfg.beta2 + 1.0
        if cfg.mode == "loc_only":
            weights = loc_term + 1.0
        elif cfg.mode == "nos_only":
            weights = nos_term
        else:
            weights = loc_term + nos_term
    if not np.isfinite(weights).all():
        raise ValidationError(f"the weights overflow float64 under {_params(cfg)}")
    return weights


def weight(loc: int, nos: int, cfg: WeightConfig) -> float:
    """Significance weight of one function under ``cfg``."""
    return float(weights_array(np.array([loc]), np.array([nos]), cfg)[0])


def _overflowing_stat(functions: Sequence[FunctionRecord]) -> str:
    """Name the first loc or nos with no float64 value: an integer beyond
    about 1.8e308, which the corpus reader accepts."""
    for fn in functions:
        for name in ("loc", "nos"):
            try:
                float(getattr(fn, name))
            except OverflowError:
                return f"function {fn.function_id!r}: {name} is beyond the float64 range"
    return "a loc or nos is beyond the float64 range"


def hash_programs(
    programs: Sequence[ProgramRecord], cfg: WeightConfig, d: int | None = None
) -> list[SemanticEmbedding]:
    """One float32 vector per program, in input order: the weighted sum of
    its unit-normalized contributing functions divided by their count.

    A program with no such function pools to the zero vector; ``d`` is
    required when the corpus has no function at all.
    """
    functions, X, owner = stack_embeddings(programs)
    if not X.shape[1]:
        if d is None:
            raise ValidationError("no program has a function to infer d from; pass d")
        X = np.empty((0, d))
    elif d is not None and d != X.shape[1]:
        raise ValidationError(f"functions have d={X.shape[1]}, expected {d}")
    try:
        stats = np.fromiter(
            ((fn.loc, fn.nos) for fn in functions), dtype=(np.float64, 2), count=len(functions)
        )
    except OverflowError:
        raise ValidationError(_overflowing_stat(functions)) from None
    unit_rows(X, out=X)
    X *= weights_array(stats[:, 0], stats[:, 1], cfg)[:, np.newaxis]
    counts = np.bincount(owner, minlength=len(programs))
    pooled = np.zeros((len(programs), X.shape[1]))
    full = counts > 0
    starts = (np.cumsum(counts) - counts)[full]
    with np.errstate(over="ignore", invalid="ignore"):
        pooled[full] = np.add.reduceat(X, starts, axis=0) / counts[full, np.newaxis]
        pooled = pooled.astype(np.float32)
    if not np.isfinite(pooled).all():
        raise ValidationError(f"a pooled vector exceeds the float32 range under {_params(cfg)}")
    return [SemanticEmbedding(row) for row in pooled]


def hash_program(
    program: ProgramRecord, cfg: WeightConfig, d: int | None = None
) -> SemanticEmbedding:
    """Pool one program: :func:`hash_programs` of a one-program corpus."""
    return hash_programs([program], cfg, d)[0]


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
