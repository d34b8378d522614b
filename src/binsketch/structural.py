"""Structural program sketches: signed feature hashing of centroid labels.

A program's functions are classified to their nearest centroid, the set of
distinct labels is hashed into an m-bit vector with a signed hash family,
and programs are compared by Jaccard similarity over those bit-vectors.

The hash family is the splitmix64 finalizer applied to the label XORed
with a per-role seed: one seed picks the bucket, the other the sign.
Each distinct label adds its sign to its bucket and a bit is set where the
sum is non-zero, so opposite-signed labels that collide cancel. A sketch
thus has at most one set bit per distinct label, and its density is about
(distinct labels) / m, not one half: a mean of 145 set bits (0.22%) for
150-function programs at m = 2**16, and about 10 bits for programs of 4 to
64 functions. At these densities buckets rarely collide, so cancellation
rarely changes a sketch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import ProgramRecord, StructuralEmbedding
from .errors import ConfigError, ValidationError
from .kmeans import CentroidModel, classify

DEFAULT_M = 1 << 16
DEFAULT_SEED_POSITION = 0x9E3779B97F4A7C15
DEFAULT_SEED_SIGN = 0xBF58476D1CE4E5B9

_MIN_M = 1 << 10
_MAX_M = 1 << 18

_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def mix64(z: np.ndarray | int) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 (wraps mod 2**64)."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MUL1
        z = (z ^ (z >> np.uint64(27))) * _MUL2
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class FeatureHasher:
    """Signed hashing scheme mapping label ids to (bucket, sign) pairs."""

    m: int = DEFAULT_M
    seed_position: int = DEFAULT_SEED_POSITION
    seed_sign: int = DEFAULT_SEED_SIGN

    def __post_init__(self):
        if self.m < _MIN_M or self.m > _MAX_M or self.m & (self.m - 1):
            raise ConfigError(
                f"m must be a power of two in [{_MIN_M}, {_MAX_M}], got {self.m}"
            )
        for name, seed in (("seed_position", self.seed_position), ("seed_sign", self.seed_sign)):
            if not 0 <= seed < 1 << 64:
                raise ConfigError(f"{name} must fit in 64 bits, got {seed}")

    def position(self, labels: np.ndarray) -> np.ndarray:
        """Bucket index in [0, m) for each label."""
        labels = np.asarray(labels, dtype=np.uint64)
        return mix64(labels ^ np.uint64(self.seed_position)) % np.uint64(self.m)

    def sign(self, labels: np.ndarray) -> np.ndarray:
        """+1 or -1 per label, from the low bit of the sign hash."""
        labels = np.asarray(labels, dtype=np.uint64)
        low = mix64(labels ^ np.uint64(self.seed_sign)) & np.uint64(1)
        return np.where(low == 1, 1, -1).astype(np.int64)


def _as_label_array(labels: Iterable[int]) -> np.ndarray:
    out = []
    for value in labels:
        v = int(value)
        if v < 0:
            raise ValidationError(f"labels must be non-negative, got {v}")
        if v >= 1 << 64:
            raise ValidationError(f"labels must fit in 64 bits, got {v}")
        out.append(v)
    return np.unique(np.array(out, dtype=np.uint64)) if out else np.empty(0, dtype=np.uint64)


def labels_to_bitvector(labels: Iterable[int], hasher: FeatureHasher) -> StructuralEmbedding:
    """Fold a set of labels into an m-bit vector.

    Each distinct label adds its sign to its bucket; a bit is set exactly
    when the signed sum there is non-zero, so colliding labels with
    opposite signs cancel to zero.
    """
    arr = _as_label_array(labels)
    if arr.size == 0:
        return StructuralEmbedding(np.zeros((hasher.m + 63) // 64, dtype=np.uint64), hasher.m)
    pos = hasher.position(arr).astype(np.int64)
    # bincount sums in float64; exact here since bucket sums stay tiny.
    sums = np.bincount(pos, weights=hasher.sign(arr), minlength=hasher.m)
    return StructuralEmbedding.from_bits((sums != 0).astype(np.uint8))


def hash_program(
    program: ProgramRecord, model: CentroidModel, hasher: FeatureHasher
) -> StructuralEmbedding:
    """Sketch a program: classify its functions, hash the distinct labels."""
    if not program.functions:
        return labels_to_bitvector((), hasher)
    emb = np.stack([fn.embedding for fn in program.functions])
    assignment = classify(model, emb)
    return labels_to_bitvector(set(assignment.labels.tolist()), hasher)


def jaccard(a: StructuralEmbedding, b: StructuralEmbedding) -> float:
    """Jaccard similarity |a&b| / |a|b|; two empty vectors count as identical."""
    if a.m != b.m:
        raise ValidationError(f"bit-vector lengths differ: {a.m} vs {b.m}")
    inter = int(np.bitwise_count(a.words & b.words).sum(dtype=np.int64))
    union = int(np.bitwise_count(a.words | b.words).sum(dtype=np.int64))
    if union == 0:
        return 1.0
    return inter / union


def jaccard_many(
    query: StructuralEmbedding, words: np.ndarray, pops: np.ndarray
) -> np.ndarray:
    """Jaccard of one query against a packed (N, words) matrix.

    ``pops`` must hold the per-row popcounts of ``words``; the union then
    needs no second popcount pass: |a|b| = |a| + |b| - |a&b|.
    """
    if words.size == 0:
        return np.empty(0, dtype=np.float64)
    inter = np.bitwise_count(words & query.words[np.newaxis, :]).sum(axis=1, dtype=np.int64)
    union = pops + query.popcount() - inter
    return np.where(union == 0, 1.0, inter / np.maximum(union, 1))


def pack_rows(embeddings: list[StructuralEmbedding]) -> tuple[np.ndarray, np.ndarray]:
    """Stack packed words into a matrix and precompute row popcounts."""
    if not embeddings:
        return np.empty((0, 0), dtype=np.uint64), np.empty(0, dtype=np.int64)
    words = np.stack([e.words for e in embeddings])
    pops = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    return words, pops
