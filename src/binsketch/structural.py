"""Structural program sketches: signed feature hashing of centroid labels.

A program's functions are classified to their nearest centroid, the set of
distinct labels is hashed into an m-bit vector with a signed hash family,
and programs are compared by Jaccard similarity over those bit-vectors.
The functions hashed are those ``corpus.stack_embeddings`` keeps (zero-norm
ones are dropped, as for every consumer), so a program with none left gets
the empty sketch. :func:`sketch_blocks` sketches a whole corpus with one
``classify`` call and folds it one block of programs at a time, so the
(N, m/64) word matrix never exists; :func:`hash_program` and
:func:`labels_to_bitvector` are its one-program cases. Search scores the
packed rows a sketch file holds with :func:`jaccard_many`.

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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import ProgramRecord, StructuralEmbedding, block_rows, stack_embeddings
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


def _fold(owner: np.ndarray, labels: np.ndarray, n: int, hasher: FeatureHasher) -> np.ndarray:
    """Packed (n, m/64) sketches of distinct (program, label) pairs: pair i
    adds the sign of ``labels[i]`` to its bucket in row ``owner[i]``, and a
    bit is set where the sum is non-zero (opposite signs cancel)."""
    m = hasher.m
    keys = owner * m + hasher.position(labels).astype(np.int64)
    cells, inverse = np.unique(keys, return_inverse=True)
    # bincount sums in float64; exact here since bucket sums stay tiny.
    cells = cells[np.bincount(inverse, weights=hasher.sign(labels)) != 0]
    words = np.zeros((n, m >> 6), dtype=np.uint64)
    # m is a multiple of 64, so cell >> 6 indexes the flattened word matrix.
    np.bitwise_or.at(words.reshape(-1), cells >> 6, np.uint64(1) << (cells & 63).astype(np.uint64))
    return words


def labels_to_bitvector(labels: Iterable[int], hasher: FeatureHasher) -> StructuralEmbedding:
    """Fold a set of labels into an m-bit vector (the one-program case)."""
    ints = [int(v) for v in labels]
    bad = [v for v in ints if not 0 <= v < 1 << 64]
    if bad:
        raise ValidationError(f"labels must be in [0, 2**64), got {bad[0]}")
    arr = np.unique(np.array(ints, dtype=np.uint64))
    words = _fold(np.zeros(arr.size, dtype=np.int64), arr, 1, hasher)
    return StructuralEmbedding(words[0], hasher.m)


def sketch_blocks(
    programs: Sequence[ProgramRecord], model: CentroidModel, hasher: FeatureHasher
) -> Iterator[np.ndarray]:
    """Sketch every program, in input order, as blocks of packed (n, m/64)
    rows: the distinct labels of its contributing functions.

    One ``classify`` over the whole corpus runs here, before this returns;
    each block of :func:`~binsketch.corpus.block_rows` programs is folded
    only when the iterator reaches it, so no (N, m/64) matrix exists.
    """
    _, X, owner = stack_embeddings(programs)
    labels = classify(model, X)
    k = model.n_clusters
    return _fold_blocks(np.unique(owner * k + labels), k, len(programs), hasher)


def _fold_blocks(pairs: np.ndarray, k: int, n: int, hasher: FeatureHasher) -> Iterator[np.ndarray]:
    """Fold sorted ``program * k + label`` pairs block by block of programs."""
    step = block_rows(hasher.m // 8)
    for start in range(0, n, step):
        stop = min(start + step, n)
        lo, hi = np.searchsorted(pairs, [start * k, stop * k])
        block = pairs[lo:hi]
        yield _fold(block // k - start, (block % k).astype(np.uint64), stop - start, hasher)


def hash_program(
    program: ProgramRecord, model: CentroidModel, hasher: FeatureHasher
) -> StructuralEmbedding:
    """Sketch one program: :func:`sketch_blocks` of a one-program corpus."""
    return StructuralEmbedding(next(sketch_blocks([program], model, hasher))[0], hasher.m)


def jaccard(a: StructuralEmbedding, b: StructuralEmbedding) -> float:
    """Jaccard similarity |a&b| / |a|b|; two empty vectors count as identical."""
    if a.m != b.m:
        raise ValidationError(f"bit-vector lengths differ: {a.m} vs {b.m}")
    inter = int(np.bitwise_count(a.words & b.words).sum(dtype=np.int64))
    union = int(np.bitwise_count(a.words | b.words).sum(dtype=np.int64))
    if union == 0:
        return 1.0
    return inter / union


@dataclass(frozen=True)
class Postings:
    """Posting lists of a packed (N, words) matrix in CSR form.

    The rows with bit ``b`` set are ``rows[offsets[b]:offsets[b + 1]]``, as
    int32 row ids in ascending order; ``n_rows`` is N.
    """

    offsets: np.ndarray
    rows: np.ndarray
    n_rows: int

    @classmethod
    def from_bits(cls, rows: np.ndarray, positions: np.ndarray, m: int, n_rows: int) -> "Postings":
        """The posting lists of set bits given as (row, bit position) pairs,
        in any order, for ``n_rows`` rows of m bits."""
        order = np.lexsort((rows, positions))
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(positions, minlength=m), out=offsets[1:])
        return cls(offsets, rows[order].astype(np.int32), n_rows)

    def intersections(self, query_words: np.ndarray) -> np.ndarray:
        """|q & row| for every row (int64), from the postings of q's set bits."""
        _, bits = set_bits(query_words[np.newaxis, :])
        starts = self.offsets[bits]
        lengths = self.offsets[bits + 1] - starts
        # Index of every entry of the concatenated posting slices: entry t
        # of slice j sits at starts[j] + (t - entries before slice j).
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        hits = self.rows[np.arange(shift.size) + shift]
        return np.bincount(hits, minlength=self.n_rows)


def set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and bit position of every set bit of a packed (N, words) matrix.

    Only the non-zero words are visited: each round records the lowest set
    bit of every word still non-zero and clears it, so no (N, m) bit matrix
    is unpacked and a round costs one pass over the words left.
    """
    row, col = np.nonzero(words)
    vals = words[row, col]
    base = col.astype(np.int64) << 6
    one = np.uint64(1)
    rows, positions = [row[:0]], [base[:0]]
    while vals.size:
        rows.append(row)
        positions.append(base + np.bitwise_count((vals & (~vals + one)) - one))
        vals = vals & (vals - one)
        keep = np.flatnonzero(vals)
        row, base, vals = row[keep], base[keep], vals[keep]
    return np.concatenate(rows), np.concatenate(positions)


def jaccard_many(query: np.ndarray, rows: np.ndarray | Postings, pops: np.ndarray) -> np.ndarray:
    """Jaccard of one packed (words,) uint64 query row against N rows.

    ``rows`` is either the packed (N, words) matrix, scanned with an AND
    and a popcount per word, or the :class:`Postings` of that matrix,
    which counts each row's intersection from the postings of the query's
    set bits. Both count the same integers, so they give the same float64
    scores bit for bit. ``pops`` must hold the per-row popcounts; the union
    then needs no second pass: |a|b| = |a| + |b| - |a&b|.
    """
    if len(pops) == 0:
        return np.empty(0, dtype=np.float64)
    if isinstance(rows, Postings):
        inter = rows.intersections(query)
    else:
        inter = np.bitwise_count(rows & query[np.newaxis, :]).sum(axis=1, dtype=np.int64)
    union = pops + int(np.bitwise_count(query).sum(dtype=np.int64)) - inter
    return np.where(union == 0, 1.0, inter / np.maximum(union, 1))
