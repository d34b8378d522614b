"""Exact top-k similarity search over program embeddings.

Every query is scored against every repository entry (Jaccard for
structural bit-vectors, cosine for semantic vectors) and the top k
survive; ranking ties break toward the lexicographically smaller program
id, so results are stable. No approximation.

The top k are selected, not sorted out of all N scores (:func:`top_k`).
Rows at the lowest score are set aside, the rest are partitioned at the
k-th best score, and at most k candidates are sorted. The result is
exactly the first k of a stable descending sort.

A structural index picks its Jaccard kernel once, when it is built. If the
repository holds fewer set bits in total than it has packed words, it keeps
per-bit posting lists and counts each row's intersection with a query from
the postings of the query's set bits: a query's postings never hold more
entries than the whole index, so this never reads more entries than the
dense scan reads words. Otherwise (dense rows) it keeps the packed words
and scans them with AND and popcount. Both kernels count the same integers
and turn them into scores with the same float64 division, so the choice
never changes a score or a rank; rows that share no bit with the query
simply score 0 (or 1.0 when both are empty).

:func:`batch_search` spreads queries over threads only for the dense word
scan, whose AND and popcount over the whole matrix release the GIL. The
posting-list and cosine kernels are short numpy calls that hold it, so
threads only contend there; their queries run in order on the calling
thread.

An index is built from ids plus one matrix (``from_matrix``), or, for a
sparse structural index, from the set bits of its rows (``from_set_bits``).
:func:`load_index` reads a ``.stru`` file block by block into set bits and
builds the (N, words) matrix only for a dense index, which keeps it;
:func:`build` is the adapter for a list of embedding objects.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import (
    SemanticEmbedding,
    StructuralEmbedding,
    check_field,
    numbered_lines,
    open_sketches,
    read_structural,
    write_lines,
)
from .errors import ConfigError, ParseError, ValidationError
from .kmeans import unit_rows
from .structural import Postings, jaccard_many, set_bits

Entry = tuple[str, StructuralEmbedding | SemanticEmbedding]


class Hit(NamedTuple):
    program_id: str
    score: float


@dataclass
class SearchResult:
    hits: list[Hit] = field(default_factory=list)


def _id_order(ids: Sequence[str]) -> tuple[list[str], np.ndarray | None]:
    """The ids in ascending order and the row order that sorts them (None
    when they already are); a repeated id is rejected."""
    ids = list(ids)
    if all(a < b for a, b in zip(ids, ids[1:])):
        return ids, None
    order = sorted(range(len(ids)), key=ids.__getitem__)
    ids = [ids[i] for i in order]
    if any(a == b for a, b in zip(ids, ids[1:])):
        raise ValidationError("duplicate program_id in repository entries")
    return ids, np.array(order, dtype=np.int64)


@dataclass(eq=False)
class StructuralIndex:
    """Bit-vector rows scored by Jaccard.

    ``rows`` holds either the packed (N, words) uint64 matrix or its
    :class:`~binsketch.structural.Postings`, as :meth:`from_matrix` chose;
    ``pops`` holds the per-row popcounts.
    """

    program_ids: list[str]
    rows: np.ndarray | Postings
    pops: np.ndarray
    m: int

    @classmethod
    def from_matrix(cls, ids: Sequence[str], words: np.ndarray, m: int) -> "StructuralIndex":
        """Index packed (N, words) rows, stored in ascending id order."""
        pops = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        # A query's postings are a subset of the index's, so with fewer set
        # bits than packed words the sparse kernel never reads more posting
        # entries than the dense scan reads words.
        if pops.sum() < words.size:
            return cls.from_set_bits(ids, pops, *set_bits(words), m)
        ids, order = _id_order(ids)
        if order is None:
            return cls(ids, words, pops, m)
        return cls(ids, words[order], pops[order], m)

    @classmethod
    def from_set_bits(
        cls, ids: Sequence[str], pops: np.ndarray, rows: np.ndarray, positions: np.ndarray, m: int
    ) -> "StructuralIndex":
        """Index rows given by their popcounts and the (row, bit position) of
        each set bit as posting lists, stored in ascending id order."""
        ids, order = _id_order(ids)
        if order is not None:
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            rows, pops = rank[rows], pops[order]
        return cls(ids, Postings.from_bits(rows, positions, m, len(ids)), pops, m)

    def __len__(self) -> int:
        return len(self.program_ids)

    def scores(self, query) -> np.ndarray:
        if not isinstance(query, StructuralEmbedding):
            raise ValidationError("embedding kinds differ: structural repository, other query")
        if query.m != self.m:
            raise ValidationError(f"query m={query.m} does not match repository m={self.m}")
        return jaccard_many(query, self.rows, self.pops)


@dataclass(eq=False)
class SemanticIndex:
    """Unit-normalized float64 rows, scored by cosine.

    Zero vectors stay zero and score 0 against everything.
    """

    program_ids: list[str]
    unit: np.ndarray
    d: int

    @classmethod
    def from_matrix(cls, ids: Sequence[str], values: np.ndarray) -> "SemanticIndex":
        """Index (N, d) float32 rows, stored in ascending id order."""
        ids, order = _id_order(ids)
        V = (values if order is None else values[order]).astype(np.float64)
        return cls(ids, unit_rows(V), d=values.shape[1])

    def __len__(self) -> int:
        return len(self.program_ids)

    def scores(self, query) -> np.ndarray:
        if not isinstance(query, SemanticEmbedding):
            raise ValidationError("embedding kinds differ: semantic repository, other query")
        if query.d != self.d:
            raise ValidationError(f"query d={query.d} does not match repository d={self.d}")
        q = query.values.astype(np.float64)
        norm = np.linalg.norm(q)
        if norm == 0.0:
            return np.zeros(len(self), dtype=np.float64)
        return self.unit @ (q / norm)


Index = StructuralIndex | SemanticIndex


def build(entries: Sequence[Entry]) -> Index:
    """Index a list of (program_id, embedding) pairs.

    The embeddings are stacked once into the matrix that ``from_matrix``
    indexes. An empty list gives an empty index that answers every query
    with no hits.
    """
    ids = [pid for pid, _ in entries]
    embeddings = [emb for _, emb in entries]
    kinds = {type(emb) for emb in embeddings}
    if kinds <= {StructuralEmbedding}:
        ms = {emb.m for emb in embeddings}
        if len(ms) > 1:
            raise ValidationError(f"mixed bit-vector lengths in repository: {sorted(ms)}")
        if not embeddings:
            return StructuralIndex.from_matrix([], np.empty((0, 0), dtype=np.uint64), 0)
        return StructuralIndex.from_matrix(ids, np.stack([e.words for e in embeddings]), ms.pop())
    if kinds == {SemanticEmbedding}:
        ds = {emb.d for emb in embeddings}
        if len(ds) > 1:
            raise ValidationError(f"mixed dimensions in repository: {sorted(ds)}")
        return SemanticIndex.from_matrix(ids, np.stack([e.values for e in embeddings]))
    raise ValidationError("repository entries mix structural and semantic embeddings")


def load_index(path: str) -> Index:
    """Index a ``.stru`` or ``.sem`` file with no per-row objects.

    A ``.sem`` file is decoded into one matrix, which the index keeps. A
    ``.stru`` file is read in record blocks, keeping each block's popcounts
    and set bits, and its postings are assembled once at the end. Only when
    the running popcount sum reaches N x words, so that the index will be
    dense and keep the packed words, is the file read again as one matrix.
    """
    kind, records = open_sketches(path)
    with records:
        if kind == "semantic":
            return SemanticIndex.from_matrix(*records.read_all())
        m = records.param
        limit = records.count * ((m + 63) // 64)
        ids: list[str] = []
        pops, rows, positions = [], [], []
        total = 0
        for block_ids, words in records:
            counts = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
            total += int(counts.sum())
            if total >= limit:
                break
            row, pos = set_bits(words)
            rows.append(row + len(ids))
            positions.append(pos)
            pops.append(counts)
            ids += block_ids
    if total < limit:
        return StructuralIndex.from_set_bits(
            ids, np.concatenate(pops), np.concatenate(rows), np.concatenate(positions), m
        )
    return StructuralIndex.from_matrix(*read_structural(path))


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores, best first, ties by ascending index:
    exactly ``np.argsort(-scores, kind="stable")[:k]`` for scores without
    NaN (both kernels give finite scores), found by selection.

    Rows at the lowest score can only fill the tail, in index order, so they
    are set aside first; Jaccard scores put most rows there. The rest are
    partitioned at the k-th best score: the rows above it are sorted (fewer
    than k), and the rows tied at it follow in index order.
    """
    if k >= scores.size:
        return np.argsort(-scores, kind="stable")
    low = scores.min()
    rest = np.flatnonzero(scores > low)
    if rest.size > k:
        values = scores[rest]
        kth = np.partition(values, rest.size - k)[rest.size - k]
        best, tied = rest[values > kth], rest[values == kth]
    else:
        best, tied = rest, np.flatnonzero(scores == low)
    best = best[np.argsort(-scores[best], kind="stable")]
    return np.concatenate([best, tied[: k - best.size]])


def search(repo: Index, query, k: int) -> SearchResult:
    """Top-k entries by score, descending; ties by ascending program id."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if len(repo) == 0:
        return SearchResult()
    scores = repo.scores(query)
    top = top_k(scores, k)
    ids = repo.program_ids
    return SearchResult([Hit(ids[i], s) for i, s in zip(top.tolist(), scores[top].tolist())])


def batch_search(
    repo: Index, queries: Sequence, k: int, workers: int = 1
) -> list[SearchResult]:
    """Run :func:`search` for each query; output order follows input order.

    Only a dense structural index (packed words) uses ``workers`` threads;
    the posting-list and cosine kernels hold the GIL, so their queries run
    in order on the calling thread. Results are identical for any
    ``workers`` value. ``k`` is checked even when there are no queries.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    dense = isinstance(repo, StructuralIndex) and isinstance(repo.rows, np.ndarray)
    if workers == 1 or len(queries) <= 1 or not dense:
        return [search(repo, q, k) for q in queries]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda q: search(repo, q, k), queries))


@dataclass(frozen=True)
class BenchReport:
    comparisons: int
    seconds: float
    per_second: float


def bench(repo: Index, queries: Sequence, rounds: int = 1) -> BenchReport:
    """Time the scoring kernel (no ranking) over all query/entry pairs."""
    if len(repo) == 0 or not queries:
        raise ValidationError("bench needs a non-empty repository and at least one query")
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    comparisons = 0
    start = time.perf_counter()
    for _ in range(rounds):
        for q in queries:
            repo.scores(q)
            comparisons += len(repo)
    elapsed = time.perf_counter() - start
    rate = comparisons / elapsed if elapsed > 0 else float("inf")
    return BenchReport(comparisons=comparisons, seconds=elapsed, per_second=rate)


def save_results(results: Sequence[tuple[str, SearchResult]], path: str) -> None:
    """Write ranked hits as query_id, rank, program_id, score rows (6dp).

    Query ids must be unique, and no id may hold a tab, a newline or a lone
    surrogate. Nothing is written unless every id passes.
    """
    lines = []
    seen: set[str] = set()
    for query_id, result in results:
        if query_id in seen:
            raise ValidationError(f"duplicate query id {query_id!r}")
        seen.add(query_id)
        check_field(query_id, "query id")
        for rank, hit in enumerate(result.hits, start=1):
            check_field(hit.program_id, "program id")
            lines.append(f"{query_id}\t{rank}\t{hit.program_id}\t{hit.score:.6f}")
    write_lines(path, lines)


def load_results(path: str) -> list[tuple[str, list[tuple[str, float]]]]:
    """Read a results file back as (query_id, [(program_id, score), ...])."""
    grouped: list[tuple[str, list[tuple[str, float]]]] = []
    seen: set[str] = set()
    for lineno, line in numbered_lines(path):
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(fields)}", lineno)
        query_id, rank_tok, program_id, score_tok = fields
        try:
            rank = int(rank_tok)
            score = float(score_tok)
        except ValueError:
            raise ParseError("rank or score is not numeric", lineno) from None
        if not grouped or grouped[-1][0] != query_id:
            if query_id in seen:
                raise ParseError(f"query {query_id!r} appears in two separate runs", lineno)
            seen.add(query_id)
            grouped.append((query_id, []))
        if rank != len(grouped[-1][1]) + 1:
            raise ParseError(f"rank {rank} out of sequence", lineno)
        grouped[-1][1].append((program_id, score))
    return grouped
