"""Exact top-k similarity search over program embeddings.

Every query is scored against every repository entry (Jaccard for
structural bit-vectors, cosine for semantic vectors) and the top k
survive; ranking ties break toward the lexicographically smaller program
id, so results are stable. No approximation.

The top k are selected, not sorted out of all N scores (:func:`top_k`):
the candidates are partitioned at the k-th best score, and about k of them
are sorted. For Jaccard, rows at the lowest score are set aside first. The
result is exactly the first k of a stable descending sort.

A semantic index scores queries in blocks: each block of query rows is
unit-normalised and scored with one GEMM, about ``_SCORE_BLOCK_BYTES`` of
float64 scores at a time, and :func:`search` is the one-row case. A GEMM
may round differently from a matrix-vector product, so block scores can
differ from one-row scores in the last bits; rows equal byte for byte get
the same scores, so they always tie.

A top k is held as arrays, repository rows and scores, best first: one
query's as a :class:`SearchResult`, whose ``Hit`` objects are built only
when its ``hits`` are read, and a batch's as a :class:`Ranking`, which a
structural batch fills by copying each :func:`search` result into it.
:func:`save_results` writes a hits file one query's lines at a time; given
``zip(query_ids, ranking)``, it writes each line from the ranking's arrays.

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

:func:`batch_search` spreads structural queries over threads only for the
dense word scan, whose AND and popcount over the whole matrix release the
GIL. The posting-list kernel makes short numpy calls that hold it, so threads
only contend there; its queries run in order on the calling thread.

A structural index is built from blocks of ids and packed rows
(``from_blocks``), a semantic one from ids plus one matrix
(``from_matrix``); :func:`load_index` learns a file's kind from its header
and reads the file once, and :func:`build` indexes a list of embedding
objects, stacked by ``corpus.entry_rows``. Both kinds score rows, which
:func:`query_rows` takes from the matrix a sketch file holds or from
embeddings; :func:`check_queries` alone refuses another kind, m or d, given
a query file's header (so even with no rows) or an embedding.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import (
    SEMANTIC,
    SKETCHES,
    STRUCTURAL,
    Entry,
    RecordBlocks,
    RecordFormat,
    SemanticEmbedding,
    StructuralEmbedding,
    check_field,
    entry_rows,
    numbered_lines,
    write_lines,
)
from .errors import ConfigError, ParseError, ValidationError
from .kmeans import unit_rows
from .structural import Postings, jaccard_many, pack_bits, set_bits

# About how many bytes of float64 scores one block of semantic queries
# holds: large enough that one GEMM amortises reading the index, small
# enough that memory stays flat at any number of queries.
_SCORE_BLOCK_BYTES = 1 << 23


class Hit(NamedTuple):
    program_id: str
    score: float


class SearchResult:
    """The top hits of one query, held as arrays: ``rows`` indexes
    ``program_ids``, best first, and ``scores`` holds their scores.

    Its ``hits`` (one :class:`Hit` per row) are built each time they are
    read; two results are equal when their hits are.
    """

    def __init__(self, program_ids: Sequence[str], rows: np.ndarray, scores: np.ndarray):
        self.program_ids, self.rows, self.scores = program_ids, rows, scores

    @property
    def hits(self) -> list[Hit]:
        ids = self.program_ids
        return [Hit(ids[i], s) for i, s in zip(self.rows.tolist(), self.scores.tolist())]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SearchResult):
            return NotImplemented
        return self.hits == other.hits

    def __repr__(self) -> str:
        return f"SearchResult({self.hits!r})"


class Ranking(Sequence[SearchResult]):
    """The top hits of a batch of queries, held as arrays: row q of ``rows``
    indexes ``program_ids``, best first, and row q of ``scores`` holds their
    scores. Every query has the same number of hits, min(k, N).

    It reads as a sequence with one :class:`SearchResult` per query, a view
    of its rows.
    """

    def __init__(self, program_ids: list[str], rows: np.ndarray, scores: np.ndarray):
        self.program_ids, self.rows, self.scores = program_ids, rows, scores

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, q: int) -> SearchResult:
        return SearchResult(self.program_ids, self.rows[q], self.scores[q])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


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
    """Bit-vector rows, scored by Jaccard against a packed (words,) uint64 row.

    ``rows`` holds either the packed (N, words) uint64 matrix or its
    :class:`~binsketch.structural.Postings`, as :meth:`from_blocks` chose;
    ``pops`` holds the per-row popcounts.
    """

    program_ids: list[str]
    rows: np.ndarray | Postings
    pops: np.ndarray
    m: int

    @classmethod
    def from_blocks(
        cls, blocks: Iterable[tuple[Sequence[str], np.ndarray]], count: int, m: int
    ) -> "StructuralIndex":
        """Index ``count`` rows of m bits given as (ids, packed (n, words) rows)
        blocks, in ascending id order. Each block's popcounts and set bits are
        kept until the running popcount reaches ``count`` x words; then the kept
        bits are packed into a (count, words) matrix that later blocks are
        copied into. Otherwise the kept bits become posting lists."""
        width = (m + 63) // 64
        empty = np.empty(0, dtype=np.int64)
        ids: list[str] = []
        pops, owners, positions = [empty], [empty], [empty]
        total, rows = 0, None
        for block_ids, block in blocks:
            start = len(ids)
            ids += block_ids
            pops.append(np.bitwise_count(block).sum(axis=1, dtype=np.int64))
            total += int(pops[-1].sum())
            # Dense once the set bits reach the packed words (module docstring).
            if rows is None and total >= count * width:
                rows = np.zeros((count, width), dtype=np.uint64)
                while len(owners) > 1:  # pack and drop the kept bits a block at a time
                    pack_bits(rows, owners.pop() * (width << 6) + positions.pop())
            if rows is None:
                owner, position = set_bits(block)
                owners.append(owner + start)
                positions.append(position)
            else:
                rows[start:len(ids)] = block
        ids, order = _id_order(ids)
        pops, owners = np.concatenate(pops), np.concatenate(owners)
        if order is not None:
            pops, owners = pops[order], np.argsort(order)[owners]
            rows = None if rows is None else rows[order]
        if rows is None:
            rows = Postings.from_bits(owners, np.concatenate(positions), m, len(ids))
        return cls(ids, rows, pops, m)

    def __len__(self) -> int:
        return len(self.program_ids)

    def scores(self, query: np.ndarray) -> np.ndarray:
        return jaccard_many(query, self.rows, self.pops)


@dataclass(eq=False)
class SemanticIndex:
    """Unit-normalized float64 rows, scored by cosine against a (d,) row.

    Zero vectors stay zero and score 0 against everything. ``copies`` holds
    the rows equal to an earlier row and that earlier row: a copy takes the
    earlier row's scores, so equal rows tie exactly and rank by id, as a
    BLAS kernel need not give equal rows equal bits.
    """

    program_ids: list[str]
    unit: np.ndarray
    d: int
    copies: tuple[np.ndarray, np.ndarray]

    @classmethod
    def from_matrix(cls, ids: Sequence[str], values: np.ndarray) -> "SemanticIndex":
        """Index (N, d) float32 rows, stored in ascending id order."""
        ids, order = _id_order(ids)
        values = values if order is None else values[order]
        return cls(ids, unit_rows(values.astype(np.float64)), values.shape[1], _copies(values))

    def __len__(self) -> int:
        return len(self.program_ids)

    def score_rows(self, values: np.ndarray) -> np.ndarray:
        """The (n, N) cosines of (n, d) query rows: one GEMM of the
        unit-normalised rows against the index."""
        scores = unit_rows(values.astype(np.float64)) @ self.unit.T
        later, earlier = self.copies
        if later.size:
            scores[:, later] = scores[:, earlier]
        return scores

    def scores(self, query: np.ndarray) -> np.ndarray:
        return self.score_rows(query[np.newaxis])[0]


def _copies(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a matrix equal byte for byte to an earlier row, and the
    first row equal to each."""
    rows = np.ascontiguousarray(values).view(np.dtype((np.void, values.shape[1] * values.itemsize)))
    _, first, inverse = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    first = first[inverse]
    later = np.flatnonzero(first != np.arange(first.size))
    return later, first[later]


Index = StructuralIndex | SemanticIndex


def build(entries: Sequence[Entry]) -> Index:
    """Index a list of (program_id, embedding) pairs.

    ``corpus.entry_rows`` stacks the embeddings once into one matrix: a
    semantic index's ``from_matrix``, or the one block of
    ``StructuralIndex.from_blocks``. An empty list gives an empty index that
    answers every query with no hits.
    """
    if len({type(emb) for _, emb in entries}) > 1:
        raise ValidationError("repository entries mix structural and semantic embeddings")
    ids = [pid for pid, _ in entries]
    if entries and isinstance(entries[0][1], SemanticEmbedding):
        return SemanticIndex.from_matrix(ids, entry_rows(entries, SEMANTIC)[1])
    m, words = entry_rows(entries, STRUCTURAL, None if entries else 0)
    return StructuralIndex.from_blocks([(ids, words)], len(ids), m)


def load_index(path: str) -> Index:
    """Index a ``.stru`` or ``.sem`` file with no per-row objects, reading it
    once: a ``.sem`` file as one matrix, a ``.stru`` file in record blocks."""
    with RecordBlocks(path, *SKETCHES) as records:
        if records.format is SEMANTIC:
            return SemanticIndex.from_matrix(*records.read_all())
        return StructuralIndex.from_blocks(records, records.count, records.param)


def check_queries(repo: Index, fmt: RecordFormat | None, param: int) -> None:
    """Refuse queries of another kind, m or d than the repository's, given
    their container format (None for neither sketch) and m or d: a query
    file's header, so even an empty file is checked, or an embedding's."""
    if isinstance(repo, StructuralIndex):
        kind, own, name, value = "structural", STRUCTURAL, "m", repo.m
    else:
        kind, own, name, value = "semantic", SEMANTIC, "d", repo.d
    if fmt is not own:
        raise ValidationError(f"embedding kinds differ: {kind} repository, other query")
    if param != value:
        raise ValidationError(f"query {name}={param} does not match repository {name}={value}")


def query_rows(repo: Index, queries) -> np.ndarray:
    """The (n, width) rows that ``repo`` scores. ``queries`` is that matrix,
    as a sketch file holds it, taken as it is once it fits as a file's rows
    would: its width, and if structural, uint64 with no padding bit set past
    m, or if semantic, finite values. Or embeddings, each checked in order."""
    fmt, param = (STRUCTURAL, repo.m) if isinstance(repo, StructuralIndex) else (SEMANTIC, repo.d)
    if not isinstance(queries, np.ndarray):
        rows = [_row(repo, query) for query in queries]
        return np.array(rows, dtype=fmt.dtype).reshape(len(rows), fmt.width(param))
    if fmt is SEMANTIC and queries.ndim == 2:
        check_queries(repo, SEMANTIC, queries.shape[1])
        if not np.isfinite(queries).all():
            raise ValidationError("query rows have non-finite values")
    elif queries.ndim != 2 or queries.shape[1] != fmt.width(param) or queries.dtype != np.uint64:
        raise ValidationError(
            f"query rows of shape {queries.shape} and dtype {queries.dtype} do not fit "
            f"repository rows of {fmt.width(param)} {np.dtype(fmt.dtype)} values"
        )
    elif param % 64:  # only then can a row hold bits past m, which encode refuses
        STRUCTURAL.encode(param, queries)
    return queries


def _row(repo: Index, query) -> np.ndarray:
    """One query's row or embedding as a checked row, without a copy."""
    if isinstance(query, np.ndarray):
        return query_rows(repo, query[np.newaxis])[0]
    fmt, param, row = None, 0, None
    if isinstance(query, StructuralEmbedding):
        fmt, param, row = STRUCTURAL, query.m, query.words
    elif isinstance(query, SemanticEmbedding):
        fmt, param, row = SEMANTIC, query.d, query.values
    check_queries(repo, fmt, param)
    return row


def top_k(scores: np.ndarray, k: int, set_aside_lowest: bool = True) -> np.ndarray:
    """Indices of the k highest scores, best first, ties by ascending index:
    exactly ``np.argsort(-scores, kind="stable")[:k]`` for scores without
    NaN (both kernels give finite scores), found by selection; k >= 1.

    With ``set_aside_lowest``, rows at the lowest score are set aside first:
    they can only fill the tail, in index order. That pays for Jaccard
    scores, most of which are 0. The rest are partitioned at the k-th best
    score: the rows above it are sorted (fewer than k), and the rows tied at
    it follow in index order. Cosine scores are rarely equal, so the
    semantic kernel skips that step: it partitions all scores and sorts the
    rows at or above the k-th best (about k of them).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k >= scores.size:
        return np.argsort(-scores, kind="stable")
    if not set_aside_lowest:
        kth = np.partition(scores, scores.size - k)[scores.size - k]
        top = np.flatnonzero(scores >= kth)
        return top[np.argsort(-scores[top], kind="stable")][:k]
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


def _rank_semantic(repo: SemanticIndex, values: np.ndarray, ranking: Ranking, k: int) -> None:
    """Fill in the top k of each (n, d) query row, scored block by block:
    one GEMM per block of ``_SCORE_BLOCK_BYTES`` of scores (at least one
    row)."""
    step = max(1, _SCORE_BLOCK_BYTES // (8 * len(repo)))
    for start in range(0, len(values), step):
        block = repo.score_rows(values[start:start + step])
        for row, scores in enumerate(block, start):
            top = top_k(scores, k, set_aside_lowest=False)
            ranking.rows[row] = top
            ranking.scores[row] = scores[top]


def search(repo: Index, query, k: int) -> SearchResult:
    """Top-k entries by score, descending; ties by ascending program id.

    The query is a row or an embedding (see :func:`_row`). A semantic query
    is scored and ranked as a one-row block of :func:`batch_search`."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if len(repo) == 0:
        return SearchResult(repo.program_ids, np.empty(0, dtype=np.intp), np.empty(0))
    scores = repo.scores(_row(repo, query))
    top = top_k(scores, k, set_aside_lowest=isinstance(repo, StructuralIndex))
    return SearchResult(repo.program_ids, top, scores[top])


def batch_search(repo: Index, queries, k: int, workers: int = 1) -> Ranking:
    """The top k of every query as one :class:`Ranking`, in input order.

    The queries are the matrix of their rows or embeddings
    (:func:`query_rows`). A semantic index scores them in blocks of rows,
    one GEMM per block (see :func:`_rank_semantic`). A structural index
    runs :func:`search` for each row, copying its arrays into the ranking;
    only a dense one (packed words) uses ``workers`` threads, since the
    posting-list kernel holds the GIL. Results are identical for any
    ``workers`` value. ``k`` is checked even when there are no queries.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    shape = (len(queries), min(k, len(repo)))
    ranking = Ranking(repo.program_ids, np.empty(shape, dtype=np.intp), np.empty(shape))
    if len(repo) == 0:
        return ranking
    rows = query_rows(repo, queries)
    if isinstance(repo, SemanticIndex):
        _rank_semantic(repo, rows, ranking, k)
        return ranking

    def rank(q: int) -> None:
        result = search(repo, rows[q], k)
        ranking.rows[q] = result.rows
        ranking.scores[q] = result.scores

    if workers == 1 or len(queries) <= 1 or not isinstance(repo.rows, np.ndarray):
        for q in range(len(queries)):
            rank(q)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(rank, range(len(queries))))
    return ranking


@dataclass(frozen=True)
class BenchReport:
    comparisons: int
    seconds: float
    per_second: float


def bench(repo: Index, queries, rounds: int = 1) -> BenchReport:
    """Time the scoring kernel (no ranking) over all query/entry pairs, given
    the queries as :func:`batch_search` takes them."""
    if len(repo) == 0 or len(queries) == 0:
        raise ValidationError("bench needs a non-empty repository and at least one query")
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    rows = query_rows(repo, queries)
    start = time.perf_counter()
    for _ in range(rounds):
        for row in rows:
            repo.scores(row)
    comparisons = rounds * len(rows) * len(repo)
    elapsed = time.perf_counter() - start
    rate = comparisons / elapsed if elapsed > 0 else float("inf")
    return BenchReport(comparisons=comparisons, seconds=elapsed, per_second=rate)


def save_results(results: Iterable[tuple[str, SearchResult]], path: str) -> None:
    """Write ranked hits as query_id, rank, program_id, score rows (6dp),
    one query's lines at a time (see :func:`_hit_lines`), so ``results``
    may be computed meanwhile: ``zip(query_ids, ranking)`` writes a
    :class:`Ranking` from its arrays."""
    write_lines(path, _hit_lines((qid, r.program_ids, r.rows, r.scores) for qid, r in results))


def _hit_lines(results: Iterable[tuple]) -> Iterator[str]:
    """Each query's lines of a hits file, joined by newlines, from its
    (query id, repository ids, hit rows, hit scores).

    Query ids must be unique, and no id may hold a tab, a newline or a lone
    surrogate. Each repository id is checked once, when a hit first names
    it, so the first bad id in line order is the one reported.
    """
    seen: set[str] = set()
    checked_ids, checked = None, None
    for query_id, ids, rows, scores in results:
        if query_id in seen:
            raise ValidationError(f"duplicate query id {query_id!r}")
        seen.add(query_id)
        check_field(query_id, "query id")
        if ids is not checked_ids:  # another repository's ids: none checked yet
            checked_ids, checked = ids, np.zeros(len(ids), dtype=bool)
        for row in rows[~checked[rows]].tolist():
            check_field(ids[row], "program id")
        checked[rows] = True
        hits = [ids[row] for row in rows.tolist()]
        if hits:
            head = query_id.replace("%", "%%")
            values: list = [None] * (2 * len(hits))
            values[0::2], values[1::2] = hits, scores.tolist()
            yield (head + ("\n" + head).join(_rank_lines(len(hits)))) % tuple(values)


@functools.cache
def _rank_lines(hits: int) -> tuple[str, ...]:
    """The %-format of each rank's line after its query id: a query's lines
    are one format, filled in with its hit ids and scores interleaved."""
    return tuple(f"\t{rank}\t%s\t%.6f" for rank in range(1, hits + 1))


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
