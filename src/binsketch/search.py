"""Exact top-k similarity search over program embeddings.

Every query is scored against every repository entry (Jaccard for
structural bit-vectors, cosine for semantic vectors) and the top k
survive; ranking ties break toward the lexicographically smaller program
id, so results are stable. No approximation.

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
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import SemanticEmbedding, StructuralEmbedding, check_field, read_lines
from .errors import ConfigError, ParseError, ValidationError
from .structural import Postings, build_postings, jaccard_many, pack_rows

Entry = tuple[str, StructuralEmbedding | SemanticEmbedding]


@dataclass(frozen=True)
class Hit:
    program_id: str
    score: float


@dataclass
class SearchResult:
    hits: list[Hit] = field(default_factory=list)


@dataclass(eq=False)
class StructuralIndex:
    """Bit-vector rows scored by Jaccard.

    ``rows`` holds either the packed (N, words) uint64 matrix or its
    :class:`~binsketch.structural.Postings`, as :func:`build` chose;
    ``pops`` holds the per-row popcounts.
    """

    program_ids: list[str]
    rows: np.ndarray | Postings
    pops: np.ndarray
    m: int

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

    Rows are stored in ascending program id order, so a stable sort on
    score alone breaks ties by id. A structural index keeps posting lists
    when its rows hold fewer set bits than packed words, and the packed
    words otherwise. An empty list gives an empty index that answers every
    query with no hits.
    """
    entries = sorted(entries, key=lambda entry: entry[0])
    ids = [pid for pid, _ in entries]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate program_id in repository entries")
    embeddings = [emb for _, emb in entries]
    kinds = {type(emb) for emb in embeddings}
    if kinds <= {StructuralEmbedding}:
        ms = {emb.m for emb in embeddings}
        if len(ms) > 1:
            raise ValidationError(f"mixed bit-vector lengths in repository: {sorted(ms)}")
        m = ms.pop() if ms else 0
        words, pops = pack_rows(embeddings)
        # A query's postings are a subset of the index's, so with fewer set
        # bits than packed words the sparse kernel never reads more posting
        # entries than the dense scan reads words.
        rows = build_postings(words, m) if pops.sum() < words.size else words
        return StructuralIndex(ids, rows, pops, m)
    if kinds == {SemanticEmbedding}:
        ds = {emb.d for emb in embeddings}
        if len(ds) > 1:
            raise ValidationError(f"mixed dimensions in repository: {sorted(ds)}")
        V = np.stack([emb.values for emb in embeddings]).astype(np.float64)
        norms = np.linalg.norm(V, axis=1)
        nonzero = norms > 0.0
        unit = np.divide(
            V, norms[:, np.newaxis], out=np.zeros_like(V), where=nonzero[:, np.newaxis]
        )
        return SemanticIndex(ids, unit, d=ds.pop())
    raise ValidationError("repository entries mix structural and semantic embeddings")


def search(repo: Index, query, k: int) -> SearchResult:
    """Top-k entries by score, descending; ties by ascending program id."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if len(repo) == 0:
        return SearchResult()
    scores = repo.scores(query)
    top = np.argsort(-scores, kind="stable")[:k]
    return SearchResult([Hit(repo.program_ids[i], float(scores[i])) for i in top])


def batch_search(
    repo: Index, queries: Sequence, k: int, workers: int = 1
) -> list[SearchResult]:
    """Run :func:`search` for each query; output order follows input order.

    Results are identical for any ``workers`` value, it only changes how
    many scans run concurrently.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(queries) <= 1:
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
    payload = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
    with open(path, "wb") as fh:
        fh.write(payload)


def load_results(path: str) -> list[tuple[str, list[tuple[str, float]]]]:
    """Read a results file back as (query_id, [(program_id, score), ...])."""
    grouped: list[tuple[str, list[tuple[str, float]]]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_lines(path), start=1):
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
