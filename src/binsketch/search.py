"""Exact top-k similarity search over program embeddings.

The index is a flat scan: every query is scored against every repository
entry (Jaccard for structural bit-vectors, cosine for semantic vectors)
and the top k survive. No approximation, no pruning; ranking ties break
toward the lexicographically smaller program id so results are stable.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import SemanticEmbedding, StructuralEmbedding, check_field
from .errors import ConfigError, ParseError, ValidationError
from .structural import jaccard_many, pack_rows

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
    """Packed uint64 bit-vector rows with their popcounts, scored by Jaccard."""

    program_ids: list[str]
    words: np.ndarray
    pops: np.ndarray
    m: int

    def __len__(self) -> int:
        return len(self.program_ids)

    def scores(self, query) -> np.ndarray:
        if not isinstance(query, StructuralEmbedding):
            raise ValidationError("embedding kinds differ: structural repository, other query")
        if query.m != self.m:
            raise ValidationError(f"query m={query.m} does not match repository m={self.m}")
        return jaccard_many(query, self.words, self.pops)


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
    score alone breaks ties by id. An empty list gives an empty index that
    answers every query with no hits.
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
        words, pops = pack_rows(embeddings)
        return StructuralIndex(ids, words, pops, m=ms.pop() if ms else 0)
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

    Query ids must be unique, and no id may hold a tab or newline.
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
    with open(path, "wb") as fh:
        payload = "\n".join(lines)
        fh.write((payload + "\n").encode("utf-8") if lines else b"")


def load_results(path: str) -> list[tuple[str, list[tuple[str, float]]]]:
    """Read a results file back as (query_id, [(program_id, score), ...])."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    raw = text.split("\n")
    if raw and raw[-1] == "":
        raw.pop()
    grouped: list[tuple[str, list[tuple[str, float]]]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(raw, start=1):
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
