"""Retrieval and matching metrics.

Clone search quality is scored with mAP@k and mP@k over per-query
relevance flags. Note the AP here is not classical IR average precision:
the denominator is the number of relevant items actually retrieved in the
top k, not the number of relevant items in the repository.

Function matching is scored as precision/recall/F1 over pair sets, and
Cliff's delta gives a nonparametric effect size between two score samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import check_field
from .errors import ParseError, ValidationError


@dataclass(eq=False)
class RelevanceJudgment:
    """Per-query relevance flags for the ranked top-k hits, in rank order."""

    query_id: str
    ranked_relevance: list[int] = field(default_factory=list)

    def __post_init__(self):
        for flag in self.ranked_relevance:
            if flag not in (0, 1):
                raise ValidationError(
                    f"query {self.query_id!r}: relevance flags must be 0 or 1, got {flag!r}"
                )


@dataclass(frozen=True)
class MatchingReport:
    precision: float
    recall: float
    f1: float
    matched_pairs: int


def _check_judgments(judgments: Sequence[RelevanceJudgment], k: int) -> None:
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not judgments:
        raise ValidationError("cannot average over zero queries")
    for j in judgments:
        if len(j.ranked_relevance) > k:
            raise ValidationError(
                f"query {j.query_id!r} has {len(j.ranked_relevance)} flags, more than k={k}"
            )


def average_precision(flags: Sequence[int]) -> float:
    """AP of one ranked flag list: mean of Precision@i over relevant ranks i.

    A query with no relevant hits scores 0.
    """
    hits = 0
    total = 0.0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            total += hits / rank
    return total / hits if hits else 0.0


def map_at_k(judgments: Sequence[RelevanceJudgment], k: int) -> float:
    """Mean over queries of the truncated average precision."""
    _check_judgments(judgments, k)
    return sum(average_precision(j.ranked_relevance[:k]) for j in judgments) / len(judgments)


def mp_at_k(judgments: Sequence[RelevanceJudgment], k: int) -> float:
    """Mean over queries of (relevant hits in top k) / k.

    The denominator is always k; a query with fewer than k retrieved hits
    is charged for the missing ranks.
    """
    _check_judgments(judgments, k)
    return sum(sum(j.ranked_relevance[:k]) / k for j in judgments) / len(judgments)


def _prf(intersection: int, predicted: int, truth: int) -> MatchingReport:
    precision = intersection / predicted if predicted else 0.0
    recall = intersection / truth if truth else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MatchingReport(precision=precision, recall=recall, f1=f1, matched_pairs=intersection)


def matching_eval(predicted_pairs: set, truth_pairs: set) -> MatchingReport:
    """Precision/recall/F1 of a predicted pair set against a truth pair set."""
    return _prf(len(predicted_pairs & truth_pairs), len(predicted_pairs), len(truth_pairs))


def matching_eval_grouped(
    query_fns: Sequence[tuple[int, int]], repo_fns: Sequence[tuple[int, int]]
) -> MatchingReport:
    """Pair counting for label-based matching without materializing pairs.

    Each side is a sequence of (predicted_label, true_class) per function.
    A query/repo function pair is predicted iff the labels agree and true
    iff the classes agree, so all three set sizes reduce to products of
    group counts. Equivalent to matching_eval on the cartesian pair sets.
    """
    def _count(side: Sequence[tuple[int, int]], key) -> dict:
        counts: dict = {}
        for item in side:
            k = key(item)
            counts[k] = counts.get(k, 0) + 1
        return counts

    q_label = _count(query_fns, lambda it: it[0])
    r_label = _count(repo_fns, lambda it: it[0])
    q_class = _count(query_fns, lambda it: it[1])
    r_class = _count(repo_fns, lambda it: it[1])
    q_both = _count(query_fns, lambda it: it)
    r_both = _count(repo_fns, lambda it: it)

    predicted = sum(n * r_label.get(lbl, 0) for lbl, n in q_label.items())
    truth = sum(n * r_class.get(cls, 0) for cls, n in q_class.items())
    intersection = sum(n * r_both.get(pair, 0) for pair, n in q_both.items())
    return _prf(intersection, predicted, truth)


def cliffs_delta(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Dominance effect size: (#{a>b} - #{a<b}) / (|a|*|b|), in [-1, 1]."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValidationError("cliffs_delta requires two non-empty samples")
    diff = a[:, np.newaxis] - b[np.newaxis, :]
    greater = int((diff > 0).sum())
    less = int((diff < 0).sum())
    return (greater - less) / (a.size * b.size)


def judgments_from_results(
    results: Sequence[tuple[str, Sequence[tuple[str, float]]]],
    class_map: Mapping[str, str],
    k: int,
    repo_ids: Iterable[str] | None = None,
) -> tuple[list[RelevanceJudgment], int]:
    """Turn ranked search results into relevance judgments.

    A hit is relevant when its class matches the query's class; hits absent
    from the class map count as irrelevant. Queries whose class has no
    repository member are dropped (they cannot score) and tallied in the
    returned excluded count. Repository membership comes from ``repo_ids``
    when given, otherwise any *other* id in the class map counts.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    classes_present: dict[str, set[str]] = {}
    pool = repo_ids if repo_ids is not None else class_map.keys()
    for pid in pool:
        cls = class_map.get(pid)
        if cls is not None:
            classes_present.setdefault(cls, set()).add(pid)

    judgments: list[RelevanceJudgment] = []
    excluded = 0
    for query_id, hits in results:
        query_class = class_map.get(query_id)
        if query_class is None:
            raise ValidationError(f"query {query_id!r} is missing from the class map")
        members = classes_present.get(query_class, set()) - {query_id}
        if not members:
            excluded += 1
            continue
        flags = [1 if class_map.get(pid) == query_class else 0 for pid, _ in hits[:k]]
        judgments.append(RelevanceJudgment(query_id=query_id, ranked_relevance=flags))
    return judgments, excluded


def load_class_map(path: str) -> dict[str, str]:
    """Read a program_id -> class_id map (one tab-separated pair per line)."""
    mapping: dict[str, str] = {}
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    raw = text.split("\n")
    if raw and raw[-1] == "":
        raw.pop()
    for lineno, line in enumerate(raw, start=1):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected 2 tab-separated fields, got {len(fields)}", lineno)
        pid, cls = fields
        if pid in mapping and mapping[pid] != cls:
            raise ParseError(f"conflicting class for program {pid!r}", lineno)
        mapping[pid] = cls
    return mapping


def save_class_map(mapping: Mapping[str, str], path: str) -> None:
    for pid, cls in mapping.items():
        check_field(pid, "program id")
        check_field(cls, "class id")
    lines = [f"{pid}\t{cls}" for pid, cls in mapping.items()]
    with open(path, "wb") as fh:
        payload = "\n".join(lines)
        fh.write((payload + "\n").encode("utf-8") if lines else b"")


def format_report(values: Mapping[str, float | int | str]) -> str:
    """Render metrics as line-oriented key=value text (floats to 6dp)."""
    lines = []
    for key, value in values.items():
        if isinstance(value, float):
            lines.append(f"{key}={value:.6f}")
        else:
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"
