"""Independent reference for the pipeline's outputs.

Nothing here imports ``binsketch``: the sketch containers, the results
file and the class map are parsed from their documented layouts, Jaccard
is computed from set-bit positions with posting-style intersection counts
(the program uses dense AND + popcount), and cosine is plain float64.
"""

from __future__ import annotations

import struct

import numpy as np

STRUCTURAL_MAGIC = b"KHSTRU1"
SEMANTIC_MAGIC = b"KHSEM1"

# Cosine scores from two float64 evaluation orders may differ in the last
# bits; ranks closer than this count as tied.
COSINE_EPS = 1e-9


def _records(path: str, magic: bytes, payload_bytes) -> tuple[int, list[str], list[bytes]]:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(magic):
        raise ValueError(f"{path}: bad magic")
    pos = len(magic)
    param, count = struct.unpack_from("<IQ", data, pos)
    pos += 12
    size = payload_bytes(param)
    ids, payloads = [], []
    for _ in range(count):
        (length,) = struct.unpack_from("<I", data, pos)
        pos += 4
        ids.append(data[pos : pos + length].decode("utf-8"))
        pos += length
        payloads.append(data[pos : pos + size])
        pos += size
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} bytes after the last record")
    return param, ids, payloads


class StructuralSets:
    """The set-bit positions of every sketch in a ``.stru`` file, as CSR."""

    def __init__(self, path: str):
        self.m, self.ids, payloads = _records(path, STRUCTURAL_MAGIC, lambda m: (m + 7) // 8)
        rows = []
        for raw in payloads:
            data = np.frombuffer(raw, dtype=np.uint8)
            nz = np.flatnonzero(data)
            bits = np.unpackbits(data[nz][:, np.newaxis], axis=1, bitorder="little")
            byte_index, bit = np.nonzero(bits)
            rows.append(nz[byte_index] * 8 + bit)
        self.sizes = np.array([r.size for r in rows], dtype=np.int64)
        self.flat = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        self.owner = np.repeat(np.arange(len(rows)), self.sizes)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])

    def positions(self, row: int) -> np.ndarray:
        return self.flat[self.offsets[row] : self.offsets[row + 1]]

    def jaccard(self, query: np.ndarray) -> np.ndarray:
        """Jaccard of one set of positions against every row (empty/empty = 1)."""
        hit = np.isin(self.flat, query)
        inter = np.bincount(self.owner[hit], minlength=len(self.ids))
        union = self.sizes + query.size - inter
        return np.where(union == 0, 1.0, inter / np.maximum(union, 1))


class SemanticRows:
    """The float32 rows of a ``.sem`` file, widened to float64."""

    def __init__(self, path: str):
        d, self.ids, payloads = _records(path, SEMANTIC_MAGIC, lambda d: 4 * d)
        self.values = np.array(
            [np.frombuffer(raw, dtype="<f4") for raw in payloads], dtype=np.float64
        ).reshape(len(payloads), d)
        self.norms = np.sqrt(np.einsum("ij,ij->i", self.values, self.values))

    def cosine(self, row: int, other: "SemanticRows") -> np.ndarray:
        """Cosine of ``self`` row ``row`` against every row of ``other``; zero vectors score 0."""
        q = self.values[row]
        qn = self.norms[row]
        dots = np.einsum("ij,j->i", other.values, q)
        denom = other.norms * qn
        return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)


def load_results(path: str) -> dict[str, list[tuple[str, str]]]:
    """query id -> [(program id, score text)] in rank order."""
    out: dict[str, list[tuple[str, str]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            query, rank, program, score = line.rstrip("\n").split("\t")
            hits = out.setdefault(query, [])
            if int(rank) != len(hits) + 1:
                raise ValueError(f"{path}: rank {rank} out of order for {query!r}")
            hits.append((program, score))
    return out


def load_class_map(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t") for line in fh)


def top_k(scores: np.ndarray, ids: list[str], k: int) -> list[int]:
    """Row indices of the k best scores; equal scores rank by ascending id."""
    candidates = range(len(ids))
    if len(ids) > k:
        kth_best = np.partition(scores, len(ids) - k)[len(ids) - k]
        candidates = np.flatnonzero(scores >= kth_best).tolist()
    return sorted(candidates, key=lambda i: (-scores[i], ids[i]))[:k]


def check_query(
    scores: np.ndarray, ids: list[str], got: list[tuple[str, str]], k: int, eps: float
) -> str | None:
    """Compare a returned top-k with the reference; None when it matches.

    Ids must match in rank order and scores to 6 decimal places. With
    ``eps`` > 0 two ids may swap ranks only if their reference scores lie
    within ``eps`` of each other (a float-rounding tie).
    """
    want = top_k(scores, ids, k)
    if len(got) != len(want):
        return f"{len(got)} hits, expected {len(want)}"
    row_of = {pid: i for i, pid in enumerate(ids)}
    for rank, ((pid, score_text), expect) in enumerate(zip(got, want), start=1):
        row = row_of.get(pid)
        if row is None:
            return f"rank {rank}: unknown program {pid!r}"
        if row != expect and not (eps > 0 and abs(scores[row] - scores[expect]) <= eps):
            return f"rank {rank}: got {pid!r}, expected {ids[expect]!r}"
        if eps == 0:
            if score_text != f"{scores[row]:.6f}":
                return f"rank {rank}: score {score_text}, expected {scores[row]:.6f}"
        elif abs(float(score_text) - scores[row]) > 5e-7 + eps:
            return f"rank {rank}: score {score_text}, expected {scores[row]:.6f}"
    if len({pid for pid, _ in got}) != len(got):
        return "duplicate program in hits"
    return None


def map_at_k(
    results: dict[str, list[tuple[str, str]]], class_map: dict[str, str], k: int
) -> float:
    """Mean over queries of the mean Precision@i at the relevant ranks i."""
    total = 0.0
    for query, hits in results.items():
        relevant = 0
        precision_sum = 0.0
        for rank, (pid, _) in enumerate(hits[:k], start=1):
            if class_map.get(pid) == class_map[query]:
                relevant += 1
                precision_sum += relevant / rank
        total += precision_sum / relevant if relevant else 0.0
    return total / len(results)
