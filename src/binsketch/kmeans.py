"""Spherical K-Means on unit-normalized function embeddings.

Assignment uses cosine similarity (dot product on normalized vectors) and
the update step renormalizes the cluster mean, so every centroid stays on
the unit sphere. Initialization is k-means++ with cosine distance, and an
empty cluster is repaired by stealing the point farthest from its own
centroid. :func:`classify` returns int64 labels. Ties in assignment always
resolve to the lowest cluster index, so a zero-norm row gets label 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import RecordFormat, read_records, write_records
from .errors import ConfigError, FormatError, ValidationError

logger = logging.getLogger(__name__)

MODEL_MAGIC = b"KHKM1"
MODEL_FORMAT = RecordFormat(
    MODEL_MAGIC, "dimension", "<f4", lambda d: d, lambda d: 32 * d,
    lambda path, d, ids, raw: raw.view("<f4"),
)

DEFAULT_ITERATIONS = 30

_ASSIGN_CHUNK = 8192


@dataclass(eq=False)
class CentroidModel:
    """Trained centroids, one unit-length float32 row per cluster.

    ``objective`` holds the per-iteration training objective (sum of
    cosine similarities of points to their assigned centroid); it is not
    persisted by :func:`save_model`.
    """

    centroids: np.ndarray
    objective: list[float] | None = field(default=None)

    def __post_init__(self):
        self.centroids = np.ascontiguousarray(self.centroids, dtype=np.float32)
        if self.centroids.ndim != 2 or self.centroids.shape[0] < 1:
            raise ValidationError(
                f"centroids must be a non-empty 2-D array, got shape {self.centroids.shape}"
            )
        if not np.all(np.isfinite(self.centroids)):
            raise ValidationError("centroids have non-finite values")
        norms = np.linalg.norm(self.centroids.astype(np.float64), axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            worst = float(np.abs(norms - 1.0).max())
            raise ValidationError(f"centroids must be unit length (max |norm-1| = {worst:.3g})")

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]


def unit_rows(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The rows of a float64 matrix divided by their Euclidean norms, into
    ``out`` (a new array by default); a zero-norm row comes out zero.

    A row whose norm overflows float64 (coordinates near 1e154 or larger)
    is divided by its largest magnitude first, so it keeps its direction
    instead of collapsing to zero. Every other row gets exactly
    ``X / np.linalg.norm(X, axis=1)``.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X, axis=1)[:, np.newaxis]
    huge = np.flatnonzero(np.isinf(norms[:, 0]))
    if huge.size:  # read before ``out``, which may be X itself, is written
        scaled = X[huge] / np.abs(X[huge]).max(axis=1, keepdims=True)
        scaled /= np.linalg.norm(scaled, axis=1, keepdims=True)
    if out is None:
        out = np.zeros_like(X)
    np.divide(X, norms, out=out, where=norms > 0.0)
    if huge.size:
        out[huge] = scaled
    return out


def _check_matrix(X: np.ndarray, what: str) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"{what} must be 2-D, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValidationError(f"{what} has non-finite values")
    return X


def _assign(
    X: np.ndarray, centers: np.ndarray, normalise: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest centroid per row; argmax breaks ties at the lowest index.

    With ``normalise``, each block of rows goes through :func:`unit_rows`
    on its own, which gives the rows of ``unit_rows(X)`` without a
    normalised copy of X; the third array flags the rows that come out zero.
    """
    n = X.shape[0]
    labels = np.empty(n, dtype=np.int64)
    sims = np.empty(n, dtype=np.float64)
    zero = np.zeros(n, dtype=bool)
    # One similarity buffer for every block: a fresh product per block would
    # be allocated while the previous one is still alive.
    out = np.empty((min(n, _ASSIGN_CHUNK), centers.shape[0]), dtype=np.float64)
    for start in range(0, n, _ASSIGN_CHUNK):
        stop = min(start + _ASSIGN_CHUNK, n)
        rows = X[start:stop]
        if normalise:
            rows = unit_rows(rows)
            zero[start:stop] = ~rows.any(axis=1)
        block = np.matmul(rows, centers.T, out=out[: stop - start])
        labels[start:stop] = np.argmax(block, axis=1)
        sims[start:stop] = block[np.arange(stop - start), labels[start:stop]]
    return labels, sims, zero


def _repair_empty(
    Xn: np.ndarray, labels: np.ndarray, sims: np.ndarray, centers: np.ndarray
) -> None:
    """Give each empty cluster the point farthest from its own centroid.

    Only clusters with more than one member may donate, so repair never
    re-empties a cluster. All three arrays are updated in place.
    """
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    for j in np.flatnonzero(counts == 0):
        donors = np.flatnonzero(counts[labels] > 1)
        if donors.size == 0:
            break
        worst = donors[np.argmin(sims[donors])]
        counts[labels[worst]] -= 1
        labels[worst] = j
        counts[j] = 1
        centers[j] = Xn[worst]
        sims[worst] = 1.0


def _update(Xn: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    k, d = centers.shape
    sums = np.empty((k, d), dtype=np.float64)
    for col in range(d):
        sums[:, col] = np.bincount(labels, weights=Xn[:, col], minlength=k)
    norms = np.linalg.norm(sums, axis=1)
    out = centers.copy()
    ok = norms > 0.0
    out[ok] = sums[ok] / norms[ok, np.newaxis]
    return out


def train(
    embeddings: np.ndarray,
    n_clusters: int,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
) -> CentroidModel:
    """Run k-means++ initialization then a fixed number of Lloyd iterations.

    The per-iteration objective (recorded after assignment and empty-cluster
    repair) is non-decreasing; training is deterministic given ``seed``.
    """
    if n_clusters < 1:
        raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    X = _check_matrix(embeddings, "training embeddings")
    if X.shape[0] == 0:
        raise ValidationError("training set is empty")
    Xn = unit_rows(X)
    zero = ~Xn.any(axis=1)
    if zero.any():
        raise ValidationError(f"{int(zero.sum())} training embeddings have zero norm")
    distinct = np.unique(Xn, axis=0).shape[0]
    if n_clusters > distinct:
        raise ConfigError(
            f"n_clusters={n_clusters} exceeds the {distinct} distinct directions in the data"
        )

    rng = np.random.default_rng(seed)
    n = Xn.shape[0]
    centers = np.empty((n_clusters, Xn.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = Xn[first]
    chosen = [first]
    best_sim = Xn @ centers[0]
    for j in range(1, n_clusters):
        dist = np.clip(1.0 - best_sim, 0.0, None)
        weights = dist * dist
        total = weights.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=weights / total))
        else:
            # Every remaining point coincides with a chosen center
            # (possible with duplicates); fall back to a uniform pick.
            mask = np.ones(n, dtype=bool)
            mask[chosen] = False
            candidates = np.flatnonzero(mask)
            idx = int(candidates[rng.integers(candidates.size)])
        centers[j] = Xn[idx]
        chosen.append(idx)
        np.maximum(best_sim, Xn @ centers[j], out=best_sim)

    trace: list[float] = []
    for _ in range(iterations):
        labels, sims, _ = _assign(Xn, centers)
        _repair_empty(Xn, labels, sims, centers)
        trace.append(float(sims.sum()))
        centers = _update(Xn, labels, centers)

    return CentroidModel(centroids=centers.astype(np.float32), objective=trace)


def classify(model: CentroidModel, embeddings: np.ndarray) -> np.ndarray:
    """The int64 label of each embedding: its nearest centroid by cosine
    similarity.

    Classification is scale invariant, up to rows whose norm overflows
    (see :func:`unit_rows`). A zero-norm row gets label 0, with a warning:
    its similarities are all 0, and argmax takes the first.
    """
    X = _check_matrix(embeddings, "embeddings")
    if X.shape[0] and X.shape[1] != model.d:
        raise ValidationError(
            f"embeddings have dimension {X.shape[1]}, model expects {model.d}"
        )
    labels, _, zero = _assign(X, model.centroids.astype(np.float64), normalise=True)
    if np.any(zero):
        logger.warning(
            "%d zero-norm embeddings assigned label 0", int(zero.sum())
        )
    return labels


def save_model(model: CentroidModel, path: str) -> None:
    """Write centroids in the float32 container format (magic KHKM1).

    Entry ids are the decimal cluster indices in order.
    """
    ids = [str(idx) for idx in range(model.n_clusters)]
    write_records(path, MODEL_FORMAT, model.d, ids, [model.centroids])


def load_model(path: str) -> CentroidModel:
    _, _, ids, rows = read_records(path, MODEL_FORMAT)
    if not ids:
        raise FormatError(f"{path}: model must have at least one centroid")
    for idx, name in enumerate(ids):
        if name != str(idx):
            raise FormatError(f"{path}: centroid {idx} has unexpected id {name!r}")
    return CentroidModel(centroids=rows)
