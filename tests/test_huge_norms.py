"""A function whose norm overflows float64 still has a direction.

Coordinates near 1e154 or larger make ``np.linalg.norm`` return inf, and
dividing by it gives the zero vector. Every consumer of unit rows (the
semantic pool, ``kmeans.classify`` and ``kmeans.train``) must instead see
the same direction as the row scaled down to ordinary magnitudes.
"""

import numpy as np
import pytest

from binsketch import semantic
from binsketch.corpus import FunctionRecord, ProgramRecord
from binsketch.kmeans import CentroidModel, classify, train, unit_rows

HUGE = [1e300, 1e300, 0.0, 0.0]


def test_unit_rows_rescales_only_rows_whose_norm_overflows():
    X = np.array([HUGE, [3.0, 4.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [-1e308, 1e308, 1e308, 0.0]])
    with np.errstate(over="raise"):
        got = unit_rows(X)
    half = np.sqrt(0.5)
    assert got[0] == pytest.approx([half, half, 0.0, 0.0], abs=1e-15)
    assert got[1].tolist() == [0.6, 0.8, 0.0, 0.0]
    assert got[2].tolist() == [0.0, 0.0, 0.0, 0.0]
    third = 1 / np.sqrt(3.0)
    assert got[3] == pytest.approx([-third, third, third, 0.0], abs=1e-15)
    # Finite norms keep the plain arithmetic, bit for bit.
    plain = np.random.default_rng(0).standard_normal((50, 4)) * 1e100
    assert unit_rows(plain).tobytes() == (plain / np.linalg.norm(plain, axis=1)[:, None]).tobytes()


def test_semantic_pool_counts_a_huge_function_with_its_direction():
    cfg = semantic.WeightConfig(mode="mean_pooling")
    huge = FunctionRecord("h", np.array(HUGE), loc=1, nos=0)
    tame = FunctionRecord("t", np.array([0.0, 1.0, 0.0, 0.0]), loc=1, nos=0)
    pooled = semantic.hash_program(ProgramRecord("p", [huge, tame]), cfg).values
    half = np.sqrt(0.5)
    assert pooled == pytest.approx([half / 2, (half + 1) / 2, 0.0, 0.0], abs=1e-7)
    same = FunctionRecord("s", np.array([1.0, 1.0, 0.0, 0.0]), loc=1, nos=0)
    assert np.array_equal(
        pooled, semantic.hash_program(ProgramRecord("p", [same, tame]), cfg).values
    )


def test_classify_labels_a_huge_row_by_its_direction(caplog):
    model = CentroidModel(np.array([[1.0, 0.0, 0.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0]]))
    got = classify(model, np.array([HUGE, [1.0, 1.0, 0.0, 0.0]]))
    assert got.tolist() == [1, 1]
    assert "zero-norm" not in caplog.text


def test_train_places_a_huge_row_where_its_scaled_copy_goes():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 4))
    scaled = X.copy()
    scaled[::7] *= 1e300
    a = train(X, n_clusters=3, iterations=5, seed=2)
    b = train(scaled, n_clusters=3, iterations=5, seed=2)
    assert np.allclose(a.centroids, b.centroids, atol=1e-6)
    assert np.allclose(a.objective, b.objective, rtol=1e-12)
