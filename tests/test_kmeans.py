import logging

import numpy as np
import pytest

from binsketch.errors import ConfigError, FormatError, ValidationError
from binsketch.kmeans import (
    CentroidModel,
    _repair_empty,
    classify,
    load_model,
    save_model,
    train,
)


def unit_rows(rng, n, d):
    X = rng.standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


class TestCentroidModel:
    def test_rejects_non_unit_centroids(self):
        with pytest.raises(ValidationError, match="unit length"):
            CentroidModel(centroids=np.array([[1.0, 1.0]]))

    def test_rejects_zero_centroid(self):
        with pytest.raises(ValidationError):
            CentroidModel(centroids=np.array([[0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            CentroidModel(centroids=np.array([[np.inf, 0.0]]))

    def test_shape_properties(self, rng):
        model = CentroidModel(centroids=unit_rows(rng, 5, 3))
        assert model.n_clusters == 5
        assert model.d == 3


class TestClassify:
    def test_matches_brute_force_scan(self, rng):
        model = CentroidModel(centroids=unit_rows(rng, 32, 8))
        X = rng.standard_normal((400, 8)) * rng.uniform(0.1, 10, size=(400, 1))
        got = classify(model, X)
        C = model.centroids.astype(np.float64)
        for i in range(X.shape[0]):
            x = X[i] / np.linalg.norm(X[i])
            assert got[i] == int(np.argmax(C @ x))

    def test_scale_invariance(self, rng):
        model = CentroidModel(centroids=unit_rows(rng, 16, 6))
        X = rng.standard_normal((100, 6))
        scales = rng.uniform(0.25, 8.0, size=(100, 1))
        a = classify(model, X)
        b = classify(model, X * scales)
        assert np.array_equal(a, b)

    def test_zero_norm_rows_flagged_and_labeled_zero(self, rng, caplog):
        model = CentroidModel(centroids=unit_rows(rng, 4, 3))
        X = rng.standard_normal((5, 3))
        X[2] = 0.0
        with caplog.at_level(logging.WARNING, logger="binsketch.kmeans"):
            got = classify(model, X)
        assert got.dtype == np.int64
        assert got[2] == 0
        assert [r.message for r in caplog.records] == ["1 zero-norm embeddings assigned label 0"]

    def test_empty_input(self, rng):
        model = CentroidModel(centroids=unit_rows(rng, 4, 3))
        got = classify(model, np.empty((0, 3)))
        assert got.size == 0

    def test_dimension_mismatch(self, rng):
        model = CentroidModel(centroids=unit_rows(rng, 4, 3))
        with pytest.raises(ValidationError, match="dimension"):
            classify(model, rng.standard_normal((5, 4)))

    def test_non_finite_rejected(self, rng):
        model = CentroidModel(centroids=unit_rows(rng, 4, 3))
        X = rng.standard_normal((5, 3))
        X[0, 0] = np.nan
        with pytest.raises(ValidationError):
            classify(model, X)

    def test_tie_breaks_to_lowest_index(self):
        # Two identical centroids: every point ties, label must be 0.
        c = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        model = CentroidModel(centroids=c)
        got = classify(model, np.array([[5.0, 0.0], [3.0, 0.1]]))
        assert got[0] == 0
        assert got[1] == 0


class TestTrain:
    def test_objective_non_decreasing(self, rng):
        X = rng.standard_normal((500, 8))
        model = train(X, n_clusters=16, iterations=12, seed=3)
        trace = np.array(model.objective)
        assert trace.size == 12
        assert np.all(np.diff(trace) >= -1e-7)

    def test_deterministic_given_seed(self, rng):
        X = rng.standard_normal((300, 6))
        a = train(X, n_clusters=8, iterations=5, seed=42)
        b = train(X, n_clusters=8, iterations=5, seed=42)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.objective == b.objective

    def test_different_seeds_differ(self, rng):
        X = rng.standard_normal((300, 6))
        a = train(X, n_clusters=8, iterations=2, seed=0)
        b = train(X, n_clusters=8, iterations=2, seed=1)
        assert not np.array_equal(a.centroids, b.centroids)

    def test_centroids_unit_norm(self, rng):
        X = rng.standard_normal((200, 5)) * 7.0
        model = train(X, n_clusters=10, iterations=5, seed=0)
        norms = np.linalg.norm(model.centroids.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-6)
        assert model.n_clusters == 10

    def test_too_many_clusters_rejected(self, rng):
        X = rng.standard_normal((5, 4))
        with pytest.raises(ConfigError, match="distinct"):
            train(X, n_clusters=6, iterations=2)

    def test_duplicate_points_count_once(self, rng):
        # 3 distinct directions duplicated many times: k=4 must be refused,
        # k=3 must work (the k-means++ fallback handles zero total weight).
        base = unit_rows(rng, 3, 4)
        X = np.repeat(base, 5, axis=0)
        with pytest.raises(ConfigError):
            train(X, n_clusters=4, iterations=2)
        model = train(X, n_clusters=3, iterations=3, seed=0)
        assert model.n_clusters == 3
        assert model.objective[-1] == pytest.approx(15.0, abs=1e-9)

    def test_parallel_vectors_are_one_direction(self, rng):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        with pytest.raises(ConfigError):
            train(X, n_clusters=3, iterations=2)

    def test_zero_norm_training_vector_rejected(self, rng):
        X = rng.standard_normal((10, 3))
        X[4] = 0.0
        with pytest.raises(ValidationError, match="zero norm"):
            train(X, n_clusters=2, iterations=2)

    def test_bad_params_rejected(self, rng):
        X = rng.standard_normal((10, 3))
        with pytest.raises(ConfigError):
            train(X, n_clusters=0, iterations=2)
        with pytest.raises(ConfigError):
            train(X, n_clusters=2, iterations=0)
        with pytest.raises(ValidationError):
            train(np.empty((0, 3)), n_clusters=1, iterations=1)


class TestRepairEmpty:
    def test_moves_farthest_point_into_empty_cluster(self):
        Xn = np.array([[1.0, 0.0], [0.99, np.sqrt(1 - 0.99**2)], [0.0, 1.0]])
        centers = np.array([[1.0, 0.0], [0.0, -1.0]])
        labels = np.array([0, 0, 0])
        sims = Xn @ centers[0]
        _repair_empty(Xn, labels, sims, centers)
        # Point 2 is farthest from centroid 0; it becomes cluster 1.
        assert labels.tolist() == [0, 0, 1]
        assert np.array_equal(centers[1], Xn[2])
        assert sims[2] == 1.0

    def test_never_drains_singleton_cluster(self):
        Xn = np.array([[1.0, 0.0], [0.0, 1.0]])
        centers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        labels = np.array([0, 1])
        sims = np.array([1.0, 1.0])
        _repair_empty(Xn, labels, sims, centers)
        # Both occupied clusters are singletons; cluster 2 stays empty.
        assert labels.tolist() == [0, 1]


class TestModelIO:
    def test_round_trip_is_exact(self, rng, tmp_path):
        model = train(rng.standard_normal((100, 6)), n_clusters=7, iterations=4, seed=1)
        path = tmp_path / "model.km"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert np.array_equal(loaded.centroids, model.centroids)
        assert loaded.centroids.dtype == np.float32
        assert path.read_bytes()[:5] == b"KHKM1"

    def test_save_is_deterministic(self, rng, tmp_path):
        model = train(rng.standard_normal((50, 4)), n_clusters=3, iterations=3, seed=9)
        p1, p2 = tmp_path / "a.km", tmp_path / "b.km"
        save_model(model, str(p1))
        save_model(model, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.km"
        path.write_bytes(b"KHSEM1" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            load_model(str(path))

    def test_corrupted_centroid_rejected(self, rng, tmp_path):
        model = train(rng.standard_normal((50, 4)), n_clusters=3, iterations=2, seed=0)
        path = tmp_path / "model.km"
        save_model(model, str(path))
        raw = bytearray(path.read_bytes())
        raw[-4:] = b"\x00\x00\x00\x00"  # zero out one component
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="unit length"):
            load_model(str(path))

    def test_truncated_file_rejected(self, rng, tmp_path):
        model = train(rng.standard_normal((50, 4)), n_clusters=3, iterations=2, seed=0)
        path = tmp_path / "model.km"
        save_model(model, str(path))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_model(str(path))
