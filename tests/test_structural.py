import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsketch.corpus import FunctionRecord, ProgramRecord, StructuralEmbedding
from binsketch.errors import ConfigError, ValidationError
from binsketch.kmeans import CentroidModel, classify
from binsketch.structural import (
    FeatureHasher,
    hash_program,
    jaccard,
    jaccard_many,
    labels_to_bitvector,
    mix64,
)

from conftest import make_program

_MASK = (1 << 64) - 1


def mix64_reference(z: int) -> int:
    """Scalar splitmix64 finalizer, independent of the vectorized code."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@given(st.integers(min_value=0, max_value=_MASK))
def test_mix64_matches_scalar_reference(value):
    assert int(mix64(np.uint64(value))) == mix64_reference(value)


def test_mix64_known_zero_input():
    # mix64(0) per the reference chain: 0 stays 0 through xor-shift-multiply.
    assert int(mix64(np.uint64(0))) == 0


class TestFeatureHasherConfig:
    @pytest.mark.parametrize("m", [1 << 10, 1 << 16, 1 << 18])
    def test_accepts_power_of_two_in_range(self, m):
        assert FeatureHasher(m=m).m == m

    @pytest.mark.parametrize("m", [0, 1, 512, 1000, 1 << 19, (1 << 16) + 1])
    def test_rejects_bad_m(self, m):
        with pytest.raises(ConfigError):
            FeatureHasher(m=m)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ConfigError):
            FeatureHasher(seed_position=1 << 64)

    def test_position_and_sign_follow_reference(self):
        h = FeatureHasher(m=1 << 12)
        labels = np.arange(50, dtype=np.uint64)
        for lbl in labels:
            expect_pos = mix64_reference(int(lbl) ^ h.seed_position) % h.m
            expect_sign = 1 if mix64_reference(int(lbl) ^ h.seed_sign) & 1 else -1
            assert int(h.position(np.array([lbl]))[0]) == expect_pos
            assert int(h.sign(np.array([lbl]))[0]) == expect_sign


class TestLabelsToBitvector:
    def test_empty_set_is_all_zero(self):
        h = FeatureHasher(m=1 << 10)
        emb = labels_to_bitvector(set(), h)
        assert emb.m == h.m
        assert emb.popcount() == 0

    def test_duplicates_and_order_do_not_matter(self):
        h = FeatureHasher(m=1 << 10)
        a = labels_to_bitvector([5, 9, 2], h)
        b = labels_to_bitvector([2, 5, 9, 9, 5], h)
        assert a == b

    def test_rejects_negative_label(self):
        with pytest.raises(ValidationError):
            labels_to_bitvector([-1], FeatureHasher(m=1 << 10))

    def test_rejects_oversized_label(self):
        with pytest.raises(ValidationError):
            labels_to_bitvector([1 << 64], FeatureHasher(m=1 << 10))

    def test_single_label_sets_its_bucket(self):
        h = FeatureHasher(m=1 << 10)
        for lbl in (0, 7, 123456):
            emb = labels_to_bitvector({lbl}, h)
            assert emb.popcount() == 1
            assert emb.bits()[int(h.position(np.array([lbl], dtype=np.uint64))[0])] == 1

    def test_collision_cancellation_and_reinforcement(self):
        # Hunt for two labels in the same bucket: opposite signs must cancel
        # the bit to 0, equal signs must leave it set.
        h = FeatureHasher(m=1 << 10)
        labels = np.arange(6000, dtype=np.uint64)
        pos = h.position(labels)
        sign = h.sign(labels)
        by_bucket: dict[int, list[int]] = {}
        cancel_pair = reinforce_pair = None
        for i in range(labels.size):
            bucket = int(pos[i])
            for j in by_bucket.get(bucket, []):
                if sign[i] != sign[j] and cancel_pair is None:
                    cancel_pair = (j, i, bucket)
                if sign[i] == sign[j] and reinforce_pair is None:
                    reinforce_pair = (j, i, bucket)
            by_bucket.setdefault(bucket, []).append(i)
            if cancel_pair and reinforce_pair:
                break
        assert cancel_pair is not None and reinforce_pair is not None

        j, i, bucket = cancel_pair
        assert labels_to_bitvector({j, i}, h).bits()[bucket] == 0
        j, i, bucket = reinforce_pair
        assert labels_to_bitvector({j, i}, h).bits()[bucket] == 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.sets(st.integers(min_value=0, max_value=(1 << 20) - 1), max_size=300),
        st.sampled_from([1 << 10, 1 << 12, 1 << 16]),
    )
    def test_popcount_bounded_by_label_count(self, labels, m):
        emb = labels_to_bitvector(labels, FeatureHasher(m=m))
        assert emb.popcount() <= min(len(labels), m)


class TestJaccard:
    def test_identical_vectors(self, rng):
        bits = (rng.random(1 << 10) < 0.3).astype(np.uint8)
        emb = StructuralEmbedding.from_bits(bits)
        assert jaccard(emb, emb) == 1.0

    def test_disjoint_vectors(self):
        a = np.zeros(1024, dtype=np.uint8)
        b = np.zeros(1024, dtype=np.uint8)
        a[:10] = 1
        b[10:20] = 1
        assert jaccard(
            StructuralEmbedding.from_bits(a), StructuralEmbedding.from_bits(b)
        ) == 0.0

    def test_both_empty_count_as_identical(self):
        zero = StructuralEmbedding.from_bits(np.zeros(1024, dtype=np.uint8))
        assert jaccard(zero, zero) == 1.0

    def test_length_mismatch_rejected(self):
        a = StructuralEmbedding.from_bits(np.zeros(1024, dtype=np.uint8))
        b = StructuralEmbedding.from_bits(np.zeros(2048, dtype=np.uint8))
        with pytest.raises(ValidationError):
            jaccard(a, b)

    def test_subset_example_vs_hamming(self):
        # 10,000 set bits against a 4,000-bit subset: Jaccard sees the
        # containment (0.4) while plain Hamming distance reports 6,000
        # differing positions regardless of the shared mass.
        m = 1 << 16
        a = np.zeros(m, dtype=np.uint8)
        a[:10000] = 1
        b = np.zeros(m, dtype=np.uint8)
        b[:4000] = 1
        ea, eb = StructuralEmbedding.from_bits(a), StructuralEmbedding.from_bits(b)
        assert jaccard(ea, eb) == pytest.approx(0.4, abs=1e-12)
        hamming = int(np.bitwise_count(ea.words ^ eb.words).sum(dtype=np.int64))
        assert hamming == 6000

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_set_jaccard_on_buckets(self, data):
        # With distinct buckets and no cancellation the bit-vector Jaccard
        # must equal the exact set Jaccard of the bucket sets.
        m = 1 << 10
        pa = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=60))
        pb = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=60))
        bits_a = np.zeros(m, dtype=np.uint8)
        bits_b = np.zeros(m, dtype=np.uint8)
        for i in pa:
            bits_a[i] = 1
        for i in pb:
            bits_b[i] = 1
        got = jaccard(StructuralEmbedding.from_bits(bits_a), StructuralEmbedding.from_bits(bits_b))
        union = len(pa | pb)
        expect = len(pa & pb) / union if union else 1.0
        assert got == pytest.approx(expect, abs=1e-12)

    def test_jaccard_many_matches_scalar_loop(self, rng):
        m = 1 << 12
        embs = [
            StructuralEmbedding.from_bits((rng.random(m) < rng.uniform(0.05, 0.5)).astype(np.uint8))
            for _ in range(20)
        ]
        query = StructuralEmbedding.from_bits((rng.random(m) < 0.2).astype(np.uint8))
        words = np.stack([e.words for e in embs])
        pops = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        fast = jaccard_many(query.words, words, pops)
        slow = np.array([jaccard(query, e) for e in embs])
        assert np.array_equal(fast, slow)


class TestHashProgram:
    def _model(self, rng, n_clusters=8, d=6):
        C = rng.standard_normal((n_clusters, d))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        return CentroidModel(centroids=C.astype(np.float32))

    def test_matches_label_set_identity(self, rng):
        model = self._model(rng)
        prog = make_program(rng, "p0", n_functions=12, d=6)
        h = FeatureHasher(m=1 << 10)
        got = hash_program(prog, model, h)
        emb = np.stack([fn.embedding for fn in prog.functions])
        labels = set(classify(model, emb).tolist())
        assert got == labels_to_bitvector(labels, h)
        assert got.popcount() <= len(prog.functions)

    def test_empty_program_hashes_to_zero(self, rng):
        model = self._model(rng)
        h = FeatureHasher(m=1 << 10)
        emb = hash_program(ProgramRecord("empty"), model, h)
        assert emb.popcount() == 0

    def test_zero_norm_functions_are_skipped(self, rng):
        # The same policy as the semantic sketch: a zero-norm function has
        # no direction, so it adds no label (not label 0).
        model = self._model(rng)
        functions = [
            FunctionRecord(f"f{j}", model.centroids[j].astype(np.float64), loc=1, nos=0)
            for j in (1, 2, 3)
        ]
        zero = FunctionRecord("z", np.zeros(6), loc=1, nos=0)
        h = FeatureHasher(m=1 << 10)
        got = hash_program(ProgramRecord("p", [*functions, zero]), model, h)
        assert got == labels_to_bitvector({1, 2, 3}, h)

    def test_all_zero_program_gets_empty_sketch(self, rng):
        model = self._model(rng)
        zero = [FunctionRecord(f"z{i}", np.zeros(6), loc=1, nos=0) for i in range(3)]
        emb = hash_program(ProgramRecord("p", zero), model, FeatureHasher(m=1 << 10))
        assert emb.popcount() == 0

    def test_dimension_mismatch_rejected(self, rng):
        model = self._model(rng, d=6)
        prog = make_program(rng, "p0", n_functions=3, d=4)
        with pytest.raises(ValidationError):
            hash_program(prog, model, FeatureHasher(m=1 << 10))
