import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsketch.corpus import FunctionRecord, ProgramRecord, SemanticEmbedding
from binsketch.errors import ConfigError, ValidationError
from binsketch.semantic import WeightConfig, cosine, hash_program, weight, weights_array

from conftest import make_program


class TestWeightConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            WeightConfig(mode="median")

    def test_rejects_zero_divisors(self):
        with pytest.raises(ConfigError):
            WeightConfig(alpha2=0.0)
        with pytest.raises(ConfigError):
            WeightConfig(beta2=-1.0)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ConfigError):
            WeightConfig(alpha1=-0.1)

    @pytest.mark.parametrize("name", ["alpha1", "alpha2", "beta1", "beta2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_by_name(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            WeightConfig(**{name: value})


class TestWeight:
    def test_hand_values(self):
        cfg = WeightConfig()
        assert weight(32, 0, cfg) == pytest.approx(1.8, abs=1e-12)
        assert weight(0, 0, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_reference_formula(self):
        cfg = WeightConfig()
        for loc, nos in [(1, 1), (7, 3), (100, 12), (0, 5)]:
            expect = loc**0.4 / 5 + (nos**0.45 / 1 + 1)
            assert weight(loc, nos, cfg) == pytest.approx(expect, rel=1e-12)

    def test_mean_pooling_is_constant_one(self):
        cfg = WeightConfig(mode="mean_pooling")
        assert weight(0, 0, cfg) == 1.0
        assert weight(9999, 123, cfg) == 1.0

    def test_loc_only_keeps_unit_floor(self):
        cfg = WeightConfig(mode="loc_only")
        assert weight(32, 77, cfg) == pytest.approx(0.8 + 1.0, abs=1e-12)
        assert weight(0, 77, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_nos_only_drops_loc_term(self):
        cfg = WeightConfig(mode="nos_only")
        assert weight(5000, 1, cfg) == pytest.approx(2.0, abs=1e-12)
        assert weight(5000, 0, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_both_factors(self):
        cfg = WeightConfig()
        assert weight(10, 0, cfg) < weight(20, 0, cfg)
        assert weight(10, 1, cfg) < weight(10, 4, cfg)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValidationError):
            weight(-1, 0, WeightConfig())
        with pytest.raises(ValidationError):
            weights_array(np.array([1.0]), np.array([-2.0]), WeightConfig())

    def test_array_matches_scalar(self, rng):
        cfg = WeightConfig()
        locs = rng.integers(0, 500, size=30)
        noss = rng.integers(0, 40, size=30)
        arr = weights_array(locs, noss, cfg)
        for i in range(30):
            assert arr[i] == pytest.approx(weight(int(locs[i]), int(noss[i]), cfg), rel=1e-15)


class TestHashProgram:
    def test_matches_fsum_oracle(self, rng):
        prog = make_program(rng, "p", n_functions=25, d=7)
        cfg = WeightConfig()
        got = hash_program(prog, cfg)
        q = len(prog.functions)
        for comp in range(7):
            terms = []
            for fn in prog.functions:
                w = weight(fn.loc, fn.nos, cfg)
                x = fn.embedding / math.sqrt(math.fsum(v * v for v in fn.embedding))
                terms.append(w * x[comp])
            expect = math.fsum(terms) / q
            assert got.values[comp] == pytest.approx(expect, abs=1e-6)

    def test_mean_pooling_is_plain_average(self, rng):
        prog = make_program(rng, "p", n_functions=10, d=5)
        got = hash_program(prog, WeightConfig(mode="mean_pooling"))
        E = np.stack([fn.embedding for fn in prog.functions])
        En = E / np.linalg.norm(E, axis=1, keepdims=True)
        assert np.allclose(got.values, En.mean(axis=0), atol=1e-7)

    def test_output_is_float32_and_not_renormalized(self, rng):
        prog = make_program(rng, "p", n_functions=50, d=4)
        got = hash_program(prog, WeightConfig())
        assert got.values.dtype == np.float32
        norm = float(np.linalg.norm(got.values))
        assert abs(norm - 1.0) > 1e-3  # pooling shrinks/stretches the vector

    def test_scale_of_inputs_does_not_matter(self, rng):
        cfg = WeightConfig()
        prog = make_program(rng, "p", n_functions=8, d=5)
        scaled = ProgramRecord(
            "p2",
            [
                FunctionRecord(fn.function_id, fn.embedding * s, loc=fn.loc, nos=fn.nos)
                for fn, s in zip(prog.functions, [0.5, 2, 7, 0.01, 3, 1, 10, 4])
            ],
        )
        a = hash_program(prog, cfg)
        b = hash_program(scaled, cfg)
        assert np.allclose(a.values, b.values, atol=1e-6)

    def test_zero_norm_function_skipped(self, rng, caplog):
        keep = FunctionRecord("f0", np.array([3.0, 4.0]), loc=10, nos=2)
        zero = FunctionRecord("f1", np.array([0.0, 0.0]), loc=99, nos=9)
        prog = ProgramRecord("p", [keep, zero])
        with caplog.at_level(logging.WARNING, logger="binsketch.corpus"):
            got = hash_program(prog, WeightConfig())
        assert any("skipped 1 zero-norm functions" in r.message for r in caplog.records)
        w = weight(10, 2, WeightConfig())
        expect = w * np.array([0.6, 0.8])  # q=1, only the usable function
        assert np.allclose(got.values, expect, atol=1e-6)
        assert got.values.any()

    def test_all_zero_program_is_degenerate(self):
        prog = ProgramRecord("p", [FunctionRecord("f", np.zeros(3), loc=1, nos=1)])
        got = hash_program(prog, WeightConfig())
        assert not got.values.any()
        assert got.d == 3

    def test_empty_program_needs_dimension(self):
        prog = ProgramRecord("p")
        with pytest.raises(ValidationError):
            hash_program(prog, WeightConfig())
        got = hash_program(prog, WeightConfig(), d=6)
        assert not got.values.any()
        assert got.d == 6

    def test_mixed_dimensions_rejected(self):
        prog = ProgramRecord(
            "p",
            [
                FunctionRecord("a", np.ones(3), loc=1, nos=0),
                FunctionRecord("b", np.ones(4), loc=1, nos=0),
            ],
        )
        with pytest.raises(ValidationError, match="mixes"):
            hash_program(prog, WeightConfig())

    def test_declared_dimension_must_match(self, rng):
        prog = make_program(rng, "p", n_functions=2, d=5)
        with pytest.raises(ValidationError):
            hash_program(prog, WeightConfig(), d=8)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
    def test_pool_is_weighted_combination(self, n_functions, seed):
        rng = np.random.default_rng(seed)
        prog = make_program(rng, "p", n_functions=n_functions, d=4)
        cfg = WeightConfig()
        got = hash_program(prog, cfg)
        E = np.stack([fn.embedding for fn in prog.functions])
        En = E / np.linalg.norm(E, axis=1, keepdims=True)
        w = np.array([weight(fn.loc, fn.nos, cfg) for fn in prog.functions])
        assert np.allclose(got.values, (w @ En) / n_functions, atol=1e-6)


class TestCosine:
    def test_self_similarity(self, rng):
        v = SemanticEmbedding(rng.standard_normal(6).astype(np.float32))
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-6)

    def test_zero_vector_scores_zero(self, rng):
        v = SemanticEmbedding(rng.standard_normal(6).astype(np.float32))
        z = SemanticEmbedding(np.zeros(6, dtype=np.float32))
        assert cosine(v, z) == 0.0
        assert cosine(z, z) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            cosine(
                SemanticEmbedding(np.ones(3, dtype=np.float32)),
                SemanticEmbedding(np.ones(4, dtype=np.float32)),
            )

    def test_opposite_vectors(self):
        a = SemanticEmbedding(np.array([1.0, 0.0], dtype=np.float32))
        b = SemanticEmbedding(np.array([-1.0, 0.0], dtype=np.float32))
        assert cosine(a, b) == pytest.approx(-1.0, abs=1e-7)
