import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsketch.contrastive import (
    Gradients,
    PairedBatch,
    finite_difference_check,
    loss,
    loss_grad,
)
from binsketch.errors import ValidationError


def random_batch(seed, n=4, d=5, temperature=3.0):
    rng = np.random.default_rng(seed)
    return PairedBatch(
        source=rng.standard_normal((n, d)),
        pseudo=rng.standard_normal((n, d)),
        temperature=temperature,
    )


class TestValidation:
    def test_shape_mismatch(self, rng):
        with pytest.raises(ValidationError):
            PairedBatch(rng.standard_normal((3, 4)), rng.standard_normal((4, 4)), 1.0)

    def test_zero_row_rejected(self, rng):
        src = rng.standard_normal((3, 4))
        src[1] = 0.0
        with pytest.raises(ValidationError, match="zero-norm"):
            PairedBatch(src, rng.standard_normal((3, 4)), 1.0)

    def test_non_finite_rejected(self, rng):
        src = rng.standard_normal((3, 4))
        src[0, 0] = np.inf
        with pytest.raises(ValidationError):
            PairedBatch(src, rng.standard_normal((3, 4)), 1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan])
    def test_bad_temperature_rejected(self, rng, t):
        with pytest.raises(ValidationError):
            PairedBatch(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)), t)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            PairedBatch(np.empty((0, 3)), np.empty((0, 3)), 1.0)


class TestLoss:
    def test_single_pair_is_zero(self, rng):
        for seed in range(5):
            batch = random_batch(seed, n=1, d=7, temperature=11.0)
            assert abs(loss(batch)) <= 1e-12

    def test_swapped_pairing_costs_more(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 6))
        b = a + 0.05 * rng.standard_normal((2, 6))  # near-perfect partners
        correct = PairedBatch(a, b, 8.0)
        swapped = PairedBatch(a, b[::-1].copy(), 8.0)
        assert loss(swapped) > loss(correct)

    def test_symmetric_in_the_two_sides(self):
        batch = random_batch(3)
        flipped = PairedBatch(batch.pseudo.copy(), batch.source.copy(), batch.temperature)
        assert loss(batch) == pytest.approx(loss(flipped), abs=1e-12)

    def test_invariant_to_input_scaling(self):
        batch = random_batch(4)
        scaled = PairedBatch(batch.source * 13.0, batch.pseudo * 0.02, batch.temperature)
        assert loss(scaled) == pytest.approx(loss(batch), abs=1e-12)

    def test_large_temperature_stays_finite(self):
        batch = random_batch(5, temperature=1000.0)
        assert np.isfinite(loss(batch))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.05, max_value=50.0),
    )
    def test_loss_is_non_negative(self, n, d, seed, t):
        # Each row/column cross entropy is logsumexp minus one of its own
        # logits, which cannot go below zero.
        batch = random_batch(seed, n=n, d=d, temperature=t)
        assert loss(batch) >= -1e-12


class TestGradients:
    def test_matches_central_differences(self):
        batch = random_batch(7, n=4, d=5, temperature=2.5)
        analytic = loss_grad(batch)
        step = 1e-5
        for M, dM in ((batch.source, analytic.d_source), (batch.pseudo, analytic.d_pseudo)):
            for i in range(M.shape[0]):
                for j in range(M.shape[1]):
                    saved = M[i, j]
                    M[i, j] = saved + step
                    up = loss(batch)
                    M[i, j] = saved - step
                    down = loss(batch)
                    M[i, j] = saved
                    numeric = (up - down) / (2 * step)
                    assert dM[i, j] == pytest.approx(numeric, abs=5e-8)
        t = batch.temperature
        batch.temperature = t + step
        up = loss(batch)
        batch.temperature = t - step
        down = loss(batch)
        batch.temperature = t
        assert analytic.d_temperature == pytest.approx((up - down) / (2 * step), abs=5e-8)

    def test_library_checker_agrees(self):
        batch = random_batch(11, n=5, d=6, temperature=4.0)
        assert finite_difference_check(batch, step=1e-4) <= 1e-3

    @pytest.mark.parametrize("step", [0.0, -1e-4, float("nan"), float("inf")])
    def test_checker_rejects_step_that_is_not_finite_and_positive(self, step):
        with pytest.raises(ValidationError, match="step must be finite and > 0"):
            finite_difference_check(random_batch(3), step=step)

    def test_checker_reports_nan_when_the_loss_overflows(self):
        # At t = 1e308 the logits overflow: the loss is inf and every central
        # difference is inf - inf. max() would drop those NaNs and report 0.
        batch = random_batch(5, temperature=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            assert loss(batch) == np.inf
            assert np.isnan(finite_difference_check(batch))

    def test_checker_restores_batch(self):
        batch = random_batch(13)
        src, pse, t = batch.source.copy(), batch.pseudo.copy(), batch.temperature
        finite_difference_check(batch)
        assert np.array_equal(batch.source, src)
        assert np.array_equal(batch.pseudo, pse)
        assert batch.temperature == t

    def test_single_pair_gradients_vanish_for_embeddings(self):
        batch = random_batch(2, n=1, d=4, temperature=5.0)
        g = loss_grad(batch)
        assert np.allclose(g.d_source, 0.0, atol=1e-12)
        assert np.allclose(g.d_pseudo, 0.0, atol=1e-12)
        assert g.d_temperature == pytest.approx(0.0, abs=1e-12)

    def test_gradient_orthogonal_to_normalized_direction(self):
        # The chain through x = a/||a|| projects out the radial component,
        # so d_source rows must be orthogonal to the source rows.
        batch = random_batch(17, n=6, d=5)
        g = loss_grad(batch)
        dots = (g.d_source * batch.source).sum(axis=1)
        assert np.allclose(dots, 0.0, atol=1e-12)

    def test_returns_gradients_type(self):
        assert isinstance(loss_grad(random_batch(1)), Gradients)
