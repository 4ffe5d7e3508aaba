import numpy as np
import pytest

from opticomp.pipeline import quantized_matmul_weights, with_noise
from opticomp.quantize import dequantize, inject_noise, quantize
from opticomp.util import stable_key


class TestQuantize:
    def test_representable_grid_round_trips_exactly(self):
        s = 0.037
        codes = np.arange(-127, 128).reshape(1, 255).astype(np.float64)
        m = codes * s
        q = quantize(m)
        np.testing.assert_array_equal(dequantize(q), m)

    def test_zero_matrix(self):
        q = quantize(np.zeros((4, 6)))
        np.testing.assert_array_equal(q.codes, 0)
        np.testing.assert_array_equal(q.scales, 1.0)

    def test_per_channel_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = rng.normal(size=(8, 20)) * rng.uniform(0.01, 100)
            q = quantize(m, "per_output_channel")
            err = np.abs(m - dequantize(q))
            assert np.all(err <= q.scales[:, None] / 2 + 1e-15)

    def test_idempotent_codes(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(6, 14))
        q1 = quantize(m)
        q2 = quantize(dequantize(q1))
        np.testing.assert_array_equal(q1.codes, q2.codes)
        np.testing.assert_array_equal(q1.scales, q2.scales)

    def test_round_half_to_even(self):
        # values exactly between two codes round to the even code
        q = quantize(np.array([[127.0, 0.5, 1.5, 2.5]]))
        assert q.scales[0] == 1.0
        np.testing.assert_array_equal(q.codes, [[127, 0, 2, 2]])

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            quantize(np.ones((2, 2)), "per_row")


class TestInjectNoise:
    def test_ratio_zero_identity(self):
        m = np.random.default_rng(3).normal(size=(5, 7))
        np.testing.assert_array_equal(inject_noise(m, 0.0, seed=1), m)

    def test_deterministic_per_seed_and_key(self):
        m = np.random.default_rng(4).normal(size=(6, 6))
        a = inject_noise(m, 0.03, seed=9, key=2)
        b = inject_noise(m, 0.03, seed=9, key=2)
        c = inject_noise(m, 0.03, seed=9, key=3)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_empirical_sigma(self):
        m = np.ones((1000, 1000))
        out = inject_noise(m, 0.03, seed=5)
        sigma = np.std(out / m - 1.0)
        assert 0.027 <= sigma <= 0.033

    def test_sign_preserved_for_small_noise(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(50, 50)) + np.sign(rng.normal(size=(50, 50))) * 1.0
        out = inject_noise(m, 0.03, seed=7)
        # |z| * 0.03 < 1 holds for every reasonable draw at this size
        assert np.all(np.sign(out) == np.sign(m))

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            inject_noise(np.ones((2, 2)), -0.1, seed=0)

    @pytest.mark.parametrize("helper", [with_noise, quantized_matmul_weights])
    def test_negative_ratio_rejected_by_the_weight_helpers(self, helper):
        with pytest.raises(ValueError, match="noise ratio must be >= 0"):
            helper({"w": np.ones((2, 2))}, -0.1, seed=0)

    def test_weight_helpers_make_inject_noises_products(self):
        rng = np.random.default_rng(8)
        weights = {"a": rng.normal(size=(4, 6)), "b": rng.normal(size=(3, 5))}
        before = {name: w.copy() for name, w in weights.items()}
        noisy = quantized_matmul_weights(weights, 0.03, seed=2)
        for name, w in weights.items():
            np.testing.assert_array_equal(w, before[name])  # the input is not written
            expected = inject_noise(dequantize(quantize(w)), 0.03, seed=2, key=stable_key(name))
            assert noisy[name].tobytes() == expected.tobytes()
        assert with_noise(weights, 0.03, seed=2) is weights
        for name, w in weights.items():
            assert w.tobytes() == inject_noise(before[name], 0.03, seed=2, key=stable_key(name)).tobytes()
        assert with_noise(weights, 0.0, seed=2) is weights
