import numpy as np
import pytest

from opticomp.linalg import balanced_factors, frobenius_norm, singular_values, truncated_svd

from oracles import jacobi_svd


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((4, 6))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(11, 13))
        direct = np.sqrt(sum(m[i, j] ** 2 for i in range(11) for j in range(13)))
        assert abs(frobenius_norm(m) - direct) <= 1e-12


class TestJacobiOracle:
    """Validate the test oracle itself against hand-checkable cases."""

    def test_diagonal(self):
        u, s, vt = jacobi_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 2.0, 1.0], atol=1e-12)
        np.testing.assert_allclose((u * s) @ vt, np.diag([3.0, 2.0, 1.0]), atol=1e-12)

    def test_rank_one(self):
        a = np.outer([1.0, 2.0, 2.0], [2.0, 1.0, 2.0])
        u, s, vt = jacobi_svd(a)
        np.testing.assert_allclose(s[0], 9.0, atol=1e-10)  # |u| * |v| = 3 * 3
        assert s[1] <= 1e-10

    def test_rectangular_reconstruction(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(8, 5))
        u, s, vt = jacobi_svd(a)
        np.testing.assert_allclose((u * s) @ vt, a, atol=1e-10)


class TestTruncatedSvd:
    def test_diagonal_top2(self):
        m = np.diag([3.0, 2.0, 1.0])
        res = truncated_svd(m, 2)
        np.testing.assert_allclose(res.singular_values, [3.0, 2.0], atol=1e-12)
        assert abs(frobenius_norm(m - res.reconstruct()) - 1.0) <= 1e-12

    def test_exact_rank_one_recovery(self):
        rng = np.random.default_rng(11)
        m = np.outer(rng.normal(size=9), rng.normal(size=7))
        res = truncated_svd(m, 1)
        assert frobenius_norm(m - res.reconstruct()) <= 1e-10

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(20, 12))
        res = truncated_svd(m, 5)
        _, s_ref, _ = jacobi_svd(m)
        np.testing.assert_allclose(res.singular_values, s_ref[:5], atol=1e-8)

    def test_orthonormality(self):
        rng = np.random.default_rng(13)
        res = truncated_svd(rng.normal(size=(15, 10)), 6)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(6), atol=1e-8)
        np.testing.assert_allclose(res.vt @ res.vt.T, np.eye(6), atol=1e-8)
        assert np.all(np.diff(res.singular_values) <= 0)
        assert np.all(res.singular_values >= 0)

    @pytest.mark.parametrize("k", [0, 12, -1])
    def test_rank_out_of_range(self, k):
        with pytest.raises(ValueError, match="out of range"):
            truncated_svd(np.ones((12, 11)), k)

    def test_eckart_young_against_random_rank_k(self):
        rng = np.random.default_rng(14)
        m = rng.normal(size=(10, 8))
        k = 3
        best = frobenius_norm(m - truncated_svd(m, k).reconstruct())
        for _ in range(1000):
            p = rng.normal(size=(10, k)) @ rng.normal(size=(k, 8))
            assert best <= frobenius_norm(m - p) + 1e-12

    def test_error_non_increasing_in_k(self):
        rng = np.random.default_rng(15)
        m = rng.normal(size=(12, 9))
        errors = [frobenius_norm(m - truncated_svd(m, k).reconstruct()) for k in range(1, 10)]
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errors, errors[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        m = rng.normal(size=(14, 14))
        a = truncated_svd(m, 5)
        b = truncated_svd(m, 5)
        assert a.u.tobytes() == b.u.tobytes()
        assert a.singular_values.tobytes() == b.singular_values.tobytes()
        assert a.vt.tobytes() == b.vt.tobytes()


class TestTruncate:
    def test_matches_a_fresh_truncated_svd_bit_for_bit(self):
        m = np.random.default_rng(18).normal(size=(13, 9))
        top = truncated_svd(m, 9)
        for k in (1, 4, 9):
            got, want = top.truncate(k), truncated_svd(m, k)
            for name in ("u", "singular_values", "vt"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert getattr(got, name).flags.c_contiguous

    @pytest.mark.parametrize("k", [0, 5])
    def test_rank_out_of_range(self, k):
        with pytest.raises(ValueError, match="out of range"):
            truncated_svd(np.eye(6), 4).truncate(k)


class TestSingularValues:
    def test_matches_jacobi_oracle(self):
        m = np.random.default_rng(19).normal(size=(11, 17))
        s = singular_values(m)
        assert s.shape == (11,)
        np.testing.assert_allclose(s, jacobi_svd(m)[1], atol=1e-10)
        np.testing.assert_allclose(s, truncated_svd(m, 11).singular_values, rtol=1e-13)

    def test_non_convergence_is_a_linalg_error(self, monkeypatch):
        # numpy's LinAlgError is a ValueError, which the command line reports with exit 1.
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        for svd in (singular_values, lambda m: truncated_svd(m, 2)):
            with pytest.raises(np.linalg.LinAlgError, match="did not converge") as info:
                svd(np.eye(3))
            assert isinstance(info.value, ValueError)


def test_balanced_factors_reconstruct():
    rng = np.random.default_rng(17)
    res = truncated_svd(rng.normal(size=(9, 12)), 4)
    a, b = balanced_factors(res)
    np.testing.assert_allclose(a @ b, res.reconstruct(), atol=1e-12)
    # balanced: matching column/row norms
    np.testing.assert_allclose(
        np.linalg.norm(a, axis=0), np.linalg.norm(b, axis=1), atol=1e-12
    )
