import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opticomp.decompose import EPS_SCALE
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

    def test_past_the_numerical_rank_of_a_wide_matrix(self):
        # Rank 1 at k = 4: the three trailing values are at rounding level and
        # their right vectors are noise divided by them, not orthogonal to the
        # first. What holds is the reconstruction, the values and the vectors
        # down to the numerical rank.
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=4), rng.normal(size=7)
        m = np.outer(x, y)
        res = truncated_svd(m, 4)
        sigma = np.linalg.norm(x) * np.linalg.norm(y)
        assert frobenius_norm(m - res.reconstruct()) <= 1e-14 * sigma
        assert res.singular_values[0] == pytest.approx(sigma, rel=1e-14)
        assert np.all(res.singular_values[1:] <= 1e-14 * sigma)
        np.testing.assert_allclose(np.abs(res.u[:, 0]), np.abs(x) / np.linalg.norm(x), atol=1e-14)
        np.testing.assert_allclose(np.abs(res.vt[0]), np.abs(y) / np.linalg.norm(y), atol=1e-14)

    def test_equal_values_come_back_non_increasing(self):
        # All twelve values are 1; their column norms differ in the last bits,
        # in no particular order.
        q = np.linalg.qr(np.random.default_rng(1).normal(size=(20, 12)))[0]
        s = truncated_svd(q, 12).singular_values
        assert np.all(np.diff(s) <= 0)
        np.testing.assert_allclose(s, 1.0, rtol=1e-14)

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
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        for solver, svd in (("eigvalsh", singular_values), ("eigh", lambda m: truncated_svd(m, 2))):
            monkeypatch.setattr(np.linalg, solver, no_convergence)
            with pytest.raises(np.linalg.LinAlgError, match="did not converge") as info:
                svd(np.eye(3))
            assert isinstance(info.value, ValueError)


def signed(u, vt):
    """``(u, vt)`` with each triplet flipped so that the largest-magnitude
    entry of its ``vt`` row is positive, the first such entry on a tie."""
    top = vt[np.arange(len(vt)), np.argmax(np.abs(vt), axis=1)]
    flip = np.where(top < 0, -1.0, 1.0)
    return u * flip, vt * flip[:, None]


@st.composite
def oracle_cases(draw):
    """A tall, wide or square matrix that is generic, of exact low rank, or
    has one column scaled by ``EPS_SCALE`` (the scaling diagonal's clamp),
    and a rank k that is min(m, n) or below it."""
    small, large = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    shape = draw(st.sampled_from(["tall", "wide", "square"]))
    m, n = {"tall": (max(small, large), min(small, large)),
            "wide": (min(small, large), max(small, large)),
            "square": (small, small)}[shape]
    kind = draw(st.sampled_from(["generic", "low_rank", "scaled_column"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "low_rank" and min(m, n) > 1:
        rank = draw(st.integers(1, min(m, n) - 1))
        # Orthonormal factors and values in [1, 10]: rank exactly `rank`, well conditioned on its range.
        left = np.linalg.qr(rng.normal(size=(m, rank)))[0]
        right = np.linalg.qr(rng.normal(size=(n, rank)))[0]
        a = (left * rng.uniform(1.0, 10.0, rank)) @ right.T
    else:
        a = rng.normal(size=(m, n))
        if kind == "scaled_column":
            a[:, draw(st.integers(0, n - 1))] *= EPS_SCALE
    k = draw(st.one_of(st.just(min(m, n)), st.integers(1, min(m, n))))
    return a, k


class TestAgainstLapack:
    """The Gram-form spectra against LAPACK's SVD, called directly."""

    @settings(max_examples=150, deadline=None)
    @given(oracle_cases())
    def test_gram_spectra_match_lapack(self, case):
        a, k = case
        u_ref, s_ref, vt_ref = np.linalg.svd(a, full_matrices=False)
        top = s_ref[0]
        res = truncated_svd(a, k)

        # The rank-k objective, relative to ||a|| (it is 0 at k = rank a).
        want = frobenius_norm(a - (u_ref[:, :k] * s_ref[:k]) @ vt_ref[:k])
        assert abs(frobenius_norm(a - res.reconstruct()) - want) <= 1e-12 * frobenius_norm(a)

        # Values: truncated_svd's are column norms, accurate to rounding of
        # sigma_1. singular_values' come from eigenvalues, accurate in sigma^2,
        # which is what the allocator's tail sums read; a value near
        # sqrt(eps) sigma_1 has no accurate square root.
        np.testing.assert_allclose(res.singular_values, s_ref[:k], rtol=0, atol=1e-12 * top)
        np.testing.assert_allclose(singular_values(a) ** 2, s_ref**2, rtol=0, atol=1e-12 * top**2)

        # The sign convention holds, and LAPACK's triplets under it match
        # wherever a triplet is defined to 1e-10: sigma well above rounding,
        # sigma^2 apart from every other value's, and no near-tie in |vt|.
        vt_abs = np.abs(res.vt)
        assert np.all(res.vt[np.arange(k), np.argmax(vt_abs, axis=1)] >= 0)
        u_ref, vt_ref = signed(u_ref, vt_ref)
        for i in range(k):
            gaps = np.abs(np.delete(s_ref, i) ** 2 - s_ref[i] ** 2)
            near = np.sort(np.abs(vt_ref[i]))[-2:]
            if s_ref[i] < 1e-2 * top or np.any(gaps < 1e-3 * top**2) or near[-1] - near[0] < 1e-6:
                continue
            np.testing.assert_allclose(res.vt[i], vt_ref[i], rtol=0, atol=1e-10)
            np.testing.assert_allclose(res.u[:, i], u_ref[:, i], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", [(9, 5), (5, 9), (6, 6)])
    def test_eigenvector_signs_do_not_reach_the_result(self, shape, monkeypatch):
        a = np.random.default_rng(20).normal(size=shape)
        want = truncated_svd(a, 3)
        eigh = np.linalg.eigh

        def negated(*args, **kwargs):
            values, vectors = eigh(*args, **kwargs)
            return values, -vectors

        monkeypatch.setattr(np.linalg, "eigh", negated)
        got = truncated_svd(a, 3)
        for name in ("u", "singular_values", "vt"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("shape", [(7, 4), (4, 7)])
    def test_a_zero_value_gives_a_zero_vector_without_a_divide_warning(self, shape):
        with np.errstate(all="raise"):
            res = truncated_svd(np.zeros(shape), 4)
        assert np.all(res.singular_values == 0.0) and np.all(res.reconstruct() == 0.0)
        # The side formed by the product is zero; the eigenvectors stay orthonormal.
        formed, eigen = (res.u, res.vt.T) if shape[0] > shape[1] else (res.vt.T, res.u)
        assert np.all(formed == 0.0)
        np.testing.assert_allclose(eigen.T @ eigen, np.eye(4), atol=1e-15)


def test_balanced_factors_reconstruct():
    rng = np.random.default_rng(17)
    res = truncated_svd(rng.normal(size=(9, 12)), 4)
    a, b = balanced_factors(res)
    np.testing.assert_allclose(a @ b, res.reconstruct(), atol=1e-12)
    # balanced: matching column/row norms
    np.testing.assert_allclose(
        np.linalg.norm(a, axis=0), np.linalg.norm(b, axis=1), atol=1e-12
    )
