"""Property tests for the vectorized kernels: the warm-started L-step, the
vectorized structured sparsify, the Gram-form adapter step, and the batched
functional PTC model (stacked invocations and the condensed sparse gather)."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opticomp.decompose import (
    ScalingDiag,
    _scale_sparse_cols,
    adapter_objective_and_grads,
    decompose_layer,
    expand,
    structured_sparsify,
)
from opticomp.linalg import balanced_factors, frobenius_norm, truncated_svd, warm_truncated_svd
from opticomp.photonic import PtcConfig, condensed_matmul, ptc_layer_matmul, ptc_matmul

from oracles import blockwise_ptc_matmul, chunkwise_condensed_matmul

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def shapes_and_seed(draw, lo=2, hi=24):
    m = draw(st.integers(lo, hi))
    n = draw(st.integers(lo, hi))
    k = draw(st.integers(1, min(m, n)))
    return m, n, k, draw(st.integers(0, 2**32 - 1))


class TestWarmLStep:
    @SETTINGS
    @given(shapes_and_seed())
    def test_never_raises_the_objective(self, case):
        # The previous iterate A B has its rows in span(vt); the warm step
        # must fit M at least as well as it, and as well as M vt^T vt.
        m, n, k, seed = case
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0)
        vt = np.linalg.qr(rng.normal(size=(n, k)))[0].T
        prev = rng.normal(size=(m, k)) @ vt
        warm = frobenius_norm(mat - warm_truncated_svd(mat, vt).reconstruct())
        slack = 1e-12 * (1.0 + frobenius_norm(mat))
        assert warm <= frobenius_norm(mat - prev) + slack
        assert warm <= frobenius_norm(mat - mat @ vt.T @ vt) + slack

    @SETTINGS
    @given(shapes_and_seed())
    def test_warm_start_from_the_exact_subspace_is_exact(self, case):
        m, n, k, seed = case
        mat = np.random.default_rng(seed).normal(size=(m, n))
        exact = truncated_svd(mat, k)
        warm = warm_truncated_svd(mat, exact.vt)
        np.testing.assert_allclose(warm.singular_values, exact.singular_values, atol=1e-9)
        np.testing.assert_allclose(warm.reconstruct(), exact.reconstruct(), atol=1e-9)
        np.testing.assert_allclose(warm.u.T @ warm.u, np.eye(k), atol=1e-9)
        np.testing.assert_allclose(warm.vt @ warm.vt.T, np.eye(k), atol=1e-9)

    @SETTINGS
    @given(shapes_and_seed(lo=4), st.integers(1, 6))
    def test_first_and_closing_steps_are_exact_svds(self, case, iters):
        m, n, k, seed = case
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(m, n))
        d = ScalingDiag(d=rng.uniform(0.5, 2.0, size=n), epsilon_clamped=False)
        dec = decompose_layer(w, d, r=k, s=0.5, g=2, iters=iters)
        wd = w * d.d[None, :]
        a, b = balanced_factors(truncated_svd(wd, k))
        assert dec.objective_trace[0] == frobenius_norm(wd - a @ b)
        # The sparse part is stored de-scaled, so re-scaling it rounds.
        residual = wd - expand(_scale_sparse_cols(dec.sparse, d.d))
        ref = truncated_svd(residual, k)
        np.testing.assert_allclose(dec.singular_values, ref.singular_values, atol=1e-9)
        np.testing.assert_allclose(dec.a @ (dec.b * d.d[None, :]), ref.reconstruct(), atol=1e-9)
        for i in range(2, len(dec.objective_trace) - 1, 2):
            prior = dec.objective_trace[i - 1]
            assert dec.objective_trace[i] <= prior + 1e-9 * (1.0 + prior)


def sparsify_reference(residual, g, s):
    """Per-chunk loop: each chunk keeps its top round(n*s) columns by L1
    norm, ties to the lower column index."""
    m, n = residual.shape
    d = int(round(n * s))
    kept, condensed = [], np.empty((m, d))
    for lo in range(0, m, g):
        hi = min(lo + g, m)
        norms = np.abs(residual[lo:hi]).sum(axis=0)
        cols = np.sort(np.argsort(-norms, kind="stable")[:d])
        kept.append(cols)
        condensed[lo:hi] = residual[lo:hi, cols]
    return np.array(kept), condensed


@st.composite
def sparsify_cases(draw):
    m = draw(st.integers(1, 20))
    n = draw(st.integers(2, 20))
    g = draw(st.integers(1, m + 3))
    d = draw(st.integers(1, n - 1))
    # Small integer entries make tied column norms common.
    entries = draw(st.sampled_from([(-1.0, 0.0, 1.0), (-2.0, -0.5, 0.0, 0.5, 2.0), (0.0,)]))
    seed = draw(st.integers(0, 2**32 - 1))
    residual = np.random.default_rng(seed).choice(entries, size=(m, n))
    return residual, g, (d + 0.25) / n


class TestStructuredSparsify:
    @settings(max_examples=150, deadline=None)
    @given(sparsify_cases())
    @example((np.arange(35.0).reshape(7, 5) % 3, 3, 0.45))  # ragged last chunk, ties
    @example((np.ones((6, 8)), 1, 0.3))  # g = 1, every norm tied
    @example((np.eye(5, 9), 5, 0.5))  # g = m
    @example((np.eye(5, 9)[:, ::-1], 12, 0.2))  # g > m
    def test_matches_per_chunk_reference(self, case):
        residual, g, s = case
        sp = structured_sparsify(residual, g, s)
        kept, condensed = sparsify_reference(residual, g, s)
        np.testing.assert_array_equal(sp.kept_cols, kept)
        np.testing.assert_array_equal(sp.condensed, condensed)
        sp.validate()

    @SETTINGS
    @given(st.integers(1, 30), st.integers(2, 30), st.integers(1, 35), st.integers(0, 2**32 - 1))
    def test_matches_reference_on_real_valued_residuals(self, m, n, g, seed):
        # Integer entries sum exactly in any order; real ones check that the
        # chunk norms are summed in the reference's order, bit for bit.
        residual = np.random.default_rng(seed).normal(size=(m, n))
        sp = structured_sparsify(residual, g, 0.5)
        kept, condensed = sparsify_reference(residual, g, 0.5)
        np.testing.assert_array_equal(sp.kept_cols, kept)
        np.testing.assert_array_equal(sp.condensed, condensed)


class TestGramFormAdapter:
    @SETTINGS
    @given(shapes_and_seed(), st.integers(1, 40))
    def test_matches_direct_formula(self, case, tokens):
        m, n, r, seed = case
        rng = np.random.default_rng(seed)
        q = max(1, r // 4)
        w, x = rng.normal(size=(m, n)), rng.normal(size=(n, tokens))
        a, b = rng.normal(size=(m, r)), rng.normal(size=(r, n))
        sparse_exp = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.2)
        ua, va = rng.normal(size=(m, q)), rng.normal(size=(q, r))
        ub, vb = rng.normal(size=(r, q)), rng.normal(size=(q, n))

        f, grads = adapter_objective_and_grads(w, x, a, b, sparse_exp, ua, va, ub, vb)

        a_eff, b_eff = a + ua @ va, b + ub @ vb
        err = w @ x - (a_eff @ b_eff + sparse_exp) @ x
        f_ref = float(np.sum(err * err))
        ga = -2.0 * err @ (b_eff @ x).T
        gb = -2.0 * a_eff.T @ err @ x.T
        grads_ref = (ga @ va.T, ua.T @ ga, gb @ vb.T, ub.T @ gb)
        assert abs(f - f_ref) <= 1e-10 * f_ref
        for got, want in zip(grads, grads_ref):
            assert frobenius_norm(got - want) <= 1e-10 * max(frobenius_norm(want), 1e-300)


ptc_dims = st.integers(1, 16)


class TestBatchedPtc:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 80), st.integers(1, 80), st.integers(1, 80), ptc_dims, ptc_dims, ptc_dims,
           st.integers(0, 2**32 - 1))
    @example(25, 13, 7, 12, 12, 12, 0)  # ragged tails on every axis, batch < n_v
    @example(1, 1, 1, 16, 16, 16, 1)  # one padded block
    @example(48, 36, 24, 12, 12, 12, 2)  # exact multiples, no padding
    @example(5, 80, 3, 1, 1, 16, 3)  # single-row PTC, long inner accumulation
    def test_layer_matmul_matches_blockwise_loop(self, m, inner, batch, n_v, n_h, n_lambda, seed):
        rng = np.random.default_rng(seed)
        w, x = rng.normal(size=(m, inner)), rng.normal(size=(inner, batch))
        ptc = PtcConfig(n_v, n_h, n_lambda)
        got = ptc_layer_matmul(w, x, ptc)
        want = blockwise_ptc_matmul(w, x, ptc)
        assert got.shape == (m, batch)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @SETTINGS
    @given(st.integers(1, 4), st.integers(1, 4), ptc_dims, ptc_dims, ptc_dims, st.integers(0, 2**32 - 1))
    def test_stacked_invocations_equal_two_dimensional_calls(self, a, b, n_v, n_h, n_lambda, seed):
        rng = np.random.default_rng(seed)
        ptc = PtcConfig(n_v, n_h, n_lambda)
        w, x = rng.normal(size=(a, b, n_h, n_lambda)), rng.normal(size=(a, b, n_lambda, n_v))
        got = ptc_matmul(w, x, ptc)
        # Broadcast leading dims, as ptc_layer_matmul uses them.
        w_row, x_col = rng.normal(size=(a, 1, n_h, n_lambda)), rng.normal(size=(b, n_lambda, n_v))
        got_bc = ptc_matmul(w_row, x_col, ptc)
        assert got.shape == got_bc.shape == (a, b, n_h, n_v)
        for i in range(a):
            for j in range(b):
                np.testing.assert_array_equal(got[i, j], ptc_matmul(w[i, j], x[i, j], ptc))
                np.testing.assert_array_equal(got_bc[i, j], ptc_matmul(w_row[i, 0], x_col[j], ptc))

    def test_stacked_call_rejects_a_wrong_trailing_shape(self):
        ptc = PtcConfig(4, 3, 2)
        with pytest.raises(ValueError, match="PTC"):
            ptc_matmul(np.ones((5, 3, 2)), np.ones((5, 2, 3)), ptc)
        with pytest.raises(ValueError, match="PTC"):
            ptc_matmul(np.ones((5, 2, 3)), np.ones((5, 2, 4)), ptc)

    @pytest.mark.parametrize("operand", ["weight", "input"])
    def test_nan_is_rejected(self, operand):
        ptc = PtcConfig(4, 3, 2)
        w, x = np.ones((7, 5)), np.ones((5, 6))
        w_blk, x_blk = np.ones((2, 3, 2)), np.ones((2, 2, 4))
        (w if operand == "weight" else x)[4, 2] = np.nan
        (w_blk if operand == "weight" else x_blk)[1, 1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ptc_layer_matmul(w, x, ptc)
        with pytest.raises(ValueError, match="non-finite"):
            ptc_matmul(w_blk, x_blk, ptc)

    def test_peak_memory_holds_no_product_tensor(self):
        # A (pr, pb, pk, n_h, n_v) tensor of every invocation's product would
        # be pk = 64 times the output; the batched path holds the padded
        # operands, the output accumulator and one slice's products.
        ptc = PtcConfig(12, 12, 12)
        rng = np.random.default_rng(0)
        w, x = rng.normal(size=(3072, 768)), rng.normal(size=(768, 197))
        padded_w = 3072 * 768 * 8
        padded_x = 768 * 204 * 8
        out = 3072 * 197 * 8
        tracemalloc.start()
        try:
            ptc_layer_matmul(w, x, ptc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (padded_w + padded_x + out)


@st.composite
def condensed_cases(draw):
    m = draw(st.integers(1, 40))
    n = draw(st.integers(2, 40))
    g = draw(st.integers(1, m + 3))
    d = draw(st.integers(1, n - 1))
    batch = draw(st.integers(1, 12))
    return m, n, g, (d + 0.25) / n, batch, draw(st.integers(0, 2**32 - 1))


class TestCondensedGather:
    @settings(max_examples=120, deadline=None)
    @given(condensed_cases())
    @example((7, 9, 3, 0.45, 4, 0))  # ragged last chunk
    @example((6, 8, 1, 0.3, 5, 1))  # g = 1
    @example((5, 9, 5, 0.5, 2, 2))  # g = m
    @example((5, 9, 12, 0.2, 3, 3))  # g > m
    def test_matches_per_chunk_loop(self, case):
        m, n, g, s, batch, seed = case
        rng = np.random.default_rng(seed)
        sp = structured_sparsify(rng.normal(size=(m, n)), g, s)
        x = rng.normal(size=(n, batch))
        got = condensed_matmul(sp, x)
        want = chunkwise_condensed_matmul(sp, x)
        assert got.shape == (m, batch)
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)
