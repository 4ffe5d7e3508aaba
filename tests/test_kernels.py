"""Property tests for the vectorized kernels: the projection L-step and
its start from a higher-rank SVD, the alternation's shared residual, the partial-sort structured sparsify, the
factored Gram-form adapter kernel and its loop, and the batched functional PTC model (the layer product in stacked
slice groups and the condensed sparse gather)."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from opticomp.decompose import (
    ScalingDiag,
    _scale_sparse_cols,
    adapter_objective_and_grads,
    alternate,
    compute_scaling,
    decompose_layer,
    expand,
    local_adapt,
    structured_sparsify,
)
from opticomp.linalg import balanced_factors, frobenius_norm, truncated_svd
from opticomp.photonic import PRODUCT_ELEMENTS, PtcConfig, condensed_matmul, ptc_layer_matmul

from oracles import (
    blockwise_ptc_matmul,
    chunkwise_condensed_matmul,
    explicit_error_local_adapt,
    recomputing_alternate,
    slice_loop_ptc_matmul,
    stable_sort_sparsify,
)

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def shapes_and_seed(draw, lo=2, hi=24):
    m = draw(st.integers(lo, hi))
    n = draw(st.integers(lo, hi))
    k = draw(st.integers(1, min(m, n)))
    return m, n, k, draw(st.integers(0, 2**32 - 1))


class TestWarmLStep:
    @SETTINGS
    @given(shapes_and_seed(lo=4), st.integers(1, 6))
    def test_first_and_closing_steps_are_exact_svds(self, case, iters):
        m, n, k, seed = case
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(m, n))
        d = ScalingDiag(d=rng.uniform(0.5, 2.0, size=n))
        dec = decompose_layer(w, d, r=k, s=0.5, g=2, iters=iters)
        wd = w * d.d[None, :]
        a, b = balanced_factors(truncated_svd(wd, k))
        assert dec.objective_trace[0] == frobenius_norm(wd - a @ b)
        # The sparse part is stored de-scaled, so re-scaling it rounds.
        residual = wd - expand(_scale_sparse_cols(dec.sparse, d.d))
        ref = truncated_svd(residual, k)
        np.testing.assert_allclose(np.sum(dec.a**2, axis=0), ref.singular_values, atol=1e-9)  # balanced factors
        np.testing.assert_allclose(dec.a @ (dec.b * d.d[None, :]), ref.reconstruct(), atol=1e-9)
        for i in range(2, len(dec.objective_trace) - 1, 2):
            prior = dec.objective_trace[i - 1]
            assert dec.objective_trace[i] <= prior + 1e-9 * (1.0 + prior)

    @SETTINGS
    @given(shapes_and_seed(lo=4), st.integers(1, 4))
    def test_start_from_a_higher_rank_svd_is_bit_identical(self, case, iters):
        # The allocator hands its rank-r_max SVD of W D to the fit at r <= r_max.
        m, n, k, seed = case
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(m, n))
        d = ScalingDiag(d=rng.uniform(0.5, 2.0, size=n))
        top = truncated_svd(w * d.d[None, :], min(m, n))
        plain = decompose_layer(w, d, r=k, s=0.5, g=2, iters=iters)
        started = decompose_layer(w, d, r=k, s=0.5, g=2, iters=iters, start=top)
        assert started.objective_trace == plain.objective_trace
        for got, want in ((started.a, plain.a), (started.b, plain.b), (started.sparse.condensed, plain.sparse.condensed),
                          (started.sparse.kept_cols, plain.sparse.kept_cols)):
            assert got.tobytes() == want.tobytes()

    @SETTINGS
    @given(shapes_and_seed(lo=4), st.sampled_from([0.25, 0.5, 0.7]), st.integers(1, 5), st.integers(1, 6))
    def test_alternation_is_bit_identical_to_recomputing_the_residual(self, case, s, g, iters):
        # W D - A B is formed once per iteration and read three times.
        m, n, k, seed = case
        wd = np.random.default_rng(seed).normal(size=(m, n))
        first = truncated_svd(wd, k)
        trace, sparse = alternate(wd, first, s, g, iters)
        want_trace, want_sparse = recomputing_alternate(wd, first, s, g, iters)
        assert trace == want_trace
        assert sparse.kept_cols.tobytes() == want_sparse.kept_cols.tobytes()
        assert sparse.condensed.tobytes() == want_sparse.condensed.tobytes()

    @pytest.mark.parametrize("iters", [1, 2, 9])
    def test_only_the_first_and_closing_steps_call_svd(self, iters, monkeypatch):
        # Every L-step between them is a QR projection, whatever ``iters`` is;
        # each of the two SVDs is one eigensolve of a Gram matrix.
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        w = np.random.default_rng(iters).normal(size=(12, 16))
        decompose_layer(w, ScalingDiag.identity(16), r=4, s=0.25, g=3, iters=iters)
        assert len(calls) == 2


@st.composite
def sparsify_cases(draw):
    m = draw(st.integers(1, 20))
    n = draw(st.integers(2, 20))
    g = draw(st.integers(1, m + 3))
    d = draw(st.integers(1, n))  # d == n keeps every column
    # Small integer entries make tied column norms common.
    entries = draw(st.sampled_from([(-1.0, 0.0, 1.0), (-2.0, -0.5, 0.0, 0.5, 2.0), (0.0,)]))
    seed = draw(st.integers(0, 2**32 - 1))
    residual = np.random.default_rng(seed).choice(entries, size=(m, n))
    return residual, g, (d - 0.25) / n


class TestStructuredSparsify:
    @settings(max_examples=150, deadline=None)
    @given(sparsify_cases())
    @example((np.arange(35.0).reshape(7, 5) % 3, 3, 0.45))  # ragged last chunk, ties
    @example((np.ones((6, 8)), 1, 0.3))  # g = 1, every norm tied
    @example((np.eye(5, 9), 5, 0.5))  # g = m
    @example((np.eye(5, 9)[:, ::-1], 12, 0.2))  # g > m
    @example((np.arange(70.0).reshape(7, 10) % 4, 3, 0.96))  # d == n = 10, ragged
    @example((np.ones((5, 10)), 1, 0.35))  # g = 1, one chunk per row, all tied
    def test_matches_per_chunk_reference(self, case):
        residual, g, s = case
        sp = structured_sparsify(residual, g, s)
        kept, condensed = stable_sort_sparsify(residual, g, s)
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
        kept, condensed = stable_sort_sparsify(residual, g, 0.5)
        np.testing.assert_array_equal(sp.kept_cols, kept)
        np.testing.assert_array_equal(sp.condensed, condensed)

    @pytest.mark.parametrize("residual, g, s, ties", [
        (np.zeros((6, 8)), 2, 0.25, True),  # alternate's S = 0 start: every norm tied
        (np.arange(35.0).reshape(7, 5) % 3, 3, 0.45, True),
        (np.ones((6, 8)), 1, 0.3, True),
        (np.ones((5, 10)), 1, 0.35, True),
        (np.arange(70.0).reshape(7, 10) % 4, 3, 0.96, False),  # d == n keeps every column
        (np.random.default_rng(0).normal(size=(9, 12)), 2, 0.25, False),
    ])
    def test_breaks_ties_only_where_more_than_d_columns_reach_the_dth_norm(self, residual, g, s, ties, monkeypatch):
        calls = []
        cumsum = np.cumsum

        def counting(*args, **kwargs):
            calls.append(args)
            return cumsum(*args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counting)
        sp = structured_sparsify(residual, g, s)
        assert len(calls) == ties
        np.testing.assert_array_equal(sp.kept_cols, stable_sort_sparsify(residual, g, s)[0])


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

    @SETTINGS
    @given(shapes_and_seed(), st.integers(1, 40))
    def test_objective_near_a_fit_matches_longdouble(self, case, tokens):
        # W is the adapted factors plus S to within 1e-3: the error is small
        # beside A_eff B_eff, where an objective expanded into Gram terms
        # loses its digits to cancellation.
        m, n, r, seed = case
        rng = np.random.default_rng(seed)
        q = max(1, r // 4)
        x = rng.normal(size=(n, tokens))
        a, b = rng.normal(size=(m, r)), rng.normal(size=(r, n))
        ua, va = rng.normal(size=(m, q)), rng.normal(size=(q, r))
        ub, vb = rng.normal(size=(r, q)), rng.normal(size=(q, n))
        sparse_exp = rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.2)
        w = (a + ua @ va) @ (b + ub @ vb) + sparse_exp + 1e-3 * rng.normal(size=(m, n))

        f, _ = adapter_objective_and_grads(w, x, a, b, sparse_exp, ua, va, ub, vb)

        ld = [np.asarray(t, dtype=np.longdouble) for t in (w, x, a, b, sparse_exp, ua, va, ub, vb)]
        w_, x_, a_, b_, s_, ua_, va_, ub_, vb_ = ld
        err = (w_ - s_ - (a_ + ua_ @ va_) @ (b_ + ub_ @ vb_)) @ x_
        f_ref = float(np.sum(err * err))
        assert abs(f - f_ref) <= 1e-9 * f_ref


@st.composite
def adapt_cases(draw):
    m, n = draw(st.integers(4, 32)), draw(st.integers(4, 32))
    r = draw(st.integers(1, min(m, n)))
    return m, n, r, draw(st.integers(2, 48)), draw(st.integers(1, 40)), draw(st.integers(0, 2**32 - 1))


class TestLocalAdaptLoop:
    @SETTINGS
    @given(adapt_cases())
    def test_takes_the_steps_of_the_explicit_error_loop(self, case):
        m, n, r, tokens, steps, seed = case
        rng = np.random.default_rng(seed)
        w, x = rng.normal(size=(m, n)), rng.normal(size=(n, tokens))
        dec = decompose_layer(w, compute_scaling(x), r=r, s=0.25, g=2, iters=3)
        want_a, want_b, want_trace = explicit_error_local_adapt(dec, w, x, steps=steps, seed=seed, key=7)
        # Once the learning rate floors out, the objective has stopped moving
        # and rounding decides whether a step is taken; compare before that.
        assume(len(want_trace) == steps + 1)
        got = local_adapt(dec, w, x, steps=steps, seed=seed, key=7)
        assert len(got.objective_trace) == len(want_trace)
        # Near an exact fit objectives are of rounding size, so the scale is ||W X||^2.
        scale = frobenius_norm(w @ x) ** 2
        np.testing.assert_allclose(got.objective_trace, want_trace, rtol=1e-9, atol=1e-12 * scale)
        assert frobenius_norm(got.a - want_a) <= 1e-9 * frobenius_norm(want_a)
        assert frobenius_norm(got.b - want_b) <= 1e-9 * frobenius_norm(want_b)

    @SETTINGS
    @given(st.integers(4, 32), st.integers(4, 32), st.integers(2, 48), st.integers(0, 2**32 - 1))
    def test_an_exact_fit_takes_no_step(self, m, n, tokens, seed):
        # At r = min(m, n) the objective starts at rounding level; stepping
        # on would let rounding decide, so both loops stop at the floor.
        rng = np.random.default_rng(seed)
        w, x = rng.normal(size=(m, n)), rng.normal(size=(n, tokens))
        dec = decompose_layer(w, compute_scaling(x), r=min(m, n), s=0.25, g=2, iters=3)
        got = local_adapt(dec, w, x, steps=20, seed=seed, key=7)
        _, _, want_trace = explicit_error_local_adapt(dec, w, x, steps=20, seed=seed, key=7)
        assert len(got.objective_trace) == len(want_trace) == 1
        np.testing.assert_array_equal(got.a, dec.a)
        np.testing.assert_array_equal(got.b, dec.b)

    @SETTINGS
    @given(adapt_cases(), st.booleans())
    def test_the_gram_takes_the_steps_of_the_activations(self, case, exact):
        # exact: r = min(m, n), where the fit is exact and no step is taken
        m, n, r, tokens, steps, seed = case
        rng = np.random.default_rng(seed)
        w, x = rng.normal(size=(m, n)), rng.normal(size=(n, tokens))
        dec = decompose_layer(w, compute_scaling(x), r=min(m, n) if exact else r, s=0.25, g=2, iters=3)
        want = local_adapt(dec, w, x, steps=steps, seed=seed, key=7)
        got = local_adapt(dec, w, gram=x @ x.T, steps=steps, seed=seed, key=7)
        np.testing.assert_array_equal(got.a, want.a)
        np.testing.assert_array_equal(got.b, want.b)
        assert got.objective_trace == want.objective_trace

    def test_takes_exactly_one_of_the_activations_and_the_gram(self):
        rng = np.random.default_rng(0)
        w, x = rng.normal(size=(8, 6)), rng.normal(size=(6, 10))
        dec = decompose_layer(w, compute_scaling(x), r=2, s=0.25, g=2, iters=2)
        for kwargs in ({"x": x, "gram": x @ x.T}, {}):
            with pytest.raises(ValueError, match="exactly one of x and gram"):
                local_adapt(dec, w, steps=5, **kwargs)

    def test_a_non_finite_gradient_raises_naming_the_step(self):
        # A weight near the float64 limit overflows E G once the adapters move.
        rng = np.random.default_rng(0)
        w, x = rng.normal(size=(8, 6)), rng.normal(size=(6, 10))
        dec = decompose_layer(w, compute_scaling(x), r=2, s=0.25, g=2, iters=2)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite adapter gradient at step 1"):
            local_adapt(dec, w * 1e200, x, steps=5)


ptc_dims = st.integers(1, 16)


class TestBatchedPtc:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 80), st.integers(1, 80), st.integers(1, 80), ptc_dims, ptc_dims, ptc_dims,
           st.integers(0, 2**32 - 1))
    @example(25, 13, 7, 12, 12, 12, 0)  # ragged tails on every axis, batch < n_v
    @example(1, 1, 1, 16, 16, 16, 1)  # one padded block
    @example(48, 36, 24, 12, 12, 12, 2)  # exact multiples, no padding
    @example(5, 80, 3, 1, 1, 16, 3)  # single-row PTC, long inner accumulation
    @example(30, 5, 9, 4, 6, 12, 4)  # inner < n_lambda: one short slice
    @example(27, 40, 1, 12, 12, 12, 5)  # batch = 1
    @example(9, 80, 6, 3, 4, 1, 6)  # n_lambda = 1: one slice per inner index
    def test_layer_matmul_matches_blockwise_loop(self, m, inner, batch, n_v, n_h, n_lambda, seed):
        rng = np.random.default_rng(seed)
        w, x = rng.normal(size=(m, inner)), rng.normal(size=(inner, batch))
        ptc = PtcConfig(n_v, n_h, n_lambda)
        got = ptc_layer_matmul(w, x, ptc)
        want = blockwise_ptc_matmul(w, x, ptc)
        assert got.shape == (m, batch)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 80), st.integers(1, 80), st.integers(1, 80), ptc_dims, st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.5]))
    @example(25, 13, 7, 4, 0, 0.0)  # three slices and a ragged tail of one
    @example(9, 80, 6, 1, 1, 0.0)  # n_lambda = 1: one slice per inner index
    @example(30, 5, 9, 12, 2, 0.0)  # inner < n_lambda: the tail alone
    @example(27, 40, 1, 12, 3, 0.0)  # batch = 1
    @example(12, 40, 10, 4, 4, 0.5)  # signed zeros in W and X
    @example(1, 80, 1, 1, 5, 0.0)  # one output element: numpy would sum a stack of it pairwise
    @example(64, 259, 64, 2, 6, 0.25)  # 129 * 64**2 > 2**18 product elements: the slice loop, a ragged tail last
    @example(64, 64, 64, 1, 7, 0.0)  # 64 * 64**2 = 2**18 product elements: one stacked product
    @example(64, 65, 64, 1, 8, 0.0)  # 65 * 64**2 > 2**18: the slice loop
    def test_layer_matmul_is_byte_identical_to_the_slice_loop(self, m, inner, batch, n_lambda, seed, zeros):
        rng = np.random.default_rng(seed)
        w, x = rng.normal(size=(m, inner)), rng.normal(size=(inner, batch))
        for a in (w, x):  # a share of entries becomes +0.0 or -0.0
            a[rng.random(a.shape) < zeros] = 0.0
            np.copysign(a, rng.normal(size=a.shape), out=a, where=a == 0)
        ptc = PtcConfig(1, 1, n_lambda)
        got = ptc_layer_matmul(w, x, ptc)
        want = slice_loop_ptc_matmul(w, x, ptc)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("operand", ["weight", "input"])
    def test_nan_is_rejected(self, operand):
        ptc = PtcConfig(4, 3, 2)
        w, x = np.ones((7, 5)), np.ones((5, 6))
        (w if operand == "weight" else x)[4, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ptc_layer_matmul(w, x, ptc)

    def test_peak_memory_holds_no_product_tensor(self):
        # A (pr, pb, pk, n_h, n_v) tensor of every invocation's product would
        # be pk = 64 times the output; the path holds the output accumulator
        # and at most PRODUCT_ELEMENTS stacked slice products (here none, as
        # the output alone is larger, so the slice loop holds one slice's
        # product), and pads nothing. The bound still allows for padded operands.
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

    @pytest.mark.parametrize("inner,stacked", [(64, True), (65, False)])
    def test_one_stacked_product_only_within_the_bound(self, inner, stacked):
        # The two paths give the same bytes, so the path shows in memory: at
        # m = batch = 64 and n_lambda = 1, 64 slices hold PRODUCT_ELEMENTS
        # product elements and form one stack of them; 65 run the slice loop,
        # which holds one 64 x 64 product at a time.
        rng = np.random.default_rng(0)
        w, x = rng.normal(size=(64, inner)), rng.normal(size=(inner, 64))
        tracemalloc.start()
        try:
            ptc_layer_matmul(w, x, PtcConfig(1, 1, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak >= PRODUCT_ELEMENTS * 8) is stacked, peak


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
