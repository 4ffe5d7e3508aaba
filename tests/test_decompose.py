import numpy as np
import pytest

from opticomp.decompose import (
    EPS_SCALE,
    ScalingDiag,
    adapter_objective_and_grads,
    alternate,
    calibration_objective,
    compute_scaling,
    decompose_layer,
    expand,
    layer_error,
    local_adapt,
    structured_sparsify,
)
from opticomp.linalg import frobenius_norm, truncated_svd
from opticomp.util import philox_rng


def planted_problem(seed, m=48, n=48, g=4, s=0.125, r=2, factor=10.0):
    """Rank-r plus planted structured sparse, built for identifiability.

    The low-rank part is well conditioned (orthonormal factors, singular
    values within 10% of each other) and the planted length-g column pieces
    carry L2 norms ``factor`` times the low-rank pieces' mean, spread
    round-robin over a random column order so no column stacks more than
    two pieces.
    """
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.normal(size=(m, r)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, r)))
    sig = np.linspace(1.0, 0.9, r) * m
    low = (q1 * sig) @ q2.T
    d = round(n * s)
    chunks = -(-m // g)
    pieces = low[: chunks * g].reshape(-1, g, n) if m % g == 0 else None
    if pieces is None:
        piece_norm = np.sqrt(
            np.mean([np.sum(low[i * g : (i + 1) * g] ** 2, axis=0) for i in range(chunks)])
        )
    else:
        piece_norm = np.sqrt((pieces**2).sum(axis=1)).mean()
    planted = np.zeros((m, n))
    perm = rng.permutation(n)
    for i in range(chunks):
        cols = perm[(i * d + np.arange(d)) % n]
        lo, hi = i * g, min((i + 1) * g, m)
        vals = rng.choice([-1.0, 1.0], size=(hi - lo, d)) * (factor * piece_norm / np.sqrt(g))
        planted[lo:hi, cols] = vals
    return low + planted


class TestComputeScaling:
    def test_identity_activations(self):
        d = compute_scaling(np.eye(2))
        np.testing.assert_array_equal(d.d, [1.0, 1.0])

    def test_zero_row_clamps(self):
        d = compute_scaling(np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert d.d[0] == 5.0
        assert d.d[1] == EPS_SCALE * 5.0

    def test_matches_row_norm_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 50))
        d = compute_scaling(x)
        expected = np.array([np.linalg.norm(x[j]) for j in range(6)])
        np.testing.assert_allclose(d.d, expected, atol=1e-12)

    def test_empty_calibration_errors(self):
        with pytest.raises(ValueError, match="empty"):
            compute_scaling(np.empty((4, 0)))

    def test_all_zero_errors(self):
        with pytest.raises(ValueError, match="zero"):
            compute_scaling(np.zeros((4, 5)))


class TestStructuredSparsify:
    def test_hand_example_with_tie_break(self):
        residual = np.array([[1.0, -2.0, 0.5, 3.0], [1.0, 0.0, 0.5, -1.0]])
        sp = structured_sparsify(residual, g=2, s=0.5)
        # L1 norms [2, 2, 1, 4]: keep col 3, then the col0/col1 tie breaks low.
        np.testing.assert_array_equal(sp.kept_cols, [[0, 3]])
        np.testing.assert_array_equal(sp.condensed, [[1.0, 3.0], [1.0, -1.0]])

    def test_zero_residual(self):
        sp = structured_sparsify(np.zeros((4, 8)), g=2, s=0.25)
        assert sp.kept_cols.shape == (2, 2)
        np.testing.assert_array_equal(sp.condensed, 0.0)
        np.testing.assert_array_equal(expand(sp), 0.0)

    def test_matches_exhaustive_ranking_oracle(self):
        rng = np.random.default_rng(1)
        residual = rng.normal(size=(8, 16))
        sp = structured_sparsify(residual, g=4, s=0.25)
        dense = expand(sp)
        for i in range(sp.num_chunks):
            lo, hi = sp.chunk_rows(i)
            norms = np.abs(residual[lo:hi]).sum(axis=0)
            expected = set(sorted(range(16), key=lambda j: (-norms[j], j))[:4])
            assert set(sp.kept_cols[i]) == expected
            np.testing.assert_array_equal(dense[lo:hi, sp.kept_cols[i]], residual[lo:hi, sp.kept_cols[i]])
            dropped = sorted(set(range(16)) - expected)
            np.testing.assert_array_equal(dense[lo:hi][:, dropped], 0.0)

    def test_ragged_last_chunk(self):
        rng = np.random.default_rng(2)
        residual = rng.normal(size=(7, 10))
        sp = structured_sparsify(residual, g=3, s=0.3)
        assert sp.num_chunks == 3
        assert sp.chunk_rows(2) == (6, 7)
        sp.validate()

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(2, 30))
            n = int(rng.integers(4, 40))
            g = int(rng.integers(1, m + 1))
            s = float(rng.uniform(0.1, 0.9))
            if round(n * s) < 1:
                continue
            sp = structured_sparsify(rng.normal(size=(m, n)), g, s)
            sp.validate()
            assert sp.num_chunks == -(-m // g)
            assert sp.kept_per_chunk == round(n * s)


class TestExpand:
    def test_single_chunk_scatter(self):
        sp = structured_sparsify(np.array([[0.0, 7.0, 0.0], [0.0, 8.0, 0.0]]), g=2, s=0.34)
        np.testing.assert_array_equal(expand(sp), [[0.0, 7.0, 0.0], [0.0, 8.0, 0.0]])

    def test_expand_restricted_to_kept_equals_residual(self):
        rng = np.random.default_rng(4)
        residual = rng.normal(size=(6, 12))
        sp = structured_sparsify(residual, g=2, s=0.25)
        dense = expand(sp)
        for i in range(sp.num_chunks):
            lo, hi = sp.chunk_rows(i)
            np.testing.assert_array_equal(dense[lo:hi, sp.kept_cols[i]], residual[lo:hi, sp.kept_cols[i]])

    def test_condense_expand_round_trip(self):
        rng = np.random.default_rng(5)
        sp = structured_sparsify(rng.normal(size=(9, 15)), g=4, s=0.2)
        sp2 = structured_sparsify(expand(sp), g=4, s=0.2)
        np.testing.assert_array_equal(sp.kept_cols, sp2.kept_cols)
        np.testing.assert_array_equal(sp.condensed, sp2.condensed)
        assert (sp.granularity, sp.full_rows, sp.full_cols) == (sp2.granularity, sp2.full_rows, sp2.full_cols)


class TestAlternate:
    def test_zero_start_is_structured_sparsify_of_zeros(self):
        # At an all-zero weight no step improves on the S = 0 start, so the
        # best iterate is that start: each chunk's first d columns, zero values.
        m, n, g, s = 10, 16, 4, 0.25
        wd = np.zeros((m, n))
        _, best = alternate(wd, truncated_svd(wd, 2), s, g, 3)
        want = structured_sparsify(np.zeros((m, n)), g, s)
        assert best.kept_cols.dtype == want.kept_cols.dtype
        np.testing.assert_array_equal(best.kept_cols, want.kept_cols)
        assert best.condensed.dtype == want.condensed.dtype
        np.testing.assert_array_equal(best.condensed, want.condensed)
        assert (best.granularity, best.full_rows, best.full_cols) == (g, m, n)


class TestDecomposeLayer:
    def test_exact_low_rank_converges_immediately(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 18))
        dec = decompose_layer(w, ScalingDiag.identity(18), r=3, s=0.2, g=4, iters=1)
        assert dec.objective_trace[0] <= 1e-8

    def test_planted_model_recovery(self):
        w = planted_problem(seed=7, m=48, n=48, g=4)
        dec = decompose_layer(w, ScalingDiag.identity(48), r=2, s=0.125, g=4, iters=80)
        rel = frobenius_norm(w - dec.reconstruct()) / frobenius_norm(w)
        assert rel <= 1e-6

    def test_best_never_worse_than_svd_baseline(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            w = rng.normal(size=(32, 48))
            x = rng.normal(size=(48, 64))
            d = compute_scaling(x)
            dec = decompose_layer(w, d, r=4, s=0.125, g=4, iters=10)
            wd = w * d.d[None, :]
            baseline = frobenius_norm(wd - truncated_svd(wd, 4).reconstruct())
            assert dec.best_objective <= baseline + 1e-9
            assert dec.best_objective <= dec.objective_trace[0] + 1e-15
            assert dec.best_objective == min(dec.objective_trace)

    def test_l_step_monotone_every_iteration(self):
        # L half-steps are the even trace entries (0-based); each one may not
        # exceed the preceding S half-step value.
        rng = np.random.default_rng(8)
        w = rng.normal(size=(20, 30))
        dec = decompose_layer(w, ScalingDiag.identity(30), r=5, s=0.2, g=5, iters=15)
        trace = dec.objective_trace
        for i in range(2, len(trace) - 1, 2):
            assert trace[i] <= trace[i - 1] + 1e-12

    def test_descaling_correctness(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(10, 14))
        x = rng.normal(size=(14, 40))
        d = compute_scaling(x)
        dec = decompose_layer(w, d, r=3, s=0.25, g=2, iters=20)
        from opticomp.decompose import _scale_sparse_cols

        scaled_recon = dec.a @ (dec.b * d.d[None, :]) + expand(_scale_sparse_cols(dec.sparse, d.d))
        direct = dec.reconstruct() * d.d[None, :]
        assert frobenius_norm(scaled_recon - direct) <= 1e-10

    def test_stored_factors_are_exact_tsvd_of_residual(self):
        # the closing refit contract the allocator relies on
        rng = np.random.default_rng(10)
        w = rng.normal(size=(18, 24))
        x = rng.normal(size=(24, 50))
        d = compute_scaling(x)
        dec = decompose_layer(w, d, r=6, s=0.125, g=3, iters=10)
        wd = w * d.d[None, :]
        from opticomp.decompose import _scale_sparse_cols

        residual = wd - expand(_scale_sparse_cols(dec.sparse, d.d))
        ref = truncated_svd(residual, 6)
        np.testing.assert_allclose(dec.a @ (dec.b * d.d[None, :]), ref.reconstruct(), atol=1e-9)
        # balanced factors: column i of A is sqrt(sigma_i) times a unit vector
        np.testing.assert_allclose(np.sum(dec.a**2, axis=0), ref.singular_values, atol=1e-9)


class TestLayerError:
    def test_perfect_decomposition_is_zero(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 12))
        dec = decompose_layer(w, ScalingDiag.identity(12), r=3, s=0.2, g=2, iters=2)
        assert layer_error(w, ScalingDiag.identity(12), dec) <= 1e-10

    def test_zero_factors_give_one(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(6, 9))
        dec = decompose_layer(w, ScalingDiag.identity(9), r=2, s=0.25, g=2, iters=1)
        dec.a[:] = 0.0
        dec.b[:] = 0.0
        dec.sparse.condensed[:] = 0.0
        assert layer_error(w, ScalingDiag.identity(9), dec) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(10, 12))
        x = rng.normal(size=(12, 30))
        d = compute_scaling(x)
        dec = decompose_layer(w, d, r=3, s=0.25, g=2, iters=10)
        wd = w * d.d[None, :]
        recon_scaled = dec.reconstruct() * d.d[None, :]
        expected = frobenius_norm(wd - recon_scaled) / frobenius_norm(wd)
        assert layer_error(w, d, dec) == pytest.approx(expected, abs=1e-12)

    def test_zero_weight_errors(self):
        dec = decompose_layer(np.ones((4, 4)), ScalingDiag.identity(4), r=1, s=0.25, g=2, iters=1)
        with pytest.raises(ValueError, match="zero"):
            layer_error(np.zeros((4, 4)), ScalingDiag.identity(4), dec)


class TestLocalAdapt:
    def _setup(self, seed):
        rng = philox_rng(seed, 99)
        w = rng.normal(size=(16, 24))
        x = rng.normal(size=(24, 32))
        d = compute_scaling(x)
        dec = decompose_layer(w, d, r=4, s=0.125, g=4, iters=20)
        return w, x, d, dec

    def test_zero_steps_identity(self):
        w, x, _, dec = self._setup(0)
        assert local_adapt(dec, w, x, steps=0) is dec

    def test_perfect_decomposition_stays_perfect(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(8, 2)) @ rng.normal(size=(2, 12))
        x = rng.normal(size=(12, 20))
        dec = decompose_layer(w, ScalingDiag.identity(12), r=2, s=0.25, g=2, iters=3)
        assert calibration_objective(dec, w, x) <= 1e-18
        adapted = local_adapt(dec, w, x, steps=20, seed=1)
        assert calibration_objective(adapted, w, x) <= 1e-18

    def test_gradients_match_finite_differences(self):
        w, x, _, dec = self._setup(1)
        rng = np.random.default_rng(15)
        m, r = dec.a.shape
        n = dec.b.shape[1]
        q = max(1, r // 4)
        ua = rng.normal(scale=0.1, size=(m, q))
        va = rng.normal(scale=0.1, size=(q, r))
        ub = rng.normal(scale=0.1, size=(r, q))
        vb = rng.normal(scale=0.1, size=(q, n))
        sparse_exp = expand(dec.sparse)
        params = [ua, va, ub, vb]
        _, grads = adapter_objective_and_grads(w, x, dec.a, dec.b, sparse_exp, *params)
        h = 1e-5
        for _ in range(20):
            which = int(rng.integers(0, 4))
            arr = params[which]
            idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            f_plus, _ = adapter_objective_and_grads(w, x, dec.a, dec.b, sparse_exp, *params)
            arr[idx] = orig - h
            f_minus, _ = adapter_objective_and_grads(w, x, dec.a, dec.b, sparse_exp, *params)
            arr[idx] = orig
            fd = (f_plus - f_minus) / (2 * h)
            an = grads[which][idx]
            assert abs(an - fd) / max(abs(an), abs(fd), 1e-12) <= 1e-4

    def test_objective_non_increasing_and_improves(self):
        improved = 0
        for seed in range(20):
            w, x, _, dec = self._setup(seed)
            before = calibration_objective(dec, w, x)
            adapted = local_adapt(dec, w, x, steps=50, seed=seed)
            after = calibration_objective(adapted, w, x)
            assert after <= before + 1e-12
            if after <= before * 0.99:
                improved += 1
        assert improved >= 18

    def test_adapter_rank_is_quarter(self):
        w, x, _, dec = self._setup(2)
        adapted = local_adapt(dec, w, x, steps=10, seed=3)
        # merged factors shift by at most rank floor(r/4) = 1; (b + db) - b
        # carries rounding noise, so compare singular values relatively
        for delta in (adapted.a - dec.a, adapted.b - dec.b):
            sv = np.linalg.svd(delta, compute_uv=False)
            assert sv[1] <= 1e-9 * sv[0]

    def test_deterministic_given_seed(self):
        w, x, _, dec = self._setup(3)
        a1 = local_adapt(dec, w, x, steps=25, seed=7)
        a2 = local_adapt(dec, w, x, steps=25, seed=7)
        assert a1.a.tobytes() == a2.a.tobytes()
        assert a1.b.tobytes() == a2.b.tobytes()
