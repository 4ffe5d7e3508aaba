import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opticomp.container import write_container
from opticomp.vit import (
    ERF_CHUNK,
    QUERY_BLOCK,
    SAMPLE_CHUNK,
    BlockFeatures,
    ToyViT,
    _attention,
    block_loss,
    build_toy_graph,
    collect_calibration,
    erf,
    evaluate,
    forward,
    gen_toy_dataset,
    gen_toy_model,
    load_dataset,
    logit_loss,
    save_dataset,
)

from opticomp import vit

from oracles import full_matrix_attention, full_matrix_forward


def make_model(seed=0, **kwargs):
    graph = build_toy_graph(**kwargs)
    tensors = gen_toy_model(graph, seed=seed)
    return graph, tensors, ToyViT.from_tensors(graph, tensors)


class TestForward:
    def test_zero_head_gives_zero_logits(self):
        graph, tensors, _ = make_model(seed=1)
        tensors["head"] = np.zeros_like(tensors["head"])
        model = ToyViT.from_tensors(graph, tensors)
        logits, _ = forward(model, np.random.default_rng(0).normal(size=(24, 4)))
        np.testing.assert_array_equal(logits, 0.0)

    def test_pure_residual_path(self):
        # zeroed attention-out and fc2 projections: the block is an identity
        # on the residual stream, so features equal the embedding.
        graph, tensors, _ = make_model(seed=2, blocks=1)
        tensors["block0.attn.o"] = np.zeros_like(tensors["block0.attn.o"])
        tensors["block0.mlp.fc2"] = np.zeros_like(tensors["block0.mlp.fc2"])
        model = ToyViT.from_tensors(graph, tensors)
        inp = np.random.default_rng(1).normal(size=(24, 1))
        embedding = tensors["embed"] @ inp
        _, feats = forward(model, inp)
        np.testing.assert_allclose(feats.attn[0], embedding.T, atol=1e-12)
        np.testing.assert_allclose(feats.mlp[0], embedding.T, atol=1e-12)

    def test_attention_is_deterministic_finite_and_inside_the_range_of_v(self):
        _, _, model = make_model(seed=3, blocks=2)
        inp = np.random.default_rng(2).normal(size=(24, 4))
        logits1, _ = forward(model, inp)
        logits2, _ = forward(model, inp)
        assert logits1.tobytes() == logits2.tobytes()
        # Two heads of dh = 4 over two query blocks, the second ragged. Row 0
        # of each head's k is all ones, so q's row 0 shifts a query's scores.
        heads, dh, tokens = 2, 4, QUERY_BLOCK + 5
        rng = np.random.default_rng(3)
        q, k, v = (rng.normal(size=(heads * dh, tokens)) for _ in range(3))
        k[::dh] = 1.0
        q[:, 1] *= 1e3
        q[:, QUERY_BLOCK + 1] *= 1e3
        q[::dh, 2] = 800.0 * np.sqrt(dh)  # exp overflows unshifted
        q[::dh, QUERY_BLOCK + 2] = -800.0 * np.sqrt(dh)  # and underflows to 0 / 0 shifted by the bound
        out = _attention(q, k, v, heads)
        assert np.all(np.isfinite(out))
        # Each output is a convex combination of v's columns.
        slack = 1e-12 * np.abs(v).max()
        assert np.all(out >= v.min(axis=1, keepdims=True) - slack)
        assert np.all(out <= v.max(axis=1, keepdims=True) + slack)
        # The bound sits far above these queries' row max, so their blocks
        # take the exact shift, and they still match the oracle.
        ref = full_matrix_attention(q, k, v, heads)
        for col in (1, 2, QUERY_BLOCK + 1, QUERY_BLOCK + 2):
            assert relative_gap(out[:, col], ref[:, col]) <= 1e-12

    def test_shape_mismatch_names_layer(self):
        _, _, model = make_model(seed=4)
        with pytest.raises(ValueError, match="embed"):
            forward(model, np.ones((7, 3)))


def relative_gap(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestErf:
    def test_within_three_ulp_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        x = np.concatenate([np.linspace(-7.0, 7.0, 14001), np.random.default_rng(3).normal(size=2000)])
        with mpmath.workprec(113):
            ref = np.array([float(mpmath.erf(mpmath.mpf(float(v)))) for v in x])
        got = erf(x)
        assert np.max(np.abs(got - ref) / np.spacing(np.abs(ref))) <= 3.0

    def test_special_values(self):
        got = erf(np.array([np.nan, np.inf, -np.inf, -0.0, 0.0]))
        assert np.isnan(got[0])
        assert got[1:].tolist() == [1.0, -1.0, 0.0, 0.0]
        assert np.signbit(got[1:]).tolist() == [False, True, True, False]

    def test_does_not_depend_on_shape_or_grouping(self):
        x = np.random.default_rng(4).normal(size=(3, ERF_CHUNK // 2 + 1, 2))
        got = erf(x)
        assert got.shape == x.shape
        pieces = np.concatenate([erf(p) for p in np.array_split(x.reshape(-1), 7)])
        assert got.tobytes() == pieces.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
    def test_odd_bounded_and_non_decreasing(self, values):
        x = np.array(values)
        assert erf(-x).tobytes() == (-erf(x)).tobytes()
        assert np.all(np.abs(erf(x)) <= 1.0)
        assert np.all(np.diff(erf(np.sort(x))) >= 0.0)


class TestQueryBlockedAttention:
    @settings(max_examples=25, deadline=None)
    @given(
        tokens=st.integers(1, 3 * QUERY_BLOCK + 17),
        heads=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @example(tokens=QUERY_BLOCK, heads=3, seed=0)
    @example(tokens=3 * QUERY_BLOCK + 1, heads=4, seed=1)
    def test_forward_matches_the_full_matrix_oracle(self, tokens, heads, seed):
        graph = build_toy_graph(hidden=12, heads=heads, blocks=2, classes=5, in_dim=6)
        model = ToyViT.from_tensors(graph, gen_toy_model(graph, seed=seed))
        inp = np.random.default_rng(seed).normal(size=(6, tokens))
        logits, feats = forward(model, inp)
        ref_logits, ref_feats = full_matrix_forward(model, inp)
        assert relative_gap(logits, ref_logits) <= 1e-12
        mine = [f for pair in zip(feats.attn, feats.mlp) for f in pair]
        for f, ref in zip(mine, ref_feats, strict=True):
            assert relative_gap(f, ref) <= 1e-12

    @pytest.mark.parametrize("tokens", [1, 4, QUERY_BLOCK + 3])
    def test_stacked_forward_is_the_per_sample_forward_bit_for_bit(self, tokens):
        _, _, model = make_model(seed=5, heads=4)
        stack = np.random.default_rng(tokens).normal(size=(3, 24, tokens))
        logits, feats = forward(model, stack)
        assert logits.shape == (3, 10)
        for i in range(3):
            one_logits, one_feats = forward(model, stack[i])
            assert one_logits.tobytes() == logits[i].tobytes()
            for one, stacked in zip(one_feats.pairs(), feats.pairs(), strict=True):
                assert one.shape == (tokens, 48)
                assert one.tobytes() == stacked[i].tobytes()

    def test_one_sample_taking_the_exact_shift_leaves_the_stack_bit_identical(self, monkeypatch):
        # Only sample 1's head 1 has a query whose scores sit far below the
        # bound, so only its first block is taken again with the exact row max.
        exact_blocks = []
        exact = vit._exact_shift_block
        monkeypatch.setattr(vit, "_exact_shift_block", lambda *a: exact_blocks.append(1) or exact(*a))
        heads, dh, tokens = 2, 4, QUERY_BLOCK + 5
        rng = np.random.default_rng(8)
        q, k, v = (rng.normal(size=(3, heads * dh, tokens)) for _ in range(3))
        k[:, dh] = 1.0
        q[1, dh, 2] = 800.0 * np.sqrt(dh)
        stacked = _attention(q, k, v, heads)
        assert len(exact_blocks) == 1
        for i in range(3):
            one = _attention(q[i], k[i], v[i], heads)
            assert one.tobytes() == stacked[i].tobytes()
            assert relative_gap(one, full_matrix_attention(q[i], k[i], v[i], heads)) <= 1e-12
        assert len(exact_blocks) == 2

    def test_attention_at_the_long_calibration_shape_matches_the_oracle(self):
        heads, dh, tokens = 4, 12, 1536
        q, k, v = np.random.default_rng(9).normal(size=(3, heads * dh, tokens))
        out = _attention(q, k, v, heads)
        assert relative_gap(out, full_matrix_attention(q, k, v, heads)) <= 1e-12

    def test_long_calibration_forward_makes_no_tokens_by_tokens_array(self):
        tokens = 1536
        graph = build_toy_graph(hidden=16, heads=2, blocks=1, in_dim=8)
        tensors = gen_toy_model(graph, seed=6)
        inputs = np.random.default_rng(7).normal(size=(8, tokens))
        tracemalloc.start()
        try:
            collect_calibration(ToyViT.from_tensors(graph, tensors), inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tokens * tokens * 8 / 4


class TestBlockLoss:
    def test_zero_iff_identical(self):
        rng = np.random.default_rng(3)
        f = BlockFeatures(attn=[rng.normal(size=(4, 8))], mlp=[rng.normal(size=(4, 8))])
        assert block_loss(f, f) == 0.0
        g = BlockFeatures(attn=[f.attn[0] + 1e-9], mlp=[f.mlp[0]])
        assert block_loss(g, f) > 0.0

    def test_all_ones_single_pair(self):
        s = BlockFeatures(attn=[np.ones((2, 2))])
        t = BlockFeatures(attn=[np.zeros((2, 2))])
        assert block_loss(s, t) == 4.0

    def test_mean_over_pairs(self):
        s = BlockFeatures(attn=[np.ones((2, 2))], mlp=[np.zeros((2, 2))])
        t = BlockFeatures(attn=[np.zeros((2, 2))], mlp=[np.zeros((2, 2))])
        assert block_loss(s, t) == 2.0  # (4 + 0) / 2 pairs

    def test_symmetric_in_sign(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(3, 5))
        diff = rng.normal(size=(3, 5))
        up = BlockFeatures(attn=[base + diff])
        down = BlockFeatures(attn=[base - diff])
        mid = BlockFeatures(attn=[base])
        assert block_loss(up, mid) == pytest.approx(block_loss(down, mid), abs=1e-12)


class TestLogitLoss:
    def test_identical_peaked_logits(self):
        y = np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
        labels = np.argmax(y, axis=1)
        loss = logit_loss(y, y, labels, tau=4.0)
        assert loss == pytest.approx(0.0, abs=1e-8)  # KL term exactly 0, CE ~ 0

    def test_uniform_ce_half_log_c(self):
        c = 7
        y_s = np.zeros((3, c))
        y_t = np.zeros((3, c))
        loss = logit_loss(y_s, y_t, np.zeros(3, dtype=int), tau=2.0)
        assert loss == pytest.approx(0.5 * np.log(c), abs=1e-12)

    def test_matches_mpmath_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(5)
        y_s = rng.normal(size=(4, 6))
        y_t = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        tau = 3.0

        def softmax_mp(row, t):
            exps = [mpmath.e ** (mpmath.mpf(v) / t) for v in row]
            z = sum(exps)
            return [e / z for e in exps]

        total = mpmath.mpf(0)
        for i in range(4):
            ps = softmax_mp(y_s[i], tau)
            pt = softmax_mp(y_t[i], tau)
            kl = sum(a * mpmath.log(a / b) for a, b in zip(ps, pt))
            p1 = softmax_mp(y_s[i], 1)
            ce = -mpmath.log(p1[labels[i]])
            total += mpmath.mpf("0.5") * kl + mpmath.mpf("0.5") * ce
        expected = float(total / 4)
        assert logit_loss(y_s, y_t, labels, tau=tau) == pytest.approx(expected, abs=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        y_s = rng.normal(size=(5, 8))
        y_t = rng.normal(size=(5, 8))
        labels = rng.integers(0, 8, size=5)
        shift = rng.normal(size=(5, 1)) * 50
        a = logit_loss(y_s, y_t, labels)
        b = logit_loss(y_s + shift, y_t + shift, labels)
        assert a == pytest.approx(b, abs=1e-10)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            y_s = rng.normal(size=(3, 5))
            y_t = rng.normal(size=(3, 5))
            labels = rng.integers(0, 5, size=3)
            ce_only = logit_loss(y_s, y_s, labels)  # KL = 0 there
            assert logit_loss(y_s, y_t, labels) >= ce_only - 1e-12

    def test_invalid_labels(self):
        with pytest.raises(ValueError, match="labels"):
            logit_loss(np.zeros((2, 3)), np.zeros((2, 3)), np.array([0, 3]))


class TestEvaluate:
    def test_self_labeled_dataset_scores_one(self):
        graph, tensors, model = make_model(seed=8)
        ds = gen_toy_dataset(graph, tensors, samples=10, tokens=4, seed=9)
        assert evaluate(model, ds) == 1.0

    def test_all_wrong_scores_zero(self):
        graph, tensors, model = make_model(seed=10, classes=4)
        ds = gen_toy_dataset(graph, tensors, samples=6, tokens=4, seed=11)
        ds.labels = (ds.labels + 1) % 4
        assert evaluate(model, ds) == 0.0

    def test_matches_per_sample_loop(self):
        graph, tensors, model = make_model(seed=12)
        ds = gen_toy_dataset(graph, tensors, samples=8, tokens=4, seed=13)
        ds.labels = np.random.default_rng(14).integers(0, 10, size=8)
        hits = sum(
            int(np.argmax(forward(model, ds.inputs[i])[0]) == ds.labels[i]) for i in range(8)
        )
        assert evaluate(model, ds) == hits / 8

    def test_labels_and_accuracy_cover_every_sample_chunk(self):
        # Two full chunks and a ragged third.
        samples = 2 * SAMPLE_CHUNK + 3
        graph, tensors, model = make_model(seed=17, classes=3)
        ds = gen_toy_dataset(graph, tensors, samples=samples, tokens=4, seed=18)
        per_sample = [int(np.argmax(forward(model, x)[0])) for x in ds.inputs]
        assert ds.labels.tolist() == per_sample
        ds.labels[-1] = (ds.labels[-1] + 1) % 3
        assert evaluate(model, ds) == (samples - 1) / samples

    def test_dataset_round_trip(self, tmp_path):
        graph, tensors, _ = make_model(seed=15)
        ds = gen_toy_dataset(graph, tensors, samples=5, tokens=4, seed=16)
        save_dataset(tmp_path / "d.lten", ds)
        ds2 = load_dataset(tmp_path / "d.lten")
        np.testing.assert_array_equal(ds.labels, ds2.labels)
        np.testing.assert_allclose(ds.inputs, ds2.inputs, atol=1e-6)  # f32 storage

    @pytest.mark.parametrize(
        "labels,message",
        [
            (lambda labels: labels[:-2], "tensor 'labels' has 3 entries, expected one per sample (5)"),
            (lambda labels: labels + 0.5, "tensor 'labels' holds f32, expected i32"),
        ],
        ids=["two_labels_dropped", "float_labels"],
    )
    def test_dataset_labels_must_be_one_integer_per_sample(self, tmp_path, labels, message):
        graph, tensors, _ = make_model(seed=15)
        ds = gen_toy_dataset(graph, tensors, samples=5, tokens=4, seed=16)
        path = tmp_path / "d.lten"
        write_container(path, {"inputs": ds.inputs, "labels": labels(ds.labels)}, extra={"kind": "dataset"})
        with pytest.raises(ValueError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("missing", ["inputs", "labels"])
    def test_dataset_without_a_tensor_names_the_file_and_the_tensor(self, tmp_path, missing):
        graph, tensors, _ = make_model(seed=15)
        ds = gen_toy_dataset(graph, tensors, samples=5, tokens=4, seed=16)
        kept = {"inputs": ds.inputs, "labels": ds.labels}
        del kept[missing]
        path = tmp_path / "d.lten"
        write_container(path, kept, extra={"kind": "dataset"})
        with pytest.raises(ValueError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}: no tensor {missing!r}"
