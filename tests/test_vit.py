import numpy as np
import pytest

from opticomp.vit import (
    BlockFeatures,
    ToyViT,
    _softmax_rows,
    block_loss,
    build_toy_graph,
    evaluate,
    forward,
    gen_toy_dataset,
    gen_toy_model,
    load_dataset,
    logit_loss,
    save_dataset,
)


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

    def test_attention_rows_stochastic_and_deterministic(self):
        _, _, model = make_model(seed=3, blocks=2)
        inp = np.random.default_rng(2).normal(size=(24, 4))
        logits1, _ = forward(model, inp)
        logits2, _ = forward(model, inp)
        assert logits1.tobytes() == logits2.tobytes()
        z = np.random.default_rng(3).normal(size=(6, 6))
        z[1] *= 1e3
        z[2] += 800.0  # exp over- (row 2) or underflows (row 3) without the row-max shift
        z[3] -= 800.0
        probs = _softmax_rows(z)
        assert np.all(probs >= 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_shape_mismatch_names_layer(self):
        _, _, model = make_model(seed=4)
        with pytest.raises(ValueError, match="embed"):
            forward(model, np.ones((7, 3)))


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

    def test_dataset_round_trip(self, tmp_path):
        graph, tensors, _ = make_model(seed=15)
        ds = gen_toy_dataset(graph, tensors, samples=5, tokens=4, seed=16)
        save_dataset(tmp_path / "d.lten", ds)
        ds2 = load_dataset(tmp_path / "d.lten")
        np.testing.assert_array_equal(ds.labels, ds2.labels)
        np.testing.assert_allclose(ds.inputs, ds2.inputs, atol=1e-6)  # f32 storage
