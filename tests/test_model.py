import numpy as np
import pytest

from opticomp.decompose import compute_scaling
from opticomp.model import LayerSpec, ModelGraph, load_model, save_model
from opticomp.vit import build_toy_graph, collect_calibration, forward, gen_toy_model, ToyViT


def single_layer_graph():
    graph = ModelGraph(
        layers=[LayerSpec("embed", "embed", 4, 4)],
        blocks=[],
        hidden_size=4,
        meta={"heads": 1, "in_dim": 4},
    )
    return graph


class TestGraphInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ModelGraph(
                layers=[LayerSpec("embed", "embed", 2, 2), LayerSpec("embed", "head", 2, 2)],
                blocks=[],
                hidden_size=2,
            )

    def test_ungrouped_compressible_layer_rejected(self):
        with pytest.raises(ValueError, match="no block group"):
            ModelGraph(
                layers=[LayerSpec("embed", "embed", 2, 2), LayerSpec("q", "attn_q", 2, 2)],
                blocks=[],
                hidden_size=2,
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            LayerSpec("x", "conv", 2, 2)


class TestModelRoundTrip:
    def test_toy_model_round_trip(self, tmp_path):
        graph = build_toy_graph(hidden=16, heads=2, mlp_ratio=2, blocks=2, classes=5, in_dim=8)
        tensors = gen_toy_model(graph, seed=3)
        path = tmp_path / "m.lten"
        save_model(path, graph, tensors)
        graph2, tensors2 = load_model(path)
        assert graph2.to_json() == graph.to_json()
        for name, arr in tensors.items():
            assert tensors2[name].tobytes() == np.asarray(arr, dtype=np.float32).tobytes()

    def test_non_finite_tensor_rejected_before_writing(self, tmp_path):
        graph = build_toy_graph(hidden=16, heads=2, mlp_ratio=2, blocks=2, classes=5, in_dim=8)
        tensors = gen_toy_model(graph, seed=3)
        tensors["block1.ln2.bias"][3] = np.nan
        path = tmp_path / "m.lten"
        with pytest.raises(ValueError) as exc:
            save_model(path, graph, tensors)
        assert str(exc.value) == f"{path}: tensor 'block1.ln2.bias' contains non-finite entries"
        assert not path.exists()

    def test_shape_mismatch_on_save(self, tmp_path):
        graph = single_layer_graph()
        with pytest.raises(ValueError, match="embed"):
            save_model(tmp_path / "m.lten", graph, {"embed": np.ones((3, 4))})


class TestCollectCalibration:
    def test_first_layer_sees_raw_input(self):
        # single block where the embed weight is identity: q/k/v inputs are
        # the layernormed embedding, but the embed tap is the raw input.
        graph = build_toy_graph(hidden=8, heads=2, mlp_ratio=2, blocks=1, classes=3, in_dim=8)
        tensors = gen_toy_model(graph, seed=4)
        inputs = np.random.default_rng(5).normal(size=(8, 6))
        model = ToyViT.from_tensors(graph, tensors)
        tap = {}
        forward(model, inputs, tap=tap.__setitem__)
        np.testing.assert_array_equal(tap["embed"], inputs)

    def test_identity_chain_propagates(self):
        # two-layer chain via taps: fc2 of block i consumes exactly the GELU
        # output that fc1 produced; assert by instrumented re-run.
        graph = build_toy_graph(hidden=8, heads=1, mlp_ratio=1, blocks=1, classes=3, in_dim=4)
        tensors = gen_toy_model(graph, seed=6)
        inputs = np.random.default_rng(7).normal(size=(4, 5))
        model = ToyViT.from_tensors(graph, tensors)
        calib = collect_calibration(model, inputs)
        tap = {}
        forward(model, inputs, tap=tap.__setitem__)
        for lid, act in calib.items():
            np.testing.assert_array_equal(act, tap[lid])

    def test_recorded_shapes(self):
        graph = build_toy_graph(hidden=12, heads=3, mlp_ratio=2, blocks=2, classes=4, in_dim=6)
        tensors = gen_toy_model(graph, seed=8)
        inputs = np.random.default_rng(9).normal(size=(6, 8))
        calib = collect_calibration(ToyViT.from_tensors(graph, tensors), inputs)
        for layer in graph.compressible_layers():
            assert calib[layer.id].shape == (layer.cols, 8)

    def test_keeps_each_layer_input_once(self):
        graph = build_toy_graph(hidden=12, heads=3, mlp_ratio=2, blocks=2, classes=4, in_dim=6)
        tensors = gen_toy_model(graph, seed=8)
        inputs = np.random.default_rng(9).normal(size=(6, 8))
        calib = collect_calibration(ToyViT.from_tensors(graph, tensors), inputs)
        assert list(calib) == [l.id for l in graph.compressible_layers()]
        for i in range(2):
            q, k, v = (calib[f"block{i}.attn.{p}"] for p in ("q", "k", "v"))
            assert np.shares_memory(q, k) and np.shares_memory(q, v)
        tap = {}
        forward(ToyViT.from_tensors(graph, tensors), inputs, tap=tap.__setitem__)
        assert set(tap) == {l.id for l in graph.layers}

    def test_keep_is_applied_to_each_activation(self):
        graph = build_toy_graph(hidden=12, heads=3, mlp_ratio=2, blocks=2, classes=4, in_dim=6)
        model = ToyViT.from_tensors(graph, gen_toy_model(graph, seed=8))
        inputs = np.random.default_rng(9).normal(size=(6, 8))
        calib = collect_calibration(model, inputs)
        scaled = collect_calibration(model, inputs, keep=compute_scaling)
        assert list(scaled) == list(calib)
        for lid, x in calib.items():
            np.testing.assert_array_equal(scaled[lid].d, compute_scaling(x).d)

    def test_wrong_input_dim_names_layer(self):
        graph = build_toy_graph(in_dim=6)
        tensors = gen_toy_model(graph, seed=10)
        with pytest.raises(ValueError, match="embed"):
            collect_calibration(ToyViT.from_tensors(graph, tensors), np.ones((5, 3)))
