"""Cross-module flows: compression quality as seen by the evaluation surface."""
import importlib
import pkgutil
from collections import Counter

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import opticomp
from opticomp import pipeline, util
from opticomp.allocate import allocate_ranks, prepare_full_rank
from opticomp.cli import main
from opticomp.config import load_config
from opticomp.container import read_container
from opticomp.decompose import (
    ScalingDiag, compute_scaling, decompose_layer, kept_columns, local_adapt, num_chunks, stored_params,
)
from opticomp.model import LayerSpec, ModelGraph
from opticomp.photonic import EngineConfig
from opticomp.pipeline import compress_model, effective_tensors, save_compressed
from opticomp.util import philox_rng, stable_key
from opticomp.vit import ToyViT, block_loss, build_toy_graph, collect_calibration, forward, gen_toy_model

from oracles import activation_keeping_compress


def compress_all_layers(graph, tensors, calib, rank, adapt_steps, seed):
    compressed = {}
    for idx, layer in enumerate(graph.compressible_layers()):
        w = np.asarray(tensors[layer.id], dtype=np.float64)
        x = calib[layer.id]
        dec = decompose_layer(w, compute_scaling(x), r=rank, s=0.125, g=4, iters=20)
        if adapt_steps:
            dec = local_adapt(dec, w, x, steps=adapt_steps, seed=seed * 1000 + idx)
        compressed[layer.id] = dec
    others = {k: v for k, v in tensors.items() if k not in compressed}
    return effective_tensors(graph, compressed, others)


def test_block_loss_positive_and_adaptation_helps():
    graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=2, classes=5, in_dim=12)
    improved = 0
    trials = 10
    for seed in range(trials):
        tensors = gen_toy_model(graph, seed=seed)
        calib_inputs = philox_rng(seed, 60).normal(size=(12, 48))
        teacher = ToyViT.from_tensors(graph, tensors)
        calib = collect_calibration(teacher, calib_inputs)
        probe = philox_rng(seed, 61).normal(size=(12, 10))
        _, feats_t = forward(teacher, probe)

        raw = compress_all_layers(graph, tensors, calib, rank=4, adapt_steps=0, seed=seed)
        adapted = compress_all_layers(graph, tensors, calib, rank=4, adapt_steps=60, seed=seed)
        _, feats_raw = forward(ToyViT.from_tensors(graph, raw), probe)
        _, feats_ad = forward(ToyViT.from_tensors(graph, adapted), probe)

        loss_raw = block_loss(feats_raw, feats_t)
        loss_adapted = block_loss(feats_ad, feats_t)
        assert loss_raw > 0.0
        assert loss_adapted > 0.0
        improved += loss_adapted < loss_raw
    assert improved >= 0.8 * trials, f"adaptation reduced feature drift in only {improved}/{trials}"


def test_adapter_stream_does_not_depend_on_layer_position(tmp_path, monkeypatch):
    assert main([
        "gen-toy", "--out", str(tmp_path), "--seed", "5", "--hidden", "24", "--heads", "2",
        "--blocks", "1", "--in-dim", "12", "--calib-tokens", "32", "--samples", "4",
    ]) == 0
    cfg = load_config(None, [
        f"paths.model={tmp_path}/model.lten", f"paths.calibration={tmp_path}/calib.lten",
        "decomposition.iters=2", "decomposition.adapt_steps=1", "seed=5",
    ])
    streams = []

    def record(dec, w, **kwargs):
        # seed and key select the adapter's random stream
        streams[-1][w.tobytes()] = (kwargs["seed"], kwargs["key"])
        return dec

    monkeypatch.setattr(pipeline, "local_adapt", record)
    in_order = ModelGraph.compressible_layers
    for order in (in_order, lambda graph: in_order(graph)[::-1]):
        monkeypatch.setattr(ModelGraph, "compressible_layers", order)
        streams.append({})
        compress_model(cfg, EngineConfig.default())
    forward, backward = streams
    assert list(forward) == list(backward)[::-1]  # visited in the opposite order
    assert forward == backward
    graph, tensors = pipeline.load_model(cfg["paths"]["model"])
    for layer in in_order(graph):
        w = np.asarray(tensors[layer.id], dtype=np.float64)
        assert forward[w.tobytes()] == (5, stable_key(layer.id))


def test_compress_takes_two_full_svds_and_one_values_only_svd_per_layer(tmp_path, monkeypatch):
    # The guide's SVD of W D is also the fit's first L-step; the guide's
    # closing refit needs only values. The fit's closing refit is the other
    # full SVD. Each full SVD is one eigh of a Gram matrix, the values-only
    # one an eigvalsh, and nothing calls LAPACK's SVD.
    assert main([
        "gen-toy", "--out", str(tmp_path), "--seed", "6", "--hidden", "24", "--heads", "2",
        "--blocks", "1", "--in-dim", "12", "--calib-tokens", "32", "--samples", "4",
    ]) == 0
    cfg = load_config(None, [
        f"paths.model={tmp_path}/model.lten", f"paths.calibration={tmp_path}/calib.lten",
        "decomposition.iters=3", "decomposition.adapt_steps=1", "seed=6",
    ])
    calls = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    for name in calls:
        def counting(*args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    graph = compress_model(cfg, EngineConfig.default())[0]
    layers = len(graph.compressible_layers())
    assert calls == {"eigh": 2 * layers, "eigvalsh": layers, "svd": 0}


def test_compress_scans_each_weight_each_full_svd_input_and_the_calibration_once(tmp_path, monkeypatch):
    # Arrays are scanned where they enter: each compressible weight in
    # decompose_layer, each full SVD's matrix in truncated_svd (two per
    # layer), the calibration inputs in forward. The values-only SVD and the
    # calibration capture scan nothing again.
    assert main([
        "gen-toy", "--out", str(tmp_path), "--seed", "7", "--hidden", "24", "--heads", "2",
        "--blocks", "2", "--in-dim", "12", "--calib-tokens", "32", "--samples", "4",
    ]) == 0
    cfg = load_config(None, [
        f"paths.model={tmp_path}/model.lten", f"paths.calibration={tmp_path}/calib.lten",
        "decomposition.iters=2", "decomposition.adapt_steps=1", "seed=7",
    ])
    calls = []
    as_matrix = util.as_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return as_matrix(*args, **kwargs)

    # Every module attribute bound to the function, under whatever name its caller looks up.
    for info in pkgutil.iter_modules(opticomp.__path__):
        module = importlib.import_module(f"opticomp.{info.name}")
        for attr, value in list(vars(module).items()):
            if value is as_matrix:
                monkeypatch.setattr(module, attr, counting)
    graph = compress_model(cfg, EngineConfig.default())[0]
    layers = len(graph.compressible_layers())
    assert Counter(name for _, name in calls) == {"weight": layers, "m": 2 * layers, "inputs": 1}


def gen_small_toy(out, calib_tokens, blocks=1) -> list[str]:
    """A hidden-16 toy in ``out``; returns the settings that compress it."""
    assert main([
        "gen-toy", "--out", str(out), "--seed", "8", "--hidden", "16", "--heads", "2",
        "--blocks", str(blocks), "--in-dim", "12", "--calib-tokens", str(calib_tokens), "--samples", "4",
    ]) == 0
    return [
        f"paths.model={out}/model.lten", f"paths.calibration={out}/calib.lten",
        "targets.alpha=0.3", "decomposition.iters=4", "decomposition.adapt_steps=20", "seed=8",
    ]


class TestCompressKeepsInputStatistics:
    """The calibration pass leaves compress each distinct layer input's scaling
    and Gram X X^T, not the (cols x tokens) activation."""

    @staticmethod
    def kept_by_compress(settings, monkeypatch) -> dict:
        kept = []

        def spy(*args, **kwargs):
            stats = collect_calibration(*args, **kwargs)
            kept.append(dict(stats))  # compress drops each entry once its last layer is fit
            return stats

        monkeypatch.setattr(pipeline, "collect_calibration", spy)
        compress_model(load_config(None, settings), EngineConfig.default())
        (stats,) = kept
        return stats

    def test_what_is_kept_does_not_grow_with_the_calibration_tokens(self, tmp_path, monkeypatch):
        held = []
        for tokens in (64, 1024):
            stats = self.kept_by_compress(gen_small_toy(tmp_path / str(tokens), tokens), monkeypatch)
            distinct = {id(entry): entry for entry in stats.values()}.values()
            held.append(sum(d.d.nbytes + gram.nbytes for d, gram in distinct))
        assert held[0] == held[1] > 0

    def test_q_k_and_v_share_one_entry(self, tmp_path, monkeypatch):
        stats = self.kept_by_compress(gen_small_toy(tmp_path, 64, blocks=2), monkeypatch)
        for block in ("block0", "block1"):
            q, k, v = (stats[f"{block}.attn.{p}"] for p in "qkv")
            assert q is k is v
        assert len({id(entry) for entry in stats.values()}) == 2 * 4  # per block: qkv, o, fc1, fc2

    def test_artifacts_match_the_activation_keeping_flow(self, tmp_path):
        settings = gen_small_toy(tmp_path / "toy", 256, blocks=2)
        assert main(["compress", *(arg for s in settings for arg in ("--set", s)), "--out", str(tmp_path / "run")]) == 0
        graph, tensors, compressed, plan = activation_keeping_compress(load_config(None, settings), EngineConfig.default())
        pipeline.save_compressed(tmp_path / "compressed.lten", graph, tensors, compressed)
        pipeline.write_plan(tmp_path / "plan.json", plan)
        for name in ("plan.json", "compressed.lten"):
            assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes()


@st.composite
def fitted_layers(draw):
    """A few small random layers, each (id, weight, scaling), at one chunk
    height g and a sparse ratio s that keeps at least one column of each."""
    g = draw(st.integers(1, 6))
    layers = []
    for i in range(draw(st.integers(1, 3))):
        rows, cols = draw(st.integers(2, 14)), draw(st.integers(2, 14))
        rng = philox_rng(draw(st.integers(0, 2**16)), 70, i)
        layers.append((f"l{i}", rng.normal(size=(rows, cols)), ScalingDiag(rng.uniform(0.5, 2.0, size=cols))))
    narrowest = min(w.shape[1] for _, w, _ in layers)
    s = draw(st.floats(0.5 / narrowest + 1e-9, 0.6))
    return layers, g, s


class TestLayoutRules:
    """``decompose.kept_columns``, ``num_chunks`` and ``stored_params`` are what
    the allocator plans and what the compressed file holds."""

    @settings(max_examples=40, deadline=None)
    @given(fitted_layers(), st.data())
    def test_the_file_holds_stored_params_values_and_num_chunks_index_rows(self, tmp_path_factory, case, data):
        layers, g, s = case
        compressed, expected = {}, {}
        for lid, w, scaling in layers:
            (rows, cols), r = w.shape, data.draw(st.integers(1, min(w.shape)))
            compressed[lid] = decompose_layer(w, scaling, r, s, g, iters=2)
            expected[lid] = stored_params(rows, cols, r, kept_columns(cols, s)), num_chunks(rows, g)
        graph = ModelGraph([LayerSpec(lid, "attn_q", *w.shape) for lid, w, _ in layers], [{"attn": list(compressed)}], 1)
        path = tmp_path_factory.mktemp("layout") / "compressed.lten"
        save_compressed(path, graph, {}, compressed)
        _, tensors = read_container(path)
        for lid, (params, chunks) in expected.items():
            assert sum(tensors[f"{lid}.{part}"].size for part in ("a", "b", "sparse.values")) == params
            assert tensors[f"{lid}.sparse.cols"].shape[0] == chunks
            rows = tensors[f"{lid}.a"].shape[0]
            assert (chunks - 1) * g < rows <= chunks * g  # every row in one chunk, none of them empty

    @settings(max_examples=40, deadline=None)
    @given(fitted_layers(), st.floats(0.0, 0.4))
    def test_every_planned_layer_counts_stored_params(self, case, alpha):
        layers, g, s = case
        state = prepare_full_rank([(lid, w) for lid, w, _ in layers], {lid: d for lid, _, d in layers}, s, g)
        try:
            plan = allocate_ranks(state, alpha, s, g, b=2)
        except ValueError:  # the sparse part or the 10% rank floor alone breaks the target
            assume(False)
        for pl in plan.layers:
            assert pl.d == kept_columns(pl.cols, s)
            assert pl.params == stored_params(pl.rows, pl.cols, pl.r, pl.d)
