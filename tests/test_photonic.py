import numpy as np
import pytest

from opticomp.allocate import CompressionPlan, PlanLayer
from opticomp.decompose import structured_sparsify, expand
from opticomp.model import LayerSpec, ModelGraph
from opticomp.photonic import (
    EngineBlock,
    EngineConfig,
    EnergyParams,
    PtcConfig,
    SplitterState,
    comparison,
    condensed_matmul,
    edp,
    laser_energy,
    operating_height,
    plan_splitters,
    ptc_layer_matmul,
    ptc_matmul,
    simulate,
)
from opticomp.util import philox_rng
from opticomp.vit import ToyViT, build_toy_graph, forward, gen_toy_model

PTC12 = PtcConfig(12, 12, 12)


class TestPtcMatmul:
    def test_identity_weight(self):
        x = np.random.default_rng(1).normal(size=(12, 12))
        np.testing.assert_array_equal(ptc_matmul(np.eye(12), x, PTC12), x)

    def test_zero_input(self):
        w = np.random.default_rng(2).normal(size=(12, 12))
        np.testing.assert_array_equal(ptc_matmul(w, np.zeros((12, 12)), PTC12), 0.0)

    def test_shape_check(self):
        with pytest.raises(ValueError, match="PTC"):
            ptc_matmul(np.ones((11, 12)), np.ones((12, 12)), PTC12)

    def test_tiled_layer_matches_reference(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(40, 29))
        x = rng.normal(size=(29, 17))
        ref = w @ x
        got = ptc_layer_matmul(w, x, PTC12)
        assert np.abs(got - ref).max() / np.abs(ref).max() <= 1e-10


class TestCondensedMatmul:
    def test_hand_example_identity_input(self):
        residual = np.array([[1.0, -2.0, 0.5, 3.0], [1.0, 0.0, 0.5, -1.0]])
        sp = structured_sparsify(residual, g=2, s=0.5)
        np.testing.assert_array_equal(condensed_matmul(sp, np.eye(4)), expand(sp))

    def test_matches_expand_then_multiply(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(3, 40))
            n = int(rng.integers(8, 60))
            g = int(rng.integers(1, m + 1))
            sp = structured_sparsify(rng.normal(size=(m, n)), g, 0.25)
            x = rng.normal(size=(n, 7))
            diff = np.abs(condensed_matmul(sp, x) - expand(sp) @ x).max()
            assert diff <= 1e-12

    def test_zero_values(self):
        sp = structured_sparsify(np.zeros((4, 8)), g=2, s=0.25)
        np.testing.assert_array_equal(condensed_matmul(sp, np.ones((8, 3))), 0.0)

    def test_out_of_range_index(self):
        sp = structured_sparsify(np.ones((2, 4)), g=2, s=0.5)
        object.__setattr__(sp, "kept_cols", np.array([[0, 9]]))
        with pytest.raises(IndexError):
            condensed_matmul(sp, np.ones((4, 2)))


class TestSplitterPlanner:
    def test_full_rows_all_equal(self):
        plan = plan_splitters(12, PTC12)
        assert plan.stage1 is SplitterState.EQUAL
        assert plan.stage2 == (SplitterState.EQUAL, SplitterState.EQUAL)
        assert plan.active_quarters == (0, 1, 2, 3)

    def test_three_quarters_one_full_switch(self):
        plan = plan_splitters(9, PTC12)
        assert plan.stage1 is SplitterState.EQUAL
        assert sum(s is not SplitterState.EQUAL for s in plan.stage2) == 1
        assert len(plan.active_quarters) == 3

    def test_single_quarter_both_stages_full(self):
        plan = plan_splitters(3, PTC12)
        assert plan.stage1 is SplitterState.FULL_A
        assert plan.active_quarters == (0,)

    def test_all_levels_quarter_counts(self):
        for level in (1, 2, 3, 4):
            plan = plan_splitters(level * 3, PTC12)
            assert len(plan.active_quarters) == level

    def test_non_quarter_errors_with_advice(self):
        with pytest.raises(ValueError, match="round"):
            plan_splitters(5, PTC12)

    def test_operating_height(self):
        ptc8 = PtcConfig(8, 12, 12)
        assert operating_height(6, ptc8) == 6
        assert operating_height(5, ptc8) == 6
        assert operating_height(8, ptc8) == 8
        assert operating_height(1, ptc8) == 2
        with pytest.raises(ValueError, match="exceeds"):
            operating_height(9, ptc8)


class TestLaserEnergy:
    def test_exactly_linear_in_quarters(self):
        params = EnergyParams()
        per_level = [laser_energy(params, PTC12, q * 3, cores=5, cycles=17) for q in (1, 2, 3, 4)]
        for q in (2, 3, 4):
            assert per_level[q - 1] == q * per_level[0]

    def test_halving_quarters_halves_energy(self):
        params = EnergyParams()
        full = laser_energy(params, PtcConfig(8, 12, 12), 8, cores=3, cycles=9)
        half = laser_energy(params, PtcConfig(8, 12, 12), 4, cores=3, cycles=9)
        assert half * 2 == full


def one_layer_graph(rows=12, cols=12):
    return ModelGraph(
        layers=[LayerSpec("embed", "embed", rows, cols)],
        blocks=[],
        hidden_size=rows,
        meta={},
    )


def toy_plan(graph, ratio=0.5, s=0.125, g=6):
    layers = []
    for l in graph.compressible_layers():
        d = max(1, round(l.cols * s))
        r = max(1, int((1 - ratio) * l.rows * l.cols - l.rows * d) // (l.rows + l.cols))
        layers.append(PlanLayer(l.id, l.rows, l.cols, r, d, g, r * (l.rows + l.cols) + l.rows * d))
    plan = CompressionPlan(alpha=ratio, sparse_ratio=s, layers=layers, psi_achieved=0.0, iterations=0)
    return plan


class TestEngineBlock:
    def test_zero_tiles_is_valid(self):
        assert EngineBlock(tiles=0, cores_per_tile=1, ptc=PTC12).cores == 0

    def test_negative_tiles_rejected(self):
        with pytest.raises(ValueError, match=r"tiles >= 0 .* got tiles=-1"):
            EngineBlock(tiles=-1, cores_per_tile=1, ptc=PTC12)

    def test_zero_cores_per_tile_rejected(self):
        with pytest.raises(ValueError, match=r"cores_per_tile >= 1, got .*cores_per_tile=0"):
            EngineBlock(tiles=2, cores_per_tile=0, ptc=PTC12)


class TestSimulate:
    def test_hand_counted_single_invocation_ledger(self):
        graph = one_layer_graph()
        engines = EngineConfig(
            dense=EngineBlock(tiles=1, cores_per_tile=1, ptc=PTC12),
            sparse=EngineBlock(tiles=1, cores_per_tile=1, ptc=PtcConfig(8, 12, 12)),
        )
        p = EnergyParams()
        report = simulate(None, graph, engines, p, batch_tokens=12)
        lc = report.per_layer[0]
        assert lc.dense_invocations == 1
        assert report.cycles == 1
        # hand ledger: one 12x12x12 invocation
        assert lc.energy["weight_encode"] == 144 * (p.dac_weight + p.modulation)
        assert lc.energy["input_encode"] == 144 * (p.dac_input + p.modulation)
        assert lc.energy["readout"] == 144 * p.tia + 144 * p.adc
        assert lc.energy["laser"] == p.laser_per_channel_cycle * 12 * 3 * 1 * 1 * 4
        assert lc.energy["data_movement"] == 144 * p.dram_per_byte + 24 * 12 * p.sram_per_byte
        assert lc.energy["index_overhead"] == 0.0
        assert report.total_energy == sum(lc.energy.values())

    def test_broadcast_exactly_halves_input_encode(self):
        graph = one_layer_graph(24, 24)
        params = EnergyParams()
        base = dict(dense=EngineBlock(tiles=2, cores_per_tile=1, ptc=PTC12),
                    sparse=EngineBlock(tiles=1, cores_per_tile=1, ptc=PtcConfig(8, 12, 12)))
        with_bc = simulate(None, graph, EngineConfig(**base, broadcast_enabled=True), params, 12)
        without = simulate(None, graph, EngineConfig(**base, broadcast_enabled=False), params, 12)
        assert with_bc.energy["input_encode"] * 2 == without.energy["input_encode"]
        for comp in ("weight_encode", "readout", "laser", "data_movement", "index_overhead"):
            assert with_bc.energy[comp] == without.energy[comp]

    def test_baseline_has_zero_index_overhead(self):
        graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=1, classes=4, in_dim=12)
        report = simulate(None, graph, EngineConfig.default(), EnergyParams(), 24)
        assert report.energy["index_overhead"] == 0.0

    def test_breakdown_sums_to_total(self):
        graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=2, classes=4, in_dim=12)
        plan = toy_plan(graph, g=6)
        report = simulate(plan, graph, EngineConfig.default(), EnergyParams(), 48)
        assert report.total_energy == pytest.approx(sum(report.energy.values()), rel=1e-9)
        per_layer_total = sum(lc.total_energy for lc in report.per_layer)
        assert report.total_energy == pytest.approx(per_layer_total, rel=1e-12)

    def test_components_monotone_in_rank_and_density(self):
        graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=1, classes=4, in_dim=12)
        plan = toy_plan(graph, g=4)
        base = simulate(plan, graph, EngineConfig.default(), EnergyParams(), 24)
        for bump in ("r", "d"):
            plan2 = toy_plan(graph, g=4)
            for pl in plan2.layers:
                if bump == "r":
                    pl.r += 1
                else:
                    pl.d += 1
            grown = simulate(plan2, graph, EngineConfig.default(), EnergyParams(), 24)
            for comp, value in grown.energy.items():
                assert value >= base.energy[comp] - 1e-12
            assert grown.cycles >= base.cycles

    def test_scheduler_conservation(self):
        # each invocation belongs to exactly one engine; cycles follow from
        # the engine's own core count
        graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=2, classes=4, in_dim=12)
        plan = toy_plan(graph, g=4)
        engines = EngineConfig.default()
        report = simulate(plan, graph, engines, EnergyParams(), 31)
        from math import ceil

        for lc in report.per_layer:
            assert lc.dense_cycles == (ceil(lc.dense_invocations / engines.dense.cores) if lc.dense_invocations else 0)
            assert lc.sparse_cycles == (ceil(lc.sparse_invocations / engines.sparse.cores) if lc.sparse_invocations else 0)
            assert lc.cycles == max(lc.dense_cycles, lc.sparse_cycles)
        assert report.cycles == sum(lc.cycles for lc in report.per_layer)

    def test_empty_plan_is_baseline(self):
        graph = one_layer_graph()
        empty = CompressionPlan(alpha=0.5, sparse_ratio=0.125, layers=[], psi_achieved=0.0, iterations=0)
        a = simulate(empty, graph, EngineConfig.default(), EnergyParams(), 12)
        b = simulate(None, graph, EngineConfig.default(), EnergyParams(), 12)
        assert a.to_json() == b.to_json()

    def test_plan_model_mismatch_names_layer(self):
        graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=1, classes=4, in_dim=12)
        plan = toy_plan(graph)
        plan.layers = plan.layers[:-1]
        with pytest.raises(ValueError, match="block0.mlp.fc2"):
            simulate(plan, graph, EngineConfig.default(), EnergyParams(), 24)

    def test_report_json_and_csv(self, tmp_path):
        graph = one_layer_graph()
        report = simulate(None, graph, EngineConfig.default(), EnergyParams(), 12)
        data = report.to_json()
        assert set(data["energy_pj"]) == {
            "data_movement", "weight_encode", "input_encode", "readout", "laser", "index_overhead",
        }
        report.write_csv(tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6  # header + one layer x six components


class TestEdp:
    def test_product(self):
        graph = one_layer_graph()
        report = simulate(None, graph, EngineConfig.default(), EnergyParams(), 12)
        assert edp(report) == report.total_energy * report.latency_s
        assert report.edp == edp(report)

    def test_doubling_energy_params_doubles_edp(self):
        graph = one_layer_graph(24, 36)
        p1 = EnergyParams()
        doubled = {k: (v * 2 if k != "clock_ghz" else v) for k, v in p1.to_json().items()}
        p2 = EnergyParams(**doubled)
        r1 = simulate(None, graph, EngineConfig.default(), p1, 24)
        r2 = simulate(None, graph, EngineConfig.default(), p2, 24)
        assert r2.edp == pytest.approx(2 * r1.edp, rel=1e-12)


class TestPtcFunctionalFidelity:
    def test_compressed_layer_engine_paths_reproduce_reconstruction(self):
        # dense engine: two chained low-rank passes; sparse engine: condensed
        # chunks; their analog sum must equal (A B + expand(S)) X
        rng = np.random.default_rng(9)
        w = rng.normal(size=(40, 56))
        from opticomp.decompose import ScalingDiag, decompose_layer

        dec = decompose_layer(w, ScalingDiag.identity(56), r=6, s=0.125, g=4, iters=10)
        x = rng.normal(size=(56, 21))
        dense_part = ptc_layer_matmul(dec.a, ptc_layer_matmul(dec.b, x, PTC12), PTC12)
        sparse_part = condensed_matmul(dec.sparse, x)
        ref = (dec.a @ dec.b + expand(dec.sparse)) @ x
        rel = np.abs(dense_part + sparse_part - ref).max() / np.abs(ref).max()
        assert rel <= 1e-9

    def test_toy_vit_through_ptc_tiles(self):
        graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=2, classes=6, in_dim=10)
        tensors = gen_toy_model(graph, seed=11)
        model = ToyViT.from_tensors(graph, tensors)
        inp = philox_rng(12, 0).normal(size=(10, 9))
        ref_logits, _ = forward(model, inp)
        ptc_logits, _ = forward(model, inp, matmul_fn=lambda a, b: ptc_layer_matmul(a, b, PTC12))
        rel = np.abs(ptc_logits - ref_logits).max() / np.abs(ref_logits).max()
        assert rel <= 1e-9


def test_comparison_ratios_are_quotients():
    graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=1, classes=4, in_dim=12)
    plan = toy_plan(graph, g=6)
    base = simulate(None, graph, EngineConfig.baseline_scaled(), EnergyParams(), 24)
    comp = simulate(plan, graph, EngineConfig.default(), EnergyParams(), 24)
    data = comparison(base, comp)
    assert data["edp_ratio"] == base.edp / comp.edp
    assert data["energy_ratio"] == base.total_energy / comp.total_energy
