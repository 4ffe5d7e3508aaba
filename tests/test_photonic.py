import hashlib
import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opticomp.allocate import CompressionPlan, PlanLayer
from opticomp.decompose import expand, stored_params, structured_sparsify
from opticomp.model import LayerSpec, ModelGraph
from opticomp.photonic import (
    COMPONENTS,
    CostReport,
    EngineBlock,
    EngineConfig,
    EnergyParams,
    LAYER_COUNTS,
    LayerCost,
    PtcConfig,
    SplitterState,
    comparison,
    condensed_matmul,
    laser_energy,
    operating_height,
    plan_splitters,
    ptc_layer_matmul,
    simulate,
)
from opticomp.util import philox_rng
from opticomp.vit import ToyViT, build_toy_graph, forward, gen_toy_model

from oracles import pass_ledger_simulate

PTC12 = PtcConfig(12, 12, 12)


class TestPtcMatmul:
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

    def test_sparse_rows_must_come_in_quarters(self):
        # Rejected when the engine is built, not when a plan is simulated.
        with pytest.raises(ValueError, match="row gating needs n_v divisible by 4, got 6"):
            EngineConfig(dense=EngineBlock(2, 1, PTC12), sparse=EngineBlock(1, 1, PtcConfig(6, 12, 12)))


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
        assert report.total_energy == lc.total_energy

    def test_hand_counted_compressed_layer_ledger(self):
        # One 24x36 attn_q layer at r=5, d=7, g=5, batch 20 (ragged against
        # every PTC dimension). Each component is written in the order the
        # ledger adds its terms, so float equality is exact.
        graph = ModelGraph([LayerSpec("q", "attn_q", 24, 36)], blocks=[{"attn": ["q"]}], hidden_size=24)
        plan = CompressionPlan(
            alpha=0.3, sparse_ratio=0.2, layers=[PlanLayer("q", 24, 36, 5, 7, 5, 5 * 60 + 24 * 7)],
            psi_achieved=0.0, iterations=0,
        )
        engines = EngineConfig(
            dense=EngineBlock(tiles=2, cores_per_tile=2, ptc=PTC12),
            sparse=EngineBlock(tiles=2, cores_per_tile=2, ptc=PtcConfig(8, 12, 12)),
        )
        p = EnergyParams()
        lc = simulate(plan, graph, engines, p, batch_tokens=20).per_layer[0]
        weight, inputs = p.dac_weight + p.modulation, p.dac_input + p.modulation
        # B X: ceil(5/12) * ceil(36/12) * ceil(20/12) = 6 invocations;
        # A (B X): ceil(24/12) * ceil(5/12) * ceil(20/12) = 4.
        # Sparse: ceil(24/5) = 5 chunks at operating height 6 (the quarter
        # multiple of n_v = 8 at or above g = 5), 5 * ceil(7/12) * ceil(20/8) = 15.
        assert (lc.dense_invocations, lc.sparse_invocations) == (6 + 4, 15)
        assert (lc.dense_cycles, lc.sparse_cycles, lc.cycles) == (3, 4, 4)  # 4 cores each
        assert lc.energy["weight_encode"] == 6 * 12 * 12 * weight + 4 * 12 * 12 * weight + 15 * 6 * 12 * weight
        # Input broadcast over the 2 dense tiles; none on the sparse side.
        assert lc.energy["input_encode"] == 6 * 12 * 12 / 2 * inputs + 4 * 12 * 12 / 2 * inputs + 15 * 12 * 8 * inputs
        # Outputs charge tia each and adc once per 2 cores of a tile.
        assert lc.energy["readout"] == (
            (6 * 12 * 12 * p.tia + 6 * 12 * 12 / 2 * p.adc)
            + (4 * 12 * 12 * p.tia + 4 * 12 * 12 / 2 * p.adc)
            + (15 * 6 * 8 * p.tia + 15 * 6 * 8 / 2 * p.adc)
        )
        # Sparse: 3 of 4 quarters (n_v/4 = 2 rows each), 4 cores, 4 cycles;
        # dense: all 4 quarters of n_v = 12, 4 cores, 3 cycles.
        sparse_laser = p.laser_per_channel_cycle * 12 * 2 * 4 * 4 * 3
        dense_laser = p.laser_per_channel_cycle * 12 * 3 * 4 * 3 * 4
        assert lc.energy["laser"] == sparse_laser + dense_laser
        assert lc.energy["index_overhead"] == 5 * 7 * 20 * p.index_fetch
        # DRAM: weights r (m + n) + m d plus 2-byte indices per chunk and kept
        # column. SRAM: input, intermediate write + read, output, gathered inputs.
        dram_bytes = (5 * (24 + 36) + 24 * 7) * 1 + 5 * 7 * 2
        sram_bytes = ((36 + 2 * 5 + 24) * 20 + 5 * 7 * 20) * 1
        assert lc.energy["data_movement"] == dram_bytes * p.dram_per_byte + sram_bytes * p.sram_per_byte

    def test_dense_engine_needs_no_quarter_rows(self):
        # Only the sparse engine has a splitter tree; a dense PTC with
        # n_v = 10 lights all of its rows.
        graph = one_layer_graph()
        engines = EngineConfig(
            dense=EngineBlock(tiles=2, cores_per_tile=1, ptc=PtcConfig(10, 10, 10)),
            sparse=EngineBlock(tiles=1, cores_per_tile=1, ptc=PtcConfig(8, 12, 12)),
        )
        p = EnergyParams()
        lc = simulate(None, graph, engines, p, batch_tokens=12).per_layer[0]
        assert lc.dense_invocations == 2 * 2 * 2  # ceil(12/10) for rows, inner and batch
        assert lc.dense_cycles == 4  # 8 invocations on 2 cores
        assert lc.energy["laser"] == p.laser_per_channel_cycle * 10 * 10 * 2 * 4

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

    def test_empty_plan_is_not_the_baseline(self):
        # only plan=None asks for the baseline; no layers is a mismatch
        graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=1, classes=4, in_dim=12)
        empty = CompressionPlan(alpha=0.5, sparse_ratio=0.125, layers=[], psi_achieved=0.0, iterations=0)
        with pytest.raises(ValueError, match=r"plan/model mismatch at layer\(s\): block0.attn.k, "):
            simulate(empty, graph, EngineConfig.default(), EnergyParams(), 12)

    def test_plan_model_mismatch_names_layer(self):
        graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=1, classes=4, in_dim=12)
        plan = toy_plan(graph)
        plan.layers = plan.layers[:-1]
        with pytest.raises(ValueError, match="block0.mlp.fc2"):
            simulate(plan, graph, EngineConfig.default(), EnergyParams(), 24)

    def test_plan_of_other_layer_shapes_is_a_mismatch(self):
        graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=1, classes=4, in_dim=12)
        plan = toy_plan(graph)
        plan.layers[0] = replace(plan.layers[0], cols=plan.layers[0].cols + 1)
        with pytest.raises(ValueError, match=rf"^plan/model mismatch at layer\(s\): {plan.layers[0].id}$"):
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

    def test_counts_past_int64_name_batch_tokens(self):
        with pytest.raises(ValueError, match=(
            r"^batch_tokens=10000000000000000000: layer 'block0\.attn\.q' needs more invocations than int64 holds$"
        )):
            simulate(None, build_toy_graph(), EngineConfig.default(), EnergyParams(), 10**19)

    def test_counts_below_int64_stay_exact(self):
        # The widest layers (fc1, fc2) run 8 * 4 row and inner blocks, each
        # over batch / n_v = 2**57 column blocks: 2**62 invocations.
        layers = simulate(None, build_toy_graph(), EngineConfig.default(), EnergyParams(), 12 * 2**57).per_layer
        assert max(lc.dense_invocations for lc in layers) == 2**62
        assert type(layers[0].dense_invocations) is int

    def test_counts_past_two_to_the_53_are_exact(self):
        # fc1: 8 * 4 row and inner blocks times ceil(10**18 / 12) column
        # blocks, on 8 dense cores; a float ceiling is off in the last digits.
        report = simulate(None, build_toy_graph(), EngineConfig.default(), EnergyParams(), 10**18)
        fc1 = next(lc for lc in report.per_layer if lc.layer_id == "block0.mlp.fc1")
        assert fc1.dense_invocations == 32 * -(-10**18 // 12) == 2666666666666666688
        assert fc1.dense_cycles == fc1.cycles == 333333333333333336

    def test_counts_from_a_plan_past_two_to_the_53_are_exact(self):
        # A plan's d is read unchecked. At d = 2**53 + 1 and one wavelength a
        # float ceiling of d / n_lambda reads 2**53; the 24 rows run 6 chunks
        # of g = 4 on 6 sparse cores.
        graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=1, classes=4, in_dim=12)
        plan = toy_plan(graph, g=4)
        plan.layers[0].d = 2**53 + 1
        engines = replace(EngineConfig.default(), sparse=EngineBlock(3, 2, PtcConfig(8, 12, 1)))
        report = simulate(plan, graph, engines, EnergyParams(), 1)
        lc = next(lc for lc in report.per_layer if lc.layer_id == plan.layers[0].id)
        assert lc.sparse_invocations == 6 * (2**53 + 1) == 54043195528445958
        assert lc.sparse_cycles == lc.cycles == 2**53 + 1

    @pytest.mark.parametrize("batch", [1, 64, 197])
    def test_laser_charge_is_laser_energy(self, batch):
        # The dse workload's shapes: each layer's laser is the sparse engine's
        # laser_energy at its operating height plus the dense engine's, with
        # every one of its n_v rows lit, exactly.
        graph = build_toy_graph(hidden=64, blocks=2)
        plan, engines, params = toy_plan(graph, g=4), EngineConfig.default(), EnergyParams()
        plan_by_id = {pl.id: pl for pl in plan.layers}
        dense, sparse = engines.dense, engines.sparse
        for lc in simulate(plan, graph, engines, params, batch).per_layer:
            pl = plan_by_id.get(lc.layer_id)
            sparse_laser = 0.0 if pl is None else laser_energy(
                params, sparse.ptc, operating_height(pl.g, sparse.ptc), sparse.cores, lc.sparse_cycles
            )
            dense_laser = (params.laser_per_channel_cycle * dense.ptc.n_lambda * dense.ptc.n_v * dense.cores
                           * lc.dense_cycles)
            assert lc.energy["laser"] == sparse_laser + dense_laser, lc.layer_id

    def test_whole_number_energy_params_give_float_layer_energies(self):
        # A hardware file may give whole numbers; a layer's energies are
        # floats, as the totals are.
        params = EnergyParams(**{name: int(value) + 1 for name, value in EnergyParams().to_json().items()})
        report = simulate(None, one_layer_graph(), EngineConfig.default(), params, 12)
        assert all(type(value) is float for value in report.to_json()["per_layer"][0]["energy_pj"].values())

    def test_a_report_holds_its_layers_in_two_arrays(self):
        # A dse sweep holds its reports until it checks them. Each keeps a
        # layer's counts and energies as rows of two arrays (about 2.3 KB a
        # report here); a LayerCost and an energy dict per layer took 9.3 KB.
        graph = build_toy_graph(hidden=64, blocks=2)
        plan, engines, params = toy_plan(graph, g=4), EngineConfig.default(), EnergyParams()
        simulate(plan, graph, engines, params, 197)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reports = [simulate(plan, graph, engines, params, 197) for _ in range(200)]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert held / len(reports) <= 4 * 1024
        assert reports[0].counts.shape == (len(graph.layers), len(LAYER_COUNTS))
        assert reports[0].energies.shape == (len(graph.layers), len(COMPONENTS))


class TestEdp:
    def test_product(self):
        graph = one_layer_graph()
        report = simulate(None, graph, EngineConfig.default(), EnergyParams(), 12)
        assert report.edp == report.total_energy * report.latency_s

    def test_doubling_energy_params_doubles_edp(self):
        graph = one_layer_graph(24, 36)
        p1 = EnergyParams()
        doubled = {k: (v * 2 if k != "clock_ghz" else v) for k, v in p1.to_json().items()}
        p2 = EnergyParams(**doubled)
        r1 = simulate(None, graph, EngineConfig.default(), p1, 24)
        r2 = simulate(None, graph, EngineConfig.default(), p2, 24)
        assert r2.edp == pytest.approx(2 * r1.edp, rel=1e-12)


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.mark.parametrize("values", [(0.1, 0.2, 0.3, 0.0, 0.0, 0.0), (1e16, 1.0, 1.0, 0.5, 0.0, 0.0)])
def test_energy_totals_add_left_to_right_on_every_python(values):
    # A compensated sum (built-in sum from Python 3.12, math.fsum) gives another total.
    assert left_to_right(values) != math.fsum(values)
    energy = dict(zip(COMPONENTS, values))
    assert LayerCost("x", 1, 0, 1, 0, 1, energy).total_energy == left_to_right(values)
    no_layers = (), np.zeros((0, len(LAYER_COUNTS)), np.int64), np.zeros((0, len(COMPONENTS)))
    assert CostReport(energy, 1, 1.0, 1.0, *no_layers).total_energy == left_to_right(values)


# A fixed (r, d, g) per layer kind of the default toy graph: a compressed
# plan that no compress (and no BLAS) produces, so its report is the same on
# every platform.
HAND_RDG = {"attn_q": (12, 6, 4), "attn_k": (12, 6, 4), "attn_v": (16, 6, 8), "attn_o": (8, 12, 4),
            "mlp_fc1": (20, 6, 6), "mlp_fc2": (16, 12, 3)}


def hand_plan(graph):
    layers = [PlanLayer(l.id, l.rows, l.cols, *HAND_RDG[l.kind], stored_params(l.rows, l.cols, *HAND_RDG[l.kind][:2]))
              for l in graph.compressible_layers()]
    return CompressionPlan(alpha=0.3, sparse_ratio=0.125, layers=layers, psi_achieved=0.0, iterations=0)


@pytest.mark.parametrize("batch", [1, 197, 512])
@pytest.mark.parametrize("compressed, engines", [
    (True, EngineConfig.default()), (False, EngineConfig.default()), (False, EngineConfig.baseline_scaled()),
], ids=["plan-default", "baseline-default", "baseline-scaled"])
def test_totals_are_the_ordered_sums_of_the_rows(compressed, engines, batch):
    graph = build_toy_graph()
    report = simulate(hand_plan(graph) if compressed else None, graph, engines, EnergyParams(), batch)
    for j, comp in enumerate(COMPONENTS):
        assert report.energy[comp] == left_to_right(report.energies[:, j].tolist()), comp
    assert type(report.cycles) is int
    assert report.cycles == sum(report.counts[:, -1].tolist())
    assert report.total_energy == left_to_right(report.energy.values())


def test_a_graph_with_no_layers_has_zero_totals():
    report = simulate(None, ModelGraph([], [], 4), EngineConfig.default(), EnergyParams(), 8)
    assert report.to_json() == {"energy_pj": dict.fromkeys(COMPONENTS, 0.0), "total_energy_pj": 0.0, "cycles": 0,
                                "latency_s": 0.0, "edp_pj_s": 0.0, "per_layer": []}
    assert type(report.cycles) is int


# SHA-256 of report.json as ``cli._write_json`` writes it, at batch 197 on
# the default toy graph and engines; the baseline's equals ``opticomp
# simulate --baseline`` on the README walkthrough's model.
@pytest.mark.parametrize("compressed, digest", [
    (False, "5c5149fa5709f5bcd71928f2cafd0e8ca3bc51ba43b1568db54b5ea3d0002236"),
    (True, "3ca152cc1580b58b283c1105b30d96fac6f6221164bb420ba1922cf49bba1280"),
], ids=["baseline", "hand-plan"])
def test_report_json_bytes_are_pinned(compressed, digest):
    graph = build_toy_graph()
    report = simulate(hand_plan(graph) if compressed else None, graph, EngineConfig.default(), EnergyParams(), 197)
    text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@st.composite
def simulate_cases(draw):
    """A random toy graph, plan, engines, energies and batch."""
    graph = build_toy_graph(
        hidden=draw(st.integers(1, 40)), heads=1, mlp_ratio=draw(st.integers(1, 4)),
        blocks=draw(st.integers(1, 2)), classes=draw(st.integers(1, 12)), in_dim=draw(st.integers(1, 30)),
    )

    def block(quarters):
        n_v = 4 * draw(st.integers(1, 4)) if quarters else draw(st.integers(1, 16))
        return EngineBlock(draw(st.integers(1, 8)), draw(st.integers(1, 3)),
                           PtcConfig(n_v, draw(st.integers(1, 16)), draw(st.integers(1, 16))))

    engines = EngineConfig(block(False), block(True), draw(st.booleans()), draw(st.booleans()))
    layers = []
    for l in graph.compressible_layers():
        r, d = draw(st.integers(1, min(l.rows, l.cols))), draw(st.integers(1, l.cols))
        g = draw(st.integers(1, engines.sparse.ptc.n_v))
        layers.append(PlanLayer(l.id, l.rows, l.cols, r, d, g, r * (l.rows + l.cols) + l.rows * d))
    plan = CompressionPlan(alpha=0.3, sparse_ratio=0.1, layers=layers, psi_achieved=0.0, iterations=0)
    energy = st.floats(0.0, 10.0, allow_subnormal=False)
    values = {f.name: draw(energy) for f in fields(EnergyParams) if f.name != "clock_ghz"}
    params = EnergyParams(**values, clock_ghz=draw(st.floats(0.1, 10.0)))
    return plan, graph, engines, params, draw(st.integers(1, 1000))


def plan_past_two_to_the_53_case():
    """The default engines on a hidden-24 toy whose first plan layer has
    r = d = 12 * 2**52 + 1: either over n_h = n_lambda = 12 is 2**52 + 1/12,
    which a float rounds to 2**52, so a float ceiling comes out one short.
    Its 24 columns and a batch of 1 keep every count within int64."""
    graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=1, classes=4, in_dim=12)
    plan = toy_plan(graph, g=4)
    plan.layers[0].r = plan.layers[0].d = 12 * 2**52 + 1
    return plan, graph, EngineConfig.default(), EnergyParams(), 1


class TestSimulateMatchesPassLedger:
    """``simulate`` against the per-pass ledger it replaced (tests/oracles.py):
    every float from the same operations in the same order."""

    @settings(max_examples=200, deadline=None)
    @given(simulate_cases())
    @example(case=plan_past_two_to_the_53_case())
    def test_reports_are_identical(self, tmp_path_factory, case):
        plan, *rest = case
        csv_path = tmp_path_factory.mktemp("csv") / "report.csv"
        for p in (plan, None):  # the compressed plan and the dense baseline
            got, want = simulate(p, *rest), pass_ledger_simulate(p, *rest)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())  # values, reprs and key order
            assert (got.cycles, got.latency_s, got.edp) == (want.cycles, want.latency_s, want.edp)
            assert len(got.per_layer) == len(want.per_layer)
            for lc, ref in zip(got.per_layer, want.per_layer):
                for f in fields(LayerCost):
                    assert getattr(lc, f.name) == getattr(ref, f.name), f.name
                assert list(lc.energy) == list(COMPONENTS)
                assert all(type(getattr(lc, name)) is int for name in LAYER_COUNTS)
                assert all(type(value) is float for value in lc.energy.values())
            # report.csv as the oracle's layers give it: the repr of a Python
            # float, where a numpy scalar's repr reads "np.float64(...)".
            got.write_csv(csv_path)
            rows = [("layer", "component", "energy_pj")]
            rows += [(ref.layer_id, comp, repr(ref.energy[comp])) for ref in want.per_layer for comp in COMPONENTS]
            assert csv_path.read_bytes() == "".join(f"{','.join(row)}\r\n" for row in rows).encode()

    @pytest.mark.parametrize("defect, message", [
        ("batch 0", "batch_tokens must be >= 1"),
        ("no dense cores", "dense engine needs at least one core"),
        ("plan mismatch", "plan/model mismatch at layer(s): block0.mlp.fc2"),
        ("no sparse tiles", "compressed plan given but the sparse engine has no tiles"),
        ("g > n_v", "chunk height 9 exceeds sparse PTC rows 8"),
    ])
    def test_errors_are_the_oracles(self, defect, message):
        graph = build_toy_graph(hidden=24, heads=2, mlp_ratio=2, blocks=1, classes=4, in_dim=12)
        plan, engines, batch = toy_plan(graph), EngineConfig.default(), 24
        if defect == "batch 0":
            batch = 0
        elif defect == "no dense cores":
            engines = replace(engines, dense=replace(engines.dense, tiles=0))
        elif defect == "plan mismatch":
            plan.layers = plan.layers[:-1]
        elif defect == "no sparse tiles":
            engines = replace(engines, sparse=replace(engines.sparse, tiles=0))
        else:
            plan.layers[2] = replace(plan.layers[2], g=9)  # sparse n_v is 8
        raised = []
        for fn in (simulate, pass_ledger_simulate):
            with pytest.raises(ValueError) as info:
                fn(plan, graph, engines, EnergyParams(), batch)
            raised.append(str(info.value))
        assert raised == [message, message]


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
