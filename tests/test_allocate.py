import json
from fractions import Fraction

import numpy as np
import pytest

from opticomp import allocate
from opticomp.allocate import (
    LAYER_FIELDS,
    PLAN_FIELDS,
    CompressionPlan,
    PlanLayer,
    allocate_ranks,
    basis_rank,
    max_rank,
    prepare_full_rank,
    psi,
    read_plan,
    redistribute,
    select_batch,
    step_size,
    write_plan,
)
from opticomp.decompose import ScalingDiag, alternate, compute_scaling, decompose_layer, expand
from opticomp.linalg import frobenius_norm, truncated_svd
from opticomp.util import philox_rng

from oracles import hand_written_plan_json


def random_layers(seed, count, m=32, n=48, t=64):
    rng = philox_rng(seed, 50)
    layers, scaling = [], {}
    for i in range(count):
        lid = f"layer{i}"
        layers.append((lid, rng.normal(size=(m, n))))
        scaling[lid] = compute_scaling(rng.normal(size=(n, t)))
    return layers, scaling


class TestPrepareFullRank:
    def test_diagonal_layer_slicing(self):
        w = np.diag([3.0, 2.0, 1.0, 0.5])
        scaling = {"l": ScalingDiag.identity(4)}
        state = prepare_full_rank([("l", w)], scaling, s=0.25, g=2, iters=2)
        layer = state.layers[0]
        guide = decompose_layer(w, scaling["l"], layer.r_max, 0.25, 2, iters=2)
        # top-2 triplets of the residual (D = I, so S is stored unscaled):
        # singular values sorted descending
        sigma = truncated_svd(w - expand(guide.sparse), layer.r_max).singular_values
        assert sigma[0] >= sigma[1]
        assert layer.tail_sq[0] == guide.best_objective**2 + np.sum(sigma**2)
        assert layer.d == guide.sparse.kept_per_chunk

    def test_default_guide_is_one_alternation(self, monkeypatch):
        traces = []

        def spy(*args, **kwargs):
            trace, sparse = alternate(*args, **kwargs)
            traces.append(list(trace))
            return trace, sparse

        monkeypatch.setattr(allocate, "alternate", spy)
        layers, scaling = random_layers(8, 3, m=24, n=36)
        prepare_full_rank(layers, scaling, s=0.125, g=4)
        assert len(traces) == 3
        for trace in traces:
            # first L-step, one S-step; the closing refit is values-only
            assert len(trace) == 2

    def test_keeps_only_the_singular_value_tail(self):
        layers, scaling = random_layers(9, 3, m=24, n=36)
        state = prepare_full_rank(layers, scaling, s=0.125, g=4)
        for layer in state.layers:
            for name, value in vars(layer).items():
                if name == "tail_sq":
                    assert value.shape == (layer.r_max + 1,) and value.dtype == np.float64
                else:
                    assert isinstance(value, (int, float, str)), name

    def test_zero_weight_names_the_layer(self):
        layers, scaling = random_layers(10, 2, m=8, n=12)
        layers[1] = ("layer1", np.zeros((8, 12)))
        with pytest.raises(ValueError, match="'layer1' has an all-zero weight"):
            prepare_full_rank(layers, scaling, s=0.125, g=4)

    def test_error_monotone_in_rank(self):
        layers, scaling = random_layers(0, 1)
        state = prepare_full_rank(layers, scaling, s=0.125, g=4, iters=5)
        layer = state.layers[0]
        errors = [layer.error_at(r) for r in range(1, layer.r_max + 1)]
        assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(errors, errors[1:]))
        assert layer.error_at(layer.r_max) <= layer.error_at(1)

    def test_slice_matches_recompute_oracle(self):
        layers, scaling = random_layers(1, 4, m=24, n=36)
        state = prepare_full_rank(layers, scaling, s=0.125, g=4)
        for (lid, w), layer in zip(layers, state.layers):
            d = scaling[lid]
            wd = w * d.d[None, :]
            from opticomp.decompose import _scale_sparse_cols

            guide = decompose_layer(w, d, layer.r_max, 0.125, 4, iters=1)
            assert layer.d == guide.sparse.kept_per_chunk
            residual = wd - expand(_scale_sparse_cols(guide.sparse, d.d))
            for r in (1, 3, layer.r_max // 2, layer.r_max):
                direct = frobenius_norm(wd - truncated_svd(residual, r).reconstruct()
                                        - (wd - residual)) / frobenius_norm(wd)
                assert layer.error_at(r) == pytest.approx(direct, abs=1e-10)


class TestBasisRank:
    def test_base_scale(self):
        assert basis_rank(768, 12) == 12

    def test_small_scale(self):
        assert basis_rank(384, 12) == 6


class TestStepSize:
    @pytest.mark.parametrize(
        "remaining,expected_of_b",
        [(1000, 2), (500, 2), (499, 1), (250, 1)],
    )
    def test_branches(self, remaining, expected_of_b):
        assert step_size(remaining, 1000, 12) == expected_of_b * 12

    def test_last_branch_ceil(self):
        assert step_size(249, 1000, 12) == 6
        assert step_size(100, 1000, 5) == 3  # ceil(5/2)
        assert step_size(1, 1000, 1) == 1  # min 1


class TestSelectBatch:
    def test_uniform_errors_tie_break(self):
        batch, probs = select_batch(np.array([1.0, 1.0, 1.0, 1.0]), saturated=np.zeros(4, bool))
        assert batch == [0, 1]
        np.testing.assert_allclose(probs, [0.25, 0.25])

    def test_peaked_softmax_single_layer(self):
        batch, probs = select_batch(np.array([10.0, 0.0, 0.0, 0.0]), saturated=np.zeros(4, bool))
        assert batch == [0]
        assert probs[0] > 0.5

    def test_saturated_layers_are_left_out_of_the_mass(self):
        # Unsaturated errors 1, 2, 3: layer 3 alone holds 0.665 > BATCH_MASS
        # of the softmax, while the saturated layer 1 would outweigh all three.
        saturated = np.array([False, True, False, False])
        batch, _ = select_batch(np.array([1.0, 9.0, 2.0, 3.0]), saturated=saturated)
        assert allocate.BATCH_MASS == 0.5
        assert batch == [3]

    def test_all_saturated_empty(self):
        batch, probs = select_batch(np.array([1.0, 2.0]), saturated=np.array([True, True]))
        assert batch == [] and len(probs) == 0


class TestRedistribute:
    def test_equal_probs(self):
        assert redistribute([0, 1], np.array([0.5, 0.5]), 6, [100] * 2) == [6, 6]

    def test_proportional(self):
        assert redistribute([0, 1], np.array([0.75, 0.25]), 6, [100] * 2) == [9, 3]

    def test_cap_and_spill(self):
        inc = redistribute([0, 1], np.array([0.75, 0.25]), 6, headroom=[1, 100])
        assert inc == [1, 11]

    def test_every_increment_at_least_one(self):
        inc = redistribute([0, 1, 2], np.array([0.98, 0.01, 0.01]), 4, [100] * 3)
        assert min(inc) >= 1
        assert sum(inc) == 12


def planted_rank_layers(seed, low_ranks, m=64, n=96, t=32):
    """Layers with exact planted ranks (plus per-layer calibration scaling)."""
    rng = philox_rng(seed, 51)
    layers, scaling = [], {}
    for i, rank in enumerate(low_ranks):
        lid = f"layer{i}"
        q1, _ = np.linalg.qr(rng.normal(size=(m, rank)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, rank)))
        sig = np.linspace(1.0, 0.5, rank) * m
        layers.append((lid, (q1 * sig) @ q2.T))
        scaling[lid] = compute_scaling(rng.normal(size=(n, t)))
    return layers, scaling


class TestAllocateRanks:
    def test_single_layer_exact_budget_reaches_r_max(self):
        # 6x45: r_max = floor(270/51) = 5 leaves 15 params of slack below
        # break-even, enough to also hold the d=1 sparse columns.
        layers, scaling = random_layers(2, 1, m=6, n=45)
        state = prepare_full_rank(layers, scaling, s=0.022, g=3, iters=3)
        r_max = state.layers[0].r_max
        alpha = 1.0 - (r_max * 51 + 6 * 1) / 270  # budget exactly funds r_max
        plan = allocate_ranks(state, alpha=alpha, sparse_ratio=0.022, g=3, b=2)
        assert plan.layers[0].r == r_max

    def test_two_identical_layers_near_symmetric(self):
        rng = philox_rng(3, 52)
        w = rng.normal(size=(32, 48))
        x = rng.normal(size=(48, 64))
        scaling = {"a": compute_scaling(x), "b": compute_scaling(x)}
        state = prepare_full_rank([("a", w), ("b", w.copy())], scaling, s=0.125, g=4, iters=3)
        plan = allocate_ranks(state, alpha=0.5, sparse_ratio=0.125, g=4, b=4)
        ra, rb = plan.layers[0].r, plan.layers[1].r
        assert abs(ra - rb) <= 2 * 2 * 4  # within one batch step unit (2b at most, x2 slack)

    def test_infeasible_at_ten_percent_floor(self):
        # budget clears the sparse component but not the 10% starting ranks
        layers, scaling = random_layers(4, 2, m=16, n=16)
        state = prepare_full_rank(layers, scaling, s=0.125, g=4, iters=2)
        with pytest.raises(ValueError, match="infeasible"):
            allocate_ranks(state, alpha=0.8, sparse_ratio=0.125, g=4, b=2)

    def test_infeasible_sparse_alone(self):
        layers, scaling = random_layers(4, 2, m=16, n=16)
        state = prepare_full_rank(layers, scaling, s=0.125, g=4, iters=2)
        with pytest.raises(ValueError, match=r"sparse component alone \(64 params\) already violates"):
            allocate_ranks(state, alpha=0.999, sparse_ratio=0.125, g=4, b=2)

    def test_planted_heterogeneous_ranks(self):
        low_ranks = [4, 4, 4] + [32] * 9
        layers, scaling = planted_rank_layers(5, low_ranks)
        state = prepare_full_rank(layers, scaling, s=0.125, g=4, iters=4)
        plan = allocate_ranks(state, alpha=0.5, sparse_ratio=0.125, g=4, b=4)
        low_rank_assigned = [plan.layers[i].r for i in range(3)]
        rest = [plan.layers[i].r for i in range(3, 12)]
        assert max(low_rank_assigned) * 2 <= min(rest)
        assert Fraction(plan.psi_achieved) >= 0  # sanity
        assert psi(plan) >= 0.5

    def test_ranks_non_decreasing_and_budget_safe(self):
        layers, scaling = random_layers(6, 5, m=24, n=40)
        state = prepare_full_rank(layers, scaling, s=0.125, g=4, iters=3)
        plan = allocate_ranks(state, alpha=0.4, sparse_ratio=0.125, g=4, b=3)
        trace = np.array(plan.rank_trace)
        assert np.all(np.diff(trace, axis=0) >= 0)
        assert psi(plan) >= 0.4

    @pytest.mark.parametrize("seed", range(4))
    def test_every_counted_round_raises_a_rank(self, seed):
        # Unequal unit costs: the batch can be unaffordable while a cheaper
        # layer outside it is not. That round raises nothing and ends the
        # search without counting as an iteration.
        rng = philox_rng(seed, 53)
        layers, scaling = [], {}
        for i, (m, n) in enumerate([(16, 24), (16, 48), (48, 16), (24, 24)]):
            layers.append((f"layer{i}", rng.normal(size=(m, n))))
            scaling[f"layer{i}"] = compute_scaling(rng.normal(size=(n, 32)))
        state = prepare_full_rank(layers, scaling, s=0.125, g=4)
        plan = allocate_ranks(state, alpha=0.4, sparse_ratio=0.125, g=4, b=2)
        assert len(plan.rank_trace) == plan.iterations + 1
        assert all(before != after for before, after in zip(plan.rank_trace, plan.rank_trace[1:]))

    def test_deterministic(self):
        for _ in range(2):
            layers, scaling = random_layers(7, 4)
            state = prepare_full_rank(layers, scaling, s=0.125, g=4, iters=3)
            plan = allocate_ranks(state, alpha=0.45, sparse_ratio=0.125, g=4, b=4)
            ranks = tuple(pl.r for pl in plan.layers)
            if _ == 0:
                first = ranks
        assert ranks == first

    def test_the_prediction_stays_on_the_state_and_off_the_plan(self):
        # A plan layer's error is the fit's, recorded by the pipeline; the
        # guide's prediction at the assigned rank is the state's.
        layers, scaling = random_layers(7, 4)
        state = prepare_full_rank(layers, scaling, s=0.125, g=4)
        plan = allocate_ranks(state, alpha=0.45, sparse_ratio=0.125, g=4, b=4)
        assert [pl.error for pl in plan.layers] == [None] * 4
        assert all(l.error == l.error_at(pl.r) for l, pl in zip(state.layers, plan.layers))


class TestPsi:
    def test_hand_count(self):
        plan = CompressionPlan(
            alpha=0.2, sparse_ratio=0.25,
            layers=[PlanLayer("l", 4, 4, 1, 1, 2, 12)],
            psi_achieved=0.0, iterations=0,
        )
        assert psi(plan) == 0.25  # 1 - (8 + 4) / 16

    def test_hypothetical_full_reduction(self):
        plan = CompressionPlan(
            alpha=0.2, sparse_ratio=0.25,
            layers=[PlanLayer("l", 8, 8, 0, 0, 2, 0)],
            psi_achieved=0.0, iterations=0,
        )
        assert psi(plan) == 1.0

    def test_max_rank_break_even(self):
        assert max_rank(64, 96) == (64 * 96) // 160
        assert max_rank(1, 1) == 1



def two_layer_plan() -> CompressionPlan:
    return CompressionPlan(
        alpha=0.3,
        sparse_ratio=0.125,
        layers=[
            PlanLayer("block0.attn.q", 24, 24, r=5, d=3, g=4, params=312, error=0.22130519873413467),
            PlanLayer("block0.mlp.fc1", 48, 24, r=7, d=3, g=4, params=648, error=None),
        ],
        psi_achieved=0.3125000000000001,
        iterations=4,
    )


class TestPlanFile:
    def test_round_trip_keeps_every_field(self, tmp_path):
        plan = two_layer_plan()
        write_plan(tmp_path / "plan.json", plan)
        assert read_plan(tmp_path / "plan.json") == plan  # a null error included

    def test_rewriting_a_read_plan_gives_the_same_bytes(self, tmp_path):
        write_plan(tmp_path / "a.json", two_layer_plan())
        write_plan(tmp_path / "b.json", read_plan(tmp_path / "a.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bytes_match_the_hand_written_record(self, tmp_path):
        plan = two_layer_plan()
        write_plan(tmp_path / "plan.json", plan)
        text = json.dumps(hand_written_plan_json(plan), sort_keys=True, separators=(",", ":")) + "\n"
        assert (tmp_path / "plan.json").read_bytes() == text.encode()

    @pytest.mark.parametrize(
        "record,field",
        [("plan", name) for name, (_, ok) in PLAN_FIELDS.items() if not ok(None)]
        + [("layer", name) for name, (_, ok) in LAYER_FIELDS.items() if not ok(None)],
    )
    def test_a_missing_required_field_is_named(self, tmp_path, record, field):
        # A layer is named by its id once that is read, by its index before.
        obj = hand_written_plan_json(two_layer_plan())
        del (obj if record == "plan" else obj["layers"][1])[field]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError) as info:
            read_plan(path)
        where = "plan" if record == "plan" else "plan layer 1" if field == "id" else "plan layer 'block0.mlp.fc1'"
        assert str(info.value) == f"{path}: {where} has no field {field!r}"

    def test_an_absent_error_reads_as_null(self, tmp_path):
        obj = hand_written_plan_json(two_layer_plan())
        del obj["layers"][0]["error"]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(obj))
        assert read_plan(path).layers[0].error is None

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda obj: [obj], "plan must be a JSON object, got list"),
            (lambda obj: obj["layers"].__setitem__(0, 5), "plan layer 0 must be a JSON object, got int"),
            (lambda obj: obj.update(layers={}), "plan layers must be a list, got {}"),
            (lambda obj: obj.update(iterations=4.0), "plan iterations must be an integer, got 4.0"),
            (lambda obj: obj["layers"][1].update(rows=True), "plan layer 'block0.mlp.fc1': rows must be an integer, got True"),
            (lambda obj: obj.update(alpha=10**400), f"plan alpha must be a finite number, got {10**400}"),
        ],
        ids=["plan_list", "layer_int", "layers_object", "iterations_float", "rows_bool", "alpha_beyond_float"],
    )
    def test_a_record_of_the_wrong_json_type_is_named(self, tmp_path, edit, message):
        obj = hand_written_plan_json(two_layer_plan())
        obj = edit(obj) or obj
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError) as info:
            read_plan(path)
        assert str(info.value) == f"{path}: {message}"

    def test_a_file_that_is_not_json_is_named(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ValueError) as info:
            read_plan(path)
        assert str(info.value).startswith(f"{path}: Expecting property name")
