"""End-to-end compression pipeline and artifact verification.

Glues the stages together: calibration capture -> activation scaling ->
one-step rank-r_max guide -> greedy rank allocation -> per-layer
decomposition at the assigned rank (``decomposition.iters`` alternations,
starting from the guide's SVD of W D) -> local adaptation -> serialized
compressed model + plan. Every tensor file is checked against its table
(``container.check_tensors``) where it is read. Verification
re-derives every stored quantity from the artifacts themselves.
Each fitted layer is a ``decompose.Decomposition``, also when read back
(with an empty ``objective_trace``); ``plan.json`` is owned by ``allocate``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .allocate import allocate_ranks, basis_rank, check_plan_matches, prepare_full_rank, read_plan
from .allocate import write_plan  # noqa: F401 (plans are written and read through this module too)
from .config import ConfigError
from .container import check_tensors, read_container, read_tensors, write_container
from .decompose import (
    Decomposition,
    StructuredSparse,
    compute_scaling,
    decompose_layer,
    expand,
    layer_error,
    local_adapt,
)
from .model import ModelGraph, dense_shapes, load_model, read_graph
from .photonic import EngineConfig, EnergyParams, condensed_matmul, load_energy_params, load_engine_config
from .quantize import dequantize, inject_noise, quantize
from .util import COUNT, OBJECT, check, philox_rng, read_record, stable_key
from .vit import ToyViT, block_loss, collect_calibration, forward, logit_loss


def load_calibration_inputs(path) -> np.ndarray:
    (inputs,) = read_tensors(path, {"inputs": ("f32", (None, None))})
    return np.asarray(inputs, dtype=np.float64)


def compress_model(cfg: dict, engines: EngineConfig):
    """Run the full pipeline; returns (graph, compressed layers, plan, summary)."""
    t = cfg["targets"]
    n_v = engines.sparse.ptc.n_v
    if t["granularity"] > n_v:
        raise ConfigError(f"targets.granularity={t['granularity']} exceeds the sparse PTC's n_v={n_v} rows")
    graph, tensors = load_model(cfg["paths"]["model"])
    if not graph.compressible_layers():
        raise ValueError(f"{cfg['paths']['model']}: model has no compressible layers")
    calib_inputs = load_calibration_inputs(cfg["paths"]["calibration"])
    model = ToyViT.from_tensors(graph, tensors)
    calib = collect_calibration(model, calib_inputs)

    dcfg = cfg["decomposition"]
    weights = {l.id: model.weights[l.id] for l in graph.compressible_layers()}
    del model
    scaling = {lid: compute_scaling(calib[lid]) for lid in weights}

    state = prepare_full_rank(
        [(lid, weights[lid]) for lid in weights],
        scaling,
        s=t["sparse_ratio"],
        g=t["granularity"],
    )
    b = basis_rank(graph.hidden_size, engines.dense.ptc.n_h, override=cfg["allocator"]["basis_rank"])
    plan = allocate_ranks(
        state,
        alpha=t["alpha"],
        sparse_ratio=t["sparse_ratio"],
        g=t["granularity"],
        b=b,
        threshold=cfg["allocator"]["threshold"],
        temperature=cfg["allocator"]["temperature"],
    )

    compressed: dict[str, Decomposition] = {}
    plan_by_id = {pl.id: pl for pl in plan.layers}
    for lid in weights:
        w, d, pl = weights[lid], scaling[lid], plan_by_id[lid]
        dec = decompose_layer(
            w, d, pl.r, t["sparse_ratio"], t["granularity"], iters=dcfg["iters"], start=state.starts.pop(lid)
        )
        dec = local_adapt(
            dec, w, calib[lid],
            steps=dcfg["adapt_steps"], lr=dcfg["adapt_lr"],
            seed=cfg["seed"], key=stable_key(lid),
        )
        compressed[lid] = dec
        pl.error = layer_error(w, d, dec)

    summary = {
        "alpha": t["alpha"],
        "psi_achieved": plan.psi_achieved,
        "iterations": plan.iterations,
        "layers": {pl.id: {"r": pl.r, "d": pl.d} for pl in plan.layers},
    }
    return graph, tensors, compressed, plan, summary


def save_compressed(path, graph: ModelGraph, tensors: dict, compressed: dict[str, Decomposition]) -> None:
    """Write a compressed model: factors + condensed sparse per layer,
    untouched tensors (embedding, head, layernorms) as-is."""
    out: dict[str, np.ndarray] = {}
    comp_meta = {}
    for name, arr in tensors.items():
        if name not in compressed:
            out[name] = np.asarray(arr)
    for lid, cl in compressed.items():
        out[f"{lid}.a"] = cl.a
        out[f"{lid}.b"] = cl.b
        out[f"{lid}.sparse.values"] = cl.sparse.condensed
        out[f"{lid}.sparse.cols"] = cl.sparse.kept_cols.astype(np.int32)
        comp_meta[lid] = {"r": int(cl.a.shape[1]), "d": int(cl.sparse.kept_per_chunk), "g": cl.sparse.granularity}
    write_container(path, out, extra={"graph": graph.to_json(), "compressed_layers": comp_meta})


def load_compressed(path):
    """Read a compressed model; returns (graph, compressed layers, other tensors).

    The file's table is checked here, once (``container.check_tensors``):
    the model table (``model.dense_shapes``) for the dense tensors, and each
    compressed layer's factors and condensed sparse part at the ``r``, ``d``
    and ``g`` of its manifest entry; then its indices (``StructuredSparse.validate``).
    """
    manifest, tensors = read_container(path)
    graph = read_graph(path, manifest)
    comp_meta = check(manifest.get("compressed_layers", {}), OBJECT, f"{path}: compressed_layers")
    if not comp_meta:
        raise ValueError(f"{path}: container holds no compressed layers")
    specs = {l.id: l for l in graph.compressible_layers()}
    unknown = sorted(set(comp_meta) - set(specs))
    if unknown:
        raise ValueError(f"{path}: its graph has no compressible layer(s): {', '.join(unknown)}")
    check_tensors(path, tensors, dense_shapes(graph, skip=comp_meta))
    compressed = {}
    for lid, info in comp_meta.items():
        spec = specs[lid]
        info = read_record(info, _ENTRY_FIELDS, f"{path}: compressed layer {lid!r}:")
        rows, r, d = spec.rows, info["r"], info["d"]
        check_tensors(path, tensors, {
            f"{lid}.a": ("f32", (rows, r)),
            f"{lid}.b": ("f32", (r, spec.cols)),
            f"{lid}.sparse.values": ("f32", (rows, d)),
            f"{lid}.sparse.cols": ("i32", (-(-rows // info["g"]), d)),
        })
        cl = Decomposition(
            a=np.asarray(tensors[f"{lid}.a"], dtype=np.float64),
            b=np.asarray(tensors[f"{lid}.b"], dtype=np.float64),
            sparse=StructuredSparse(
                granularity=info["g"],
                full_rows=spec.rows,
                full_cols=spec.cols,
                kept_cols=np.asarray(tensors[f"{lid}.sparse.cols"], dtype=np.int64),
                condensed=np.asarray(tensors[f"{lid}.sparse.values"], dtype=np.float64),
            ),
            objective_trace=[],
        )
        try:
            cl.sparse.validate()
        except ValueError as exc:
            raise ValueError(f"{path}: compressed layer {lid!r}: {exc}") from None
        compressed[lid] = cl
    factors = {f"{lid}.{part}" for lid in comp_meta for part in ("a", "b", "sparse.values", "sparse.cols")}
    others = {n: arr for n, arr in tensors.items() if n not in factors}
    return graph, compressed, others


# A compressed layer's manifest entry, checked by ``util.read_record``.
_ENTRY_FIELDS = {"r": COUNT, "d": COUNT, "g": COUNT}


def effective_tensors(graph: ModelGraph, compressed: dict[str, Decomposition], others: dict) -> dict:
    """Dense tensor bundle with compressed layers reconstructed, for inference."""
    tensors = dict(others)
    for lid, cl in compressed.items():
        tensors[lid] = cl.reconstruct()
    return tensors


def hardware_from_config(cfg: dict) -> tuple[EngineConfig, EnergyParams]:
    hw = cfg["hardware"]
    engines = load_engine_config(hw["engine_config"]) if hw["engine_config"] else EngineConfig.default()
    params = load_energy_params(hw["energy_params"]) if hw["energy_params"] else EnergyParams()
    return engines, params


# --- verification -------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def verify_artifacts(
    original_path,
    compressed_path,
    plan_path,
    calibration_path=None,
    quant_noise_ratio: float | None = None,
    seed: int = 0,
) -> list[CheckResult]:
    """Re-derive stored quantities from the artifacts and check consistency."""
    graph_o, tensors_o = load_model(original_path)
    graph_c, compressed, others = load_compressed(compressed_path)
    plan = read_plan(plan_path)
    plan_by_id = {pl.id: pl for pl in plan.layers}
    want = {l.id: (l.rows, l.cols) for l in graph_o.compressible_layers()}
    have = {lid: (cl.a.shape[0], cl.b.shape[1]) for lid, cl in compressed.items()}
    off = sorted(lid for lid in want.keys() | have.keys() if want.get(lid) != have.get(lid))
    if off:
        raise ValueError(f"compressed/original model mismatch at layer(s): {', '.join(off)}")
    check_plan_matches(plan, graph_o)
    stored = {lid: (cl.a.shape[1], cl.sparse.kept_per_chunk, cl.sparse.granularity) for lid, cl in compressed.items()}
    off = sorted(lid for lid, pl in plan_by_id.items()
                 if (pl.r, pl.d, pl.g, pl.params) != (*stored[lid], pl.r * (pl.rows + pl.cols) + pl.rows * pl.d))
    if off:
        raise ValueError(f"plan/compressed model mismatch at layer(s): {', '.join(off)}")
    shape_o, shape_c = _forward_shape(graph_o), _forward_shape(graph_c)
    off = [f"{name} {shape_c[name]} vs {value}" for name, value in shape_o.items() if shape_c[name] != value]
    if off:
        raise ValueError(f"compressed/original graph mismatch (compressed vs original): {'; '.join(off)}")

    # Each large object is released after the last check that reads it, so
    # that one dense model is held at a time: the original's float64 model
    # (its file's bytes go at once) through calibration, fidelity and its
    # drift forward; then the compressed model's, whose weights the quant-noise
    # check replaces one at a time by their quantized, then noisy, values.
    # Calibration keeps each layer's scaling, not its activation.
    model_o = ToyViT.from_tensors(graph_o, tensors_o)
    del tensors_o
    scaling = None
    if calibration_path is not None:
        scaling = collect_calibration(model_o, load_calibration_inputs(calibration_path), keep=compute_scaling)

    # One pass over layers that load_compressed has checked: condensed matmul
    # against expand-then-multiply, the recorded activation-aware error against
    # a recomputation (needs calibration), and the kept parameter count.
    worst_matmul = worst_error = 0.0
    kept = 0
    unrecorded = sorted(lid for lid, pl in plan_by_id.items() if pl.error is None)
    for lid, cl in compressed.items():
        x = philox_rng(seed, 5, stable_key(lid)).standard_normal((cl.sparse.full_cols, 8))
        worst_matmul = max(worst_matmul, float(np.abs(condensed_matmul(cl.sparse, x) - expand(cl.sparse) @ x).max()))
        if scaling is not None and not unrecorded:
            recomputed = layer_error(model_o.weights[lid], scaling[lid], cl)
            worst_error = max(worst_error, abs(recomputed - plan_by_id[lid].error))
        kept += cl.a.shape[1] * (cl.a.shape[0] + cl.b.shape[1]) + cl.sparse.full_rows * cl.sparse.kept_per_chunk

    checks = [CheckResult("condensed_matmul", worst_matmul <= 1e-9, f"max |condensed - dense| = {worst_matmul:.3e}")]
    if scaling is not None:
        detail = f"max |recorded - recomputed| layer error = {worst_error:.3e}"
        if unrecorded:
            detail = f"layer error not recorded for: {', '.join(unrecorded)}"
        checks.append(CheckResult("reconstruction_fidelity", not unrecorded and worst_error <= 1e-6, detail))

    # psi recomputed from actual stored tensor shapes, exact rational check.
    orig = sum(l.rows * l.cols for l in graph_c.compressible_layers())
    psi_exact = Fraction(orig - kept, orig)
    psi_ok = abs(float(psi_exact) - plan.psi_achieved) <= 1e-12 and psi_exact >= Fraction(plan.alpha)
    checks.append(
        CheckResult("psi_recomputation", psi_ok, f"psi = {float(psi_exact):.6f} vs target {plan.alpha}")
    )

    # Feature / logit drift between original and compressed model.
    probe = philox_rng(seed, 6).standard_normal((graph_o.layer("embed").cols, 16))
    logits_o, feats_o = forward(model_o, probe)
    del model_o
    model_c = ToyViT.from_tensors(graph_c, effective_tensors(graph_c, compressed, others))
    del compressed, others  # the factors, and the compressed file's bytes that ``others`` views
    logits_c, feats_c = forward(model_c, probe)
    bdrift = block_loss(feats_c, feats_o)
    ldrift = logit_loss(logits_c[None, :], logits_o[None, :], np.array([int(np.argmax(logits_o))]))
    checks.append(
        CheckResult(
            "distillation_drift",
            bool(np.isfinite(bdrift) and np.isfinite(ldrift)),
            f"block_loss = {bdrift:.4f}, logit_loss = {ldrift:.4f}",
        )
    )

    if quant_noise_ratio is not None:
        quantize_weights(model_c.weights)
        lo, _ = forward(model_c, probe)
        with_noise(model_c.weights, quant_noise_ratio, seed)
        ln, _ = forward(model_c, probe)
        drift = float(np.abs(lo - ln).max())
        expected_zero = quant_noise_ratio == 0.0
        ok = drift == 0.0 if expected_zero else bool(np.isfinite(drift))
        checks.append(
            CheckResult("quant_noise", ok, f"max logit shift under quant+noise = {drift:.4e}")
        )
    return checks


def _forward_shape(graph: ModelGraph) -> dict:
    """What ``vit.forward`` reads of a graph beyond its compressible layers."""
    shape = {"hidden_size": graph.hidden_size, "meta.heads": graph.meta.get("heads", 1), "blocks": len(graph.blocks)}
    return shape | {end: (graph.layer(end).rows, graph.layer(end).cols) for end in ("embed", "head")}


def quantized_matmul_weights(weights: dict[str, np.ndarray], ratio: float, seed: int) -> dict[str, np.ndarray]:
    """Per-channel weight quantization, then optional multiplicative noise,
    as a new dict; ``weights`` is not written."""
    return with_noise(quantize_weights(dict(weights)), ratio, seed)


def quantize_weights(weights: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Replace each weight in ``weights`` by its per-channel quantization,
    dequantized, one at a time, so the old array can go before the next is
    made; returns ``weights``."""
    for name, w in weights.items():
        weights[name] = dequantize(quantize(w))
    return weights


def with_noise(weights: dict[str, np.ndarray], ratio: float, seed: int) -> dict[str, np.ndarray]:
    """Replace each weight in ``weights`` by ``quantize.inject_noise``'s
    product, keyed by its name; returns ``weights``. A ratio of 0 leaves them
    as they are; a negative ratio raises, as ``inject_noise`` does."""
    if ratio < 0:
        raise ValueError("noise ratio must be >= 0")
    if ratio == 0.0:
        return weights
    for name, w in weights.items():
        weights[name] = inject_noise(w, ratio, seed, key=stable_key(name))
    return weights
