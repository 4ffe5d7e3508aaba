"""Independent reference implementations used only as test oracles.

These deliberately avoid the code paths under test: the full SVD is a
textbook one-sided Jacobi (column-pair rotations until all cosines vanish),
validated against hand cases in test_linalg before it is trusted anywhere
else. The structured-sparsify oracle ranks each chunk's column norms with
a full stable sort, where the S-step partially sorts all chunks at once.
The PTC and condensed-sparse oracles are the plain per-block and
per-chunk loops that the batched functional model replaces; the slice-loop
PTC oracle is the one-product-per-slice loop that its stacked slice groups
must match byte for byte. The ViT
oracle forms each head's whole (tokens x tokens) softmax at once, as the
query-blocked attention kernel does not. The adapter oracle is the
gradient-descent loop on separate arrays that forms the error E explicitly
and E G as E @ G, with a gradient for every candidate; the alternation
oracle forms W D - A B afresh for each objective and the S-step. The
compress oracle keeps each layer's raw activation through the fit, where
``compress_model`` keeps its scaling and Gram. The plan oracle is the hand-written ``plan.json`` record that the field tables
of ``allocate`` replace. The cost-model oracle is ``simulate`` as a list of
passes per layer, each charged by its own call from the engine's
dimensions, which the per-call engine constants of ``photonic.simulate``
replace.
"""
from __future__ import annotations

import math

import numpy as np

from opticomp.allocate import allocate_ranks, basis_rank, prepare_full_rank
from opticomp.decompose import (
    FIT_FLOOR,
    compute_scaling,
    decompose_layer,
    expand,
    layer_error,
    local_adapt,
    structured_sparsify,
)
from opticomp.linalg import balanced_factors, frobenius_norm
from opticomp.model import load_model
from opticomp.pipeline import load_calibration_inputs
from opticomp.util import philox_rng, stable_key
from opticomp.vit import ToyViT, collect_calibration


def jacobi_svd(m: np.ndarray, max_sweeps: int = 60, tol: float = 1e-12):
    """Full SVD by one-sided Jacobi; returns (u, s, vt) sorted descending."""
    a = np.array(m, dtype=np.float64)
    transposed = a.shape[0] < a.shape[1]
    if transposed:
        a = a.T.copy()
    rows, cols = a.shape
    v = np.eye(cols)
    for _ in range(max_sweeps):
        rotated = False
        for p in range(cols - 1):
            for q in range(p + 1, cols):
                alpha = float(a[:, p] @ a[:, p])
                beta = float(a[:, q] @ a[:, q])
                gamma = float(a[:, p] @ a[:, q])
                if abs(gamma) <= tol * np.sqrt(alpha * beta) or gamma == 0.0:
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                ap = a[:, p].copy()
                a[:, p] = c * ap - s * a[:, q]
                a[:, q] = s * ap + c * a[:, q]
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if not rotated:
            break
    sigma = np.sqrt(np.sum(a * a, axis=0))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = np.zeros((rows, cols))
    nonzero = sigma > 0
    u[:, nonzero] = a[:, order][:, nonzero] / sigma[nonzero]
    v = v[:, order]
    if transposed:
        return v, sigma, u.T
    return u, sigma, v.T


def stable_sort_sparsify(residual: np.ndarray, g: int, s: float):
    """Per-chunk loop: each chunk keeps its top round(n*s) columns by L1
    norm, ranked by a stable argsort so ties go to the lower column index;
    returns (kept columns per chunk, condensed values)."""
    m, n = residual.shape
    d = int(round(n * s))
    kept, condensed = [], np.empty((m, d))
    for lo in range(0, m, g):
        hi = min(lo + g, m)
        norms = np.abs(residual[lo:hi]).sum(axis=0)
        cols = np.sort(np.argsort(-norms, kind="stable")[:d])
        kept.append(cols)
        condensed[lo:hi] = residual[lo:hi, cols]
    return np.array(kept), condensed


def blockwise_ptc_matmul(w: np.ndarray, x: np.ndarray, ptc) -> np.ndarray:
    """W @ X as one (n_h x n_lambda) @ (n_lambda x n_v) product per PTC
    block, accumulated over the inner blocks in order."""
    m, inner = w.shape
    batch = x.shape[1]
    n_h, n_l, n_v = ptc.n_h, ptc.n_lambda, ptc.n_v
    pr, pk, pb = -(-m // n_h), -(-inner // n_l), -(-batch // n_v)
    wp = np.zeros((pr * n_h, pk * n_l))
    wp[:m, :inner] = w
    xp = np.zeros((pk * n_l, pb * n_v))
    xp[:inner, :batch] = x
    out = np.zeros((pr * n_h, pb * n_v))
    for i in range(pr):
        rs = slice(i * n_h, (i + 1) * n_h)
        for j in range(pb):
            cs = slice(j * n_v, (j + 1) * n_v)
            acc = np.zeros((n_h, n_v))
            for k in range(pk):
                ks = slice(k * n_l, (k + 1) * n_l)
                acc += wp[rs, ks] @ xp[ks, cs]
            out[rs, cs] = acc
    return out[:m, :batch]


def slice_loop_ptc_matmul(w: np.ndarray, x: np.ndarray, ptc) -> np.ndarray:
    """W @ X as one 2-D product per inner slice of n_lambda, added into
    zeros in slice order."""
    n_l = ptc.n_lambda
    acc = np.zeros((w.shape[0], x.shape[1]))
    for k in range(0, w.shape[1], n_l):
        acc += w[:, k:k + n_l] @ x[k:k + n_l]
    return acc


def chunkwise_condensed_matmul(sp, x: np.ndarray) -> np.ndarray:
    """expand(sp) @ x as one product per row chunk of the condensed form."""
    out = np.empty((sp.full_rows, x.shape[1]))
    for i in range(sp.num_chunks):
        lo, hi = sp.chunk_rows(i)
        out[lo:hi] = sp.condensed[lo:hi] @ x[sp.kept_cols[i]]
    return out


def full_matrix_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> np.ndarray:
    """Per head: probs = softmax over rows of q^T k / sqrt(dh), a full
    (tokens x tokens) matrix normalised before the value product v probs^T."""
    dh = q.shape[0] // heads
    out = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        z = q[sl].T @ k[sl] / math.sqrt(dh)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        out.append(v[sl] @ (e / e.sum(axis=1, keepdims=True)).T)
    return np.concatenate(out, axis=0)


def full_matrix_forward(model, inputs: np.ndarray):
    """The toy ViT forward of one (in_dim x tokens) matrix, with
    ``full_matrix_attention``; returns (logits, [attn, mlp] features per
    block), each feature (tokens x hidden)."""
    w, ln = model.weights, model.ln_params
    gelu = np.vectorize(lambda t: 0.5 * t * (1.0 + math.erf(t / math.sqrt(2.0))), otypes=[np.float64])

    def layernorm(x, name):
        mu, var = x.mean(axis=0, keepdims=True), x.var(axis=0, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-6) * ln[f"{name}.weight"][:, None] + ln[f"{name}.bias"][:, None]

    x = w["embed"] @ inputs
    feats = []
    for i in range(model.num_blocks):
        n = layernorm(x, f"block{i}.ln1")
        q, k, v = (w[f"block{i}.attn.{p}"] @ n for p in ("q", "k", "v"))
        x = x + w[f"block{i}.attn.o"] @ full_matrix_attention(q, k, v, model.heads)
        feats.append(x.T)
        n = layernorm(x, f"block{i}.ln2")
        x = x + w[f"block{i}.mlp.fc2"] @ gelu(w[f"block{i}.mlp.fc1"] @ n)
        feats.append(x.T)
    return w["head"] @ x.mean(axis=1), feats


def explicit_error_local_adapt(dec, w, x, steps=100, seed=0, key=0):
    """``local_adapt`` with E = A_eff B_eff - (W - S) and E @ G formed at
    every candidate, and the stopping floor from (W - S) @ G; returns the
    merged (a, b) and the objective trace."""

    def objective_and_grads(ua, va, ub, vb):
        a_eff = dec.a + ua @ va
        b_eff = dec.b + ub @ vb
        err = a_eff @ b_eff - target
        err_g = err @ gram
        ga = 2.0 * (err_g @ b_eff.T)
        gb = 2.0 * (a_eff.T @ err_g)
        return float(np.sum(err * err_g)), (ga @ va.T, ua.T @ ga, gb @ vb.T, ub.T @ gb)

    m, r = dec.a.shape
    q = max(1, r // 4)
    rng = philox_rng(seed, 3, key)
    params = (
        rng.uniform(-1e-3, 1e-3, size=(m, q)),
        np.zeros((q, r)),
        rng.uniform(-1e-3, 1e-3, size=(r, q)),
        np.zeros((q, dec.b.shape[1])),
    )
    target = w - expand(dec.sparse)
    gram = x @ x.T
    f, grads = objective_and_grads(*params)
    trace = [f]
    step_lr = 1e-2  # decompose.ADAPT_LR
    floor = FIT_FLOOR * float(np.sum(target * (target @ gram)))
    for _ in range(steps):
        if f <= floor:
            break
        assert all(np.all(np.isfinite(gr)) for gr in grads)
        while True:
            cand = tuple(p - step_lr * gr for p, gr in zip(params, grads))
            f_new, grads_new = objective_and_grads(*cand)
            if f_new <= f:
                break
            step_lr *= 0.5
            if step_lr < 1e-8:
                break
        if f_new > f:
            break
        params, f, grads = cand, f_new, grads_new
        trace.append(f)
    ua, va, ub, vb = params
    return dec.a + ua @ va, dec.b + ub @ vb, trace


def recomputing_alternate(wd, first, s, g, iters):
    """``decompose.alternate`` with W D - A B formed anew for the L-step
    objective, the S-step input and the S-step objective."""
    sparse = structured_sparsify(np.zeros_like(wd), g, s)
    sparse_exp = expand(sparse)
    trace, best = [], None
    a, b = balanced_factors(first)
    for it in range(iters):
        if it:
            resid = wd - sparse_exp
            a, _ = np.linalg.qr(resid @ b.T)
            b = a.T @ resid
        low = a @ b
        obj = frobenius_norm(wd - low - sparse_exp)
        trace.append(obj)
        if best is None or obj < best[0]:
            best = (obj, sparse)
        sparse = structured_sparsify(wd - low, g, s)
        sparse_exp = expand(sparse)
        obj = frobenius_norm(wd - low - sparse_exp)
        trace.append(obj)
        if obj < best[0]:
            best = (obj, sparse)
    return trace, best[1]


def activation_keeping_compress(cfg: dict, engines):
    """``pipeline.compress_model`` as it was when the calibration pass kept
    every layer's raw activation X: ``compute_scaling`` of X after the pass,
    and ``local_adapt`` given X; returns (graph, tensors, compressed, plan)."""
    t, dcfg = cfg["targets"], cfg["decomposition"]
    graph, tensors = load_model(cfg["paths"]["model"])
    model = ToyViT.from_tensors(graph, tensors)
    calib = collect_calibration(model, load_calibration_inputs(cfg["paths"]["calibration"]))
    weights = {l.id: model.weights[l.id] for l in graph.compressible_layers()}
    scaling = {lid: compute_scaling(calib[lid]) for lid in weights}
    state = prepare_full_rank(list(weights.items()), scaling, s=t["sparse_ratio"], g=t["granularity"])
    plan = allocate_ranks(
        state,
        alpha=t["alpha"],
        sparse_ratio=t["sparse_ratio"],
        g=t["granularity"],
        b=basis_rank(graph.hidden_size, engines.dense.ptc.n_h),
    )
    compressed = {}
    plan_by_id = {pl.id: pl for pl in plan.layers}
    for lid in weights:
        w, d, pl = weights[lid], scaling[lid], plan_by_id[lid]
        dec = decompose_layer(
            w, d, pl.r, t["sparse_ratio"], t["granularity"], iters=dcfg["iters"], start=state.starts[lid]
        )
        dec = local_adapt(
            dec, w, calib[lid], steps=dcfg["adapt_steps"], seed=cfg["seed"], key=stable_key(lid)
        )
        compressed[lid] = dec
        pl.error = layer_error(w, d, dec)
    return graph, tensors, compressed, plan


def hand_written_plan_json(plan) -> dict:
    """The stored record of a CompressionPlan, every field written out."""
    return {
        "alpha": plan.alpha,
        "sparse_ratio": plan.sparse_ratio,
        "psi_achieved": plan.psi_achieved,
        "iterations": plan.iterations,
        "layers": [
            {
                "id": l.id,
                "rows": l.rows,
                "cols": l.cols,
                "r": l.r,
                "d": l.d,
                "g": l.g,
                "params": l.params,
                "error": l.error,
            }
            for l in plan.layers
        ],
    }


def _pass(engine, params, row_blocks, lit_rows, inner, batch, broadcast, adc_sharing):
    """Invocations and (weight encode, input encode, readout) energy of one
    engine pass: ``row_blocks`` weight row blocks of ``lit_rows`` lit rows
    each, against an (inner x batch) input."""
    ptc = engine.ptc
    inv = row_blocks * math.ceil(inner / ptc.n_lambda) * -(-batch // ptc.n_v)
    input_events = inv * ptc.n_lambda * ptc.n_v
    if broadcast and engine.tiles > 1:
        input_events /= engine.tiles
    outputs = inv * lit_rows * ptc.n_v
    adc_events = outputs / engine.cores_per_tile if adc_sharing else outputs
    return (
        inv,
        inv * lit_rows * ptc.n_lambda * (params.dac_weight + params.modulation),
        input_events * (params.dac_input + params.modulation),
        outputs * params.tia + adc_events * params.adc,
    )


def pass_ledger_simulate(plan, graph, engines, params, batch_tokens=197):
    """``photonic.simulate`` as one pass list per layer, each pass charged by
    ``_pass`` from the engine's dimensions, a fresh component dict per layer
    and a second loop for the totals; the report's total is added left to
    right from 0.0. The ``LayerCost`` list is packaged into the report's
    arrays at the end."""
    from opticomp.allocate import check_plan_matches
    from opticomp.photonic import (
        ACT_BYTES, COMPONENTS, INDEX_BYTES, LAYER_COUNTS, WEIGHT_BYTES, CostReport, LayerCost, laser_energy,
        operating_height,
    )

    ceil = math.ceil
    dense, sparse = engines.dense, engines.sparse
    if batch_tokens < 1:
        raise ValueError("batch_tokens must be >= 1")
    if dense.cores < 1:
        raise ValueError("dense engine needs at least one core")
    plan_by_id = {}
    if plan is not None:
        check_plan_matches(plan, graph)
        plan_by_id = {pl.id: pl for pl in plan.layers}
        if sparse.cores == 0:
            raise ValueError("compressed plan given but the sparse engine has no tiles")

    n_h, bc, adc = dense.ptc.n_h, engines.broadcast_enabled, engines.adc_sharing_enabled
    per_layer = []
    totals = dict.fromkeys(COMPONENTS, 0.0)
    for layer in graph.layers:
        e = dict.fromkeys(COMPONENTS, 0.0)
        pl = plan_by_id.get(layer.id) if layer.compressible else None
        # Each pass: (on the sparse engine, row blocks, lit rows, inner, broadcast).
        if pl is None:
            passes = [(False, ceil(layer.rows / n_h), n_h, layer.cols, bc)]
            dram_bytes = layer.rows * layer.cols * WEIGHT_BYTES
            sram_bytes = (layer.cols + layer.rows) * batch_tokens * ACT_BYTES
        else:
            chunks = ceil(layer.rows / pl.g)
            h_op = operating_height(pl.g, sparse.ptc)
            passes = [
                (False, ceil(pl.r / n_h), n_h, layer.cols, bc),  # B X
                (False, ceil(layer.rows / n_h), n_h, pl.r, bc),  # A (B X)
                (True, chunks, h_op, pl.d, False),  # sparse tiles cannot broadcast
            ]
            dram_bytes = (
                (pl.r * (layer.rows + layer.cols) + layer.rows * pl.d) * WEIGHT_BYTES
                + chunks * pl.d * INDEX_BYTES
            )
            sram_bytes = (
                (layer.cols + 2 * pl.r + layer.rows) * batch_tokens
                + chunks * pl.d * batch_tokens
            ) * ACT_BYTES
            e["index_overhead"] = chunks * pl.d * batch_tokens * params.index_fetch

        invocations = [0, 0]  # dense, sparse
        for on_sparse, row_blocks, lit_rows, inner, broadcast in passes:
            engine = sparse if on_sparse else dense
            inv, weight, inputs, readout = _pass(engine, params, row_blocks, lit_rows, inner, batch_tokens, broadcast, adc)
            invocations[on_sparse] += inv
            e["weight_encode"] += weight
            e["input_encode"] += inputs
            e["readout"] += readout
        dense_inv, sparse_inv = invocations
        dense_cycles = -(-dense_inv // dense.cores)
        sparse_cycles = 0
        if pl is not None:
            sparse_cycles = -(-sparse_inv // sparse.cores)
            e["laser"] = laser_energy(params, sparse.ptc, h_op, sparse.cores, sparse_cycles)
        e["laser"] += params.laser_per_channel_cycle * dense.ptc.n_lambda * dense.ptc.n_v * dense.cores * dense_cycles
        e["data_movement"] = dram_bytes * params.dram_per_byte + sram_bytes * params.sram_per_byte

        for comp in COMPONENTS:
            totals[comp] += e[comp]
        cycles = max(dense_cycles, sparse_cycles)
        per_layer.append(LayerCost(layer.id, dense_inv, sparse_inv, dense_cycles, sparse_cycles, cycles, e))

    cycles = sum(lc.cycles for lc in per_layer)
    latency = cycles / (params.clock_ghz * 1e9)
    total = 0.0
    for value in totals.values():
        total += value
    return CostReport(
        energy=totals, cycles=cycles, latency_s=latency, edp=total * latency,
        layer_ids=tuple(lc.layer_id for lc in per_layer),
        counts=np.array([[getattr(lc, name) for name in LAYER_COUNTS] for lc in per_layer], dtype=np.int64)
        .reshape(-1, len(LAYER_COUNTS)),
        energies=np.array([[lc.energy[comp] for comp in COMPONENTS] for lc in per_layer], dtype=np.float64)
        .reshape(-1, len(COMPONENTS)),
    )
