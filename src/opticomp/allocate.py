"""Batch-wise greedy rank allocation under a global compression target.

The guide is one alternation per layer at its break-even rank
r_max = floor(m n / (m + n)): the exact rank-r_max SVD of W D, one
structured sparsify, and the singular values of W D - S, taken without
their vectors. Both spectra come from the smaller Gram matrix (``linalg``):
an ``eigh`` for the SVD, an ``eigvalsh`` for the values, whose squares are
what the tail sums read. Those values make the error at any rank
r <= r_max against that S follow from the singular-value tail, with no
further SVDs or data passes. Each layer keeps only that tail, ||W D||_F
and its sparse columns per chunk d. The rank-r_max SVD of W D is kept apart, in
``RankState.starts``: the fit at the assigned rank r <= r_max takes its top
r triplets as its first L-step instead of decomposing W D again.
The search raises ranks of high-error layers in batches until the
parameter budget runs out, leaving the achieved reduction psi at or above
the target alpha. The plan's file, plan.json, is defined here as well: its
field tables, its writer and reader, and its check against a model.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .decompose import ScalingDiag, alternate, expand
from .linalg import SvdResult, frobenius_norm, singular_values, truncated_svd
from .model import ModelGraph
from .util import COUNT, FINITE, INTEGER, LIST, STRING, nullable, read_record

BASE_SCALE_HIDDEN = 768  # hidden sizes at or above this use the full basis rank
BATCH_MASS = 0.5  # softmax mass a batch of high-error layers reaches


def max_rank(rows: int, cols: int) -> int:
    """Break-even rank: beyond this the factors store more than W itself."""
    return max(1, (rows * cols) // (rows + cols))


@dataclass
class LayerState:
    layer_id: str
    rows: int
    cols: int
    r_max: int
    rank: int
    d: int  # sparse columns kept per row chunk
    wd_norm: float
    tail_sq: np.ndarray  # tail_sq[r] = best_obj^2 + sum of sigma[r:]^2

    @property
    def unit_cost(self) -> int:
        return self.rows + self.cols

    def error_at(self, r: int) -> float:
        """Normalized scaled-domain error at rank r against the guide's S, O(1)."""
        if not 1 <= r <= self.r_max:
            raise ValueError(f"rank {r} outside [1, {self.r_max}] for layer {self.layer_id!r}")
        return math.sqrt(self.tail_sq[r]) / self.wd_norm

    @property
    def error(self) -> float:
        return self.error_at(self.rank)


@dataclass
class RankState:
    layers: list[LayerState]
    # layer id -> exact rank-r_max SVD of W D, for that layer's fit to start from
    starts: dict[str, SvdResult] = field(default_factory=dict)


def prepare_full_rank(
    layers: list[tuple[str, np.ndarray]],
    scaling: dict[str, ScalingDiag],
    s: float,
    g: int,
    iters: int = 1,
) -> RankState:
    """Fit every layer at its break-even rank to guide the allocator.

    One alternation, the default, is the pipeline's guide; more barely
    change the ranks the allocator assigns. An all-zero weight is rejected:
    its relative error has no denominator.
    """
    states, starts = [], {}
    for layer_id, w in layers:
        m, n = w.shape
        wd = w * scaling[layer_id].d[None, :]
        wd_norm = frobenius_norm(wd)
        if wd_norm == 0.0:
            raise ValueError(f"layer {layer_id!r} has an all-zero weight; its relative error is undefined")
        r_top = max_rank(m, n)
        starts[layer_id] = truncated_svd(wd, r_top)
        trace, sparse = alternate(wd, starts[layer_id], s, g, iters)
        # The closing refit's error, from the values alone: with the exact
        # rank-r_max fit against S, it is the norm of the tail past r_max.
        sigma = singular_values(wd - expand(sparse))
        trace.append(frobenius_norm(sigma[r_top:]))
        # tail_sq[r] = base^2 + sum_{r <= i < r_max} sigma_i^2, indexable at r = r_max
        suffix = np.concatenate([np.cumsum((sigma[:r_top] ** 2)[::-1])[::-1], [0.0]])
        states.append(
            LayerState(
                layer_id=layer_id,
                rows=m,
                cols=n,
                r_max=r_top,
                rank=r_top,
                d=sparse.kept_per_chunk,
                wd_norm=wd_norm,
                tail_sq=min(trace) ** 2 + suffix,
            )
        )
    return RankState(layers=states, starts=starts)


def basis_rank(hidden_size: int, ptc_dim: int) -> int:
    """Rank-step quantum: the PTC dimension, halved below base-scale models."""
    if hidden_size >= BASE_SCALE_HIDDEN:
        return ptc_dim
    return max(1, ptc_dim // 2)


def step_size(remaining: int, budget: int, b: int) -> int:
    """Linear-decay step schedule: 2b, then b, then ceil(b/2)."""
    if remaining >= budget / 2:
        return 2 * b
    if remaining >= budget / 4:
        return b
    return max(1, -(-b // 2))


def select_batch(errors: np.ndarray, saturated: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Pick the smallest high-error prefix whose softmax mass reaches ``BATCH_MASS``.

    Saturated layers are dropped before the softmax. Returns (indices,
    probabilities) ordered by descending probability, ties broken toward
    the lower layer index. Empty when everything is saturated.
    """
    errors = np.asarray(errors, dtype=np.float64)
    active = np.arange(len(errors))[~np.asarray(saturated, dtype=bool)]
    if len(active) == 0:
        return [], np.empty(0)
    z = errors[active]
    p = np.exp(z - z.max())
    p /= p.sum()
    order = np.argsort(-p, kind="stable")
    cum = 0.0
    batch: list[int] = []
    probs: list[float] = []
    for j in order:
        batch.append(int(active[j]))
        probs.append(float(p[j]))
        cum += p[j]
        if cum >= BATCH_MASS:
            break
    return batch, np.array(probs)


def redistribute(batch: list[int], probs: np.ndarray, delta_r: int, headroom: list[int]) -> list[int]:
    """Split |batch| * delta_r rank units proportionally to probability.

    Every member gets at least one unit; the proportional remainder is
    floored with leftovers handed out in descending-probability order.
    Headroom caps are honored, with overflow re-offered down the same
    order.
    """
    n = len(batch)
    inc = [1] * n
    rem = n * delta_r - n
    psum = float(np.sum(probs))
    extra = [int(rem * p / psum) for p in probs]
    leftover = rem - sum(extra)
    for i in range(n):
        inc[i] += extra[i]
    for i in range(n):  # descending-p order is the batch order
        if leftover == 0:
            break
        inc[i] += 1
        leftover -= 1
    overflow = 0
    for i in range(n):
        if inc[i] > headroom[i]:
            overflow += inc[i] - headroom[i]
            inc[i] = headroom[i]
    for i in range(n):
        if overflow == 0:
            break
        room = headroom[i] - inc[i]
        take = min(room, overflow)
        inc[i] += take
        overflow -= take
    return inc


@dataclass
class PlanLayer:
    id: str
    rows: int
    cols: int
    r: int
    d: int
    g: int
    params: int
    error: float | None = None


@dataclass
class CompressionPlan:
    alpha: float
    sparse_ratio: float
    layers: list[PlanLayer]
    psi_achieved: float
    iterations: int
    rank_trace: list[list[int]] = field(default_factory=list, repr=False)


# plan.json, one table per record: field -> (description, test), checked
# by ``util.read_record``. A layer's error may be null or absent.
PLAN_FIELDS = {"alpha": FINITE, "sparse_ratio": FINITE, "psi_achieved": FINITE, "iterations": INTEGER, "layers": LIST}
LAYER_FIELDS = {"id": STRING, "rows": INTEGER, "cols": INTEGER, "r": COUNT, "d": COUNT, "g": COUNT, "params": INTEGER,
                "error": nullable(FINITE)}


def write_plan(path, plan: CompressionPlan) -> None:
    """Write ``plan`` as canonical JSON: sorted keys, no spaces, one line."""
    obj = {name: getattr(plan, name) for name in PLAN_FIELDS}
    obj["layers"] = [{name: getattr(pl, name) for name in LAYER_FIELDS} for pl in plan.layers]
    Path(path).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def read_plan(path) -> CompressionPlan:
    """Read a plan, every field checked against its table; a defect raises
    ValueError naming the file, the layer and the field."""
    try:
        obj = read_record(json.loads(Path(path).read_text()), PLAN_FIELDS, "plan")
        obj["layers"] = [
            PlanLayer(**read_record(l, LAYER_FIELDS, f"plan layer {i}:", optional=("error",)))
            for i, l in enumerate(obj["layers"])
        ]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return CompressionPlan(**obj)


def check_plan_matches(plan: CompressionPlan, graph: ModelGraph) -> None:
    """The plan holds exactly the graph's compressible layers, each with the
    graph's (rows, cols); otherwise ValueError naming the layers that differ."""
    want = {l.id: (l.rows, l.cols) for l in graph.compressible_layers()}
    have = {pl.id: (pl.rows, pl.cols) for pl in plan.layers}
    if want != have:
        off = sorted(lid for lid in want.keys() | have.keys() if want.get(lid) != have.get(lid))
        raise ValueError(f"plan/model mismatch at layer(s): {', '.join(off)}")


def psi(plan: CompressionPlan) -> float:
    """Achieved parameter reduction; index storage is reported separately."""
    orig = sum(l.rows * l.cols for l in plan.layers)
    kept = sum(l.r * (l.rows + l.cols) + l.rows * l.d for l in plan.layers)
    return 1.0 - kept / orig


def allocate_ranks(
    state: RankState,
    alpha: float,
    sparse_ratio: float,
    g: int,
    b: int,
) -> CompressionPlan:
    """Greedy batch-wise rank search; see module docstring for the loop.

    Each batch is ``select_batch``'s: the highest-error unsaturated layers
    whose softmax mass reaches ``BATCH_MASS``.
    The plan's layers carry no error: the guide's prediction stays on
    ``state.layers``, and the pipeline records each fit's own error."""
    layers = state.layers
    original = sum(l.rows * l.cols for l in layers)
    sparse_params = sum(l.rows * l.d for l in layers)
    # Exact rational arithmetic: any integer spend within this budget keeps
    # the true reduction at or above alpha, with no float slack.
    budget = math.floor((1 - Fraction(alpha)) * original) - sparse_params
    if budget < 0:
        raise ValueError(
            f"sparse component alone ({sparse_params} params) already "
            f"violates the {alpha:.0%} reduction target"
        )

    for l in layers:
        l.rank = min(l.r_max, max(1, round(0.10 * l.r_max)))
    spent = sum(l.rank * l.unit_cost for l in layers)
    if spent > budget:
        raise ValueError(
            f"target infeasible at 10% floor: initial ranks cost {spent} "
            f"but the budget is {budget}"
        )

    trace = [[l.rank for l in layers]]
    iterations = 0
    while True:
        saturated = np.array([l.rank >= l.r_max for l in layers])
        batch, probs = select_batch([l.error for l in layers], saturated=saturated)
        if not batch:
            break
        delta_r = step_size(budget - spent, budget, b)
        increments = redistribute(batch, probs, delta_r, [layers[i].r_max - layers[i].rank for i in batch])
        applied = 0
        # Cheapest layers first so a tight remainder is not wasted on one
        # expensive increment.
        for i, want in sorted(zip(batch, increments), key=lambda t: (layers[t[0]].unit_cost, t[0])):
            layer = layers[i]
            units = min(want, (budget - spent) // layer.unit_cost)
            spent += units * layer.unit_cost
            layer.rank += units
            applied += units
        if applied == 0:
            break
        iterations += 1
        trace.append([l.rank for l in layers])

    plan_layers = [
        PlanLayer(
            id=l.layer_id,
            rows=l.rows,
            cols=l.cols,
            r=l.rank,
            d=l.d,
            g=g,
            params=l.rank * l.unit_cost + l.rows * l.d,
        )
        for l in layers
    ]
    plan = CompressionPlan(
        alpha=alpha,
        sparse_ratio=sparse_ratio,
        layers=plan_layers,
        psi_achieved=0.0,
        iterations=iterations,
        rank_trace=trace,
    )
    plan.psi_achieved = psi(plan)
    return plan
