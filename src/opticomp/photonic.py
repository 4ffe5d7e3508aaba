"""Analytical model of a dual-engine photonic accelerator.

Functional side: a photonic tensor core (PTC) of size (n_v, n_h, n_lambda)
multiplies an (n_h x n_lambda) weight block by an (n_lambda x n_v)
activation block per invocation; full layers are tiled over those blocks,
and condensed sparse chunks run on a reconfigurable engine whose input
light can be gated in quarters of its n_v rows through a two-stage
splitter tree (modes 2:0 / 1:1 / 0:2).

Cost side, per layer. A dense-engine matmul of (rows x inner) by
(inner x batch) needs

    inv = ceil(rows / n_h) * ceil(inner / n_lambda) * ceil(batch / n_v)

invocations; low-rank layers run two chained passes (B X, then A (B X))
with the (r x batch) intermediate bounced through the output buffer. The
sparse engine runs ceil(m / g) condensed chunks at the smallest quarter
multiple of its n_v at or above g; gated quarters draw no laser power, but
rows between g and that boundary stay lit and are charged. Engine cycles
are ceil(invocations / cores); the two engines run a layer concurrently
and accumulate in the analog domain, so a layer costs max(dense, sparse)
cycles. Energy events per invocation:

    weight encode   rows_encoded * n_lambda * (dac_weight + modulation)
    input encode    n_lambda * n_v * (dac_input + modulation), divided by
                    the dense tile count when input broadcast is enabled
                    (sparse tiles cannot broadcast)
    readout         outputs * tia, plus outputs * adc where ADC events are
                    divided by cores_per_tile when ADC/TIA sharing is on
    laser           laser_per_channel_cycle * n_lambda * (n_v/4) * cores
                    * cycles, times the number of active quarters
    index fetch     one event per gathered input element, sparse side only

Data movement charges DRAM for weight + index bytes (once per layer) and
SRAM for activation traffic, at 1 byte per 8-bit value and 2 bytes per
index. The default event energies are placeholders in picojoules, chosen
for plausible relative magnitudes; they are configuration, not measured
silicon.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from enum import Enum
from math import ceil

import numpy as np

from .allocate import CompressionPlan
from .decompose import StructuredSparse
from .model import ModelGraph
from .util import as_matrix

WEIGHT_BYTES = 1  # 8-bit weights
ACT_BYTES = 1  # 8-bit activations
INDEX_BYTES = 2


@dataclass(frozen=True)
class PtcConfig:
    n_v: int
    n_h: int
    n_lambda: int

    def __post_init__(self):
        if min(self.n_v, self.n_h, self.n_lambda) < 1:
            raise ValueError("PTC dimensions must all be >= 1")

    def require_quarters(self) -> int:
        if self.n_v % 4 != 0:
            raise ValueError(f"row gating needs n_v divisible by 4, got {self.n_v}")
        return self.n_v // 4


@dataclass(frozen=True)
class EngineBlock:
    tiles: int
    cores_per_tile: int
    ptc: PtcConfig

    def __post_init__(self):
        if self.tiles < 0 or self.cores_per_tile < 1:
            raise ValueError("tile/core counts must be positive")

    @property
    def cores(self) -> int:
        return self.tiles * self.cores_per_tile


@dataclass(frozen=True)
class EngineConfig:
    dense: EngineBlock
    sparse: EngineBlock
    broadcast_enabled: bool = True
    adc_sharing_enabled: bool = True

    @classmethod
    def default(cls) -> "EngineConfig":
        return cls(
            dense=EngineBlock(tiles=4, cores_per_tile=2, ptc=PtcConfig(12, 12, 12)),
            sparse=EngineBlock(tiles=3, cores_per_tile=2, ptc=PtcConfig(8, 12, 12)),
        )

    @classmethod
    def baseline_scaled(cls) -> "EngineConfig":
        """Dense-only reference with two extra tiles to match peak compute."""
        return cls(
            dense=EngineBlock(tiles=6, cores_per_tile=2, ptc=PtcConfig(12, 12, 12)),
            sparse=EngineBlock(tiles=0, cores_per_tile=1, ptc=PtcConfig(8, 12, 12)),
        )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "EngineConfig":
        def block(d):
            return EngineBlock(d["tiles"], d["cores_per_tile"], PtcConfig(**d["ptc"]))

        return cls(
            dense=block(obj["dense"]),
            sparse=block(obj["sparse"]),
            broadcast_enabled=bool(obj.get("broadcast_enabled", True)),
            adc_sharing_enabled=bool(obj.get("adc_sharing_enabled", True)),
        )


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies in picojoules plus the optical clock."""

    dac_weight: float = 0.5
    dac_input: float = 0.5
    modulation: float = 0.4
    adc: float = 1.2
    tia: float = 0.3
    laser_per_channel_cycle: float = 0.15
    sram_per_byte: float = 0.1
    dram_per_byte: float = 20.0
    index_fetch: float = 0.05
    clock_ghz: float = 5.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value < 0:
                raise ValueError(f"energy parameter {name} must be >= 0")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "EnergyParams":
        return cls(**obj)


# --- functional PTC model ----------------------------------------------------


def ptc_matmul(w_blk: np.ndarray, x_blk: np.ndarray, ptc: PtcConfig) -> np.ndarray:
    """One PTC invocation: (n_h x n_lambda) times (n_lambda x n_v)."""
    w_blk = as_matrix(w_blk, "weight block")
    x_blk = as_matrix(x_blk, "input block")
    if w_blk.shape != (ptc.n_h, ptc.n_lambda):
        raise ValueError(f"weight block {w_blk.shape} != PTC ({ptc.n_h}, {ptc.n_lambda})")
    if x_blk.shape != (ptc.n_lambda, ptc.n_v):
        raise ValueError(f"input block {x_blk.shape} != PTC ({ptc.n_lambda}, {ptc.n_v})")
    return w_blk @ x_blk


def ptc_layer_matmul(w: np.ndarray, x: np.ndarray, ptc: PtcConfig) -> np.ndarray:
    """Full W @ X assembled from tiled PTC invocations (functional check path)."""
    w = as_matrix(w, "weight")
    x = as_matrix(x, "input")
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"cannot multiply {w.shape} by {x.shape}")
    m, inner = w.shape
    batch = x.shape[1]
    pr, pk, pb = ceil(m / ptc.n_h), ceil(inner / ptc.n_lambda), ceil(batch / ptc.n_v)
    wp = np.zeros((pr * ptc.n_h, pk * ptc.n_lambda))
    wp[:m, :inner] = w
    xp = np.zeros((pk * ptc.n_lambda, pb * ptc.n_v))
    xp[:inner, :batch] = x
    out = np.zeros((pr * ptc.n_h, pb * ptc.n_v))
    for i in range(pr):
        rs = slice(i * ptc.n_h, (i + 1) * ptc.n_h)
        for j in range(pb):
            cs = slice(j * ptc.n_v, (j + 1) * ptc.n_v)
            acc = np.zeros((ptc.n_h, ptc.n_v))
            for k in range(pk):  # analog accumulation over the inner dim
                ks = slice(k * ptc.n_lambda, (k + 1) * ptc.n_lambda)
                acc += ptc_matmul(wp[rs, ks], xp[ks, cs], ptc)
            out[rs, cs] = acc
    return out[:m, :batch].copy()


def condensed_matmul(sp: StructuredSparse, x: np.ndarray) -> np.ndarray:
    """expand(sp) @ x computed chunk-by-chunk from the condensed form."""
    x = as_matrix(x, "input")
    if x.shape[0] != sp.full_cols:
        raise ValueError(f"input has {x.shape[0]} rows, sparse component expects {sp.full_cols}")
    if sp.kept_cols.min() < 0 or sp.kept_cols.max() >= sp.full_cols:
        raise IndexError("kept column index out of range for this input")
    out = np.empty((sp.full_rows, x.shape[1]))
    for i in range(sp.num_chunks):
        lo, hi = sp.chunk_rows(i)
        out[lo:hi] = sp.condensed[lo:hi] @ x[sp.kept_cols[i]]
    return out


# --- splitter planning --------------------------------------------------------


class SplitterState(Enum):
    EQUAL = "1:1"
    FULL_A = "2:0"
    FULL_B = "0:2"


@dataclass(frozen=True)
class SplitterPlan:
    stage1: SplitterState
    stage2: tuple[SplitterState, SplitterState]  # (upper branch, lower branch)
    active_quarters: tuple[int, ...]


def plan_splitters(active_rows: int, ptc: PtcConfig) -> SplitterPlan:
    """Two-stage splitter states powering exactly ``active_rows`` PTC rows.

    The tree splits light into quarters 0..3; branch A feeds quarters 0-1,
    branch B feeds 2-3. Lower-numbered quarters are kept active.
    """
    quarter = ptc.require_quarters()
    if active_rows % quarter != 0 or not quarter <= active_rows <= ptc.n_v:
        raise ValueError(
            f"active_rows={active_rows} is not a multiple of n_v/4={quarter}; "
            f"round the operating height up to the next quarter"
        )
    level = active_rows // quarter
    if level == 4:
        return SplitterPlan(SplitterState.EQUAL, (SplitterState.EQUAL, SplitterState.EQUAL), (0, 1, 2, 3))
    if level == 3:
        return SplitterPlan(SplitterState.EQUAL, (SplitterState.EQUAL, SplitterState.FULL_A), (0, 1, 2))
    if level == 2:
        return SplitterPlan(SplitterState.FULL_A, (SplitterState.EQUAL, SplitterState.EQUAL), (0, 1))
    return SplitterPlan(SplitterState.FULL_A, (SplitterState.FULL_A, SplitterState.EQUAL), (0,))


def operating_height(g: int, ptc: PtcConfig) -> int:
    """Smallest quarter multiple of n_v at or above the chunk height."""
    quarter = ptc.require_quarters()
    if g > ptc.n_v:
        raise ValueError(f"chunk height {g} exceeds sparse PTC rows {ptc.n_v}")
    return quarter * ceil(g / quarter)


def laser_energy(params: EnergyParams, ptc: PtcConfig, active_rows: int, cores: int, cycles: int) -> float:
    """Laser draw; exactly linear in the number of powered quarters."""
    quarter = ptc.require_quarters()
    quarters = active_rows // quarter
    unit = params.laser_per_channel_cycle * ptc.n_lambda * quarter * cores * cycles
    return unit * quarters


# --- cost simulation ----------------------------------------------------------

COMPONENTS = ("data_movement", "weight_encode", "input_encode", "readout", "laser", "index_overhead")


@dataclass
class LayerCost:
    layer_id: str
    dense_invocations: int
    sparse_invocations: int
    dense_cycles: int
    sparse_cycles: int
    cycles: int
    energy: dict[str, float]

    @property
    def total_energy(self) -> float:
        return sum(self.energy.values())


@dataclass
class CostReport:
    energy: dict[str, float]
    cycles: int
    latency_s: float
    edp: float
    per_layer: list[LayerCost]

    @property
    def total_energy(self) -> float:
        return sum(self.energy.values())

    def to_json(self) -> dict:
        return {
            "energy_pj": self.energy,
            "total_energy_pj": self.total_energy,
            "cycles": self.cycles,
            "latency_s": self.latency_s,
            "edp_pj_s": self.edp,
            "per_layer": [
                {
                    "id": lc.layer_id,
                    "dense_invocations": lc.dense_invocations,
                    "sparse_invocations": lc.sparse_invocations,
                    "dense_cycles": lc.dense_cycles,
                    "sparse_cycles": lc.sparse_cycles,
                    "cycles": lc.cycles,
                    "energy_pj": lc.energy,
                }
                for lc in self.per_layer
            ],
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "component", "energy_pj"])
            for lc in self.per_layer:
                for comp in COMPONENTS:
                    writer.writerow([lc.layer_id, comp, repr(lc.energy[comp])])


def _zero_energy() -> dict[str, float]:
    return {c: 0.0 for c in COMPONENTS}


def _dense_pass(
    rows: int,
    inner: int,
    batch: int,
    engine: EngineBlock,
    params: EnergyParams,
    broadcast: bool,
    adc_sharing: bool,
) -> tuple[int, dict[str, float]]:
    """Invocations and per-event energy for one dense-engine matmul pass."""
    ptc = engine.ptc
    inv = ceil(rows / ptc.n_h) * ceil(inner / ptc.n_lambda) * ceil(batch / ptc.n_v)
    e = _zero_energy()
    e["weight_encode"] = inv * ptc.n_h * ptc.n_lambda * (params.dac_weight + params.modulation)
    input_events = inv * ptc.n_lambda * ptc.n_v
    if broadcast and engine.tiles > 1:
        input_events /= engine.tiles
    e["input_encode"] = input_events * (params.dac_input + params.modulation)
    outputs = inv * ptc.n_h * ptc.n_v
    adc_events = outputs / engine.cores_per_tile if adc_sharing else outputs
    e["readout"] = outputs * params.tia + adc_events * params.adc
    return inv, e


def _sparse_pass(
    m: int,
    d: int,
    batch: int,
    g: int,
    engine: EngineBlock,
    params: EnergyParams,
    adc_sharing: bool,
) -> tuple[int, int, dict[str, float]]:
    """Invocations, operating height, and energy for a condensed sparse layer."""
    ptc = engine.ptc
    h_op = operating_height(g, ptc)
    chunks = ceil(m / g)
    inv = chunks * ceil(d / ptc.n_lambda) * ceil(batch / ptc.n_v)
    e = _zero_energy()
    e["weight_encode"] = inv * h_op * ptc.n_lambda * (params.dac_weight + params.modulation)
    # No broadcast on the sparse side: every tile gathers its own inputs.
    e["input_encode"] = inv * ptc.n_lambda * ptc.n_v * (params.dac_input + params.modulation)
    outputs = inv * h_op * ptc.n_v
    adc_events = outputs / engine.cores_per_tile if adc_sharing else outputs
    e["readout"] = outputs * params.tia + adc_events * params.adc
    e["index_overhead"] = chunks * d * batch * params.index_fetch
    return inv, h_op, e


def simulate(
    plan: CompressionPlan | None,
    graph: ModelGraph,
    engines: EngineConfig,
    params: EnergyParams,
    batch_tokens: int = 197,
) -> CostReport:
    """Static-schedule cost model over every layer of the graph.

    With a plan, compressible layers run low-rank factors on the dense
    engine and condensed chunks on the sparse engine concurrently;
    embedding/head (and everything, in baseline mode) run as raw dense
    matmuls. The plan must cover every compressible layer.
    """
    if batch_tokens < 1:
        raise ValueError("batch_tokens must be >= 1")
    if engines.dense.cores < 1:
        raise ValueError("dense engine needs at least one core")
    # None or an empty plan both mean the raw dense baseline.
    plan_by_id = {} if plan is None or not plan.layers else {pl.id: pl for pl in plan.layers}
    if plan_by_id:
        want = {l.id for l in graph.compressible_layers()}
        have = set(plan_by_id)
        if want != have:
            missing = sorted(want - have) + sorted(have - want)
            raise ValueError(f"plan/model mismatch at layer(s): {', '.join(missing)}")

    per_layer: list[LayerCost] = []
    total_cycles = 0
    totals = _zero_energy()
    for layer in graph.layers:
        e = _zero_energy()
        pl = plan_by_id.get(layer.id) if layer.compressible else None
        dense_inv = 0
        sparse_inv = 0
        sparse_cycles = 0
        if pl is None:
            inv, pe = _dense_pass(
                layer.rows, layer.cols, batch_tokens, engines.dense, params,
                engines.broadcast_enabled, engines.adc_sharing_enabled,
            )
            dense_inv = inv
            for k, v in pe.items():
                e[k] += v
            dram_bytes = layer.rows * layer.cols * WEIGHT_BYTES
            sram_bytes = (layer.cols + layer.rows) * batch_tokens * ACT_BYTES
        else:
            inv1, pe1 = _dense_pass(
                pl.r, layer.cols, batch_tokens, engines.dense, params,
                engines.broadcast_enabled, engines.adc_sharing_enabled,
            )
            inv2, pe2 = _dense_pass(
                layer.rows, pl.r, batch_tokens, engines.dense, params,
                engines.broadcast_enabled, engines.adc_sharing_enabled,
            )
            dense_inv = inv1 + inv2
            for pe in (pe1, pe2):
                for k, v in pe.items():
                    e[k] += v
            if engines.sparse.cores == 0:
                raise ValueError("compressed plan given but the sparse engine has no tiles")
            sparse_inv, h_op, se = _sparse_pass(
                layer.rows, pl.d, batch_tokens, pl.g, engines.sparse, params,
                engines.adc_sharing_enabled,
            )
            for k, v in se.items():
                e[k] += v
            chunks = ceil(layer.rows / pl.g)
            dram_bytes = (
                (pl.r * (layer.rows + layer.cols) + layer.rows * pl.d) * WEIGHT_BYTES
                + chunks * pl.d * INDEX_BYTES
            )
            # Input read, intermediate (r x batch) write + read, output write,
            # plus per-chunk gathered input reads on the sparse side.
            sram_bytes = (
                (layer.cols + 2 * pl.r + layer.rows) * batch_tokens
                + chunks * pl.d * batch_tokens
            ) * ACT_BYTES
            sparse_cycles = ceil(sparse_inv / engines.sparse.cores)
            e["laser"] += laser_energy(params, engines.sparse.ptc, h_op, engines.sparse.cores, sparse_cycles)

        dense_cycles = ceil(dense_inv / engines.dense.cores) if dense_inv else 0
        e["laser"] += laser_energy(
            params, engines.dense.ptc, engines.dense.ptc.n_v, engines.dense.cores, dense_cycles
        )
        e["data_movement"] = dram_bytes * params.dram_per_byte + sram_bytes * params.sram_per_byte

        cycles = max(dense_cycles, sparse_cycles)
        total_cycles += cycles
        for k, v in e.items():
            totals[k] += v
        per_layer.append(
            LayerCost(
                layer_id=layer.id,
                dense_invocations=dense_inv,
                sparse_invocations=sparse_inv,
                dense_cycles=dense_cycles,
                sparse_cycles=sparse_cycles,
                cycles=cycles,
                energy=e,
            )
        )

    latency = total_cycles / (params.clock_ghz * 1e9)
    report = CostReport(energy=totals, cycles=total_cycles, latency_s=latency, edp=0.0, per_layer=per_layer)
    report.edp = edp(report)
    return report


def edp(report: CostReport) -> float:
    """Energy-delay product: total energy times total latency."""
    return report.total_energy * report.latency_s


def comparison(baseline: CostReport, compressed: CostReport) -> dict:
    """Side-by-side ratios (baseline / compressed); > 1 favors compression."""
    ratios = {}
    for comp in COMPONENTS:
        c = compressed.energy[comp]
        ratios[comp] = baseline.energy[comp] / c if c else None
    return {
        "baseline": {"energy_pj": baseline.total_energy, "latency_s": baseline.latency_s, "edp_pj_s": baseline.edp},
        "compressed": {
            "energy_pj": compressed.total_energy,
            "latency_s": compressed.latency_s,
            "edp_pj_s": compressed.edp,
        },
        "energy_ratio": baseline.total_energy / compressed.total_energy,
        "latency_ratio": baseline.latency_s / compressed.latency_s,
        "edp_ratio": baseline.edp / compressed.edp,
        "component_ratios": ratios,
    }


def load_engine_config(path) -> EngineConfig:
    with open(path) as fh:
        return EngineConfig.from_json(json.load(fh))


def load_energy_params(path) -> EnergyParams:
    with open(path) as fh:
        return EnergyParams.from_json(json.load(fh))
