"""Analytical model of a dual-engine photonic accelerator.

Functional side: a photonic tensor core (PTC) of size (n_v, n_h, n_lambda)
multiplies an (n_h x n_lambda) weight block by an (n_lambda x n_v)
activation block per invocation. In ``ptc_layer_matmul`` the invocations of
one inner slice of n_lambda are blocks of one 2-D product, and the slices'
products are summed in slice order, the analog accumulation over the inner
dimension. A layer takes one of two paths. With at least two whole slices,
more than one output element and at most ``PRODUCT_ELEMENTS`` elements in
all its whole-slice products, those are one stacked ``np.matmul``, summed
onto the zero accumulator in slice order by numpy's axis-0 reduce. Any
other layer runs the slice loop, one 2-D product per slice, which also
takes a stacked layer's short last slice. Either way the result is
byte-identical to adding one product per slice into zeros.
Condensed sparse chunks run on a reconfigurable engine whose input light
can be gated in quarters of its n_v rows through a two-stage splitter tree
(modes 2:0 / 1:1 / 0:2); functionally, each chunk's kept input rows are
gathered in one indexing step and multiplied by its condensed values.
``ptc_layer_matmul`` and ``condensed_matmul`` scan their operands on entry
(``util.as_matrix``), but not a sparse component's indices: those are
checked where they are made or read (``StructuredSparse.validate``).

Cost side, per layer. Both engines are charged through one pass ledger: a
pass of row_blocks weight row blocks with lit_rows lit PTC rows each,
against an (inner x batch) input, needs

    inv = row_blocks * ceil(inner / n_lambda) * ceil(batch / n_v)

invocations. A dense pass of a (rows x inner) matmul has row_blocks =
ceil(rows / n_h) and lit_rows = n_h; the baseline runs one per layer, a
low-rank layer two chained ones (B X, then A (B X)) with the (r x batch)
intermediate bounced through the output buffer. The sparse pass runs
ceil(m / g) condensed chunks with lit_rows the smallest quarter multiple
of its n_v at or above g; gated quarters draw no laser power, but rows
between g and that boundary stay lit and are charged. Engine cycles are
ceil(invocations / cores); the two engines run a layer concurrently and
accumulate in the analog domain, so a layer costs max(dense, sparse)
cycles. Energy events per invocation of a pass:

    weight encode   lit_rows * n_lambda * (dac_weight + modulation)
    input encode    n_lambda * n_v * (dac_input + modulation), divided by
                    the dense tile count when input broadcast is enabled
                    (sparse tiles cannot broadcast)
    readout         lit_rows * n_v outputs * tia, plus their adc events,
                    divided by cores_per_tile when ADC/TIA sharing is on

and per engine and layer:

    laser           laser_per_channel_cycle * n_lambda * lit rows * cores
                    * cycles; the dense engine has no splitter tree, so all
                    n_v rows are lit (no n_v % 4 needed), the sparse engine
                    lights n_v/4 rows per active quarter
    index fetch     chunks * d * batch gathered inputs, sparse side only

Data movement charges DRAM for weight + index bytes (once per layer) and
SRAM for activation traffic, at 1 byte per 8-bit value and 2 bytes per
index. The default event energies are placeholders in picojoules, chosen
for plausible relative magnitudes; they are configuration, not measured
silicon.

``simulate`` derives each engine's constants once per call (cores, column
blocks, input events per invocation and the broadcast and ADC divisors,
per-event units, per-byte and index-fetch energies, byte sizes, laser per
cycle, the sparse operating height per g); they feed a per-layer ledger of
a few integer block counts and multiplies per pass. Every ceiling (row,
inner and column blocks, chunks, kept-column blocks, cycles and the
operating height) is an exact integer one, so no count rounds past 2**53,
whether its operand is ``batch_tokens`` or a plan's ``r`` or ``d``. A
compressed layer's chunk count and stored values are
``decompose.num_chunks`` and ``decompose.stored_params``.
A layer's five counts and six energies are appended as one row to each of
two lists, and the report keeps them as two arrays made once per call:
``counts``, int64 rows in ``LAYER_COUNTS`` order, and ``energies``, float64
rows in ``COMPONENTS`` order, beside the tuple ``layer_ids``. A count past
int64 (a huge ``batch_tokens``) is a ValueError naming it. The totals are
the left-to-right sums of those rows: each component's energy column added
from 0.0 in layer order, on every Python version (``sum`` of floats is
compensated from 3.12), and the cycles as an exact int sum. ``per_layer``
builds the ``LayerCost`` list on access, from the arrays' ``tolist()``
values, and ``to_json`` and ``write_csv`` read it, so their output is that
of a ledger held as one object per layer.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .allocate import CompressionPlan, check_plan_matches
from .config import ConfigError
from .decompose import StructuredSparse, num_chunks, stored_params
from .model import ModelGraph
from .util import (
    BOOL, COUNT, FINITE, INTEGER, LIST, NATURAL, NON_NEGATIVE, OBJECT, POSITIVE, STRING, as_matrix, read_record,
)

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
            raise ValueError(
                f"engine block needs tiles >= 0 and cores_per_tile >= 1, "
                f"got tiles={self.tiles}, cores_per_tile={self.cores_per_tile}"
            )

    @property
    def cores(self) -> int:
        return self.tiles * self.cores_per_tile


@dataclass(frozen=True)
class EngineConfig:
    dense: EngineBlock
    sparse: EngineBlock
    broadcast_enabled: bool = True
    adc_sharing_enabled: bool = True

    def __post_init__(self):
        # Only the sparse engine gates rows, in quarters of n_v; the dense
        # engine keeps every row lit and takes any n_v.
        self.sparse.ptc.require_quarters()

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
    def from_json(cls, obj) -> "EngineConfig":
        """The engine config of a JSON object; ConfigError naming the dotted record and the field otherwise."""
        top = read_record(obj, _ENGINE_FIELDS, "engine config", ConfigError, optional=_SWITCHES)
        for side in ("dense", "sparse"):
            block = read_record(top[side], _BLOCK_FIELDS, f"engine config {side}:", ConfigError)
            ptc = read_record(block["ptc"], _PTC_FIELDS, f"engine config {side}.ptc:", ConfigError)
            top[side] = EngineBlock(block["tiles"], block["cores_per_tile"], PtcConfig(**ptc))
        return cls(**top)


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
    def from_json(cls, obj) -> "EnergyParams":
        """The energy params of a JSON object; ConfigError naming the field otherwise."""
        return cls(**read_record(obj, _PARAMS_FIELDS, "energy params", ConfigError, optional=_PARAMS_FIELDS))


# The hardware files, one table per record: field -> (description, test),
# checked by ``util.read_record``. A field with a default may be absent.
_PTC_FIELDS = dict.fromkeys(("n_v", "n_h", "n_lambda"), COUNT)
_BLOCK_FIELDS = {"tiles": NATURAL, "cores_per_tile": COUNT, "ptc": OBJECT}
_SWITCHES = ("broadcast_enabled", "adc_sharing_enabled")
_ENGINE_FIELDS = {"dense": OBJECT, "sparse": OBJECT, **dict.fromkeys(_SWITCHES, BOOL)}
_PARAMS_FIELDS = dict.fromkeys((f.name for f in fields(EnergyParams)), NON_NEGATIVE)


# --- functional PTC model ----------------------------------------------------

# Product elements the one stacked slice product of ``ptc_layer_matmul`` may
# hold (2 MiB of float64). Every bench layer's whole slices fit; a larger
# layer, such as a paper-scale (3072 x 197) output, runs the slice loop.
PRODUCT_ELEMENTS = 2**18


def ptc_layer_matmul(w: np.ndarray, x: np.ndarray, ptc: PtcConfig) -> np.ndarray:
    """Full W @ X as the PTC runs it (functional check path): each inner
    slice of n_lambda is one 2-D product, added into the output in slice
    order, the analog accumulation over the inner dimension. A slice's
    pr * pb invocations are independent blocks of that product, and padding
    would only add cut-away outputs and exact zeros, so nothing is padded.

    A layer with at least two whole slices, an output of more than one
    element and at most ``PRODUCT_ELEMENTS`` elements in all its whole-slice
    products forms them as one stacked ``np.matmul`` of a (slices, m,
    n_lambda) view of W by a (slices, n_lambda, batch) view of X. The zero
    accumulator is added into the first product, and an axis-0
    ``np.add.reduce`` sums the stack into it; numpy runs that reduce's inner
    loop over the output, adding the slices in order (a one-element output
    would be summed pairwise, hence the second condition). Every other
    layer, and a stacked layer's short last slice, runs the slice loop: one
    2-D product per slice, added in order. The result is byte-identical to
    adding one product per slice into zeros, which
    ``test_layer_matmul_is_byte_identical_to_the_slice_loop`` pins."""
    w = as_matrix(w, "weight")
    x = as_matrix(x, "input")
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"cannot multiply {w.shape} by {x.shape}")
    (m, inner), batch, n_l = w.shape, x.shape[1], ptc.n_lambda
    slices = inner // n_l
    acc = np.zeros((m, batch))
    full = 0
    if slices > 1 and m * batch > 1 and slices * m * batch <= PRODUCT_ELEMENTS:
        full = slices * n_l
        prods = np.matmul(w[:, :full].reshape(m, slices, n_l).swapaxes(0, 1), x[:full].reshape(slices, n_l, batch))
        prods[0] += acc
        np.add.reduce(prods, axis=0, out=acc)
    for k in range(full, inner, n_l):  # the slice loop, or the short last slice after the stack
        acc += w[:, k:k + n_l] @ x[k:k + n_l]
    return acc


def condensed_matmul(sp: StructuredSparse, x: np.ndarray) -> np.ndarray:
    """expand(sp) @ x computed from the condensed form: one gather of each
    chunk's kept input rows, then one product per chunk, of the condensed
    values as stored unless a ragged last chunk pads them to g rows."""
    x = as_matrix(x, "input")
    if x.shape[0] != sp.full_cols:
        raise ValueError(f"input has {x.shape[0]} rows, sparse component expects {sp.full_cols}")
    m, chunks, d, batch = sp.full_rows, sp.num_chunks, sp.kept_per_chunk, x.shape[1]
    g = min(sp.granularity, m)  # one chunk of m rows when g >= m
    values = sp.condensed
    if chunks * g > m:  # a ragged last chunk, padded to g rows
        values = np.zeros((chunks * g, d))
        values[:m] = sp.condensed
    gathered = x[sp.kept_cols]  # (chunks, d, batch)
    return (values.reshape(chunks, g, d) @ gathered).reshape(chunks * g, batch)[:m]


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
    return quarter * -(-g // quarter)


def laser_energy(params: EnergyParams, ptc: PtcConfig, active_rows: int, cores: int, cycles: int) -> float:
    """Laser draw; exactly linear in the number of powered quarters."""
    quarter = ptc.require_quarters()
    quarters = active_rows // quarter
    unit = params.laser_per_channel_cycle * ptc.n_lambda * quarter * cores * cycles
    return unit * quarters


# --- cost simulation ----------------------------------------------------------

COMPONENTS = ("data_movement", "weight_encode", "input_encode", "readout", "laser", "index_overhead")
LAYER_COUNTS = ("dense_invocations", "sparse_invocations", "dense_cycles", "sparse_cycles", "cycles")


def _left_sum(values) -> float:
    """``values`` added left to right from 0.0, as ``sum`` does up to Python
    3.11; from 3.12 ``sum`` of floats is compensated, and a report's totals
    would change with the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


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
        return _left_sum(self.energy.values())


@dataclass
class CostReport:
    """Totals, and per layer an id, its ``LAYER_COUNTS`` as a row of
    ``counts`` (int64) and its ``COMPONENTS`` energies as a row of
    ``energies`` (float64)."""

    energy: dict[str, float]
    cycles: int
    latency_s: float
    edp: float
    layer_ids: tuple[str, ...]
    counts: np.ndarray  # (layers, len(LAYER_COUNTS))
    energies: np.ndarray  # (layers, len(COMPONENTS))

    @property
    def total_energy(self) -> float:
        return _left_sum(self.energy.values())

    @property
    def per_layer(self) -> list[LayerCost]:
        """One ``LayerCost`` per layer, built on access; every count a Python
        int and every energy a Python float."""
        return [
            LayerCost(layer_id, *counts, dict(zip(COMPONENTS, energies)))
            for layer_id, counts, energies in zip(self.layer_ids, self.counts.tolist(), self.energies.tolist())
        ]

    def to_json(self) -> dict:
        return {
            "energy_pj": self.energy,
            "total_energy_pj": self.total_energy,
            "cycles": self.cycles,
            "latency_s": self.latency_s,
            "edp_pj_s": self.edp,
            "per_layer": [
                {"id": lc.layer_id, "energy_pj": lc.energy, **{name: getattr(lc, name) for name in LAYER_COUNTS}}
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


def simulate(
    plan: CompressionPlan | None,
    graph: ModelGraph,
    engines: EngineConfig,
    params: EnergyParams,
    batch_tokens: int = 197,
) -> CostReport:
    """Static-schedule cost model over every layer of the graph.

    ``plan=None`` is the raw dense baseline: every layer runs as a dense
    matmul. With a plan, compressible layers run low-rank factors on the
    dense engine and condensed chunks on the sparse engine concurrently;
    embedding/head run as raw dense matmuls. The plan must hold exactly the
    compressible layers at their shapes, so a plan with no layers is rejected.
    """
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

    # Engine constants, once per call. A pass's charges keep the IEEE
    # operations of the ledger in the module docstring, in its order:
    # (inv * lit_rows * n_lambda) * weight_unit, (inv * n_lambda * n_v) /
    # broadcast divisor * input_unit, outputs * tia + outputs / ADC divisor
    # * adc; a layer's passes are added in order, its totals layer by layer.
    weight_unit, input_unit = params.dac_weight + params.modulation, params.dac_input + params.modulation
    tia, adc, sharing = params.tia, params.adc, engines.adc_sharing_enabled
    dram_unit, sram_unit, index_unit = params.dram_per_byte, params.sram_per_byte, params.index_fetch
    weight_b, act_b, index_b = WEIGHT_BYTES, ACT_BYTES, INDEX_BYTES
    n_h, n_l, n_v, cores_d = dense.ptc.n_h, dense.ptc.n_lambda, dense.ptc.n_v, dense.cores
    cols_d = -(-batch_tokens // n_v)
    weight_d, inputs_d, outputs_d = n_h * n_l, n_l * n_v, n_h * n_v
    bc_d = dense.tiles if engines.broadcast_enabled and dense.tiles > 1 else 1
    adc_d = dense.cores_per_tile if sharing else 1
    laser_d = params.laser_per_channel_cycle * n_l * n_v * cores_d  # no splitter tree: all n_v rows lit
    if plan_by_id:
        s_l, s_v, cores_s = sparse.ptc.n_lambda, sparse.ptc.n_v, sparse.cores
        cols_s, inputs_s = -(-batch_tokens // s_v), s_l * s_v  # sparse tiles cannot broadcast
        adc_s = sparse.cores_per_tile if sharing else 1
        # Operating height per chunk height, checked in layer order.
        chunk_heights = dict.fromkeys(plan_by_id[l.id].g for l in graph.layers if l.id in plan_by_id)
        heights = {g: operating_height(g, sparse.ptc) for g in chunk_heights}
        quarter = sparse.ptc.require_quarters()
        laser_s = params.laser_per_channel_cycle * s_l * quarter * cores_s  # per cycle and lit quarter

    counts: list[tuple[int, ...]] = []  # one LAYER_COUNTS row per layer
    energies: list[tuple[float, ...]] = []  # one COMPONENTS row per layer
    for layer in graph.layers:
        rows, cols = layer.rows, layer.cols
        pl = plan_by_id.get(layer.id)
        if pl is None:
            dense_inv = -(-rows // n_h) * -(-cols // n_l) * cols_d
            out = dense_inv * outputs_d
            weight = dense_inv * weight_d * weight_unit
            inputs = dense_inv * inputs_d / bc_d * input_unit
            readout = out * tia + out / adc_d * adc
            sparse_inv = sparse_cycles = 0
            dense_cycles = -(-dense_inv // cores_d)
            laser = laser_d * dense_cycles
            index = 0.0
            dram_bytes = rows * cols * weight_b
            sram_bytes = (cols + rows) * batch_tokens * act_b
        else:
            r, d, h_op = pl.r, pl.d, heights[pl.g]
            chunks = num_chunks(rows, pl.g)
            inv_bx = -(-r // n_h) * -(-cols // n_l) * cols_d  # B X
            inv_abx = -(-rows // n_h) * -(-r // n_l) * cols_d  # A (B X)
            sparse_inv = chunks * -(-d // s_l) * cols_s  # condensed chunks at operating height h_op
            out_bx, out_abx, out_s = inv_bx * outputs_d, inv_abx * outputs_d, sparse_inv * h_op * s_v
            weight = (inv_bx * weight_d * weight_unit + inv_abx * weight_d * weight_unit
                      + sparse_inv * h_op * s_l * weight_unit)
            inputs = (inv_bx * inputs_d / bc_d * input_unit + inv_abx * inputs_d / bc_d * input_unit
                      + sparse_inv * inputs_s * input_unit)
            readout = (
                (out_bx * tia + out_bx / adc_d * adc)
                + (out_abx * tia + out_abx / adc_d * adc)
                + (out_s * tia + out_s / adc_s * adc)
            )
            dense_inv = inv_bx + inv_abx
            dense_cycles = -(-dense_inv // cores_d)
            sparse_cycles = -(-sparse_inv // cores_s)
            laser = laser_s * sparse_cycles * (h_op // quarter) + laser_d * dense_cycles
            index = chunks * d * batch_tokens * index_unit
            dram_bytes = stored_params(rows, cols, r, d) * weight_b + chunks * d * index_b
            # Input read, intermediate (r x batch) write + read, output write,
            # plus per-chunk gathered input reads on the sparse side.
            sram_bytes = ((cols + 2 * r + rows) * batch_tokens + chunks * d * batch_tokens) * act_b
        dm = dram_bytes * dram_unit + sram_bytes * sram_unit
        counts.append((dense_inv, sparse_inv, dense_cycles, sparse_cycles, max(dense_cycles, sparse_cycles)))
        energies.append((dm, weight, inputs, readout, laser, index))

    try:
        counts_array = _rows(counts, len(LAYER_COUNTS), np.int64)
    except OverflowError:  # an exact Python int past int64
        at = next(i for i, row in enumerate(counts) if max(row) > np.iinfo(np.int64).max)
        raise ValueError(
            f"batch_tokens={batch_tokens}: layer {graph.layers[at].id!r} needs more invocations than int64 holds"
        ) from None
    energies_array = _rows(energies, len(COMPONENTS), np.float64)
    # Totals from the rows: each component's column added left to right (a
    # (0, 6) array still has six empty columns), and the cycles as exact ints.
    totals = dict(zip(COMPONENTS, map(_left_sum, energies_array.T.tolist())))
    cycles = sum(row[-1] for row in counts)
    latency = cycles / (params.clock_ghz * 1e9)
    return CostReport(
        energy=totals, cycles=cycles, latency_s=latency, edp=_left_sum(totals.values()) * latency,
        layer_ids=tuple(layer.id for layer in graph.layers), counts=counts_array, energies=energies_array,
    )


def _rows(rows: list[tuple], width: int, dtype) -> np.ndarray:
    """``rows`` as a (len(rows), width) array, made in one step with one
    allocation for its data, since a sweep keeps hundreds of reports."""
    return np.array(rows, dtype=dtype) if rows else np.zeros((0, width), dtype)


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


# report.json and comparison.json, one table per record: field -> (description,
# test). ``CostReport.to_json`` and ``comparison`` write them; ``read_report``
# reads them through ``util.read_record``.
COMPONENT_FIELDS = dict.fromkeys(COMPONENTS, FINITE)
REPORT_FIELDS = {"energy_pj": OBJECT, "total_energy_pj": FINITE, "cycles": INTEGER, "latency_s": FINITE,
                 "edp_pj_s": FINITE, "per_layer": LIST}
REPORT_LAYER_FIELDS = {"id": STRING, "energy_pj": OBJECT, **dict.fromkeys(LAYER_COUNTS, INTEGER)}
TOTAL_FIELDS = dict.fromkeys(("energy_pj", "latency_s", "edp_pj_s"), POSITIVE)
COMPARISON_FIELDS = {"baseline": OBJECT, "compressed": OBJECT, "component_ratios": OBJECT,
                     **dict.fromkeys(("energy_ratio", "latency_ratio", "edp_ratio"), FINITE)}


def read_report(path) -> dict:
    """A simulate report or comparison (told apart by ``per_layer`` and
    ``edp_ratio``), every record checked against its table; ValueError naming
    the file, the record and the field otherwise."""
    try:
        data = json.loads(Path(path).read_text())
        keys = data if OBJECT[1](data) else {}
        if "edp_ratio" in keys:
            data = read_record(data, COMPARISON_FIELDS, "comparison")
            for side in ("baseline", "compressed"):
                read_record(data[side], TOTAL_FIELDS, f"comparison {side}:")
        elif "per_layer" in keys:
            data = read_record(data, REPORT_FIELDS, "report")
            read_record(data["energy_pj"], COMPONENT_FIELDS, "report energy_pj:")
            for i, layer in enumerate(data["per_layer"]):
                layer = read_record(layer, REPORT_LAYER_FIELDS, f"report layer {i}:")
                read_record(layer["energy_pj"], COMPONENT_FIELDS, f"report layer {layer['id']!r} energy_pj:")
        else:
            raise ValueError("neither a simulate report nor a comparison")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return data


def _load_hardware(path, from_json):
    """``from_json`` of a hardware JSON file; a defect raises ConfigError naming the file."""
    with open(path) as fh:
        try:
            return from_json(json.load(fh))
        except ValueError as exc:  # invalid JSON, a ConfigError or a range check
            raise ConfigError(f"{path}: {exc}") from exc


def load_engine_config(path) -> EngineConfig:
    return _load_hardware(path, EngineConfig.from_json)


def load_energy_params(path) -> EnergyParams:
    return _load_hardware(path, EnergyParams.from_json)
