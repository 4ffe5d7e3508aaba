"""Transformer model manifest and tensor bundle on top of the LTEN container.
A model file's tensors are checked against its table (``dense_shapes``) on
write and read."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .container import check_tensors, read_container, write_container
from .util import COUNT, INTEGER, LIST, OBJECT, STRING, read_record

COMPRESSIBLE_KINDS = ("attn_q", "attn_k", "attn_v", "attn_o", "mlp_fc1", "mlp_fc2")
LAYER_KINDS = COMPRESSIBLE_KINDS + ("embed", "head")


@dataclass(frozen=True)
class LayerSpec:
    """One weight matrix: ``rows x cols`` acting as y = W @ x."""

    id: str
    kind: str
    rows: int
    cols: int

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"layer {self.id!r}: unknown kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"layer {self.id!r}: degenerate shape {self.rows}x{self.cols}")

    @property
    def compressible(self) -> bool:
        return self.kind in COMPRESSIBLE_KINDS


@dataclass
class ModelGraph:
    """Ordered layers, their grouping into blocks, and integer metadata (``_META_FIELDS``)."""

    layers: list[LayerSpec]
    blocks: list[dict]  # [{"attn": [ids], "mlp": [ids]}], in block order
    hidden_size: int
    meta: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        ids = [layer.id for layer in self.layers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate layer ids in model graph")
        grouped = set()
        for block in self.blocks:
            for group in ("attn", "mlp"):
                grouped.update(block.get(group, []))
        for layer in self.layers:
            in_group = layer.id in grouped
            if layer.compressible and not in_group:
                raise ValueError(f"layer {layer.id!r} belongs to no block group")
            if not layer.compressible and in_group:
                raise ValueError(f"layer {layer.id!r} is embedding/head but grouped in a block")
        if self.hidden_size % self.heads:
            raise ValueError(f"graph hidden_size {self.hidden_size} is not divisible by meta.heads {self.heads}")

    @property
    def heads(self) -> int:
        """Attention heads per block, 1 when ``meta`` leaves them out."""
        return self.meta.get("heads", 1)

    def layer(self, layer_id: str) -> LayerSpec:
        for layer in self.layers:
            if layer.id == layer_id:
                return layer
        raise KeyError(f"no layer {layer_id!r} in model graph")

    def compressible_layers(self) -> list[LayerSpec]:
        return [layer for layer in self.layers if layer.compressible]

    def to_json(self) -> dict:
        obj = {name: getattr(self, name) for name in _GRAPH_FIELDS}
        obj["layers"] = [{name: getattr(l, name) for name in _LAYER_FIELDS} for l in self.layers]
        obj["meta"] = {name: str(value) for name, value in self.meta.items()}
        return obj

    @classmethod
    def from_json(cls, obj) -> "ModelGraph":
        """The graph of a manifest, every record checked against its table."""
        top = read_record(obj, _GRAPH_FIELDS, "graph", optional=("meta",))
        layers = [LayerSpec(**read_record(l, _LAYER_FIELDS, f"graph layer {i}:")) for i, l in enumerate(top["layers"])]
        kinds = {l.id: l.kind for l in layers}
        for i, block in enumerate(top["blocks"]):
            block = read_record(block, _BLOCK_FIELDS, f"graph block {i}:")
            for group, want in block_ids(i).items():
                if block[group] != want:
                    raise ValueError(f"graph block {i}: {group} must list {want}, got {block[group]}")
                missing = next((lid for lid in want if lid not in kinds), None)
                if missing is not None:
                    raise ValueError(f"graph block {i}: {group} lists {missing!r}, which is not a graph layer")
        meta = read_record(top.get("meta", {}), _META_FIELDS, "graph meta:", optional=_META_FIELDS)
        for end in ("embed", "head"):
            if kinds.get(end) != end:
                raise ValueError(f"graph has no layer {end!r} of kind {end!r}")
        return cls(layers, top["blocks"], top["hidden_size"], {name: int(text) for name, text in meta.items()})


# The graph manifest, one table per record: field -> (description, test),
# checked by ``util.read_record``. meta and its fields may be absent.
_IDS = ("a list of layer ids", lambda v: LIST[1](v) and all(STRING[1](i) for i in v))
_DIGITS = ("an integer string >= 1", lambda v: STRING[1](v) and v.isascii() and v.isdigit() and int(v) >= 1)
_GRAPH_FIELDS = {"hidden_size": COUNT, "layers": LIST, "blocks": LIST, "meta": OBJECT}
_LAYER_FIELDS = {"id": STRING, "kind": STRING, "rows": INTEGER, "cols": INTEGER}
_BLOCK_FIELDS = {"attn": _IDS, "mlp": _IDS}
_META_FIELDS = dict.fromkeys(("heads", "in_dim", "blocks", "classes", "mlp_ratio"), _DIGITS)


def block_ids(i: int) -> dict[str, list[str]]:
    """The layer ids block ``i``'s groups list, in order: the ones the forward pass reads."""
    return {"attn": [f"block{i}.attn.{proj}" for proj in "qkvo"], "mlp": [f"block{i}.mlp.fc1", f"block{i}.mlp.fc2"]}


def read_graph(path, manifest: dict) -> ModelGraph:
    """The model graph of a container's manifest; a defect raises ValueError
    naming the file."""
    if "graph" not in manifest:
        raise ValueError(f"{path}: container has no model graph in its manifest")
    try:
        return ModelGraph.from_json(manifest["graph"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_model(path, graph: ModelGraph, tensors: dict[str, np.ndarray]) -> None:
    """Write graph + tensors to an LTEN file, once the tensors hold the
    model's table (``dense_shapes``)."""
    check_tensors(path, tensors, dense_shapes(graph))
    write_container(path, tensors, extra={"graph": graph.to_json()})


def layernorm_names(graph: ModelGraph) -> list[str]:
    """The layernorm vectors a model of this graph holds, block by block."""
    return [name for i in range(len(graph.blocks)) for name in block_layernorms(i)]


def block_layernorms(i: int) -> list[str]:
    """Block ``i``'s ``ln1`` weight and bias, then its ``ln2`` weight and bias."""
    return [f"block{i}.{ln}.{part}" for ln in ("ln1", "ln2") for part in ("weight", "bias")]


def dense_shapes(graph: ModelGraph, skip=()) -> dict[str, tuple]:
    """The table (``container.check_tensors``) of a model file's dense
    tensors: each graph layer not in ``skip`` is ``rows x cols`` and each
    layernorm vector ``(hidden,)``, all f32."""
    table = {layer.id: ("f32", (layer.rows, layer.cols)) for layer in graph.layers if layer.id not in skip}
    table.update((name, ("f32", (graph.hidden_size,))) for name in layernorm_names(graph))
    return table


def load_model(path) -> tuple[ModelGraph, dict[str, np.ndarray]]:
    manifest, tensors = read_container(path)
    graph = read_graph(path, manifest)
    check_tensors(path, tensors, dense_shapes(graph))
    return graph, tensors
