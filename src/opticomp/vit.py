"""Toy pre-norm ViT forward pass, distillation losses, and calibration capture.

Tokens are column vectors: a layer with weight W (rows x cols) consumes an
activation matrix of shape (cols x tokens). Each block runs
LN -> multi-head self-attention -> residual add, then
LN -> MLP with exact GELU -> residual add. Logits come from mean-pooling
tokens and applying the head matrix. GELU's ``erf`` is this module's own
numpy code, so the forward, and every artifact made from it, is the same
whatever else is installed. ``forward`` also takes a stack of
sequences (samples x in_dim x tokens): weight products broadcast over the
leading axis, and layernorm and pooling act on the last two axes, so each
sample's result is bit-identical to its own 2-D forward.

Attention takes query tokens ``QUERY_BLOCK`` at a time. A block's scores are
one (rows x tokens) array per head, exponentiated in place, and the value
product is divided by the softmax row sums only after it is formed, so the
scale and the normalisation touch (head dim x tokens) and no
(tokens x tokens) array is ever made. Everything is pure-functional numpy
(no activation is written after it is made), so repeated calls are
bit-identical and calibration capture can keep activations by reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .container import read_tensors, write_container
from .model import LayerSpec, ModelGraph, block_ids, layernorm_names
from .util import as_matrix, philox_rng

LN_EPS = 1e-6
QUERY_BLOCK = 128  # query tokens per attention block: each block's scores are QUERY_BLOCK x tokens
SAMPLE_CHUNK = 32  # dataset samples stacked into one forward by gen_toy_dataset and evaluate


@dataclass
class ToyViT:
    """Executable toy vision transformer built from a graph + tensor bundle."""

    graph: ModelGraph
    weights: dict[str, np.ndarray]  # layer id -> float64 matrix
    ln_params: dict[str, np.ndarray]  # "block{i}.ln{1,2}.{weight,bias}" -> vector
    hidden: int
    heads: int
    num_blocks: int

    @classmethod
    def from_tensors(cls, graph: ModelGraph, tensors: dict[str, np.ndarray]) -> "ToyViT":
        weights = {l.id: as_matrix(tensors[l.id], l.id) for l in graph.layers}
        ln_params = {name: np.asarray(tensors[name], dtype=np.float64) for name in layernorm_names(graph)}
        return cls(graph, weights, ln_params, graph.hidden_size, graph.meta.get("heads", 1), len(graph.blocks))


@dataclass
class BlockFeatures:
    """Residual-stream snapshots, one (tokens x hidden) matrix per sub-block."""

    attn: list[np.ndarray] = field(default_factory=list)
    mlp: list[np.ndarray] = field(default_factory=list)

    def pairs(self) -> list[np.ndarray]:
        return list(self.attn) + list(self.mlp)


def _layernorm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    # x is (..., hidden x tokens); normalize each token over the hidden axis.
    # Both means are products with a (1 x hidden) row of 1/hidden: in a stack
    # the hidden axis is the strided middle one, which mean/var reduce slowly.
    avg = np.full((1, x.shape[-2]), 1.0 / x.shape[-2])
    centred = x - avg @ x
    out = centred / np.sqrt(avg @ (centred * centred) + LN_EPS)
    out *= weight[:, None]
    out += bias[:, None]
    return out


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> np.ndarray:
    """Multi-head softmax(q^T k / sqrt(dh)) attention on (..., hidden x tokens)
    projections, QUERY_BLOCK query tokens at a time (see the module docstring)."""
    hidden, tokens = q.shape[-2:]
    dh = hidden // heads
    q = q * (1.0 / sqrt(dh))
    out = np.empty(q.shape)
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        for start in range(0, tokens, QUERY_BLOCK):
            blk = slice(start, start + QUERY_BLOCK)
            e = np.swapaxes(q[..., sl, blk], -1, -2) @ k[..., sl, :]  # (..., rows x tokens) scores
            e -= e.max(axis=-1, keepdims=True)
            np.exp(e, out=e)
            np.divide(v[..., sl, :] @ np.swapaxes(e, -1, -2), e.sum(axis=-1)[..., None, :], out=out[..., sl, blk])
            del e  # so that the next block's scores do not coexist with these
    return out


# Cody, "Rational Chebyshev approximation for the error function", Math. Comp.
# 23 (1969), coefficients as in his CALERF, highest power first: numerator and
# denominator of R1 in erf(x) = x R1(x^2) for |x| <= ERF_SPLIT, and of R2 in
# erfc(y) = exp(-y^2) R2(y) beyond it.
_ERF_NEAR = (
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (1.0, 2.36012909523441209e01, 2.44024637934444173e02,
     1.28261652607737228e03, 2.84423683343917062e03),
)
_ERF_FAR = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
)
ERF_SPLIT = 0.5
ERF_CLAMP = 6.0  # erfc(6) < 2.2e-17, so erf rounds to +-1 from here on
ERF_CHUNK = 32768  # elements per pass, so that a pass's temporaries stay in cache


def _rational(t: np.ndarray, coeffs) -> np.ndarray:
    """num(t) / den(t) by Horner's rule, for (numerator, denominator) coefficients."""
    quotient = []
    for poly in coeffs:
        acc = t * poly[0]
        acc += poly[1]
        for c in poly[2:]:
            acc *= t
            acc += c
        quotient.append(acc)
    num, den = quotient
    num /= den
    return num


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, elementwise, within 3 ulp of the exact value.

    |x| <= ERF_SPLIT takes x R1(x^2); beyond, sign(x) (1 - exp(-x^2) R2(|x|))
    with |x| clamped at ERF_CLAMP. Each branch runs only on its own elements,
    ERF_CHUNK elements at a time, so the result does not depend on the
    input's size or shape. Both branches are odd in x by construction, so erf(-x) == -erf(x) exactly;
    nan gives nan, +-inf gives +-1 and -0.0 gives -0.0.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, ERF_CHUNK):
        _erf_into(flat[start:start + ERF_CHUNK], out[start:start + ERF_CHUNK])
    return out.reshape(x.shape)


def _erf_into(x: np.ndarray, out: np.ndarray) -> None:
    """erf of the 1-D ``x``, written into ``out``."""
    near_mask = np.abs(x) <= ERF_SPLIT
    near = np.flatnonzero(near_mask)
    far = np.flatnonzero(~near_mask)  # nan lands here and stays nan

    xs = x[near]
    r = _rational(xs * xs, _ERF_NEAR)
    r *= xs
    out[near] = r

    y = x[far]
    np.abs(y, out=y)
    np.minimum(y, ERF_CLAMP, out=y)
    r = _rational(y, _ERF_FAR)
    np.square(y, out=y)
    np.negative(y, out=y)
    r *= np.exp(y, out=y)
    np.subtract(1.0, r, out=r)
    out[far] = np.copysign(r, x[far], out=r)


def _gelu(x: np.ndarray) -> np.ndarray:
    # 0.5 x (1 + erf(x / sqrt 2)), with one array for the result
    e = erf(x / sqrt(2.0))
    e += 1.0
    e *= 0.5 * x
    return e


def forward(model: ToyViT, inputs: np.ndarray, matmul_fn=None, tap: dict | None = None):
    """Run one token matrix (in_dim x tokens), or a stack of them
    (samples x in_dim x tokens), through the model.

    Returns (logits, BlockFeatures): logits is a (classes,) vector for the
    mean-pooled sequence, or (samples x classes) for a stack, and each
    feature is (tokens x hidden), or (samples x tokens x hidden). Attention
    runs in query blocks of QUERY_BLOCK tokens and normalises after the value
    product, so a long sequence never makes a (tokens x tokens) array.
    ``matmul_fn(w, x)`` overrides the product used for every weight-matrix
    application of a 2-D input (PTC execution hooks into this). ``tap``,
    when given, maps each weight layer's id to the input activation it
    consumed, by reference: callers must not write into these arrays.
    """
    mm = matmul_fn if matmul_fn is not None else np.matmul

    def apply(layer_id: str, x: np.ndarray) -> np.ndarray:
        w = model.weights[layer_id]
        if w.shape[1] != x.shape[-2]:
            raise ValueError(f"layer {layer_id!r}: weight {w.shape} cannot consume input {x.shape}")
        if tap is not None:
            tap[layer_id] = x
        return mm(w, x)

    if np.ndim(inputs) == 3:
        inputs = np.ascontiguousarray(inputs, dtype=np.float64)
        if not np.all(np.isfinite(inputs)):
            raise ValueError("inputs contains non-finite entries")
    else:
        inputs = as_matrix(inputs, "inputs")
    x = apply("embed", inputs)
    feats = BlockFeatures()
    for i in range(model.num_blocks):
        normed = _layernorm(x, model.ln_params[f"block{i}.ln1.weight"], model.ln_params[f"block{i}.ln1.bias"])
        q = apply(f"block{i}.attn.q", normed)
        k = apply(f"block{i}.attn.k", normed)
        v = apply(f"block{i}.attn.v", normed)
        x = x + apply(f"block{i}.attn.o", _attention(q, k, v, model.heads))
        feats.attn.append(np.swapaxes(x, -1, -2))

        normed = _layernorm(x, model.ln_params[f"block{i}.ln2.weight"], model.ln_params[f"block{i}.ln2.bias"])
        hidden_act = _gelu(apply(f"block{i}.mlp.fc1", normed))
        x = x + apply(f"block{i}.mlp.fc2", hidden_act)
        feats.mlp.append(np.swapaxes(x, -1, -2))

    pooled = x.mean(axis=-1, keepdims=True)
    logits = apply("head", pooled)[..., 0]
    return logits, feats


def block_loss(student: BlockFeatures, teacher: BlockFeatures) -> float:
    """Mean squared-Frobenius gap over all present feature pairs."""
    s_pairs, t_pairs = student.pairs(), teacher.pairs()
    if len(s_pairs) != len(t_pairs) or not s_pairs:
        raise ValueError(f"feature sets differ: {len(s_pairs)} vs {len(t_pairs)} matrices")
    total = 0.0
    for fs, ft in zip(s_pairs, t_pairs):
        if fs.shape != ft.shape:
            raise ValueError(f"feature shape mismatch {fs.shape} vs {ft.shape}")
        diff = fs - ft
        total += float(np.sum(diff * diff))
    return total / len(s_pairs)


def _log_softmax(y: np.ndarray) -> np.ndarray:
    z = y - y.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def logit_loss(y_s: np.ndarray, y_t: np.ndarray, labels: np.ndarray, tau: float = 4.0) -> float:
    """0.5 * KL(student/tau || teacher/tau) + 0.5 * CE(student, labels), sample mean.

    The KL term carries no tau^2 rescaling; cross entropy uses the raw
    student logits. Both terms are shift invariant per sample.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    if y_s.shape != y_t.shape:
        raise ValueError(f"logit shapes differ: {y_s.shape} vs {y_t.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (y_s.shape[0],) or labels.min() < 0 or labels.max() >= y_s.shape[1]:
        raise ValueError("labels must index valid classes, one per sample")

    log_ps = _log_softmax(y_s / tau)
    log_pt = _log_softmax(y_t / tau)
    kl = float(np.mean(np.sum(np.exp(log_ps) * (log_ps - log_pt), axis=1)))
    ce = float(-np.mean(_log_softmax(y_s)[np.arange(len(labels)), labels]))
    return 0.5 * kl + 0.5 * ce


@dataclass
class ToyDataset:
    """Inputs (samples x in_dim x tokens) with one integer label per sample."""

    inputs: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _predict(model: ToyViT, inputs: np.ndarray) -> np.ndarray:
    """Top-1 class of each sequence in a (samples x in_dim x tokens) stack,
    SAMPLE_CHUNK samples per forward."""
    labels = np.empty(len(inputs), dtype=np.int64)
    for start in range(0, len(inputs), SAMPLE_CHUNK):
        logits, _ = forward(model, inputs[start:start + SAMPLE_CHUNK])
        labels[start:start + SAMPLE_CHUNK] = np.argmax(logits, axis=-1)
    return labels


def evaluate(model: ToyViT, dataset: ToyDataset) -> float:
    """Top-1 accuracy over the dataset."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    return int(np.count_nonzero(_predict(model, dataset.inputs) == dataset.labels)) / len(dataset)


def collect_calibration(graph: ModelGraph, tensors: dict[str, np.ndarray], inputs: np.ndarray) -> dict[str, np.ndarray]:
    """Map each compressible layer's id to the (cols x tokens) activation it
    consumes; layers fed the same matrix (q, k, v) share one array."""
    model = ToyViT.from_tensors(graph, tensors)
    inputs = as_matrix(inputs, "calibration inputs")
    embed = graph.layer("embed")
    if inputs.shape[0] != embed.cols:
        raise ValueError(f"layer 'embed': expected {embed.cols} input rows, got {inputs.shape[0]}")
    if inputs.shape[1] < 1:
        raise ValueError("calibration inputs hold no tokens; need at least one")
    tap: dict = {}
    forward(model, inputs, tap=tap)
    return {l.id: tap[l.id] for l in graph.compressible_layers()}


# --- toy generators ---------------------------------------------------------


def build_toy_graph(hidden=48, heads=4, mlp_ratio=2, blocks=2, classes=10, in_dim=24) -> ModelGraph:
    mlp_hidden = hidden * mlp_ratio
    layers = [LayerSpec("embed", "embed", hidden, in_dim)]
    block_groups = [block_ids(i) for i in range(blocks)]
    for group in block_groups:
        for proj, lid in zip("qkvo", group["attn"]):
            layers.append(LayerSpec(lid, f"attn_{proj}", hidden, hidden))
        fc1, fc2 = group["mlp"]
        layers.append(LayerSpec(fc1, "mlp_fc1", mlp_hidden, hidden))
        layers.append(LayerSpec(fc2, "mlp_fc2", hidden, mlp_hidden))
    layers.append(LayerSpec("head", "head", classes, hidden))
    meta = {
        "heads": heads,
        "mlp_ratio": mlp_ratio,
        "blocks": blocks,
        "classes": classes,
        "in_dim": in_dim,
    }
    return ModelGraph(layers=layers, blocks=block_groups, hidden_size=hidden, meta=meta)


def gen_toy_model(graph: ModelGraph, seed: int) -> dict[str, np.ndarray]:
    """Seeded random weights, fan-in scaled; layernorms start at identity."""
    tensors: dict[str, np.ndarray] = {}
    for idx, layer in enumerate(graph.layers):
        rng = philox_rng(seed, 1, idx)
        tensors[layer.id] = rng.normal(0.0, 1.0 / sqrt(layer.cols), size=(layer.rows, layer.cols))
    for i in range(len(graph.blocks)):
        for ln in ("ln1", "ln2"):
            tensors[f"block{i}.{ln}.weight"] = np.ones(graph.hidden_size)
            tensors[f"block{i}.{ln}.bias"] = np.zeros(graph.hidden_size)
    return tensors


def gen_toy_dataset(graph: ModelGraph, tensors: dict[str, np.ndarray], samples: int, tokens: int, seed: int) -> ToyDataset:
    """Random token inputs labeled by the generating model's own argmax."""
    model = ToyViT.from_tensors(graph, tensors)
    rng = philox_rng(seed, 2)
    inputs = rng.normal(0.0, 1.0, size=(samples, graph.layer("embed").cols, tokens))
    return ToyDataset(inputs=inputs, labels=_predict(model, inputs))


def save_dataset(path, dataset: ToyDataset) -> None:
    write_container(path, {"inputs": dataset.inputs, "labels": dataset.labels}, extra={"kind": "dataset"})


def load_dataset(path) -> ToyDataset:
    """A dataset file: its table, and one label per sample."""
    inputs, labels = read_tensors(path, {"inputs": ("f32", (None, None, None)), "labels": ("i32", (None,))})
    if len(labels) != len(inputs):
        raise ValueError(f"{path}: tensor 'labels' has {len(labels)} entries, expected one per sample ({len(inputs)})")
    return ToyDataset(inputs=np.asarray(inputs, dtype=np.float64), labels=np.asarray(labels, dtype=np.int64))
