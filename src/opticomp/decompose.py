"""Activation-aware low-rank + structured-sparse decomposition of one layer.

Given a weight W (m x n) and calibration activations X (n x T), we scale
columns by d_j = ||X[j, :]||_2 and alternately fit, in the scaled domain,

    W diag(d)  ~=  A @ B + expand(S)

where A B has rank at most r and S keeps, per row-chunk of height g, the
round(n * s) columns with the largest L1 mass (stored condensed). The S-step
finds each chunk's d-th largest column norm with a partial sort and fills
ties at it lowest column index first, the order a stable sort gives.

``alternate`` is the loop: from S = 0 it alternates L- and S-steps and
returns the objective trace and the best iterate's sparse part. Its first
L-step is the exact rank-r SVD of W D, which the caller passes in (the
allocator's guide computes it once at rank r_max and the fit at rank
r <= r_max truncates the same result), so the best iterate can never lose
to the plain SVD. Every other L-step is one step of subspace iteration
from the previous B: with M = W D - expand(S), A = qr(M B^T) and
B = A^T M, so A B = A A^T M projects M onto span(A). That fit is at least
as close as the previous (A, B), whose rows lie in span(B), so no L-step
raises the objective.

``decompose_layer`` closes with an exact SVD refit against the best sparse
part, so the returned (A, B) are the exact truncated SVD of W D - expand(S)
and its singular values give the error at every lower rank against that S.
Stored factors are de-scaled so A @ B + expand(S) approximates W directly.

Local adaptation works in Gram form: with G = X X^T computed once per
layer, each step costs O(m n^2) instead of O(m n T) for T calibration
tokens.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SvdResult, balanced_factors, frobenius_norm, truncated_svd
from .util import as_matrix, philox_rng

EPS_SCALE = 1e-8  # floor for D entries, relative to the largest entry


@dataclass(frozen=True)
class ScalingDiag:
    """Diagonal activation scaling d_j = sqrt(sum_t X[j,t]^2), clamped below."""

    d: np.ndarray
    epsilon_clamped: bool

    @property
    def inv(self) -> np.ndarray:
        return 1.0 / self.d

    @classmethod
    def identity(cls, n: int) -> "ScalingDiag":
        return cls(d=np.ones(n), epsilon_clamped=False)


def compute_scaling(x: np.ndarray) -> ScalingDiag:
    if x.shape[1] < 1:
        raise ValueError("calibration set is empty (no activation columns)")
    d = np.sqrt(np.sum(x * x, axis=1))
    top = float(d.max())
    if top == 0.0:
        raise ValueError("calibration activations are identically zero; cannot scale")
    floor = EPS_SCALE * top
    clamped = bool(np.any(d < floor))
    return ScalingDiag(d=np.maximum(d, floor), epsilon_clamped=clamped)


@dataclass(frozen=True)
class StructuredSparse:
    """Column-pruned sparse component in condensed form.

    Rows are split into ceil(m / g) chunks of height g (last may be
    shorter). Chunk i keeps the d column indices ``kept_cols[i]`` (sorted
    ascending) and stores their values in the matching rows of
    ``condensed`` (m x d), i.e. condensed row blocks line up with chunks.
    """

    granularity: int
    full_rows: int
    full_cols: int
    kept_cols: np.ndarray  # (num_chunks x d) int64, each row sorted ascending
    condensed: np.ndarray  # (m x d) float64

    @property
    def num_chunks(self) -> int:
        return -(-self.full_rows // self.granularity)

    @property
    def kept_per_chunk(self) -> int:
        return self.kept_cols.shape[1]

    def chunk_rows(self, i: int) -> tuple[int, int]:
        lo = i * self.granularity
        return lo, min(lo + self.granularity, self.full_rows)

    def validate(self) -> None:
        """Shapes, index range and per-chunk order; needs granularity >= 1."""
        cols, values = self.kept_cols, self.condensed
        if cols.ndim != 2 or cols.shape[0] != self.num_chunks or cols.shape[1] < 1:
            raise ValueError(f"kept_cols has shape {cols.shape}, expected ({self.num_chunks}, d) with d >= 1")
        if values.shape != (self.full_rows, cols.shape[1]):
            raise ValueError(f"condensed has shape {values.shape}, expected {(self.full_rows, cols.shape[1])}")
        if cols.min() < 0 or cols.max() >= self.full_cols:
            raise ValueError(f"kept column index out of range [0, {self.full_cols})")
        if np.any(np.diff(cols, axis=1) <= 0):
            raise ValueError("kept column indices must be strictly increasing per chunk")


def structured_sparsify(residual: np.ndarray, g: int, s: float) -> StructuredSparse:
    """Keep, per row-chunk of height g, the top round(n*s) columns by L1 norm.

    Ties rank the lower column index first so results are platform stable:
    the kept set is the one a stable descending sort of the norms gives.
    """
    m, n = residual.shape
    if g < 1:
        raise ValueError(f"granularity must be >= 1, got {g}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"sparse ratio must lie in (0, 1), got {s}")
    d = int(round(n * s))
    if d == 0:
        raise ValueError("sparse budget rounds to zero columns")

    num_chunks = -(-m // g)
    mag = np.abs(residual)
    if num_chunks * g != m:  # zero rows pad the ragged last chunk
        mag = np.concatenate([mag, np.zeros((num_chunks * g - m, n))])
    norms = mag.reshape(num_chunks, g, n).sum(axis=1)
    # Each chunk keeps every column above its d-th largest norm, then fills
    # the places left with the columns tied at it, lowest index first.
    kth = np.partition(norms, n - d, axis=1)[:, n - d, None]
    above = norms > kth
    tied = norms == kth
    room = d - np.count_nonzero(above, axis=1, keepdims=True)
    keep = above | (tied & (np.cumsum(tied, axis=1) <= room))
    kept = np.nonzero(keep)[1].reshape(num_chunks, d)  # ascending per chunk
    rows = np.arange(m)
    condensed = residual[rows[:, None], kept[rows // g]]
    return StructuredSparse(granularity=g, full_rows=m, full_cols=n, kept_cols=kept, condensed=condensed)


def expand(sp: StructuredSparse) -> np.ndarray:
    """Scatter the condensed values back to a dense (m x n) matrix."""
    out = np.zeros((sp.full_rows, sp.full_cols))
    rows = np.arange(sp.full_rows)
    cols = sp.kept_cols[rows // sp.granularity]  # (m x d)
    out[rows[:, None], cols] = sp.condensed
    return out


def _scale_sparse_cols(sp: StructuredSparse, col_scale: np.ndarray) -> StructuredSparse:
    rows = np.arange(sp.full_rows)
    factors = col_scale[sp.kept_cols[rows // sp.granularity]]
    return StructuredSparse(
        granularity=sp.granularity,
        full_rows=sp.full_rows,
        full_cols=sp.full_cols,
        kept_cols=sp.kept_cols,
        condensed=sp.condensed * factors,
    )


@dataclass
class Decomposition:
    """Result of one layer's decomposition: W ~= a @ b + expand(sparse)."""

    a: np.ndarray  # (m x r)
    b: np.ndarray  # (r x n)
    sparse: StructuredSparse
    objective_trace: list[float]
    singular_values: np.ndarray | None = field(default=None, repr=False)

    @property
    def rank(self) -> int:
        return self.a.shape[1]

    @property
    def best_objective(self) -> float:
        return min(self.objective_trace)

    def reconstruct(self) -> np.ndarray:
        return self.a @ self.b + expand(self.sparse)


def alternate(wd: np.ndarray, first: SvdResult, s: float, g: int, iters: int):
    """Alternating L-step / structured-prune fit of the scaled weight ``wd``.

    ``first`` is the exact rank-r SVD of ``wd``: the L-step at S = 0, so the
    first trace entry equals the plain rank-r SVD objective and the best
    iterate can never lose to it. The objective ||W D - A B - expand(S)||_F
    is logged after every half-step. Returns the trace and the sparse part
    of the best iterate.
    """
    if iters < 1:
        raise ValueError(f"iteration count must be >= 1, got {iters}")
    sparse = structured_sparsify(np.zeros_like(wd), g, s)  # S = 0 start
    sparse_exp = expand(sparse)
    trace: list[float] = []
    best: tuple[float, StructuredSparse] | None = None
    a, b = balanced_factors(first)
    for it in range(iters):
        if it:
            resid = wd - sparse_exp
            a, _ = np.linalg.qr(resid @ b.T)
            b = a.T @ resid
        low = a @ b
        obj = frobenius_norm(wd - low - sparse_exp)
        # With S fixed, the L half-step never raises the objective: the first
        # is exact (Eckart-Young); a projection step fits at least as well as
        # the previous (A, B), whose rows lie in span(B).
        assert not trace or obj <= trace[-1] + 1e-9 * (1.0 + trace[-1])
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


def decompose_layer(
    w: np.ndarray,
    d: ScalingDiag,
    r: int,
    s: float,
    g: int,
    iters: int = 80,
    start: SvdResult | None = None,
) -> Decomposition:
    """``alternate`` at rank r, then the exact refit against its best S.

    ``start``, if given, is the truncated SVD of W D at some rank >= r (the
    allocator's guide keeps one per layer); its top r triplets are the first
    L-step, bit-identical to a fresh rank-r SVD of W D.
    """
    w = as_matrix(w, "weight")
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    wd = w * d.d[None, :]
    first = truncated_svd(wd, r) if start is None else start.truncate(r)
    trace, best_sparse = alternate(wd, first, s, g, iters)

    # Closing refit: re-solve the L-step against the best sparse component so
    # the stored factors are an exact truncated SVD of (W D - expand(S)).
    # Eckart-Young guarantees this never worsens the best objective.
    best_sparse_exp = expand(best_sparse)
    svd = truncated_svd(wd - best_sparse_exp, r)
    a, b = balanced_factors(svd)
    trace.append(frobenius_norm(wd - a @ b - best_sparse_exp))

    # De-scale so the stored triple approximates W directly.
    inv = d.inv
    b_out = b * inv[None, :]
    sparse_out = _scale_sparse_cols(best_sparse, inv)
    return Decomposition(
        a=a,
        b=b_out,
        sparse=sparse_out,
        objective_trace=trace,
        singular_values=svd.singular_values.copy(),
    )


def layer_error(w: np.ndarray, d: ScalingDiag, fit) -> float:
    """Normalized activation-aware error, evaluated in the scaled domain.

    ``fit`` is anything holding the stored ``a``, ``b`` and ``sparse``: a
    Decomposition, or a compressed layer read back from disk. The stored
    factors approximate W, so B and the sparse values are re-scaled by D
    before comparing against W D.
    """
    wd = w * d.d[None, :]
    denom = frobenius_norm(wd)
    if denom == 0.0:
        raise ValueError("||W D||_F is zero; error ratio undefined")
    recon = fit.a @ (fit.b * d.d[None, :]) + expand(_scale_sparse_cols(fit.sparse, d.d))
    return frobenius_norm(wd - recon) / denom


# --- local low-rank adaptation ----------------------------------------------


def _adapter_step(target, gram, a, b, ua, va, ub, vb):
    """Gram-form objective and adapter gradients; see adapter_objective_and_grads.

    With E = A_eff B_eff - (W - S) and G = X X^T, f = sum(E * (E G)),
    df/dA_eff = 2 E G B_eff^T and df/dB_eff = 2 A_eff^T E G.
    """
    a_eff = a + ua @ va
    b_eff = b + ub @ vb
    err = a_eff @ b_eff - target  # (m x n)
    err_g = err @ gram  # (m x n)
    f = float(np.sum(err * err_g))
    ga = 2.0 * (err_g @ b_eff.T)  # df/d(A_eff), (m x r)
    gb = 2.0 * (a_eff.T @ err_g)  # df/d(B_eff), (r x n)
    return f, (ga @ va.T, ua.T @ ga, gb @ vb.T, ub.T @ gb)


def adapter_objective_and_grads(
    w: np.ndarray,
    x: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    sparse_exp: np.ndarray,
    ua: np.ndarray,
    va: np.ndarray,
    ub: np.ndarray,
    vb: np.ndarray,
):
    """Calibration objective and its exact gradients w.r.t. the adapters.

    f = || W X - [(A + Ua Va)(B + Ub Vb) + S] X ||_F^2

    Evaluated by the same Gram-form kernel that ``local_adapt`` steps with.
    """
    return _adapter_step(w - sparse_exp, x @ x.T, a, b, ua, va, ub, vb)


def local_adapt(
    dec: Decomposition,
    w: np.ndarray,
    x: np.ndarray,
    steps: int = 100,
    lr: float = 1e-2,
    seed: int = 0,
    key: int = 0,
) -> Decomposition:
    """Refine (A, B) with rank-limited adapters against raw calibration data.

    The adapters start from the random stream keyed on (seed, 3, key); the
    pipeline passes the layer name's ``stable_key`` so that a layer's stream
    does not depend on its position in the model.

    Adapters dA = Ua Va and dB = Ub Vb have rank at most floor(r/4) (min 1)
    and are merged back on return, so the parameter count is unchanged. Uses
    plain gradient descent; a step that raises the objective is rejected and
    retried at half the learning rate (floor 1e-8). A step is taken only if
    it does not raise the objective, so the returned objective never
    exceeds the input's.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return dec
    m, r = dec.a.shape
    n = dec.b.shape[1]
    q = max(1, r // 4)
    rng = philox_rng(seed, 3, key)
    ua = rng.uniform(-1e-3, 1e-3, size=(m, q))
    ub = rng.uniform(-1e-3, 1e-3, size=(r, q))
    va = np.zeros((q, r))
    vb = np.zeros((q, n))
    target = w - expand(dec.sparse)
    gram = x @ x.T  # (n x n), constant across steps

    f, grads = _adapter_step(target, gram, dec.a, dec.b, ua, va, ub, vb)
    trace = [f]
    step_lr = lr
    for step in range(steps):
        if not all(np.all(np.isfinite(gr)) for gr in grads):
            raise FloatingPointError(f"non-finite adapter gradient at step {step}")
        while True:
            cand = (ua - step_lr * grads[0], va - step_lr * grads[1], ub - step_lr * grads[2], vb - step_lr * grads[3])
            f_new, grads_new = _adapter_step(target, gram, dec.a, dec.b, *cand)
            if f_new <= f:
                break
            step_lr *= 0.5
            if step_lr < 1e-8:
                break
        if f_new > f:
            break  # learning rate floored out; no further progress
        ua, va, ub, vb = cand
        f, grads = f_new, grads_new
        trace.append(f)

    return Decomposition(
        a=dec.a + ua @ va,
        b=dec.b + ub @ vb,
        sparse=dec.sparse,
        objective_trace=trace,
    )


def calibration_objective(dec: Decomposition, w: np.ndarray, x: np.ndarray) -> float:
    """|| W X - (A B + expand(S)) X ||_F^2 on the raw calibration matrix."""
    diff = (w - dec.reconstruct()) @ x
    return float(np.sum(diff * diff))
