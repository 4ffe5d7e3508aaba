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
raises the objective. W D - A B is formed once per iteration and serves
both objectives and the S-step.

``decompose_layer`` closes with an exact SVD refit against the best sparse
part, so the returned (A, B) are the exact truncated SVD of W D - expand(S).
Both exact SVDs are ``linalg.truncated_svd``: an eigensolve of the smaller
Gram matrix, with each triplet's sign fixed, so that A's columns, which
``local_adapt``'s seeded start multiplies, do not depend on the solver.
Stored factors are de-scaled so A @ B + expand(S) approximates W directly.
That ``Decomposition`` is the one fitted-layer type: the pipeline writes
it to the compressed file, and ``pipeline.load_compressed`` reads it back.

Local adaptation works in Gram form, G = X X^T, on one flat vector of
adapters of rank q = max(1, floor(r/4)). The error
E = (A + Ua Va)(B + Ub Vb) - (W - S) is the fixed E0 = A B - (W - S) plus
a term of rank 2q, so E and E G follow from E0 and E0 G, formed once per
layer, and the factors: an objective costs O(q n^2 + m q n), where one
E @ G costs O(m n^2) and the raw form O(m n T) for T calibration tokens.
A rejected step costs one objective evaluation and no gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SvdResult, balanced_factors, frobenius_norm, truncated_svd
from .util import as_matrix, philox_rng

EPS_SCALE = 1e-8  # floor for D entries, relative to the largest entry
FIT_FLOOR = 1e-24  # local_adapt's stop: f at rounding level against <T, T G>


@dataclass(frozen=True)
class ScalingDiag:
    """Diagonal activation scaling d_j = sqrt(sum_t X[j,t]^2), clamped below."""

    d: np.ndarray

    @property
    def inv(self) -> np.ndarray:
        return 1.0 / self.d

    @classmethod
    def identity(cls, n: int) -> "ScalingDiag":
        return cls(d=np.ones(n))


def compute_scaling(x: np.ndarray) -> ScalingDiag:
    if x.shape[1] < 1:
        raise ValueError("calibration set is empty (no activation columns)")
    d = np.sqrt(np.sum(x * x, axis=1))
    top = float(d.max())
    if top == 0.0:
        raise ValueError("calibration activations are identically zero; cannot scale")
    return ScalingDiag(d=np.maximum(d, EPS_SCALE * top))


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
        """Index range and per-chunk order. The shapes are the file reader's
        to check (``pipeline.load_compressed``); here ``kept_cols`` must be
        non-empty."""
        cols = self.kept_cols
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
    """One fitted layer, W ~= a @ b + expand(sparse); ``objective_trace`` is
    the fit's objective log, empty for a layer read from a file."""

    a: np.ndarray  # (m x r)
    b: np.ndarray  # (r x n)
    sparse: StructuredSparse
    objective_trace: list[float]

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
        resid_low = wd - a @ b  # shared by both objectives and the S-step
        obj = frobenius_norm(resid_low - sparse_exp)
        # With S fixed, the L half-step never raises the objective: the first
        # is exact (Eckart-Young); a projection step fits at least as well as
        # the previous (A, B), whose rows lie in span(B).
        assert not trace or obj <= trace[-1] + 1e-9 * (1.0 + trace[-1])
        trace.append(obj)
        if best is None or obj < best[0]:
            best = (obj, sparse)

        sparse = structured_sparsify(resid_low, g, s)
        sparse_exp = expand(sparse)
        obj = frobenius_norm(resid_low - sparse_exp)
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
    L-step, bit-identical to a fresh rank-r SVD of W D. ``w`` is scanned
    here, and the closing refit's matrix in ``truncated_svd``.
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
    a, b = balanced_factors(truncated_svd(wd - best_sparse_exp, r))
    trace.append(frobenius_norm(wd - a @ b - best_sparse_exp))

    # De-scale so the stored triple approximates W directly.
    inv = d.inv
    b_out = b * inv[None, :]
    sparse_out = _scale_sparse_cols(best_sparse, inv)
    return Decomposition(a=a, b=b_out, sparse=sparse_out, objective_trace=trace)


def layer_error(w: np.ndarray, d: ScalingDiag, fit: Decomposition) -> float:
    """Normalized activation-aware error, evaluated in the scaled domain.

    ``fit`` is a fresh fit or a layer read back from a compressed file. The
    stored factors approximate W, so B and the sparse values are re-scaled
    by D before comparing against W D.
    """
    wd = w * d.d[None, :]
    denom = frobenius_norm(wd)
    if denom == 0.0:
        raise ValueError("||W D||_F is zero; error ratio undefined")
    recon = fit.a @ (fit.b * d.d[None, :]) + expand(_scale_sparse_cols(fit.sparse, d.d))
    return frobenius_norm(wd - recon) / denom


# --- local low-rank adaptation ----------------------------------------------


class _GramAdapter:
    """The adapter objective and its gradients in Gram form.

    The adapters Ua (m x q), Va (q x r), Ub (r x q) and Vb (q x n) lie back
    to back in one flat vector; ``views`` gives the four as reshaped views.
    With T = W - S, G = X X^T, A_eff = A + Ua Va and B_eff = B + Ub Vb, the
    error E = A_eff B_eff - T is the fixed E0 = A B - T plus a rank-2q term:

        E = E0 + U V,   U = [Ua, A Ub] (m x 2q),   V = [Va B_eff; Vb] (2q x n),

    so [E, E G] = [E0, E0 G] + U [V, V G] with V G = [Va B G + Va Ub Vb G; Vb G],
    and f = <E, E G>. The gradients follow from df/dA_eff = 2 E G B_eff^T and
    df/dB_eff = 2 A_eff^T E G through the same factors:

        df/dUa = 2 E G (Va B_eff)^T    df/dVa = 2 (Ua^T E G) B_eff^T
        df/dUb = 2 A_eff^T E G Vb^T    df/dVb = 2 (A_eff Ub)^T E G

    E0, E0 G and B G are formed once per layer, so an objective costs
    O(q n^2 + m q n) and a gradient O(m q n), since q <= r <= min(m, n);
    one product E @ G alone costs O(m n^2). E stays explicit in f: expanded
    into Gram terms, <A_eff^T A_eff, B_eff G B_eff^T> - 2 <A_eff, T G B_eff^T>
    + <T, T G>, f cancels near a good fit. ``objective`` keeps U, [V, V G]
    and E G of the point it evaluates and ``gradient`` reads them, so a
    point that is not kept costs no gradient. ``energy`` = <T, T G> with
    T G = A (B G) - E0 G.
    """

    def __init__(self, a, b, target, gram, q):
        (m, r), n = a.shape, b.shape[1]
        self.a, self.b, self.gram, self.q, self.n = a, b, gram, q, n
        err0 = a @ b - target
        self.base = np.concatenate([err0, err0 @ gram], axis=1)  # [E0, E0 G], (m x 2n)
        self.b_bg = np.concatenate([b, b @ gram], axis=1)  # [B, B G], (r x 2n)
        self.energy = float(np.einsum("ij,ij->", target, a @ self.b_bg[:, n:] - self.base[:, n:]))
        self.shapes = ((m, q), (q, r), (r, q), (q, n))
        self.size = sum(rows * cols for rows, cols in self.shapes)
        self.u = np.empty((m, 2 * q))
        self.v = np.empty((2 * q, 2 * n))  # [V, V G]
        self.err = np.empty((m, 2 * n))  # [E, E G]
        self.point = None  # adapters of the last point evaluated, and Va Ub

    def views(self, flat):
        out, lo = [], 0
        for rows, cols in self.shapes:
            out.append(flat[lo:lo + rows * cols].reshape(rows, cols))
            lo += rows * cols
        return tuple(out)

    def objective(self, params) -> float:
        """f at the adapters ``params`` = (Ua, Va, Ub, Vb)."""
        ua, va, ub, vb = params
        q, n = self.q, self.n
        va_ub = va @ ub
        self.point = params, va_ub
        u, v = self.u, self.v
        u[:, :q] = ua
        np.matmul(self.a, ub, out=u[:, q:])
        v[q:, :n] = vb
        np.matmul(vb, self.gram, out=v[q:, n:])
        np.matmul(va, self.b_bg, out=v[:q])
        v[:q] += va_ub @ v[q:]
        err = np.matmul(u, v, out=self.err)
        err += self.base
        return float(np.einsum("ij,ij->", err[:, :n], err[:, n:]))

    def gradient(self, out) -> None:
        """Write the gradient at the last point evaluated into the four
        arrays ``out``, shaped as the adapters."""
        (ua, va, ub, vb), va_ub = self.point
        q, n = self.q, self.n
        err_g = self.err[:, n:]
        eg_vt = err_g @ self.v[:, :n].T  # [E G (Va B_eff)^T, E G Vb^T], (m x 2q)
        eg_vt *= 2.0
        ut_eg = self.u.T @ err_g  # [Ua^T E G; (A Ub)^T E G], (2q x n)
        ut_eg *= 2.0
        ua_eg_vb = ut_eg[:q] @ vb.T  # 2 Ua^T E G Vb^T, (q x q)
        g_ua, g_va, g_ub, g_vb = out
        g_ua[...] = eg_vt[:, :q]
        np.matmul(ut_eg[:q], self.b.T, out=g_va)
        g_va += ua_eg_vb @ ub.T
        np.matmul(self.a.T, eg_vt[:, q:], out=g_ub)
        g_ub += va.T @ ua_eg_vb
        np.matmul(va_ub.T, ut_eg[:q], out=g_vb)
        g_vb += ut_eg[q:]


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
    kernel = _GramAdapter(a, b, w - sparse_exp, x @ x.T, ua.shape[1])
    f = kernel.objective((ua, va, ub, vb))
    grads = kernel.views(np.empty(kernel.size))
    kernel.gradient(grads)
    return f, grads


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
    exceeds the input's. A rejected step costs one objective evaluation; the
    gradient is formed only at the points taken. An objective at most
    ``FIT_FLOOR`` times <W - S, (W - S) X X^T>, an exact fit, takes no step:
    there rounding alone would decide it.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return dec
    kernel = _GramAdapter(dec.a, dec.b, w - expand(dec.sparse), x @ x.T, max(1, dec.rank // 4))
    # The current point, the candidate and the gradient, each one flat vector
    # with its adapter views; the first two swap when a candidate is taken.
    theta, cand, grad = (np.zeros(kernel.size) for _ in range(3))
    theta_v, cand_v, grad_v = (kernel.views(flat) for flat in (theta, cand, grad))
    rng = philox_rng(seed, 3, key)
    theta_v[0][...] = rng.uniform(-1e-3, 1e-3, size=theta_v[0].shape)
    theta_v[2][...] = rng.uniform(-1e-3, 1e-3, size=theta_v[2].shape)

    f = kernel.objective(theta_v)
    trace = [f]
    step_lr = lr
    for step in range(steps):
        if f <= FIT_FLOOR * kernel.energy:
            break
        kernel.gradient(grad_v)  # the last point evaluated is theta
        if not np.isfinite(grad).all():
            raise FloatingPointError(f"non-finite adapter gradient at step {step}")
        while True:
            np.subtract(theta, np.multiply(grad, step_lr, out=cand), out=cand)
            f_new = kernel.objective(cand_v)
            if f_new <= f:
                break
            step_lr *= 0.5
            if step_lr < 1e-8:
                break
        if f_new > f:
            break  # learning rate floored out; no further progress
        (theta, theta_v), (cand, cand_v) = (cand, cand_v), (theta, theta_v)
        f = f_new
        trace.append(f)

    ua, va, ub, vb = theta_v
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
