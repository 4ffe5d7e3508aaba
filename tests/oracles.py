"""Independent reference implementations used only as test oracles.

These deliberately avoid the code paths under test: the full SVD is a
textbook one-sided Jacobi (column-pair rotations until all cosines vanish),
validated against hand cases in test_linalg before it is trusted anywhere
else. The PTC and condensed-sparse oracles are the plain per-block and
per-chunk loops that the batched functional model replaces.
"""
from __future__ import annotations

import numpy as np


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


def chunkwise_condensed_matmul(sp, x: np.ndarray) -> np.ndarray:
    """expand(sp) @ x as one product per row chunk of the condensed form."""
    out = np.empty((sp.full_rows, x.shape[1]))
    for i in range(sp.num_chunks):
        lo, hi = sp.chunk_rows(i)
        out[lo:hi] = sp.condensed[lo:hi] @ x[sp.kept_cols[i]]
    return out
