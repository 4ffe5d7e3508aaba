"""Independent reference implementations used only as test oracles.

These deliberately avoid the code paths under test: the full SVD is a
textbook one-sided Jacobi (column-pair rotations until all cosines vanish),
validated against hand cases in test_linalg before it is trusted anywhere
else.
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
