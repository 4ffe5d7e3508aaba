"""Dense linear-algebra substrate: norms, truncated SVD (exact, or
warm-started from a previous right subspace).

All routines work on float64 2-D numpy arrays and are deterministic for
identical inputs on a given platform. Factors returned by
:func:`balanced_factors` split the singular values evenly between the two
sides, which keeps later gradient-based refinement well conditioned.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import as_matrix, check_finite


class SvdError(RuntimeError):
    """Truncated SVD failed (bad rank request or no convergence)."""


@dataclass(frozen=True)
class SvdResult:
    """Top-k singular triplets: ``u @ diag(singular_values) @ vt``."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.vt


def frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm of a float64 array the caller has already validated."""
    return float(np.sqrt(np.sum(m * m)))


def truncated_svd(m: np.ndarray, k: int) -> SvdResult:
    """Top-k singular triplets of ``m``.

    By Eckart-Young the reconstruction is the best rank-k approximation of
    ``m`` in Frobenius norm. Singular values come back non-increasing and
    non-negative.
    """
    m = as_matrix(m, "m")
    min_dim = min(m.shape)
    if not 1 <= k <= min_dim:
        raise SvdError(f"rank k={k} out of range [1, {min_dim}] for shape {m.shape}")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        # LAPACK's implicit QR iteration hit its internal sweep cap.
        raise SvdError(f"SVD did not converge within the LAPACK iteration cap: {exc}") from exc
    result = SvdResult(
        u=np.ascontiguousarray(u[:, :k]),
        singular_values=np.ascontiguousarray(s[:k]),
        vt=np.ascontiguousarray(vt[:k, :]),
    )
    check_finite(result.u, "truncated_svd")
    check_finite(result.vt, "truncated_svd")
    return result


def warm_truncated_svd(m: np.ndarray, vt: np.ndarray) -> SvdResult:
    """Rank-k SVD of ``m`` restricted to the column space of ``m @ vt.T``.

    One step of subspace iteration warm-started from a previous right
    subspace ``vt`` (k x n, orthonormal rows), then a Rayleigh-Ritz SVD of
    the small ``Q.T @ m``: the reconstruction is ``Q Q^T m`` with
    ``Q = qr(m @ vt.T)``. It is at least as close to ``m`` as any matrix
    whose rows lie in span(vt), since ``m vt^T vt`` is the best of those
    and its columns lie in span(Q).
    """
    k = vt.shape[0]
    min_dim = min(m.shape)
    if not 1 <= k <= min_dim or vt.shape != (k, m.shape[1]):
        raise SvdError(f"warm start of shape {vt.shape} does not fit rank <= {min_dim} for shape {m.shape}")
    try:
        q, _ = np.linalg.qr(m @ vt.T)
        u_s, s, vt_new = np.linalg.svd(q.T @ m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdError(f"SVD did not converge within the LAPACK iteration cap: {exc}") from exc
    result = SvdResult(u=q @ u_s, singular_values=s, vt=vt_new)
    check_finite(result.u, "warm_truncated_svd")
    check_finite(result.vt, "warm_truncated_svd")
    return result


def balanced_factors(svd: SvdResult) -> tuple[np.ndarray, np.ndarray]:
    """Split a truncated SVD as ``(u * sqrt(s), sqrt(s)[:, None] * vt)``."""
    root = np.sqrt(svd.singular_values)
    return svd.u * root, root[:, None] * svd.vt
