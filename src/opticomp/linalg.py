"""Dense linear-algebra substrate: norms, exact truncated SVD and its
balanced factor split.

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


def balanced_factors(svd: SvdResult) -> tuple[np.ndarray, np.ndarray]:
    """Split a truncated SVD as ``(u * sqrt(s), sqrt(s)[:, None] * vt)``."""
    root = np.sqrt(svd.singular_values)
    return svd.u * root, root[:, None] * svd.vt
