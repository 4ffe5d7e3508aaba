"""Dense linear-algebra substrate: norms, exact truncated SVD, singular
values alone, and the balanced factor split.

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

    def truncate(self, k: int) -> "SvdResult":
        """The top-k triplets, bit-identical to ``truncated_svd`` at rank k
        of the same matrix (both slice one LAPACK result)."""
        top = len(self.singular_values)
        if not 1 <= k <= top:
            raise SvdError(f"rank k={k} out of range [1, {top}] for a rank-{top} SVD")
        return SvdResult(
            u=np.ascontiguousarray(self.u[:, :k]),
            singular_values=np.ascontiguousarray(self.singular_values[:k]),
            vt=np.ascontiguousarray(self.vt[:k, :]),
        )


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
    u, s, vt = _lapack_svd(m, compute_uv=True)
    result = SvdResult(u=u, singular_values=s, vt=vt).truncate(k)
    check_finite(result.u, "truncated_svd")
    check_finite(result.vt, "truncated_svd")
    return result


def singular_values(m: np.ndarray) -> np.ndarray:
    """All min(m.shape) singular values of ``m``, non-increasing, without
    the singular vectors (LAPACK's values-only path)."""
    s = _lapack_svd(as_matrix(m, "m"), compute_uv=False)
    check_finite(s, "singular_values")
    return s


def _lapack_svd(m: np.ndarray, compute_uv: bool):
    try:
        return np.linalg.svd(m, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        # LAPACK's implicit QR iteration hit its internal sweep cap.
        raise SvdError(f"SVD did not converge within the LAPACK iteration cap: {exc}") from exc


def balanced_factors(svd: SvdResult) -> tuple[np.ndarray, np.ndarray]:
    """Split a truncated SVD as ``(u * sqrt(s), sqrt(s)[:, None] * vt)``."""
    root = np.sqrt(svd.singular_values)
    return svd.u * root, root[:, None] * svd.vt
