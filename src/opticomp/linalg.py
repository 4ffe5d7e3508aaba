"""Dense linear-algebra substrate: norms, exact truncated SVD, singular
values alone, and the balanced factor split.

Both spectra come from the Gram matrix of the smaller side: ``M^T M`` when
M has at least as many rows as columns, ``M M^T`` otherwise. Its
eigenvectors are one side's singular vectors, and one product with M gives
the other side's, scaled by the singular values. ``truncated_svd`` takes the
values as that product's column norms, which stay accurate for small values
where the square root of an eigenvalue does not, and fixes each triplet's
sign so that the largest-magnitude entry of its right singular vector is
positive (the first such entry on a tie). The triplets are then a function
of M alone, not of the eigensolver's arbitrary signs. ``singular_values``
serves sums of squared values, which the Gram's eigenvalues give directly.

All routines work on float64 2-D numpy arrays and are deterministic for
identical inputs on a given platform. ``truncated_svd`` takes its matrix
through ``util.as_matrix``, the package's entry scan; ``singular_values``
scans nothing. A LAPACK failure is numpy's ``LinAlgError``, a
``ValueError``. Factors returned by
:func:`balanced_factors` split the singular values evenly between the two
sides, which keeps later gradient-based refinement well conditioned.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import as_matrix


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
        of the same matrix (both slice one full solve)."""
        top = len(self.singular_values)
        if not 1 <= k <= top:
            raise ValueError(f"rank k={k} out of range [1, {top}] for a rank-{top} SVD")
        return SvdResult(
            u=np.ascontiguousarray(self.u[:, :k]),
            singular_values=np.ascontiguousarray(self.singular_values[:k]),
            vt=np.ascontiguousarray(self.vt[:k, :]),
        )


def frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm of a float64 array the caller has already validated."""
    return float(np.sqrt(np.sum(m * m)))


def _tall(m: np.ndarray) -> np.ndarray:
    """``m``, or its transpose when ``m`` has fewer rows than columns."""
    return m if m.shape[0] >= m.shape[1] else m.T


def truncated_svd(m: np.ndarray, k: int) -> SvdResult:
    """Top-k singular triplets of ``m``.

    By Eckart-Young the reconstruction is the best rank-k approximation of
    ``m`` in Frobenius norm. Singular values come back non-increasing and
    non-negative. The vectors are orthonormal down to the numerical rank
    only: past it, a left (or, for a wide ``m``, right) vector is rounding
    noise divided by a sigma at rounding level, a unit vector that need not
    be orthogonal to the others, or zero where sigma = 0. Those triplets are
    scaled by their sigma, so the reconstruction holds all the same.
    """
    m = as_matrix(m, "m")
    a = _tall(m)
    vecs = np.linalg.eigh(a.T @ a)[1][:, ::-1]
    scaled = a @ vecs  # column j is sigma_j times a singular vector of the other side
    sigma = np.sqrt(np.sum(scaled * scaled, axis=0))
    other = np.divide(scaled, sigma, out=np.zeros_like(scaled), where=sigma > 0)
    u, v = (other, vecs) if a is m else (vecs, other)
    # The sign convention: each column of v has its largest-magnitude entry positive.
    sign = np.where(v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])] < 0, -1.0, 1.0)
    order = np.argsort(-sigma, kind="stable")
    return SvdResult(u=(u * sign)[:, order], singular_values=sigma[order], vt=(v * sign)[:, order].T).truncate(k)


def singular_values(m: np.ndarray) -> np.ndarray:
    """All min(m.shape) singular values of ``m``, non-increasing, without
    the singular vectors: square roots of the smaller Gram's eigenvalues,
    clamped at 0. Each sigma^2 is exact to rounding of ``||m||^2``, so a
    value far below ``sqrt(eps) ||m||`` is rounding-level noise."""
    a = _tall(m)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(a.T @ a)[::-1], 0.0))


def balanced_factors(svd: SvdResult) -> tuple[np.ndarray, np.ndarray]:
    """Split a truncated SVD as ``(u * sqrt(s), sqrt(s)[:, None] * vt)``."""
    root = np.sqrt(svd.singular_values)
    return svd.u * root, root[:, None] * svd.vt
