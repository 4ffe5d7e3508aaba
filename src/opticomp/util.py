"""Shared helpers: array coercion and reproducible random streams."""
from __future__ import annotations

import numpy as np


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce outside data to a C-contiguous float64 2-D array, rejecting non-finite entries."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def check_finite(m: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise FloatingPointError(f"non-finite values produced by {context}")
    return m


def philox_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based Philox4x32-10 generator keyed on (seed, *key).

    Philox is splittable: distinct keys give independent, reproducible
    streams, so per-layer / per-tensor randomness does not depend on
    call order.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def stable_key(text: str) -> int:
    """Deterministic 32-bit key for a string (FNV-1a), platform independent."""
    h = 2166136261
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 16777619) & 0xFFFFFFFF
    return h
