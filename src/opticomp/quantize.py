"""Symmetric 8-bit post-training quantization and multiplicative noise.

Codes live in [-127, 127] (no -128) with scale = max|value| / 127 taken
per output channel (row); rounding is round-half-to-even. Noise is
multiplicative, out = m * (1 + ratio * z) with standard normal z drawn from
a Philox4x32-10 counter-based stream, so results reproduce bit-for-bit for
a given (seed, key) and are independent of evaluation order.
Nothing here scans its input: weights come checked, and a
``QuantizedTensor`` holds what ``quantize`` built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import philox_rng


@dataclass(frozen=True)
class QuantizedTensor:
    codes: np.ndarray  # int8-range integers, stored as int16 for safe math
    scales: np.ndarray  # (rows,), one per output channel, each > 0


def quantize(m: np.ndarray, axis: str = "per_output_channel") -> QuantizedTensor:
    """Quantize each row with its own scale; ``axis`` names the one mode."""
    if axis != "per_output_channel":
        raise ValueError(f"unknown quantization axis {axis!r}")
    peak = np.abs(m).max(axis=1)
    scales = np.where(peak == 0.0, 1.0, peak / 127.0)
    codes = np.clip(np.round(m / scales[:, None]), -127, 127)
    return QuantizedTensor(codes=codes.astype(np.int16), scales=scales)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    return q.codes.astype(np.float64) * q.scales[:, None]


def inject_noise(m: np.ndarray, ratio: float, seed: int, key: int = 0) -> np.ndarray:
    """out[i,j] = m[i,j] * (1 + ratio * z) with standard normal z from Philox(seed, key)."""
    if ratio < 0:
        raise ValueError("noise ratio must be >= 0")
    if ratio == 0.0:
        return m.copy()
    z = philox_rng(seed, 4, key).standard_normal(m.shape)
    return m * (1.0 + ratio * z)
