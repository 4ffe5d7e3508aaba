"""Symmetric 8-bit post-training quantization and multiplicative noise.

Codes live in [-127, 127] (no -128) with scale = max|value| / 127 taken
per output channel (row) or per tensor; rounding is round-half-to-even.
Noise is multiplicative, out = m * (1 + ratio * z) with z drawn from a
Philox4x32-10 counter-based stream, so results reproduce bit-for-bit for a
given (seed, key) and are independent of evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import philox_rng


@dataclass(frozen=True)
class QuantizedTensor:
    codes: np.ndarray  # int8-range integers, stored as int16 for safe math
    scales: np.ndarray  # (rows,) for per-channel, (1,) for per-tensor
    axis: str  # "per_output_channel" | "per_tensor"

    def __post_init__(self):
        if self.codes.min() < -127 or self.codes.max() > 127:
            raise ValueError("codes outside the symmetric int8 range [-127, 127]")
        if np.any(self.scales <= 0):
            raise ValueError("scales must be positive")


def quantize(m: np.ndarray, axis: str = "per_output_channel") -> QuantizedTensor:
    if axis == "per_output_channel":
        peak = np.abs(m).max(axis=1)
    elif axis == "per_tensor":
        peak = np.array([np.abs(m).max()])
    else:
        raise ValueError(f"unknown quantization axis {axis!r}")
    scales = np.where(peak == 0.0, 1.0, peak / 127.0)
    codes = np.clip(np.round(m / scales[:, None] if axis == "per_output_channel" else m / scales[0]), -127, 127)
    return QuantizedTensor(codes=codes.astype(np.int16), scales=scales, axis=axis)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    if q.axis == "per_output_channel":
        return q.codes.astype(np.float64) * q.scales[:, None]
    return q.codes.astype(np.float64) * q.scales[0]


def inject_noise(
    m: np.ndarray, ratio: float, seed: int, key: int = 0, dist: str = "gaussian"
) -> np.ndarray:
    """out[i,j] = m[i,j] * (1 + ratio * z) with z from Philox(seed, key).

    ``dist`` picks the unit-variance noise shape: standard normal
    ("gaussian") or uniform over [-sqrt(3), sqrt(3)] ("uniform"), so the
    empirical std of out/m - 1 equals ``ratio`` either way.
    """
    if ratio < 0:
        raise ValueError("noise ratio must be >= 0")
    if ratio == 0.0:
        return m.copy()
    rng = philox_rng(seed, 4, key)
    if dist == "gaussian":
        z = rng.standard_normal(m.shape)
    elif dist == "uniform":
        z = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=m.shape)
    else:
        raise ValueError(f"unknown noise distribution {dist!r}")
    return m * (1.0 + ratio * z)
