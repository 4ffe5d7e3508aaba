"""Host-time samples scaled to a fixed host speed.

On a small shared machine the host's speed changes by up to two times from
one stretch of seconds to the next, so raw times of the same code differ
between runs by more than any regression the benchmark should catch.
``Clock`` therefore times a fixed reference kernel, which does the kinds of
work opticomp does, right before every sample, between the jobs of a block
and right after it. Each sample is kept as measured and scaled by ``REF_S``
over the mean reference time around it: the seconds it would have taken on
a host where the reference kernel takes ``REF_S``. The reference kernel's
own time is left out of every sample.
"""
from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

import numpy as np

# The reference kernel's fastest time on the 2-vCPU Xeon the benchmark was
# built on; a constant, so that scaled times of different runs compare.
REF_S = 0.0015

_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((48, 48))
_X = _RNG.standard_normal((48, 16))
_M = _RNG.standard_normal((64, 64))


def reference() -> None:
    """A fixed mix of opticomp's kinds of work, five times over: small tiled
    products in a Python loop, a mid-size product with a row softmax, a
    small SVD and a dict-heavy Python loop."""
    for _ in range(5):
        out = np.zeros((48, 16))
        for i in range(0, 48, 12):
            for k in range(0, 48, 12):
                w = np.ascontiguousarray(_W[i : i + 12, k : k + 12])
                x = np.ascontiguousarray(_X[k : k + 12])
                if not (np.all(np.isfinite(w)) and np.all(np.isfinite(x))):
                    raise ValueError("reference inputs are not finite")
                out[i : i + 12] += w @ x
        y = _M @ _M
        y -= y.max(axis=1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=1, keepdims=True)
        np.linalg.svd(_M[:32, :32], compute_uv=False)
        counts: dict[int, float] = {}
        for j in range(200):
            counts[j % 13] = counts.get(j % 13, 0.0) + j * 0.5


class Clock:
    """Host-time samples by name, in seconds per job: ``raw`` as measured,
    ``scaled()`` at the reference host speed."""

    def __init__(self):
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.refs: list[tuple[float, float]] = []  # (midpoint, seconds) of each reference run
        self._samples: list[tuple[str, float, float, float, int]] = []  # name, start, end, seconds per job, jobs
        self._open: list[list[float]] = []  # [reference seconds inside] of each open sample

    def _run_reference(self) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.refs.append(((t0 + t1) / 2, t1 - t0))
        for sample in self._open:
            sample[0] += t1 - t0

    @contextlib.contextmanager
    def sample(self, name: str, jobs: int = 1):
        """Time the block as one sample of ``jobs`` jobs; samples may nest."""
        self._run_reference()
        start = time.perf_counter()
        inside = [0.0]
        self._open.append(inside)
        try:
            yield
            self._run_reference()
        finally:
            self._open.remove(inside)
        end = time.perf_counter()
        seconds = (end - start - inside[0]) / jobs
        self.raw[name].append(seconds)
        self._samples.append((name, start, end, seconds, jobs))

    def block(self, name: str, job, jobs: int) -> list:
        """Run ``job`` ``jobs`` times back to back as one sample, with a
        reference between each two; returns their results."""
        results = []
        with self.sample(name, jobs):
            for i in range(jobs):
                if i:
                    self._run_reference()
                results.append(job())
        return results

    def scaled(self) -> dict[str, list[float]]:
        """Every sample times ``REF_S`` over the mean reference time around
        it. For a block, that is the references between its jobs and at its
        ends. A single call holds none between its ends, so for it that is
        every reference within its own length either side of it."""
        out = defaultdict(list)
        for name, start, end, seconds, jobs in self._samples:
            reach = end - start if jobs == 1 else 0.01  # 0.01 s reaches the references at the ends
            near = [dt for mid, dt in self.refs if start - reach <= mid <= end + reach]
            out[name].append(seconds * REF_S / statistics.mean(near))
        return out
