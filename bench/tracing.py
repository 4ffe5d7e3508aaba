"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: ``instrument`` swaps every
module attribute of the ``opticomp`` package that refers to a traced
function for a wrapper, so a call is seen under the name its caller looks
up (``decompose.truncated_svd`` is the ``linalg.truncated_svd`` function
as ``decompose_layer`` finds it). Nothing inside ``src/`` changes.

Each traced loop iteration is a *job*; every span and count belongs to the
job it ran in. Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import pkgutil
import time
from collections import defaultdict


class Tracer:
    """In-memory spans ``(name, start, end, parent, job)`` and per-job counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)  # open spans by name
        self._job = -1

    @contextlib.contextmanager
    def job(self):
        """A root span; spans opened inside it are attributed to it."""
        self._job = len(self.spans)
        with self.span("job"):
            yield

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._job])
        self._stack.append(idx)
        self._open[name] += 1
        try:
            yield
        finally:
            self._open[name] -= 1
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return self._open[name] > 0

    def add(self, name: str, value: float = 1) -> None:
        self.counts[self._job, name] += value

    def per_job(self) -> list[dict[str, float]]:
        """Metrics per job: each span's self time (``<span>_s``), duration
        (``<span>_total_s``) and call count (``<span>_calls``), and every
        count added. A span's self time is its duration minus the time its
        child spans cover."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, parent, job) in enumerate(self.spans):
            if parent < 0:
                continue  # job roots are not layers
            out[job][f"{name}_s"] += end - start - child_time[idx]
            out[job][f"{name}_total_s"] += end - start
            out[job][f"{name}_calls"] += 1
        for (job, name), value in self.counts.items():
            out[job][name] += value
        return [metrics for _, metrics in sorted(out.items())]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")


def _wrap_span(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _wrap_count(tracer: Tracer, name: str, fn, within: str):
    def wrapper(*args, **kwargs):
        if tracer.inside(within):
            tracer.add(name)
        return fn(*args, **kwargs)

    return wrapper


def _after_decompose(tracer, args, kwargs, dec):
    # One alternation iteration logs two objective values; the closing
    # refit logs one more.
    tracer.add("decompose.decompose_layer_iters", (len(dec.objective_trace) - 1) // 2)


def _after_adapt(tracer, args, kwargs, dec):
    requested = kwargs.get("steps", args[3] if len(args) > 3 else 100)
    tracer.add("decompose.local_adapt_steps_requested", requested)
    tracer.add("decompose.local_adapt_steps_accepted", len(dec.objective_trace) - 1)


def _after_allocate(tracer, args, kwargs, plan):
    tracer.add("allocate.rounds", plan.iterations)


def _after_simulate(tracer, args, kwargs, report):
    tracer.add("photonic.invocations", sum(lc.dense_invocations + lc.sparse_invocations for lc in report.per_layer))


# (module, function, span name, hook run on the result)
SPANS = (
    ("linalg", "truncated_svd", "linalg.truncated_svd", None),
    ("decompose", "structured_sparsify", "decompose.structured_sparsify", None),
    ("decompose", "decompose_layer", "decompose.decompose_layer", _after_decompose),
    ("decompose", "local_adapt", "decompose.local_adapt", _after_adapt),
    ("allocate", "prepare_full_rank", "allocate.prepare_full_rank", None),
    ("allocate", "allocate_ranks", "allocate.allocate_ranks", _after_allocate),
    ("vit", "collect_calibration", "vit.collect_calibration", None),
    ("quantize", "quantize", "quantize.quantize", None),
    ("container", "read_container", "container.read", None),
    ("container", "write_container", "container.write", None),
    ("pipeline", "compress_model", "pipeline.compress_model", None),
    ("pipeline", "verify_artifacts", "pipeline.verify_artifacts", None),
    ("photonic", "simulate", "photonic.simulate", _after_simulate),
    ("photonic", "ptc_layer_matmul", "photonic.ptc_layer_matmul", None),
    ("photonic", "condensed_matmul", "photonic.condensed_matmul", None),
)
# Called thousands of times per compress: counted, not spanned, and only
# inside the span named last, so that calls from other stages (the dse job's
# functional PTC execution calls it twice per block) do not swamp the count.
COUNTS = (("util", "as_matrix", "util.as_matrix_calls", "pipeline.compress_model"),)


def _package_modules():
    import opticomp

    mods = [opticomp]
    for info in pkgutil.iter_modules(opticomp.__path__):
        mods.append(importlib.import_module(f"opticomp.{info.name}"))
    return mods


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every package-level reference to a traced function through the
    tracer for the duration of the block, then restore the originals."""
    mods = _package_modules()
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    wrappers = {}
    for mod, fn, name, after in SPANS:
        orig = getattr(by_name[mod], fn)
        wrappers[id(orig)] = (orig, _wrap_span(tracer, name, orig, after))
    for mod, fn, name, within in COUNTS:
        orig = getattr(by_name[mod], fn)
        wrappers[id(orig)] = (orig, _wrap_count(tracer, name, orig, within))
    patched = []
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)
