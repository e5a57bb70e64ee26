"""Spans around trunclsq's public functions, recorded from outside the package.

:func:`instrument` swaps each traced function for a wrapper in every
``trunclsq`` module namespace that holds it, so calls the package makes to
itself (``regression`` into ``subspace``, ``cli`` into ``mmio``) are seen as
well as the benchmark's own.  A span keeps its name, start, end, parent span,
request id, the workload that issued it, an optional note of computed counts
and the exception type if the call raised.  Spans stay in memory until
:meth:`Tracer.write` at the end of the run.

Self time is a span's duration minus the durations of its child spans; the
process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "workload", "note", "error")

    def __init__(self, name, parent, request, workload):
        self.name = name
        self.parent = parent
        self.request = request
        self.workload = workload
        self.start = self.end = 0.0
        self.note = None
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``recording`` is true."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = False
        self.request = 0
        self.workload = ""
        self._open: list[int] = []

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = Span(name, self._open[-1] if self._open else None, self.request, self.workload)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if note is not None:
                span.note = note(args, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.request, "workload": s.workload,
                    "note": s.note, "error": s.error,
                }) + "\n")


def _power_note(args, result):
    """Computed work of ``(A A^T)^p A S``: 2 m n k flops and one read of A
    plus the m-by-k and n-by-k blocks per product, 2p+1 products."""
    A, S, p = args[0], args[1], int(args[2])
    (m, n), k = A.shape, S.shape[1]
    products = 2 * p + 1
    return {"passes": p, "flops": 2.0 * m * n * k * products,
            "bytes": 8.0 * (m * n + (m + n) * k) * products}


def _svd_note(args, result):
    """Computed work of a thin SVD with U and V (Golub-Van Loan R-SVD count,
    ``6 m n^2 + 20 n^3`` with m >= n); bytes are one read of the input and
    one write of U, sigma and V."""
    m, n = max(args[0].shape), min(args[0].shape)
    return {"flops": 6.0 * m * n * n + 20.0 * n ** 3,
            "bytes": 8.0 * (2 * m * n + n * n + n)}


def _file_note(path):
    return {"bytes": float(os.path.getsize(path))}


TARGETS = (
    ("sketch", "gaussian_matrix", None),
    ("subspace", "power_product", _power_note),
    ("subspace", "power_basis_from_sketch", None),
    ("subspace", "power_basis", None),
    ("subspace", "approx_truncated_svd", None),
    ("linalg", "qr_factor", None),
    ("linalg", "thin_svd", _svd_note),
    ("linalg", "spectral_norm", None),
    ("regression", "exact_truncated_solve", None),
    ("regression", "approx_truncated_solve", None),
    ("bounds", "gap_profile", None),
    ("bounds", "choose_power_depth", lambda args, result: {"depth": int(result)}),
    ("bounds", "projection_distance", None),
    ("bounds", "subspace_capture_bound", None),
    ("bounds", "error_chain", None),
    ("bounds", "lower_bound_instance", None),
    ("mmio", "load_matrix", lambda args, result: _file_note(args[0])),
    ("mmio", "load_vector", None),
    ("mmio", "save_matrix", lambda args, result: _file_note(args[1])),
    ("mmio", "save_vector", None),
    ("bench", "synthetic_problem", None),
    ("cli", "main", None),
)


@contextmanager
def instrument(tracer: Tracer):
    """Replace every traced function in every loaded ``trunclsq`` module by
    its wrapper, and put the originals back on exit."""
    wrappers = {}
    for module, attr, note in TARGETS:
        original = getattr(importlib.import_module(f"trunclsq.{module}"), attr)
        wrappers[id(original)] = (original, tracer.wrap(f"{module}.{attr}", original, note))
    modules = [mod for name, mod in sys.modules.items()
               if mod is not None and (name == "trunclsq" or name.startswith("trunclsq."))]
    replaced = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                replaced.append((mod, attr, value))
                setattr(mod, attr, entry[1])
    try:
        yield tracer
    finally:
        for mod, attr, value in replaced:
            setattr(mod, attr, value)


class SpanIndex:
    """Spans of one workload, with children lists for self time."""

    def __init__(self, spans: list[Span], workload: str) -> None:
        self.all = spans
        self.ids = [i for i, s in enumerate(spans) if s.workload == workload]
        self.children: dict[int, list[int]] = {}
        for i in self.ids:
            parent = spans[i].parent
            if parent is not None:
                self.children.setdefault(parent, []).append(i)

    def named(self, name: str, parent: str | None = None, not_parent: str | None = None):
        out = []
        for i in self.ids:
            s = self.all[i]
            if s.name != name:
                continue
            parent_name = self.all[s.parent].name if s.parent is not None else None
            if parent is not None and parent_name != parent:
                continue
            if not_parent is not None and parent_name == not_parent:
                continue
            out.append(i)
        return out

    def child_time(self, i: int) -> float:
        return sum(self.all[c].duration for c in self.children.get(i, ()))

    def descendants(self, i: int):
        stack = list(self.children.get(i, ()))
        while stack:
            j = stack.pop()
            yield j
            stack.extend(self.children.get(j, ()))

    def note_sum(self, i: int, span_name: str, key: str) -> float:
        return sum(self.all[j].note[key] for j in self.descendants(i)
                   if self.all[j].name == span_name and self.all[j].note)


def _median(values) -> tuple[float | None, int]:
    values = list(values)
    return (statistics.median(values) if values else None), len(values)


def _ms(index: SpanIndex, ids) -> tuple[float | None, int]:
    return _median(1e3 * index.all[i].duration for i in ids)


def _count(ids, hit) -> tuple[float | None, int]:
    """How many of ``ids`` satisfy ``hit``; no value when ``ids`` is empty."""
    return (float(sum(1 for i in ids if hit(i))) if ids else None), len(ids)


def span_metrics(index: SpanIndex) -> dict[str, tuple[float | None, int]]:
    """Per-layer metrics derivable from one workload's spans, as
    ``name -> (value, samples)``; the value is ``None`` where the workload
    made no call into that layer."""
    spans = index.all
    approx = index.named("regression.approx_truncated_solve")
    exact = index.named("regression.exact_truncated_solve")
    power = index.named("subspace.power_product")
    full_svd = index.named("linalg.thin_svd", not_parent="subspace.approx_truncated_svd")
    certs = (index.named("bounds.subspace_capture_bound") + index.named("bounds.error_chain")
             + index.named("bounds.lower_bound_instance"))
    loads = index.named("mmio.load_matrix", not_parent="mmio.load_vector")
    saves = index.named("mmio.save_matrix", not_parent="mmio.save_vector")
    solved = [i for i in approx if spans[i].error is None]
    norm_calls = [sum(1 for j in index.descendants(c) if spans[j].name == "linalg.spectral_norm")
                  for c in certs]
    return {
        "sketch.gaussian_ms": _ms(index, index.named("sketch.gaussian_matrix")),
        "subspace.power_ms": _ms(index, power),
        "subspace.passes": _median(index.note_sum(i, "subspace.power_product", "passes") for i in solved),
        "subspace.power_gflops": _median(spans[i].note["flops"] / spans[i].duration / 1e9 for i in power),
        "subspace.qr_ms": _ms(index, index.named("linalg.qr_factor", parent="subspace.power_basis_from_sketch")),
        "subspace.cross_svd_ms": _ms(index, index.named("linalg.thin_svd", parent="subspace.approx_truncated_svd")),
        "subspace.rank_retries": _count(index.named("subspace.power_basis_from_sketch", parent="subspace.power_basis"),
                                        lambda i: spans[i].error == "RankDeficient"),
        "regression.exact_ms": _ms(index, exact),
        "regression.approx_ms": _ms(index, approx),
        "regression.apply_ms": _median(1e3 * (spans[i].duration - index.child_time(i)) for i in approx),
        "regression.refusals": _count(approx + exact, lambda i: spans[i].error is not None),
        "linalg.thin_svd_ms": _ms(index, full_svd),
        "linalg.spectral_norm_ms": _ms(index, index.named("linalg.spectral_norm")),
        "linalg.spectral_norm_calls": ((statistics.fmean(norm_calls) if norm_calls else None), len(norm_calls)),
        "bounds.gap_profile_ms": _ms(index, index.named("bounds.gap_profile")),
        "bounds.depth_p": _median(spans[i].note["depth"] for i in index.named("bounds.choose_power_depth")
                                  if spans[i].note),
        "bounds.capture_ms": _ms(index, index.named("bounds.subspace_capture_bound")),
        "bounds.error_chain_ms": _ms(index, index.named("bounds.error_chain")),
        "bounds.lower_bound_ms": _ms(index, index.named("bounds.lower_bound_instance")),
        "bounds.projection_distance_ms": _ms(index, index.named("bounds.projection_distance")),
        "mmio.load_ms": _ms(index, loads),
        "mmio.load_mb_per_s": _median(spans[i].note["bytes"] / 1e6 / spans[i].duration for i in loads),
        "mmio.save_ms": _ms(index, saves),
        "mmio.save_mb_per_s": _median(spans[i].note["bytes"] / 1e6 / spans[i].duration
                                      for i in saves if spans[i].note),
        "bench.synthetic_problem_ms": _ms(index, index.named("bench.synthetic_problem")),
        "trace.coverage": _median(index.child_time(i) / spans[i].duration for i in approx),
        "kernel.power_gflop_computed": _median(index.note_sum(i, "subspace.power_product", "flops") / 1e9
                                               for i in solved),
        "kernel.power_mb_computed": _median(index.note_sum(i, "subspace.power_product", "bytes") / 1e6
                                            for i in solved),
        "kernel.thin_svd_gflop_computed": _median(spans[i].note["flops"] / 1e9 for i in full_svd),
        "kernel.thin_svd_mb_computed": _median(spans[i].note["bytes"] / 1e6 for i in full_svd),
    }
