"""Benchmark-side span tracing around repro's public functions.

The traced run wraps each function listed in :data:`TARGETS` (patched
on its class, or in every ``repro`` module namespace that binds it) so
every call records a span: name, start, end, parent and the request's
trace id, read back through :func:`repro.obs.context.current_trace_id`.
Self time — a span's duration minus the part its child spans cover —
is aggregated per span name as calls finish, so memory stays bounded;
the first :data:`MAX_SPANS` spans are also kept and written as JSONL
when the process exits.

Parents are found two ways. Synchronous calls nest on a per-thread
stack. A call with no same-thread parent whose trace id belongs to an
open request span (``AnalyticsService.submit``/``mutate``, which run on
the event loop while the engine runs in a worker thread) becomes that
request span's child, so the request's self time is the time it spent
waiting: admission, session lock and executor queue.

Nothing here is imported by the process under test unless it is the
traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept verbatim for the JSONL dump; later spans are aggregated
#: only (the array-level simulator makes millions of calls).
MAX_SPANS = 100_000

#: (layer, "module:qualname") for every wrapped function. Layers are
#: named after repro's modules; ``BENCHMARK.json`` per-layer time
#: metrics are ``<layer>_s``.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("graphs.generate", "repro.graphs.generators:rmat"),
    ("graphs.generate", "repro.graphs.generators:degree_sorted_relabel"),
    ("graphs.generate", "repro.graphs.generators:bipartite_ratings"),
    ("graphs.partition", "repro.graphs.partition:partition_graph"),
    ("graphs.partition", "repro.core.cache:LayoutCache.grid"),
    ("graphs.mutate", "repro.graphs.graph:normalize_mutation"),
    ("graphs.mutate", "repro.graphs.graph:Graph.with_edges"),
    ("graphs.mutate", "repro.graphs.partition:mutate_grid"),
    ("cache.fingerprint", "repro.core.cache:graph_fingerprint"),
    ("cache.fingerprint", "repro.core.cache:config_fingerprint"),
    ("loader.layout", "repro.core.cache:LayoutCache.layout"),
    ("loader.layout", "repro.core.loader:build_layout"),
    ("loader.layout", "repro.core.loader:CrossbarLayout.groups_by"),
    ("engine.run", "repro.core.engine:GaaSXEngine.run"),
    ("engine.run", "repro.core.engine:GaaSXEngine.pagerank"),
    ("engine.run", "repro.core.engine:GaaSXEngine.bfs"),
    ("engine.run", "repro.core.engine:GaaSXEngine.sssp"),
    ("engine.run", "repro.core.engine:GaaSXEngine.wcc"),
    ("engine.run", "repro.core.engine:GaaSXEngine.collaborative_filtering"),
    ("algorithms.incremental", "repro.core.algorithms.incremental:pagerank"),
    ("reuse.migrate", "repro.core.reuse:migrate_for_mutation"),
    ("micro.build", "repro.core.micro:MicroGaaSX.__init__"),
    ("micro.build", "repro.core.micro:MicroGaaSX._build"),
    ("micro.kernel", "repro.core.micro:MicroGaaSX.pagerank"),
    ("micro.kernel", "repro.core.micro:MicroGaaSX.bfs"),
    ("micro.kernel", "repro.core.micro:MicroGaaSX.sssp"),
    ("xbar.program", "repro.xbar.cam_array:EdgeCam.load_edges"),
    ("xbar.program", "repro.xbar.mac_array:MacCrossbar.write_rows"),
    ("xbar.search", "repro.xbar.cam_array:CamBank.search_packed"),
    ("xbar.search", "repro.xbar.cam_array:EdgeCam.search_packed"),
    ("xbar.search", "repro.xbar.cam_array:EdgeCam.search_many"),
    ("xbar.search", "repro.xbar.cam_array:EdgeCam.search_src"),
    ("xbar.search", "repro.xbar.cam_array:EdgeCam.search_dst"),
    ("xbar.mac", "repro.xbar.mac_array:MacBank.mac_rowwise_many"),
    ("xbar.mac", "repro.xbar.mac_array:MacCrossbar.mac"),
    ("xbar.mac", "repro.xbar.mac_array:MacCrossbar.mac_many"),
    ("xbar.mac", "repro.xbar.mac_array:MacCrossbar.mac_rowwise_many"),
    ("xbar.mac", "repro.xbar.mac_array:MacCrossbar.mac_transposed"),
    ("xbar.mac", "repro.xbar.mac_array:MacCrossbar.mac_rowwise"),
    ("xbar.adc", "repro.xbar.adc:ADC.convert"),
    ("hw.record", "repro.obs.hw:HwMonitor.record_batch_many"),
    ("hw.record", "repro.obs.hw:HwMonitor.add_many"),
    ("hw.record", "repro.obs.hw:HwMonitor.end_step"),
    ("hw.record", "repro.obs.hw:ArrayCounters.add"),
    ("hw.record", "repro.obs.hw:ArrayCounters.record_chunk"),
    ("hw.record", "repro.obs.hw:ArrayCounters.record_batch"),
    ("energy.price", "repro.energy.ledger:EnergyLedger.price"),
    ("graphr.run", "repro.baselines.graphr.engine:GraphREngine.__init__"),
    ("graphr.run", "repro.baselines.graphr.engine:GraphREngine.pagerank"),
    ("graphr.run", "repro.baselines.graphr.engine:GraphREngine.bfs"),
    ("graphr.run", "repro.baselines.graphr.engine:GraphREngine.sssp"),
    ("graphr.run", "repro.baselines.graphr.tiles:build_tile_layout"),
    ("baselines.trace", "repro.baselines.workload:trace_pagerank"),
    ("baselines.trace", "repro.baselines.workload:trace_traversal"),
    ("storage.convert", "repro.graphs.io:save_store"),
    ("storage.convert", "repro.storage.mmap_store:MmapStore.dataset"),
    ("storage.convert", "repro.storage.mmap_store:MmapStore.put_graph"),
    ("pool.acquire", "repro.serve.pool:SessionPool.acquire"),
    ("pool.apply_mutation", "repro.serve.pool:WarmSession.apply_mutation"),
    ("protocol.serialize", "repro.serve.protocol:summarize_result"),
    ("protocol.serialize", "repro.serve.protocol:modelled_stats"),
    ("protocol.serialize", "repro.serve.protocol:QueryResult.to_dict"),
    ("serve.wait", "repro.serve.server:AnalyticsService.submit"),
    ("serve.wait", "repro.serve.server:AnalyticsService.mutate"),
)

#: Every traced layer, in report order (``serve.http`` is derived from
#: client latencies, not wrapped).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for layer, _ in TARGETS] + ["serve.http"]
))

#: Kernel entry points whose returned EventLog is the run's modelled
#: work; only the outermost such call in a stack is counted.
_KERNELS = {
    "GaaSXEngine.pagerank", "GaaSXEngine.bfs", "GaaSXEngine.sssp",
    "GaaSXEngine.wcc", "GaaSXEngine.collaborative_filtering",
    "MicroGaaSX.pagerank", "MicroGaaSX.bfs", "MicroGaaSX.sssp",
}

_EVENT_FIELDS = ("cam_searches", "mac_ops", "mac_rows_accumulated")


class _Frame:
    __slots__ = ("span_id", "child", "kernel")

    def __init__(self, span_id: int, kernel: bool) -> None:
        self.span_id = span_id
        self.child = 0.0
        self.kernel = kernel


class Recorder:
    """In-memory span sink with running self-time aggregation."""

    def __init__(self) -> None:
        from repro.obs.context import current_trace_id

        self._trace_id = current_trace_id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.origin = time.perf_counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Summed duration of spans with no parent, per phase.
        self.root_s: Dict[str, float] = defaultdict(float)
        #: Per trace id: summed duration of its parentless server spans.
        self.trace_s: Dict[str, float] = defaultdict(float)
        self.events: Dict[str, int] = {name: 0 for name in _EVENT_FIELDS}
        self.phase = "setup"
        self.spans: List[tuple] = []
        self._open_requests: Dict[str, _Frame] = {}

    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _keep(self, span: tuple) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)

    def _count_events(self, result: Any, stack) -> None:
        if any(frame.kernel for frame in stack):
            return  # an outer kernel call owns this run's events
        if self.phase != "window" and self._trace_id() is None:
            return  # set-up and verification work is not the workload
        events = getattr(getattr(result, "stats", None), "events", None)
        if events is None and isinstance(result, tuple) and len(result) == 2:
            events = result[1]  # MicroGaaSX kernels return (values, log)
        if events is None:
            return
        with self._lock:
            for field_name in _EVENT_FIELDS:
                self.events[field_name] += int(getattr(events, field_name))

    def wrap_sync(self, name: str, fn: Callable) -> Callable:
        kernel = name in _KERNELS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = _Frame(next(self._ids), kernel)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._finish(name, frame, parent, start, end)
            if kernel:
                self._count_events(result, stack)
            return result

        return traced

    def _finish(self, name, frame, parent, start, end) -> None:
        duration = end - start
        trace = None if parent is not None else self._trace_id()
        with self._lock:
            if parent is None and trace in self._open_requests:
                parent = self._open_requests[trace]
            if parent is not None:
                parent.child += duration
            else:
                self.root_s[self.phase] += duration
                if trace is not None:
                    self.trace_s[trace] += duration
            parent_id = parent.span_id if parent is not None else 0
            self.self_s[name] += duration - frame.child
            self.calls[name] += 1
            self._keep((frame.span_id, parent_id, name, trace,
                        threading.get_ident(), start, end))

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """A request-level span around a coroutine function.

        Not pushed on the thread stack — other requests' coroutines
        interleave on the same event-loop thread — but registered by
        trace id so worker-thread spans of the same request nest
        under it.
        """

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            trace = self._trace_id()
            frame = _Frame(next(self._ids), False)
            if trace is not None:
                with self._lock:
                    self._open_requests[trace] = frame
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                with self._lock:
                    if trace is not None:
                        self._open_requests.pop(trace, None)
                        self.trace_s[trace] += end - start
                    self.root_s[self.phase] += end - start
                    self.self_s[name] += (end - start) - frame.child
                    self.calls[name] += 1
                    self._keep((frame.span_id, 0, name, trace,
                                threading.get_ident(), start, end))

        return traced

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Aggregates the benchmark turns into per-layer metrics."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "root_s": dict(self.root_s),
                "trace_s": dict(self.trace_s),
                "events": dict(self.events),
            }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, trace, thread, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "trace_id": trace, "thread": thread,
                    "start_s": start - self.origin,
                    "end_s": end - self.origin,
                }) + "\n")


def install(recorder: Recorder) -> List[str]:
    """Wrap every :data:`TARGETS` function; returns the ones not found.

    A class attribute is patched on its class. A module-level function
    is patched in its defining module and in every loaded ``repro``
    module that bound it by ``from ... import``; modules imported later
    pick up the patched attribute themselves.
    """
    missing = []
    for _layer, spec in TARGETS:
        module_name, qualname = spec.split(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(spec)
            continue
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = vars(owner).get(attr) if owner is not None else None
        if not callable(fn):
            missing.append(spec)
            continue
        if inspect.iscoroutinefunction(fn):
            wrapped = recorder.wrap_async(qualname, fn)
        else:
            wrapped = recorder.wrap_sync(qualname, fn)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or loaded is None:
                continue
            for binding, value in list(vars(loaded).items()):
                if value is fn:
                    setattr(loaded, binding, wrapped)
    return missing


def layer_of(span_name: str) -> Optional[str]:
    for layer, spec in TARGETS:
        if spec.split(":")[1] == span_name:
            return layer
    return None


def layer_self_times(summary: dict) -> Dict[str, float]:
    """Self seconds per layer from a :meth:`Recorder.summary`."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, seconds in summary["self_s"].items():
        layer = layer_of(name)
        if layer is not None:
            out[layer] += seconds
    return out
