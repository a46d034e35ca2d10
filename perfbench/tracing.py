"""Span tracer for the benchmark's traced runs.

The program carries no tracing of its own at layer granularity, so the
benchmark records spans from outside: :meth:`Tracer.install` wraps the
public entry points of each ``repro`` layer (listed in
:data:`TRACE_POINTS`) so that every call opens a span, and
:meth:`Tracer.uninstall` puts the originals back.  The benchmark also
opens spans around its own calls with :meth:`Tracer.region`.

Spans are aggregated as they close: per span name the tracer keeps the
call count, the total duration and the *self* time (duration minus the
part covered by child spans).  The self times of all spans add up to
the duration of the top-level spans, which is what lets a traced pass
split its wall clock into layers plus an explicit ``unattributed``
remainder.  With ``keep_spans=True`` (the self-test) every span is also
kept as ``(name, start, end, parent)`` so nesting can be checked.

Only the thread that created the tracer records spans, and only while
:attr:`Tracer.enabled`; other calls pass straight through.  Pool
workers forked while the tracer is installed inherit the wrappers, but
their spans stay in the worker and are never reported — worker-side
work is read from the ``RunMetrics`` counters the workers ship back
instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager

__all__ = ["TRACE_POINTS", "Tracer"]

#: span name -> (module, attribute path) of the public entry points
#: wrapped in traced runs.  A ``Class.method`` path wraps the method on
#: the class; a bare name wraps the function in every ``repro`` module
#: that imported it.
TRACE_POINTS: tuple[tuple[str, str, str], ...] = (
    ("topology.generate", "repro.topology.generators", "generate_internet_topology"),
    ("bgp.compile", "repro.bgp.compiled", "CompiledTopology.from_graph"),
    ("bgp.propagate", "repro.bgp.engine", "PropagationEngine.propagate"),
    ("attack.simulate", "repro.attack.interception", "simulate_interception"),
    ("measurement.ribs", "repro.measurement.ribs", "build_monitor_ribs"),
    ("measurement.updates", "repro.bgp.updates", "simulate_update_stream"),
    ("measurement.snapshot", "repro.bgp.collectors", "RouteCollector.snapshot"),
    ("detection.timing", "repro.detection.timing", "detection_timing"),
    ("detection.inspect", "repro.detection.detector", "ASPPInterceptionDetector.inspect_change"),
    ("detection.inspect", "repro.detection.detector", "ASPPInterceptionDetector.scan_feed"),
    ("detection.streaming", "repro.detection.streaming", "StreamingDetector.consume_all"),
    ("detection.pipeline.offer", "repro.detection.pipeline.ingest", "StreamingPipeline.offer"),
    ("detection.pipeline.flush", "repro.detection.pipeline.ingest", "StreamingPipeline.flush"),
    ("runner", "repro.runner.scheduler", "ShardedScheduler.run"),
    ("store.open", "repro.store.store", "CampaignStore.__init__"),
    ("store.get", "repro.store.store", "CampaignStore.get"),
    ("store.put", "repro.store.store", "CampaignStore.put"),
)


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self, *, keep_spans: bool = False) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: summed duration of spans opened with no parent span
        self.top_level_s = 0.0
        #: every closed span as (name, start, end, parent index or -1),
        #: indexed in the order spans were opened (self-test only)
        self.spans: list[tuple[str, float, float, int]] | None = [] if keep_spans else None
        #: spans are recorded only while True (the runner clears it while
        #: it checks a pass, so oracle work stays out of the ledger)
        self.enabled = True
        self._stack: list[list] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> list:
        index = -1
        if self.spans is not None:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, -1))
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child_s, index = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_s
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_index = parent[3]
        else:
            self.top_level_s += duration
            parent_index = -1
        if self.spans is not None:
            self.spans[index] = (name, start, end, parent_index)

    @contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name: str, fn):
        """``fn`` wrapped so each call on the tracer's thread is a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return traced

    # -- installation ---------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every :data:`TRACE_POINTS` entry point."""
        for name, module_name, path in TRACE_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._set(owner, attr, self.wrap(name, raw))
                continue
            original = getattr(module, path)
            traced = self.wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, attr, traced)

    def uninstall(self) -> None:
        """Restore every wrapped entry point (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------
    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[0] if stat else 0

    def self_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat[2] if stat else 0.0

    def total_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat[1] if stat else 0.0

    def nesting_errors(self) -> list[str]:
        """Kept spans that leave their parent's interval or have
        negative self time (self-test)."""
        if self.spans is None:
            return []
        errors = []
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end < start:
                errors.append(f"{name}: ends before it starts")
            if parent >= 0:
                p_name, p_start, p_end, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    errors.append(f"{name} leaves its parent {p_name}")
                child_s[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child_s):
            if end - start - covered < -1e-9:
                errors.append(f"{name}: negative self time")
        return errors
