"""Per-layer attribution for the traced run, recorded from outside the program.

:class:`Tracing` arms three probes for one timed window, all installed at
runtime by this file and removed afterwards; no source file of the
program is edited:

* span wrappers around the public functions of each layer.  A wrapper
  drives the wrapped generator with ``send``/``throw`` and schedules no
  simulation event.  Each span records its name, start and end in
  simulated and host time, the host time spent actually executing
  inside it, its parent span and the request id shared by every span of
  one client op.  A process inherits the span that was open where it
  was created, so background work (flushes, GC) names its cause;
* a tee on ``Histogram.observe`` that keeps the raw samples of the
  device histograms whose tails the report needs;
* cProfile, aggregated by the package each function lives in.
"""

from __future__ import annotations

import cProfile
import functools
import gzip
import json
import os
import pstats
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro
from repro.cache.api import KamlStore
from repro.cache.buffer import BufferManager
from repro.cache.locks import LockManager
from repro.cluster import KamlCluster, TwoPhaseCoordinator
from repro.flash.channel import FlashChannel
from repro.kaml import KamlSsd
from repro.obs.metrics import Histogram
from repro.sim import Environment

from stats import tail
from workloads import Stack

#: (owner, attribute, span name): generator functions wrapped with spans.
SPAN_TARGETS: Tuple[Tuple[type, str, str], ...] = (
    (Stack, "timed_op", "op"),
    (KamlStore, "run_transaction", "cache.txn"),
    (LockManager, "acquire", "cache.lock.acquire"),
    (BufferManager, "read", "cache.buffer.read"),
    (KamlSsd, "get_record", "kaml.get_record"),
    (KamlSsd, "put", "kaml.put"),
    (KamlSsd, "delete", "kaml.delete"),
    (FlashChannel, "read_page", "flash.read_page"),
    (FlashChannel, "program_page", "flash.program_page"),
    (KamlCluster, "get", "cluster.get"),
    (KamlCluster, "put", "cluster.put"),
    (KamlCluster, "delete", "cluster.delete"),
    (KamlCluster, "rebalance", "cluster.rebalance"),
    (TwoPhaseCoordinator, "run", "cluster.2pc"),
)

#: Device and cluster histograms whose raw samples the tee keeps.
TEE_HISTOGRAMS = (
    "kaml.put.nvram_wait_us",
    "kaml.firmware.wait_us",
    "kaml.gc.clean_block_us",
    "cluster.queue.wait_us",
    "cluster.2pc.us",
    "cluster.rebalance.us",
)

#: Packages of ``repro`` whose host cost the report breaks out.
PACKAGES = ("sim", "flash", "ssd", "kaml", "ftl", "cache", "cluster", "obs")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

# Span tuple layout (kept flat: a traced window records ~10^5 spans).
_ID, _PARENT, _REQUEST, _NAME, _SIM0, _SIM1, _HOST0, _HOST1, _ACTIVE = range(9)


class Tracing:
    """Probes for one traced window; ``install`` then ``uninstall``."""

    def __init__(self) -> None:
        self.spans: List[Tuple[Any, ...]] = []
        self.tee: Dict[str, List[float]] = {name: [] for name in TEE_HISTOGRAMS}
        self.profiler = cProfile.Profile()
        self._next_id = 1
        #: process -> stack of open span tuples (id, request id)
        self._open: Dict[Any, List[Tuple[int, int]]] = {}
        #: process -> (span id, request id) open where it was created
        self._origin: Dict[Any, Tuple[int, int]] = {}
        self._restore: List[Tuple[type, str, Any]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for owner, attribute, name in SPAN_TARGETS:
            self._patch(owner, attribute, self._span_wrapper(owner.__dict__[attribute], name))
        self._patch(Environment, "process", self._process_wrapper(Environment.process))
        self._patch(Histogram, "observe", self._tee_wrapper(Histogram.observe))
        self.profiler.enable()

    def uninstall(self) -> None:
        self.profiler.disable()
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner: type, attribute: str, replacement: Any) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    # -- spans -----------------------------------------------------------

    def _span_wrapper(self, function: Any, name: str) -> Any:
        tracing = self

        @functools.wraps(function)
        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
            return tracing._drive(obj.env, name, function(obj, *args, **kwargs))

        return wrapper

    def _current(self, process: Any) -> Optional[Tuple[int, int]]:
        stack = self._open.get(process)
        if stack:
            return stack[-1]
        return self._origin.get(process)

    def _drive(self, env: Environment, name: str, inner: Iterator[Any]) -> Iterator[Any]:
        process = env.active_process
        parent = self._current(process)
        span_id = self._next_id
        self._next_id += 1
        request_id = parent[1] if parent is not None else span_id
        entry = (span_id, request_id)
        stack = self._open.setdefault(process, [])
        stack.append(entry)
        sim_start = env.now
        host_start = perf_counter()
        active = 0.0
        to_send: Any = None
        to_throw: Optional[BaseException] = None
        finished = True
        try:
            while True:
                resumed = perf_counter()
                try:
                    if to_throw is None:
                        target = inner.send(to_send)
                    else:
                        error, to_throw = to_throw, None
                        target = inner.throw(error)
                except StopIteration as stop:
                    active += perf_counter() - resumed
                    return stop.value
                active += perf_counter() - resumed
                try:
                    to_send = yield target
                except GeneratorExit:
                    # Abandoned, never resumed again: no span to record.
                    finished = False
                    inner.close()
                    raise
                except BaseException as error:  # delivered into the inner generator
                    to_send, to_throw = None, error
        finally:
            stack.remove(entry)
            if not stack and self._open.get(process) is stack:
                del self._open[process]
            if finished:
                self.spans.append((
                    span_id, parent[0] if parent is not None else 0, request_id,
                    name, sim_start, env.now, host_start, perf_counter(), active,
                ))

    def _process_wrapper(self, function: Any) -> Any:
        tracing = self

        @functools.wraps(function)
        def process(env: Environment, generator: Any) -> Any:
            origin = tracing._current(env.active_process)
            proc = function(env, generator)
            if origin is not None:
                tracing._origin[proc] = origin
            return proc

        return process

    def _tee_wrapper(self, function: Any) -> Any:
        tee = self.tee

        @functools.wraps(function)
        def observe(histogram: Histogram, value: float) -> None:
            samples = tee.get(histogram.name)
            if samples is not None:
                samples.append(value)
            function(histogram, value)

        return observe

    # -- reports -----------------------------------------------------------

    def span_durations(self, name: str) -> List[float]:
        return [s[_SIM1] - s[_SIM0] for s in self.spans if s[_NAME] == name]

    def span_summary(self, ops: int) -> Dict[str, Dict[str, float]]:
        """Per span name: count, simulated duration tail and self time
        (duration minus what child spans cover), and host time spent
        executing inside the span (children included)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span[_PARENT]:
                children.setdefault(span[_PARENT], []).append((span[_SIM0], span[_SIM1]))
        summary: Dict[str, Dict[str, Any]] = {}
        for span in self.spans:
            entry = summary.setdefault(span[_NAME], {
                "count": 0, "durations": [], "sim_self_us": 0.0, "host_active_s": 0.0,
            })
            entry["count"] += 1
            entry["durations"].append(span[_SIM1] - span[_SIM0])
            entry["sim_self_us"] += _self_time(
                span[_SIM0], span[_SIM1], children.get(span[_ID], ())
            )
            entry["host_active_s"] += span[_ACTIVE]
        report = {}
        for name, entry in sorted(summary.items()):
            report[name] = {
                "count": entry["count"],
                "sim_p50_us": tail(entry["durations"], 0.50),
                "sim_p99_us": tail(entry["durations"], 0.99),
                "sim_self_us_per_op": entry["sim_self_us"] / ops if ops else 0.0,
                "host_active_us_per_op": entry["host_active_s"] * 1e6 / ops if ops else 0.0,
            }
        return report

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ("id", "parent", "request", "name", "sim_start_us", "sim_end_us",
                  "host_start_s", "host_end_s", "host_active_s")
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))))
                handle.write("\n")

    def packages(self, ops: int) -> Dict[str, Dict[str, float]]:
        """cProfile self time and calls, summed by package, per op."""
        totals: Dict[str, List[float]] = {}
        for (filename, _line, _func), row in pstats.Stats(self.profiler).stats.items():
            _cc, calls, self_s, _cum, _callers = row
            entry = totals.setdefault(package_of(filename), [0.0, 0.0])
            entry[0] += self_s
            entry[1] += calls
        return {
            package: {
                "self_us_per_op": self_s * 1e6 / ops if ops else 0.0,
                "calls_per_op": calls / ops if ops else 0.0,
            }
            for package, (self_s, calls) in sorted(totals.items())
        }


def package_of(filename: str) -> str:
    """``repro`` sub-package of a profiled function's file."""
    if filename.startswith(_REPRO_DIR):
        parts = filename[len(_REPRO_DIR):].split(os.sep)
        return parts[0] if len(parts) > 1 else "repro"
    if filename.startswith(_BENCH_DIR):
        return "bench"
    return "builtin" if filename == "~" else "python"


def _self_time(start: float, end: float, children: Any) -> float:
    """Span duration minus the union of its children's clipped intervals."""
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return (end - start) - covered
