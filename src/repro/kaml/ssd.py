"""The KAML SSD firmware front-end (Sections III-A, IV).

Implements Table I — ``CreateNamespace`` / ``DeleteNamespace`` / ``Get`` /
``Put`` — plus a ``Delete`` extension, namespace retargeting, index
swapping, and crash recovery from the NVRAM staging buffers.

``Put`` follows the paper's two-phase protocol (Section IV-D):

1. The batch is transferred over PCIe and pinned in battery-backed NVRAM;
   the firmware probes/reserves each key's index entry and stages the
   batch in the NVRAM write cache.  The command is now *logically
   committed* and the host is acknowledged.
2. Records are appended to logs (one flash program per packed page).
3. The firmware installs the new physical addresses in the mapping
   tables, adjusts valid-byte accounting, and frees NVRAM.

Phases 2–3 run in a background process; the host-visible latency is
phase 1 — which is why small ``Put`` latency beats block ``write``
(Figure 6b) even though flash programs are slow.

Where the paper says the firmware "locks" index entries across all three
phases, this implementation orders concurrent same-key Puts by a version
assigned at phase 1 and serves acknowledged-but-uninstalled values from
the NVRAM staging area.  The observable semantics are identical (atomic,
ordered, read-after-ack), but hot keys are not rate-limited to one
update per flash-program, which the paper's sustained YCSB-zipfian
throughput implies their firmware avoids too.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro import sanitize
from repro.config import ReproConfig
from repro.flash import FlashArray, PagePointer
from repro.kaml.log import KamlLog, LogSpaceError
from repro.kaml.namespace import Namespace, NamespaceAttributes, NamespaceError
from repro.kaml.record import (
    RECORD_HEADER_BYTES,
    TOMBSTONE,
    Record,
    RecordLocation,
    RecordTooLargeError,
    chunks_for,
    decode_bitmap,
)
from repro.kaml.snapshot import Snapshot, SnapshotError, clone_index
from repro.obs import NULL_CONTEXT, MetricsRegistry, SloTracker, TraceContext, Tracer
from repro.obs.oplog import NULL_OPLOG
from repro.sim import Environment, Gate, Process
from repro.ssd import FirmwarePool, HostInterconnect, NvramBuffer, OnboardDram


class KamlError(Exception):
    """Command-level failure on the KAML SSD."""


class PutItem(NamedTuple):
    """One element of a (possibly multi-record) atomic ``Put`` (Table I)."""

    namespace_id: int
    key: int
    value: Any
    size: int


#: Sentinel for staged deletions in the NVRAM write cache.
_DELETED = object()


class StagedBatch:
    """Durable NVRAM payload of one logically-committed command.

    ``kind`` is ``"put"``, ``"delete"``, or ``"prepare"``.  ``versions``
    holds the commit versions phase 1 assigned, stamped into the payload
    after the pin (mutating this object models writing into the
    already-reserved NVRAM region); it stays None when a crash caught the
    batch between the pin and version assignment — such a batch was never
    acknowledged and replays all-or-nothing with fresh versions.

    A ``"prepare"`` batch is the participant half of a host-side
    two-phase commit (``repro.cluster``): durable but *undecided*.  It is
    never staged for reads, and :meth:`KamlSsd.recover` keeps it pinned
    instead of replaying it — only the coordinator's intent journal can
    turn it into a commit or an abort.  ``txn_id`` names the distributed
    transaction it belongs to.
    """

    __slots__ = ("kind", "items", "versions", "txn_id")

    def __init__(
        self,
        kind: str,
        items: List[PutItem],
        versions: Optional[List[int]] = None,
        txn_id: Optional[int] = None,
    ):
        self.kind = kind
        self.items = list(items)
        self.versions = list(versions) if versions is not None else None
        self.txn_id = txn_id


class KamlSsd:
    """A key-addressable, multi-log SSD."""

    def __init__(
        self,
        env: Environment,
        config: ReproConfig,
        metrics: Optional[MetricsRegistry] = None,
    ):
        config.geometry.validate()
        if config.kaml.num_logs > config.geometry.total_chips:
            raise KamlError(
                f"num_logs={config.kaml.num_logs} exceeds the "
                f"{config.geometry.total_chips} flash targets"
            )
        self.env = env
        self.config = config
        self.geometry = config.geometry
        self.costs = config.firmware
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        env.attach_metrics(self.metrics)
        #: Request-scoped tracing: one tracer + flight recorder per stack,
        #: and the per-namespace latency SLO tracker on top of both.  The
        #: tracer starts disarmed (no spans, no span-id churn); set
        #: ``ssd.tracer.enabled = True`` before the first op to record.
        self.tracer = Tracer(clock=lambda: env.now)
        env.attach_tracer(self.tracer)
        self.slo = SloTracker(self.metrics, self.tracer.recorder)
        self.array = FlashArray(env, config.geometry, config.flash)
        self.firmware = FirmwarePool(env, config.resources.firmware_contexts)
        self.firmware.metrics = self.metrics
        self.nvram = NvramBuffer(env, config.resources.nvram_bytes)
        self.link = HostInterconnect(env, config.interconnect)
        self.dram = OnboardDram(config.resources.dram_bytes)
        # Logs occupy targets channel-major so that N <= channels logs land
        # on N distinct channels (the Figure 8 configuration).
        self.logs: List[KamlLog] = []
        for log_id in range(config.kaml.num_logs):
            channel = log_id % config.geometry.channels
            chip = log_id // config.geometry.channels
            self.logs.append(
                KamlLog(env, config, self.array, log_id, channel, chip, hooks=self)
            )
        self.namespaces: Dict[int, Namespace] = {}
        self._next_namespace_id = 1
        self._log_subscribers: Dict[int, int] = {log.log_id: 0 for log in self.logs}
        #: Bumped by :meth:`simulate_crash`; pre-crash processes ("ghosts")
        #: compare against it and die without mutating recovered state.
        self.epoch = 0
        #: NVRAM write cache: (namespace, key) -> (version, value, size)
        #: for acknowledged Puts whose mapping install has not landed yet.
        #: ``Get`` serves from here so committed data is always visible.
        self._staged: Dict[Tuple[int, int], Tuple[int, Any, int]] = {}
        #: Last installed (or deleted) version per key: orders out-of-order
        #: phase-3 installs from concurrent Puts.
        self._installed_versions: Dict[Tuple[int, int], int] = {}
        self._version_counter = 0
        self._valid_bytes: Dict[Tuple[int, int, int], int] = {}
        #: Blocks a log's GC has claimed as erase victims but not yet
        #: erased.  A late phase-3 install whose record sits in one of
        #: these was already judged garbage by the survivor scan; it must
        #: re-append rather than publish a mapping the erase will sever.
        self._doomed_blocks: Set[Tuple[int, int, int]] = set()
        self._pins: Dict[Tuple[int, int, int], int] = {}
        self._pin_gate = Gate(env, name="kaml.pins")
        self.snapshots: Dict[int, Snapshot] = {}
        self._next_snapshot_id = 1
        #: On-flash delete markers: (namespace, key) -> (version, location)
        #: of the newest tombstone.  A tombstone stays valid (GC keeps it)
        #: while it is the newest version of its key, so a rescan after a
        #: later power loss cannot resurrect the deleted value.
        self._tombstones: Dict[Tuple[int, int], Tuple[int, RecordLocation]] = {}
        #: Attached by :class:`repro.fault.PowerLossInjector`; the data
        #: path announces named crash points through :meth:`_crash_point`.
        self.fault: Optional[Any] = None
        #: True between :meth:`power_loss` and the end of :meth:`recover`:
        #: mapping tables must be rebuilt by scanning flash.
        self._dram_lost = False
        # Hot-path instruments, resolved once instead of per command
        # (registry lookups sort+hash the label set on every call).
        self._puts_counter = self.metrics.counter("kaml.ssd.puts")
        self._put_records_counter = self.metrics.counter("kaml.ssd.put_records")
        self._nvram_wait_us_histogram = self.metrics.histogram("kaml.put.nvram_wait_us")
        self._nvram_used_gauge = self.metrics.gauge("kaml.nvram.used_bytes")
        self._phase1_us_histogram = self.metrics.histogram("kaml.put.phase1_us")
        self._phase2_us_histogram = self.metrics.histogram("kaml.put.phase2_us")
        self._nvram_pin_us_histogram = self.metrics.histogram("kaml.put.nvram_pin_us")
        self._index_probes_histogram = self.metrics.histogram("kaml.get.index_probes")
        #: namespace_id -> cached per-namespace instruments
        self._gets_counters: Dict[int, Any] = {}
        self._put_bytes_counters: Dict[int, Any] = {}
        self._get_us_histograms: Dict[int, Any] = {}
        #: Device telemetry sampler — None until a harness opts in via
        #: :meth:`enable_timeseries` (pay-as-you-go: default runs must
        #: schedule zero extra simulation events).
        self.timeseries = None
        #: kamltrace op journal — the shared :data:`NULL_OPLOG` until a
        #: harness opts in via :meth:`enable_oplog` (same contract: one
        #: attribute check per command, zero extra simulation events).
        self.oplog = NULL_OPLOG

    # ------------------------------------------------------------------
    # Namespace management (Table I)
    # ------------------------------------------------------------------

    def create_namespace(self, attributes: Optional[NamespaceAttributes] = None) -> Any:
        """``CreateNamespace(attributes)``: returns the new namespace id."""
        attributes = attributes or NamespaceAttributes()
        index = Namespace.build_index(attributes, self.config.kaml.index_bucket_slots)
        namespace_id = self._next_namespace_id
        self._next_namespace_id += 1
        namespace = Namespace(
            namespace_id,
            attributes,
            index,
            attributes.log_policy.select(
                [log.log_id for log in self.logs], dict(self._log_subscribers)
            ),
        )
        self.dram.allocate(namespace.dram_tag, index.memory_bytes)
        for log_id in namespace.log_ids:
            self._log_subscribers[log_id] += 1
        self.namespaces[namespace_id] = namespace
        yield from self.firmware.execute(self.costs.dispatch_us)
        return namespace_id

    def delete_namespace(self, namespace_id: int) -> Any:
        """``DeleteNamespace``: drop the index; records become GC food."""
        namespace = self._namespace(namespace_id)
        if any(s.namespace_id == namespace_id for s in self.snapshots.values()):
            raise KamlError(
                f"namespace {namespace_id} has live snapshots; delete them first"
            )
        if namespace.index is not None:
            for location in namespace.index.values():
                self._adjust_valid(location, -1)
        for entry_key in [k for k in self._staged if k[0] == namespace_id]:
            del self._staged[entry_key]
        for entry_key in [k for k in self._tombstones if k[0] == namespace_id]:
            _version, location = self._tombstones.pop(entry_key)
            self._adjust_valid(location, -1)
        if self.dram.holds(namespace.dram_tag):
            self.dram.free(namespace.dram_tag)
        for log_id in namespace.log_ids:
            self._log_subscribers[log_id] -= 1
        del self.namespaces[namespace_id]
        yield from self.firmware.execute(self.costs.dispatch_us)

    def retarget_namespace(self, namespace_id: int, log_policy: Any) -> None:
        """Re-assign a namespace's logs at runtime (Section IV-B)."""
        namespace = self._namespace(namespace_id)
        new_ids = log_policy.select(
            [log.log_id for log in self.logs], dict(self._log_subscribers)
        )
        for log_id in namespace.log_ids:
            self._log_subscribers[log_id] -= 1
        for log_id in new_ids:
            self._log_subscribers[log_id] += 1
        namespace.log_ids = list(new_ids)

    def close_namespace(self, namespace_id: int) -> Any:
        """Swap a namespace's mapping table out of DRAM (Section IV-C).

        The index object itself plays the role of the flash-resident copy;
        only the DRAM accounting and residency flag change.
        """
        namespace = self._namespace(namespace_id)
        if not namespace.resident:
            return
        yield from self._swap_transfer(namespace)
        self.dram.free(namespace.dram_tag)
        namespace.resident = False

    def open_namespace(self, namespace_id: int) -> Any:
        """Swap a namespace's mapping table back into DRAM."""
        namespace = self._namespace(namespace_id)
        if namespace.resident:
            return
        self.dram.allocate(namespace.dram_tag, namespace.index.memory_bytes)
        yield from self._swap_transfer(namespace)
        namespace.resident = True

    def _swap_transfer(self, namespace: Namespace) -> Any:
        """Time to stream the index between DRAM and flash."""
        pages = -(-namespace.index.memory_bytes // self.geometry.page_size)
        per_page = (
            self.config.flash.read_us
            + self.geometry.page_size / self.config.flash.bus_bytes_per_us
        )
        # Index pages stream across all channels in parallel.
        yield self.env.timeout(per_page * pages / max(1, self.geometry.channels))

    # ------------------------------------------------------------------
    # Data path (Table I)
    # ------------------------------------------------------------------

    def get(self, namespace_id: int, key: int) -> Any:
        """``Get``: returns the value, or None when the key is absent."""
        result = yield from self.get_record(namespace_id, key)
        return result[0] if result is not None else None

    def get_record(
        self, namespace_id: int, key: int, ctx: Optional[TraceContext] = None
    ) -> Any:
        """``Get`` returning ``(value, size)`` — what the caching layer uses."""
        namespace = self._namespace(namespace_id)
        namespace.require_resident()
        gets_counter = self._gets_counters.get(namespace_id)
        if gets_counter is None:
            gets_counter = self.metrics.counter("kaml.ssd.gets", namespace=namespace_id)
            self._gets_counters[namespace_id] = gets_counter
        gets_counter.inc()
        owns_ctx = ctx is None
        if owns_ctx:
            ctx = self.tracer.request("kaml.get", namespace=namespace_id, key=key)
            get_span = ctx.root
        else:
            get_span = ctx.begin("kaml.get", namespace=namespace_id, key=key)
        started = self.env.now
        # Journal bookkeeping: the finally block records one op-journal
        # row per Get, so the return sites below keep these truthful.
        outcome = "error"
        out_size = 0
        try:
            dispatch_span = ctx.begin("get.dispatch", parent=get_span)
            yield from self.link.command_overhead()
            yield from self.firmware.execute(
                self.costs.dispatch_us, ctx=ctx, parent=dispatch_span
            )
            ctx.finish(dispatch_span)
            # A logically committed but not-yet-installed value is served from
            # the NVRAM staging area — acknowledged Puts are always visible.
            staged = self._staged.get((namespace_id, key))
            if staged is not None:
                self.metrics.counter(
                    "kaml.ssd.get_staged_hits", namespace=namespace_id
                ).inc()
                get_span.tags["source"] = "staged"
                _version, value, size = staged
                yield from self.firmware.execute(self.costs.hash_probe_us)
                if value is _DELETED:
                    outcome = "absent"
                    return None
                with ctx.span("get.transfer", parent=get_span):
                    yield from self.link.device_to_host(size)
                outcome = "ok"
                out_size = size
                return value, size
            probe_span = ctx.begin("get.index_probe", parent=get_span)
            location, scanned = namespace.index.lookup(key)
            self._index_probes_histogram.observe(scanned)
            yield from self.firmware.execute(scanned * self.costs.hash_probe_us)
            ctx.finish(probe_span)
            if location is None:
                get_span.tags["source"] = "absent"
                outcome = "absent"
                return None
            get_span.tags["source"] = "flash"
            location, block_key = yield from self._pin_location(
                namespace.index, key, location
            )
            if location is None:
                get_span.tags["source"] = "absent"
                outcome = "absent"
                return None
            read_span = ctx.begin(
                "get.flash_read", parent=get_span,
                channel=block_key[0], chip=block_key[1], block=block_key[2],
            )
            try:
                data, _oob = yield from self.array.read_page(
                    location.page,
                    transfer_bytes=location.nchunks * self.geometry.chunk_size,
                    ctx=ctx, parent=read_span,
                )
            finally:
                self._unpin(block_key)
                ctx.finish(read_span)
            record = data[location.chunk]
            with ctx.span("get.transfer", parent=get_span):
                yield from self.link.device_to_host(record.size)
            outcome = "ok"
            out_size = record.size
            return record.value, record.size
        finally:
            get_us = self._get_us_histograms.get(namespace_id)
            if get_us is None:
                get_us = self.metrics.histogram("kaml.get.us", namespace=namespace_id)
                self._get_us_histograms[namespace_id] = get_us
            get_us.observe(self.env.now - started)
            if owns_ctx:
                ctx.close()
            else:
                ctx.finish(get_span)
            op_id = 0
            oplog = self.oplog
            if oplog.enabled:
                op_id = oplog.record(
                    "get", namespace_id, key, out_size, started, self.env.now,
                    outcome=outcome, trace_id=ctx.trace_id,
                )
            self.slo.record(
                "get", namespace_id, started, self.env.now, ctx.trace_id,
                op_id=op_id,
            )

    # ------------------------------------------------------------------
    # Snapshots (extension: the indirection service the intro motivates)
    # ------------------------------------------------------------------

    def snapshot_namespace(self, namespace_id: int) -> Any:
        """Freeze a consistent, read-only view; returns a snapshot id.

        Waits for the namespace's staged (acked but uninstalled) writes to
        reach flash so the snapshot references only physical locations,
        then clones the mapping table.  Records the snapshot references
        stay valid until :meth:`delete_snapshot` drops it.
        """
        namespace = self._namespace(namespace_id)
        namespace.require_resident()
        # Drain this namespace's staging pipeline.
        for _ in range(64):
            if not any(k[0] == namespace_id for k in self._staged):
                break
            for log in self.logs:
                log.force_flush()
            yield self.env.timeout(
                self.config.flash.program_us + self.config.kaml.flush_timeout_us
            )
        else:
            raise SnapshotError("staging pipeline did not drain")
        index = clone_index(namespace.index)
        snapshot_id = self._next_snapshot_id
        self._next_snapshot_id += 1
        snapshot = Snapshot(snapshot_id, namespace_id, index)
        self.dram.allocate(snapshot.dram_tag, index.memory_bytes)
        for location in index.values():
            self._adjust_valid(location, +1)
        self.snapshots[snapshot_id] = snapshot
        # Cloning is a DRAM-to-DRAM copy inside the controller.
        yield from self.firmware.execute(
            self.costs.dispatch_us
            + index.memory_bytes / self.costs.nvram_copy_bytes_per_us
        )
        return snapshot_id

    def delete_snapshot(self, snapshot_id: int) -> Any:
        """Drop a snapshot; its exclusive record versions become garbage."""
        snapshot = self._snapshot(snapshot_id)
        for location in snapshot.index.values():
            self._adjust_valid(location, -1)
        self.dram.free(snapshot.dram_tag)
        del self.snapshots[snapshot_id]
        yield from self.firmware.execute(self.costs.dispatch_us)

    def get_from_snapshot(self, snapshot_id: int, key: int) -> Any:
        """Read a key as of the snapshot instant."""
        snapshot = self._snapshot(snapshot_id)
        self.metrics.counter(
            "kaml.ssd.gets", namespace=snapshot.namespace_id
        ).inc()
        yield from self.link.command_overhead()
        yield from self.firmware.execute(self.costs.dispatch_us)
        location, scanned = snapshot.index.lookup(key)
        yield from self.firmware.execute(scanned * self.costs.hash_probe_us)
        if location is None:
            return None
        record = yield from self._read_record(location, snapshot.index, key)
        if record is None:
            return None
        yield from self.link.device_to_host(record.size)
        return record.value

    def _snapshot(self, snapshot_id: int) -> Snapshot:
        try:
            return self.snapshots[snapshot_id]
        except KeyError:
            raise SnapshotError(f"unknown snapshot id: {snapshot_id}") from None

    def _read_record(
        self, location: RecordLocation, index=None, key: Optional[int] = None
    ) -> Any:
        """Pin-protected flash read of one record.

        When ``index``/``key`` are given, the location is re-validated
        under the pin (see :meth:`_pin_location`); returns None if the
        key was deleted while probing.
        """
        if index is not None:
            location, block_key = yield from self._pin_location(index, key, location)
            if location is None:
                return None
        else:
            block_key = (
                location.page.channel, location.page.chip, location.page.block
            )
            self._pin(block_key)
        try:
            data, _oob = yield from self.array.read_page(
                location.page,
                transfer_bytes=location.nchunks * self.geometry.chunk_size,
            )
        finally:
            self._unpin(block_key)
        return data[location.chunk]

    def scan(self, namespace_id: int, low: int, high: int) -> Any:
        """Range scan (extension): ``[(key, value)]`` for low <= key <= high.

        Requires the namespace to use the ``"sorted"`` index structure —
        the per-namespace flexibility Section IV-C motivates.  Staged
        (acknowledged but uninstalled) values are merged in, so scans see
        every committed write.
        """
        if low > high:
            raise KamlError(f"scan range is empty: [{low}, {high}]")
        namespace = self._namespace(namespace_id)
        namespace.require_resident()
        if not namespace.supports_range:
            raise KamlError(
                f"namespace {namespace_id} uses a hash index; create it with "
                f'index_structure="sorted" to enable Scan'
            )
        self.metrics.counter("kaml.ssd.gets", namespace=namespace_id).inc()
        started = self.env.now
        yield from self.link.command_overhead()
        yield from self.firmware.execute(self.costs.dispatch_us)
        matches: Dict[int, Tuple[str, Any]] = {
            key: ("flash", location)
            for key, location in namespace.index.range(low, high)
        }
        matches.update({
            staged_key: ("staged", (value, size))
            for (staged_ns, staged_key), (_v, value, size) in self._staged.items()
            if staged_ns == namespace_id and low <= staged_key <= high
        })
        yield from self.firmware.execute(
            (namespace.index._probes() + len(matches)) * self.costs.hash_probe_us
        )
        results = []
        total_bytes = 0
        for key in sorted(matches):
            source, entry = matches[key]
            if source == "staged":
                value, size = entry
                if value is _DELETED:
                    continue
                results.append((key, value))
                total_bytes += size
                continue
            location = entry
            location, block_key = yield from self._pin_location(
                namespace.index, key, location
            )
            if location is None:
                continue  # deleted while the scan was in flight
            try:
                data, _oob = yield from self.array.read_page(
                    location.page,
                    transfer_bytes=location.nchunks * self.geometry.chunk_size,
                )
            finally:
                self._unpin(block_key)
            record = data[location.chunk]
            results.append((key, record.value))
            total_bytes += record.size
        yield from self.link.device_to_host(total_bytes)
        oplog = self.oplog
        if oplog.enabled:
            oplog.record(
                "scan", namespace_id, low, total_bytes, started, self.env.now,
                outcome="ok", key2=high,
            )
        return results

    def _validate_items(self, items: List[PutItem]) -> None:
        if not items:
            raise KamlError("Put requires at least one record")
        for item in items:
            namespace = self._namespace(item.namespace_id)
            namespace.require_resident()
            if item.size <= 0:
                raise KamlError(f"record size must be positive: {item!r}")
            if chunks_for(item.size, self.geometry.chunk_size) > self.geometry.chunks_per_page:
                raise RecordTooLargeError(
                    f"value of {item.size} B does not fit in one flash page"
                )

    def put(self, items: List[PutItem], ctx: Optional[TraceContext] = None) -> Any:
        """``Put``: atomic multi-record update/insert.

        Returns once *logically committed* (phase 1); the returned
        :class:`~repro.sim.Process` resolves when the batch is fully on
        flash with mapping tables updated (phases 2–3).
        """
        self._validate_items(items)
        self._puts_counter.inc()
        self._put_records_counter.inc(len(items))
        put_bytes_counters = self._put_bytes_counters
        for item in items:
            counter = put_bytes_counters.get(item.namespace_id)
            if counter is None:
                counter = self.metrics.counter(
                    "kaml.put.bytes", namespace=item.namespace_id
                )
                put_bytes_counters[item.namespace_id] = counter
            counter.inc(item.size)
        owns_ctx = ctx is None
        if ctx is NULL_CONTEXT or (owns_ctx and not self.tracer.enabled):
            # Nothing will be recorded: skip building span tags entirely.
            ctx = NULL_CONTEXT
            put_span = ctx.root
        else:
            span_tags = {
                "namespace": items[0].namespace_id,
                "records": len(items),
                "keys": [item.key for item in items],
            }
            if owns_ctx:
                ctx = self.tracer.request("kaml.put", **span_tags)
                put_span = ctx.root
            else:
                put_span = ctx.begin("kaml.put", **span_tags)
        epoch = self.epoch
        phase1_start = self.env.now
        phase1_span = ctx.begin(
            "put.phase1", parent=put_span, namespace=items[0].namespace_id
        )
        total_bytes = sum(item.size for item in items)
        transfer_span = ctx.begin(
            "put.transfer", parent=phase1_span, bytes=total_bytes
        )
        yield from self.link.command_overhead()
        yield from self.link.host_to_device(total_bytes)
        ctx.finish(transfer_span)
        nvram_wait_start = self.env.now
        reserve_span = ctx.begin(
            "put.nvram_reserve", parent=phase1_span, bytes=total_bytes
        )
        batch = StagedBatch("put", items)
        self._crash_point("put.before_nvram_pin")
        handle = yield self.nvram.reserve(total_bytes, payload=batch)
        self._crash_point("put.after_nvram_pin")
        ctx.finish(reserve_span)
        self._nvram_wait_us_histogram.observe(self.env.now - nvram_wait_start)
        pin_start = self.env.now
        self._nvram_used_gauge.set(self.nvram.used_bytes)
        yield from self.firmware.execute(
            self.costs.dispatch_us + total_bytes / self.costs.nvram_copy_bytes_per_us,
            ctx=ctx, parent=phase1_span,
        )
        if self.epoch != epoch:
            put_span.tags["crashed"] = True
            if owns_ctx:
                ctx.close()
            # kamllint: allow[KL-RES001] crash path keeps the NVRAM reservation: replay owns it
            return None  # crashed mid-command; NVRAM replay owns the batch
        # Phase 1: reserve/inspect every key's index entry (probe CPU cost)
        # and stage the whole batch atomically in NVRAM.  Concurrent Puts
        # to the same key are ordered by the versions assigned here;
        # installs in phase 3 follow version order, so no entry stays
        # locked across a flash program.
        # Per-record index probing/reservation spreads across the
        # controller's cores: a batch pays ~one record's latency per
        # firmware-context wave, not the serial sum.
        probe_span = ctx.begin("put.index_probe", parent=phase1_span)
        probe_costs = []
        for item in items:
            namespace = self.namespaces[item.namespace_id]
            existing, scanned = namespace.index.lookup(item.key)
            cost = scanned * self.costs.hash_probe_us
            if existing is None:
                cost += self.costs.hash_insert_us
            probe_costs.append(cost)
        if len(probe_costs) == 1:
            yield from self.firmware.execute(
                probe_costs[0], ctx=ctx, parent=probe_span
            )
        else:
            yield self.env.all_of([
                self.env.process(
                    self.firmware.execute(c, ctx=ctx, parent=probe_span)
                )
                for c in probe_costs
            ])
        ctx.finish(probe_span)
        if self.epoch != epoch:
            put_span.tags["crashed"] = True
            if owns_ctx:
                ctx.close()
            # kamllint: allow[KL-RES001] crash path keeps the NVRAM reservation: replay owns it
            return None
        versions = []
        for item in items:
            self._version_counter += 1
            versions.append(self._version_counter)
            self._staged[(item.namespace_id, item.key)] = (
                self._version_counter, item.value, item.size,
            )
        # Stamp the commit versions into the pinned payload (an NVRAM
        # write): replay after a crash must reproduce exactly this commit
        # order, not the order the batches reached NVRAM.
        batch.versions = list(versions)
        # Logically committed: acknowledge the host, finish in background.
        ctx.finish(phase1_span)
        ctx.event("put.ack", parent=put_span, namespace=items[0].namespace_id)
        # Phases 2-3 outlive the caller's context (a committing txn closes
        # at the ack); detach so close() can't truncate the put span.
        ctx.detach(put_span)
        self._phase1_us_histogram.observe(self.env.now - phase1_start)
        op_id = 0
        oplog = self.oplog
        if oplog.enabled:
            # One row per record, journaled at the ack (the host-visible
            # completion); batch rows share a head id so replay regroups
            # the atomic batch.
            op_id = oplog.record_batch(
                "put",
                [(item.namespace_id, item.key, item.size) for item in items],
                phase1_start, self.env.now, trace_id=ctx.trace_id,
            )
        self.slo.record(
            "put", items[0].namespace_id, phase1_start, self.env.now, ctx.trace_id,
            op_id=op_id,
        )
        return self.env.process(
            self._complete_put(
                items, versions, handle, epoch, pin_start, ctx, put_span, owns_ctx
            )
        )

    def _block_key_of(self, location: RecordLocation) -> Tuple[int, int, int]:
        page = location.page
        return (page.channel, page.chip, page.block)

    def _erase_mark(self, location: Optional[RecordLocation]) -> int:
        """Erase generation of the block holding ``location``.

        A block cannot complete an erase at the same sim instant one of
        its pages finished programming (cleaning requires reads and
        relocation appends, which take time), so a mark captured in the
        same event cascade as the append's completion is a stable
        snapshot.
        """
        if location is None:
            return 0
        page = location.page
        return self.array.chip(page.channel, page.chip).block(page.block).erase_count

    def _refresh_location(
        self, item: PutItem, version: int, location: RecordLocation,
        mark: int, epoch: int,
    ) -> Any:
        """Revalidate a phase-2 location just before its mapping install.

        GC deliberately treats appended-but-not-yet-installed records as
        garbage (no mapping points at them), so in the window between
        the flash append and the install's firmware work the containing
        block can be cleaned and erased.  Installing the stale location
        would publish a pointer into an erased — or worse, erased and
        reprogrammed — page.  Two signals cover the whole window: a
        moved erase generation means the erase already happened, and a
        doomed block means GC's survivor scan has passed (judging this
        record garbage) with the erase merely in flight.  Either way,
        re-append the record under its original commit version and try
        again; returns the live location, or None if a newer write
        superseded this install (or the device crashed) while retrying.
        """
        while (
            self._erase_mark(location) != mark
            or self._block_key_of(location) in self._doomed_blocks
        ):
            entry_key = (item.namespace_id, item.key)
            if version < self._installed_versions.get(entry_key, 0):
                return None  # a newer write won; this record is garbage
            namespace = self.namespaces.get(item.namespace_id)
            if namespace is None:
                return None
            self.metrics.counter("kaml.ssd.install_reappends").inc()
            log = self.logs[namespace.next_log_id()]
            record = Record(
                item.namespace_id, item.key, item.value, item.size, seq=version
            )
            location = yield from log.append(record)
            if self.epoch != epoch:
                return None
            mark = self._erase_mark(location)
        return location

    def _append_record(
        self, log, record, epoch: int, ctx=NULL_CONTEXT, parent=None
    ) -> Any:
        """Append one record, re-checking the epoch at first resume.

        The append runs as a child process, and a power cut can land in
        the gap between ``env.process()`` and the body's first step —
        the parent's own epoch fence passed *before* the cut, so without
        this check the body would stage a pre-crash record into the
        recovered epoch's write point.  That ghost page is worse than a
        leak: its flush can fire mid-recovery, before the flash rescan
        has rebuilt the block lists, and wedge replay with a spurious
        log-full error.
        """
        if self.epoch != epoch:
            return None  # ghost append from before a cut
        location = yield from log.append(record, ctx=ctx, parent=parent)
        # The mark is captured in the same event cascade as *this*
        # append's completion — capturing it later (say when the whole
        # batch's all_of fires) would race a GC erase of this block and
        # make the stale location look live.
        return location, self._erase_mark(location)

    def _complete_put(
        self, items, versions, handle, epoch, pin_start,
        ctx=NULL_CONTEXT, put_span=None, owns_ctx=False,
    ) -> Any:
        """Phases 2 and 3: flash writes, then mapping-table installs.

        Background spans use backdated :meth:`TraceContext.record_span`
        rather than open spans: a committing transaction may close its
        context at the ack, and record-on-completion keeps these spans'
        end times truthful regardless of who owns the context.
        """
        if self.epoch != epoch:
            if put_span is not None:
                put_span.tags["crashed"] = True
                # The span was detached at the ack, so close() alone would
                # leak it; finish is idempotent, so doing both is safe.
                ctx.finish(put_span)
            if owns_ctx:
                ctx.close()
            return
        phase2_start = self.env.now
        phase2_span = ctx.begin("put.phase2", parent=put_span)
        if phase2_span is not None:
            ctx.detach(phase2_span)
        try:
            appends = []
            for item, version in zip(items, versions):
                namespace = self.namespaces[item.namespace_id]
                log = self.logs[namespace.next_log_id()]
                record = Record(
                    item.namespace_id, item.key, item.value, item.size, seq=version
                )
                appends.append(
                    self.env.process(
                        self._append_record(log, record, epoch, ctx, phase2_span)
                    )
                )
            landed = yield self.env.all_of(appends)
            install_start = self.env.now
            yield from self.firmware.execute(
                len(items) * (self.costs.per_record_us + self.costs.hash_update_us)
            )
            if self.epoch == epoch:
                self._crash_point("put.before_install")
            if self.epoch == epoch:
                for item, version, landing in zip(items, versions, landed):
                    if landing is None:
                        continue  # ghost append: a cut landed mid-phase-2
                    location, mark = landing
                    location = yield from self._refresh_location(
                        item, version, location, mark, epoch
                    )
                    if location is None or self.epoch != epoch:
                        continue
                    self._install_versioned(
                        item.namespace_id, item.key, version, location
                    )
            ctx.record_span("put.install", start_us=install_start, parent=phase2_span)
        finally:
            if self.epoch == epoch:
                self.nvram.release(handle)
                self._nvram_pin_us_histogram.observe(self.env.now - pin_start)
                self._phase2_us_histogram.observe(self.env.now - phase2_start)
                self._nvram_used_gauge.set(self.nvram.used_bytes)
                ctx.record_span("put.nvram_pin", start_us=pin_start, parent=put_span)
            if phase2_span is not None:
                ctx.finish(phase2_span)
            if put_span is not None:
                # Detached at the ack — close() below cannot reach it.
                ctx.finish(put_span)
            if owns_ctx:
                ctx.close()

    def delete(self, namespace_id: int, key: int) -> Any:
        """Remove a key (extension beyond Table I; used by the cache layer).

        Returns True if the key existed.
        """
        namespace = self._namespace(namespace_id)
        namespace.require_resident()
        self.metrics.counter("kaml.ssd.deletes", namespace=namespace_id).inc()
        started = self.env.now
        epoch = self.epoch
        yield from self.link.command_overhead()
        yield from self.firmware.execute(self.costs.dispatch_us)
        location, scanned = namespace.index.lookup(key)
        yield from self.firmware.execute(scanned * self.costs.hash_probe_us)
        if self.epoch != epoch:
            return False
        staged = self._staged.pop((namespace_id, key), None)
        existed = location is not None or (
            staged is not None and staged[1] is not _DELETED
        )
        # A newer version than any in-flight install: older installs for
        # this key become garbage on arrival instead of resurrecting it.
        self._version_counter += 1
        version = self._version_counter
        self._installed_versions[(namespace_id, key)] = version
        if location is not None:
            namespace.index.delete(key)
            self._adjust_valid(location, -1)
        # Make the delete durable: pin the intent in NVRAM and append a
        # tombstone record in the background.  Without the on-flash
        # marker, a power loss would rescan the old record and resurrect
        # the key (deletes must survive crashes like Puts do).
        batch = StagedBatch(
            "delete", [PutItem(namespace_id, key, TOMBSTONE, 0)], versions=[version]
        )
        handle = yield self.nvram.reserve(RECORD_HEADER_BYTES, payload=batch)
        if self.epoch != epoch:
            # kamllint: allow[KL-RES001] crash path keeps the reserved tombstone: replay owns it
            return False  # crashed mid-command; NVRAM replay owns the intent
        # `version` is the phase-1 snapshot by design: version ordering
        # replaces entry locks, so the install must use the version taken
        # before the yield rather than re-reading the counter.
        # kamllint: allow[KL-RACE001] phase-1 version snapshot orders the install
        self.env.process(self._complete_delete(namespace_id, key, version, handle, epoch))
        oplog = self.oplog
        if oplog.enabled:
            oplog.record(
                "delete", namespace_id, key, 0, started, self.env.now,
                outcome="ok" if existed else "absent",
            )
        return existed

    def _complete_delete(
        self, namespace_id: int, key: int, version: int, handle: int, epoch: int
    ) -> Any:
        """Append the tombstone record and retire the NVRAM pin.

        The pin is released only once the tombstone is on flash (or the
        namespace is gone): the delete was acknowledged at the pin, so
        until an on-flash marker exists the pinned batch is the sole
        durable record of it.  If the append fails — log full, program
        retries exhausted — the pin stays live and NVRAM replay re-drives
        the delete after a crash instead of resurrecting the key.
        """
        if self.epoch != epoch:
            # Spawned an instant before a power cut and first run after
            # it: appending now would plant a pre-crash tombstone in the
            # recovered epoch's write point.  The pin survives; replay
            # owns the acked delete.
            return
        namespace = self.namespaces.get(namespace_id)
        if namespace is None:
            # Namespace dropped: the key can never be read again, so the
            # pinned intent is moot and the space can be reclaimed.
            if self.epoch == epoch:
                self.nvram.release(handle)
            return
        log = self.logs[namespace.next_log_id()]
        record = Record(namespace_id, key, TOMBSTONE, 0, seq=version)
        try:
            location = yield from log.append(record)
        except LogSpaceError:
            self.metrics.counter(
                "kaml.ssd.delete_append_failures", namespace=namespace_id
            ).inc()
            return  # keep the pin: replay owns the acked delete
        if self.epoch == epoch:
            self._install_tombstone(namespace_id, key, version, location)
            self.nvram.release(handle)

    # ------------------------------------------------------------------
    # Host-side 2PC participant surface (the repro.cluster serving tier)
    # ------------------------------------------------------------------

    def prepare_batch(self, items: List[PutItem], txn_id: int) -> Any:
        """Participant *prepare*: pin a batch durably without committing.

        The items are transferred and staged in NVRAM exactly like a
        ``Put``'s phase 1, but no versions are assigned and nothing
        becomes readable — the batch is in doubt until the coordinator
        drives :meth:`commit_prepared` or :meth:`abort_prepared`.  A
        power loss keeps the pin (:meth:`recover` preserves ``"prepare"``
        batches instead of replaying them), so the coordinator's intent
        journal alone decides the outcome.  Returns the NVRAM handle.
        """
        self._validate_items(items)
        self.metrics.counter("kaml.ssd.prepares").inc()
        total_bytes = sum(item.size for item in items)
        yield from self.link.command_overhead()
        yield from self.link.host_to_device(total_bytes)
        batch = StagedBatch("prepare", items, txn_id=txn_id)
        handle = yield self.nvram.reserve(total_bytes, payload=batch)
        self._nvram_used_gauge.set(self.nvram.used_bytes)
        yield from self.firmware.execute(
            self.costs.dispatch_us + total_bytes / self.costs.nvram_copy_bytes_per_us
        )
        return handle

    def commit_prepared(self, handle: int) -> Any:
        """Participant *commit*: turn a prepared batch into an acked Put.

        Assigns commit versions, stamps them into the pinned payload
        (from here on the batch replays exactly like an acknowledged
        ``Put``), makes the values readable from the staging area, and
        completes phases 2–3 in the background.  Idempotent against the
        crash-replay path: once committed the batch's kind is ``"put"``,
        so a later device recovery applies it through the ordinary
        versioned replay.  Returns the background completion process.
        """
        batch = self.nvram.payload(handle)
        if not isinstance(batch, StagedBatch) or batch.kind != "prepare":
            raise KamlError(f"NVRAM handle {handle} does not hold a prepared batch")
        epoch = self.epoch
        pin_start = self.env.now
        self.metrics.counter("kaml.ssd.prepare_commits").inc()
        items = batch.items
        probe_costs = []
        for item in items:
            namespace = self._namespace(item.namespace_id)
            namespace.require_resident()
            _existing, scanned = namespace.index.lookup(item.key)
            probe_costs.append(scanned * self.costs.hash_probe_us)
        yield from self.firmware.execute(self.costs.dispatch_us + sum(probe_costs))
        if self.epoch != epoch:
            return None  # crashed mid-commit; the pin (still "prepare") survives
        versions = []
        for item in items:
            self._version_counter += 1
            versions.append(self._version_counter)
            self._staged[(item.namespace_id, item.key)] = (
                self._version_counter, item.value, item.size,
            )
        # The decisive NVRAM write: kind + versions flip atomically, so a
        # crash from here on replays the batch as an acknowledged Put.
        batch.versions = list(versions)
        batch.kind = "put"
        return self.env.process(
            self._complete_put(items, versions, handle, epoch, pin_start)
        )

    def abort_prepared(self, handle: int) -> Any:
        """Participant *abort*: drop a prepared batch without a trace."""
        batch = self.nvram.payload(handle)
        if not isinstance(batch, StagedBatch) or batch.kind != "prepare":
            raise KamlError(f"NVRAM handle {handle} does not hold a prepared batch")
        self.metrics.counter("kaml.ssd.prepare_aborts").inc()
        self.nvram.release(handle)
        self._nvram_used_gauge.set(self.nvram.used_bytes)
        yield from self.firmware.execute(self.costs.dispatch_us)

    def prepared_batches(self) -> Dict[int, int]:
        """``{txn_id: nvram_handle}`` of every in-doubt prepared batch.

        The coordinator consults this after :meth:`recover` to resolve
        distributed transactions from its intent journal.
        """
        prepared: Dict[int, int] = {}
        for handle, payload in self.nvram.live_payloads():
            if (
                isinstance(payload, StagedBatch)
                and payload.kind == "prepare"
                and payload.txn_id is not None
            ):
                prepared[payload.txn_id] = handle
        return prepared

    def list_keys(self, namespace_id: int) -> Any:
        """Management command: every readable key of a namespace, sorted.

        Used by the cluster serving tier to migrate a namespace between
        devices; a firmware-side index walk, not a flash scan, so it
        works for hash indexes that cannot serve ``Scan``.
        """
        namespace = self._namespace(namespace_id)
        namespace.require_resident()
        yield from self.link.command_overhead()
        keys = {key for key, _location in namespace.index.items()}
        for (staged_ns, staged_key), (_v, value, _size) in self._staged.items():
            if staged_ns != namespace_id:
                continue
            if value is _DELETED:
                keys.discard(staged_key)
            else:
                keys.add(staged_key)
        yield from self.firmware.execute(
            self.costs.dispatch_us + len(keys) * self.costs.hash_probe_us
        )
        return sorted(keys)

    # ------------------------------------------------------------------
    # Mapping installs and valid-byte accounting
    # ------------------------------------------------------------------

    def _install(self, namespace_id: int, key: int, location: RecordLocation) -> None:
        """Point a key at its new record; retire the old copy's bytes."""
        namespace = self.namespaces.get(namespace_id)
        if namespace is None or namespace.index is None:
            return  # namespace deleted mid-flight; the record is garbage
        old_location, _ = namespace.index.lookup(key)
        namespace.index.insert(key, location)
        if old_location is not None:
            self._adjust_valid(old_location, -1)
        self._adjust_valid(location, +1)
        # The new record outranks any tombstone for this key: the marker
        # is no longer the newest version, so it becomes garbage.
        tombstone = self._tombstones.pop((namespace_id, key), None)
        if tombstone is not None:
            self._adjust_valid(tombstone[1], -1)

    def _install_versioned(
        self, namespace_id: int, key: int, version: int, location: RecordLocation
    ) -> None:
        """Install a phase-3 mapping unless a newer write/delete won.

        Out-of-order installs are possible because concurrent Puts no
        longer serialize on entry locks; the version assigned at phase 1
        is the commit order.  A superseded install's flash record is
        never counted valid, so GC discards it for free.
        """
        entry_key = (namespace_id, key)
        if version < self._installed_versions.get(entry_key, 0):
            return
        self._installed_versions[entry_key] = version
        self._install(namespace_id, key, location)
        staged = self._staged.get(entry_key)
        if staged is not None and staged[0] <= version:
            del self._staged[entry_key]

    def _install_tombstone(
        self, namespace_id: int, key: int, version: int, location: RecordLocation
    ) -> None:
        """Register an on-flash delete marker unless a newer write won."""
        namespace = self.namespaces.get(namespace_id)
        if namespace is None:
            return  # namespace deleted mid-flight; the marker is garbage
        entry_key = (namespace_id, key)
        if version < self._installed_versions.get(entry_key, 0):
            return
        self._installed_versions[entry_key] = version
        if namespace.index is not None:
            old_location, _ = namespace.index.lookup(key)
            if old_location is not None:
                namespace.index.delete(key)
                self._adjust_valid(old_location, -1)
        old_tombstone = self._tombstones.get(entry_key)
        if old_tombstone is not None:
            self._adjust_valid(old_tombstone[1], -1)
        self._tombstones[entry_key] = (version, location)
        self._adjust_valid(location, +1)
        staged = self._staged.get(entry_key)
        if staged is not None and staged[0] <= version:
            del self._staged[entry_key]

    def _adjust_valid(self, location: RecordLocation, sign: int) -> None:
        block_key = (location.page.channel, location.page.chip, location.page.block)
        nbytes = location.nchunks * self.geometry.chunk_size
        self._valid_bytes[block_key] = self._valid_bytes.get(block_key, 0) + sign * nbytes

    # ------------------------------------------------------------------
    # Hooks the logs use (GC and erase safety)
    # ------------------------------------------------------------------

    def valid_bytes(self, block_key: Tuple[int, int, int]) -> int:
        return self._valid_bytes.get(block_key, 0)

    def _indices_for(self, namespace_id: int):
        """Every live mapping table that can reference this namespace's
        records: the current index plus any snapshots."""
        namespace = self.namespaces.get(namespace_id)
        if namespace is not None and namespace.index is not None:
            yield namespace.index
        for snapshot in self.snapshots.values():
            if snapshot.namespace_id == namespace_id:
                yield snapshot.index

    def is_valid(self, record: Record, location: RecordLocation) -> bool:
        if record.value is TOMBSTONE:
            current = self._tombstones.get((record.namespace_id, record.key))
            return current is not None and current[1] == location
        for index in self._indices_for(record.namespace_id):
            current, _ = index.lookup(record.key)
            if current == location:
                return True
        return False

    def relocate(self, record: Record, old: RecordLocation, new: RecordLocation) -> bool:
        """Compare-and-swap a GC-relocated record's mapping entries.

        Every referencing table (current index and snapshots) is repointed
        so the old copy really becomes garbage.
        """
        if record.value is TOMBSTONE:
            entry_key = (record.namespace_id, record.key)
            current = self._tombstones.get(entry_key)
            if current is None or current[1] != old:
                return False
            self._tombstones[entry_key] = (current[0], new)
            self._adjust_valid(old, -1)
            self._adjust_valid(new, +1)
            if sanitize.enabled():
                sanitize.check_relocation(self, record, old, new)
            return True
        moved = False
        for index in self._indices_for(record.namespace_id):
            current, _ = index.lookup(record.key)
            if current != old:
                continue
            index.insert(record.key, new)
            self._adjust_valid(old, -1)
            self._adjust_valid(new, +1)
            moved = True
        if moved and sanitize.enabled():
            # SAN-OOB/SAN-VALID: the mapping tables, the destination
            # page's OOB bitmap, and valid-byte accounting must agree
            # after every relocation (the Figure 4 invariant).
            sanitize.check_relocation(self, record, old, new)
        return moved

    def block_doomed(self, block_key: Tuple[int, int, int]) -> None:
        """GC claimed this block as an erase victim (pre-erase)."""
        self._doomed_blocks.add(block_key)

    def block_erased(self, block_key: Tuple[int, int, int]) -> None:
        self._valid_bytes.pop(block_key, None)
        self._doomed_blocks.discard(block_key)

    def _pin(self, block_key: Tuple[int, int, int]) -> None:
        self._pins[block_key] = self._pins.get(block_key, 0) + 1

    def _pin_location(self, index, key: int, location: RecordLocation) -> Any:
        """Pin the block holding ``key``'s record, chasing GC relocations.

        The optimistic index probe yields (firmware time) between the
        lookup and the flash read; GC can relocate the record and erase
        the old block inside that window.  Pin first, then re-check the
        mapping in the same sim instant: once the pin is visible, the
        pre-erase barrier holds the erase off, so a confirmed location
        stays readable.  Returns ``(location, block_key)`` with the pin
        held, or ``(None, None)`` if the key vanished (deleted) while
        probing.
        """
        while True:
            block_key = (
                location.page.channel, location.page.chip, location.page.block
            )
            self._pin(block_key)
            current, scanned = index.lookup(key)
            if current == location:
                return location, block_key
            self._unpin(block_key)
            if current is None:
                return None, None
            self.metrics.counter("kaml.get.relocation_chases").inc()
            location = current
            yield from self.firmware.execute(scanned * self.costs.hash_probe_us)

    def _unpin(self, block_key: Tuple[int, int, int]) -> None:
        if sanitize.enabled():
            sanitize.check_unpin(self._pins, block_key)
        remaining = self._pins.get(block_key, 0) - 1
        if remaining <= 0:
            self._pins.pop(block_key, None)
        else:
            self._pins[block_key] = remaining
        self._pin_gate.fire()

    def wait_unpinned(self, block_key: Tuple[int, int, int]) -> Any:
        """Block until no reader holds the block (pre-erase barrier)."""
        started = self.env.now
        while self._pins.get(block_key, 0) > 0:
            yield self._pin_gate.wait()
        self.metrics.observe("kaml.gc.pin_wait_us", self.env.now - started)

    # ------------------------------------------------------------------
    # Crash and recovery (Section IV-D failure handling)
    # ------------------------------------------------------------------

    def _crash_point(self, name: str) -> None:
        """Announce a named crash point to an attached fault injector."""
        fault = self.fault
        if fault is not None:
            fault.reached(name)

    def simulate_crash(self) -> None:
        """Power-cut at the current instant.

        On-board DRAM (mapping tables) and NVRAM (staged batches) are
        persistent per Section IV-A; open-page assemblies and in-flight
        firmware state are lost.  Processes from before the crash become
        ghosts: their waits never resolve.
        """
        self.epoch += 1
        for log in self.logs:
            log.reset_write_points()
            log.gc_running = False
        self.nvram.power_loss()  # queued (ungranted) reservations are volatile
        self._staged.clear()  # firmware-DRAM view; replay rebuilds installs
        self._pins.clear()
        self._doomed_blocks.clear()  # the pending erases died with the firmware
        # Re-sync soft write pointers with what actually reached flash.
        for log in self.logs:
            for for_gc in (False, True):
                block = log._active[for_gc]
                if block is not None:
                    log._active_wp[for_gc] = (
                        self.array.chip(log.channel, log.chip).block(block).write_pointer
                    )

    def power_loss(self) -> None:
        """Full power cut: every byte of controller DRAM is gone.

        Harsher than :meth:`simulate_crash` (which models a firmware
        reset with DRAM preserved): mapping tables, valid-byte and
        version accounting, block lists, and snapshots all vanish.  Only
        NVRAM reservations and flash pages whose program completed
        survive; :meth:`recover` must rebuild everything else by
        scanning flash.  Processes from before the cut become ghosts.
        """
        self.epoch += 1
        self.array.power_loss()  # in-flight programs/erases never land
        for log in self.logs:
            log.power_loss()
        self.nvram.power_loss()
        self._staged.clear()
        self._pins.clear()
        self._doomed_blocks.clear()
        self._installed_versions.clear()
        self._valid_bytes.clear()
        self._tombstones.clear()
        self._version_counter = 0
        for snapshot in self.snapshots.values():
            if self.dram.holds(snapshot.dram_tag):
                self.dram.free(snapshot.dram_tag)
        self.snapshots.clear()
        for namespace in self.namespaces.values():
            if self.dram.holds(namespace.dram_tag):
                self.dram.free(namespace.dram_tag)
            namespace.index = None
            namespace.resident = False
        self._dram_lost = True
        self.metrics.counter("kaml.ssd.power_losses").inc()

    def recover(self) -> Any:
        """Bring the device back to a consistent, serving state.

        After :meth:`simulate_crash` this replays every staged NVRAM
        batch (redo logging, Section IV-D).  After :meth:`power_loss` it
        first rebuilds the per-namespace mapping tables by scanning
        every programmed flash page through its OOB bitmap — flash is
        self-describing (Figure 4) — ranking copies of a key by record
        sequence (last-writer-wins), then replays NVRAM.  Batches replay
        oldest-first with their phase-1 commit versions, so the result
        is as if each acknowledged command had completed just before the
        crash; never-acknowledged batches apply atomically or not at all.
        """
        staged = list(self.nvram.live_payloads())
        scan_mode = self._dram_lost
        ctx = self.tracer.request("kaml.recover", batches=len(staged), scan=scan_mode)
        if scan_mode:
            yield from self._rebuild_from_flash(ctx)
        for handle, payload in staged:
            if isinstance(payload, StagedBatch):
                batch = payload
            else:  # legacy plain-list payload
                batch = StagedBatch("put", list(payload or []))
            if batch.kind == "prepare":
                # In-doubt 2PC participant batch: durable but undecided.
                # Keep the pin; only the cluster coordinator's intent
                # journal may commit or abort it (presumed abort there).
                self.metrics.counter("kaml.ssd.preserved_prepares").inc()
                ctx.event("recover.prepare_preserved", txn=batch.txn_id)
                continue
            replayed = yield from self._replay_batch(batch)
            self.nvram.release(handle)
            self.metrics.counter("kaml.ssd.recovered_batches").inc()
            ctx.event(
                "recover.batch_replayed",
                kind=batch.kind,
                records=replayed,
                versioned=batch.versions is not None,
            )
        self._dram_lost = False
        # `scan_mode` records whether *this* recovery had to scan flash; a
        # power cut landing mid-recovery bumps the epoch and the harness
        # restarts recover() from scratch, so the stale flag is never trusted.
        # kamllint: allow[KL-RACE001] snapshot of this recovery's own mode
        if scan_mode and sanitize.enabled():
            # SAN-OOB / SAN-VALID: the rebuilt mapping tables, the OOB
            # bitmaps they reference, and valid-byte accounting must all
            # agree before the device serves traffic again.
            sanitize.check_recovery(self)
        ctx.close()
        yield self.env.timeout(0.0)

    def _rebuild_from_flash(self, ctx: TraceContext = NULL_CONTEXT) -> Any:
        """Reconstruct mapping tables and block lists by scanning flash.

        Every programmed page of every log target is read; the OOB
        bitmap yields each record's chunk run (no external directory
        needed).  The newest copy of each key wins by record sequence,
        with physical position as the tie-break for GC-duplicated copies
        of the same version.  The version counter resumes above every
        sequence seen — including stale copies — so new commits always
        outrank pre-crash ones.
        """
        scan_start = self.env.now
        winners: Dict[Tuple[int, int], Tuple[Tuple[int, Tuple[int, ...]], Record,
                                             RecordLocation]] = {}
        max_seq = 0
        scanned_records = 0
        scanned_pages = 0
        for log in self.logs:
            chip = self.array.chip(log.channel, log.chip)
            free_blocks: List[int] = []
            full_blocks: List[int] = []
            #: (free_pages, block_index, write_pointer) of partial blocks.
            partial_blocks: List[Tuple[int, int, int]] = []
            for block_index in range(self.geometry.blocks_per_chip):
                block = chip.block(block_index)
                if block.is_bad:
                    continue  # retired; never allocatable again
                if block.programmed_pages == 0:
                    free_blocks.append(block_index)
                    continue
                if block.programmed_pages < self.geometry.pages_per_block:
                    partial_blocks.append(
                        (
                            self.geometry.pages_per_block - block.programmed_pages,
                            block_index,
                            block.programmed_pages,
                        )
                    )
                else:
                    full_blocks.append(block_index)
                for page_index in range(block.programmed_pages):
                    pointer = PagePointer(log.channel, log.chip, block_index, page_index)
                    data, oob = yield from self.array.read_page(
                        pointer, ctx=ctx, parent=ctx.root
                    )
                    scanned_pages += 1
                    for start, nchunks in decode_bitmap(
                        oob or 0, self.geometry.chunks_per_page
                    ):
                        record = data.get(start) if data else None
                        if record is None:
                            continue
                        scanned_records += 1
                        max_seq = max(max_seq, record.seq)
                        location = RecordLocation(pointer, start, nchunks)
                        entry_key = (record.namespace_id, record.key)
                        rank = (
                            record.seq,
                            (pointer.channel, pointer.chip, pointer.block,
                             pointer.page, start),
                        )
                        previous = winners.get(entry_key)
                        if previous is None or rank > previous[0]:
                            winners[entry_key] = (rank, record, location)
            # The two emptiest partial blocks become the resumed write
            # points; the rest are sealed for GC.  Discarding every
            # partial tail instead can leave the log with zero
            # allocatable pages — replay then wedges because GC has
            # nowhere to relocate survivors either.  GC gets the largest
            # tail: it is the stream that reclaims whole blocks, so
            # feeding it first un-wedges a full log; the host stream can
            # wait on the space gate, GC cannot.
            partial_blocks.sort(key=lambda entry: (-entry[0], entry[1]))
            host_active = gc_active = None
            if partial_blocks:
                _, block_index, pointer_index = partial_blocks[0]
                gc_active = (block_index, pointer_index)
            if len(partial_blocks) > 1:
                _, block_index, pointer_index = partial_blocks[1]
                host_active = (block_index, pointer_index)
            full_blocks.extend(entry[1] for entry in partial_blocks[2:])
            log.adopt_blocks(
                free_blocks, full_blocks,
                host_active=host_active, gc_active=gc_active,
            )
        self._version_counter = max(self._version_counter, max_seq)
        # Fresh mapping tables, then install each key's newest copy.
        for namespace in self.namespaces.values():
            index = Namespace.build_index(
                namespace.attributes, self.config.kaml.index_bucket_slots
            )
            if self.dram.holds(namespace.dram_tag):
                self.dram.free(namespace.dram_tag)
            self.dram.allocate(namespace.dram_tag, index.memory_bytes)
            namespace.index = index
            namespace.resident = True
        inserts = 0
        for entry_key in sorted(winners):
            _rank, record, location = winners[entry_key]
            namespace = self.namespaces.get(record.namespace_id)
            if namespace is None or namespace.index is None:
                continue  # records of a deleted namespace are garbage
            self._installed_versions[entry_key] = record.seq
            if record.value is TOMBSTONE:
                self._tombstones[entry_key] = (record.seq, location)
                self._adjust_valid(location, +1)
                continue
            namespace.index.insert(record.key, location)
            self._adjust_valid(location, +1)
            inserts += 1
        yield from self.firmware.execute(
            inserts * (self.costs.hash_insert_us + self.costs.per_record_us)
        )
        self.metrics.counter("kaml.recover.scanned_pages").inc(scanned_pages)
        self.metrics.counter("kaml.recover.scanned_records").inc(scanned_records)
        self.metrics.counter("kaml.recover.installed_keys").inc(inserts)
        self.metrics.observe("kaml.recover.scan_us", self.env.now - scan_start)
        ctx.event(
            "recover.scan",
            pages=scanned_pages,
            records=scanned_records,
            keys=inserts,
            max_seq=max_seq,
        )

    def _replay_batch(self, batch: StagedBatch) -> Any:
        """Re-append one pinned NVRAM batch and install its mappings.

        Returns the number of records replayed.  Versioned batches
        (acknowledged before the crash) install under their original
        commit versions — idempotent against copies the flash scan
        already recovered, and correctly superseded by any newer version
        the scan saw.  Unversioned batches were never acknowledged;
        they apply all-or-nothing with fresh versions.
        """
        versions = batch.versions
        if versions is None:
            versions = []
            for _item in batch.items:
                self._version_counter += 1
                versions.append(self._version_counter)
        else:
            for version in versions:
                self._version_counter = max(self._version_counter, version)
        staged_events = []
        touched = set()
        for item, version in zip(batch.items, versions):
            namespace = self.namespaces.get(item.namespace_id)
            if namespace is None:
                continue
            log = self.logs[namespace.next_log_id()]
            record = Record(
                item.namespace_id, item.key, item.value, item.size, seq=version
            )
            staged_events.append((item, version, log._stage(record, for_gc=False)))
            touched.add(log.log_id)
        for log_id in sorted(touched):
            self.logs[log_id].force_flush()
        for item, version, event in staged_events:
            location = yield event
            if batch.kind == "delete":
                self._install_tombstone(item.namespace_id, item.key, version, location)
            elif batch.versions is None:
                self._install(item.namespace_id, item.key, location)
                self._installed_versions[(item.namespace_id, item.key)] = max(
                    version,
                    self._installed_versions.get((item.namespace_id, item.key), 0),
                )
            else:
                self._install_versioned(item.namespace_id, item.key, version, location)
        return len(staged_events)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _namespace(self, namespace_id: int) -> Namespace:
        try:
            return self.namespaces[namespace_id]
        except KeyError:
            raise NamespaceError(f"unknown namespace id: {namespace_id}") from None

    def drain(self) -> Any:
        """Force all open pages to flash and wait for them (test helper)."""
        for log in self.logs:
            log.force_flush()
        yield self.env.timeout(
            self.config.flash.program_us * 4 + self.config.kaml.flush_timeout_us
        )

    def close(self) -> None:
        """End-of-life check point for a drained device.

        With sanitizers armed (``KAML_SANITIZE=1``) this verifies that no
        NVRAM reservation and no block read-pin outlived the workload —
        the accounting leaks that silently eat capacity in long runs.
        Call after :meth:`drain` has completed.
        """
        if sanitize.enabled():
            sanitize.check_close(self)

    def enable_timeseries(
        self, interval_us: float = 1000.0, capacity: int = 4096
    ) -> Any:
        """Start the device telemetry sampler (``repro.obs.timeseries``).

        Opt-in only: this launches a periodic sampling process, so runs
        that must stay event-count-identical to the seed (determinism
        digests, the perf gate) simply never call it.  Call after the
        namespaces under test exist — per-namespace rate probes are
        registered for the namespaces present now.
        """
        from repro.obs.timeseries import TimeSeriesCollector, install_device_probes

        collector = TimeSeriesCollector(
            self.env, interval_us=interval_us, capacity=capacity
        )
        install_device_probes(collector, self)
        collector.start()
        self.timeseries = collector
        return collector

    def enable_oplog(
        self, path: Optional[str] = None, capacity: int = 1 << 20
    ) -> Any:
        """Start the kamltrace op journal (``repro.obs.oplog``).

        Opt-in only: with the default :data:`~repro.obs.oplog.NULL_OPLOG`
        every choke point pays one attribute check and schedules zero
        extra simulation events, so pinned digests and ``sim_events``
        counts are untouched.  With ``path=None`` rows accumulate in
        memory (``journal.rows``); with a path they stream as JSONL
        (gzipped when the name ends in ``.gz``).  The caller owns
        ``journal.close()`` for streamed captures.
        """
        from repro.obs.oplog import OpJournal

        journal = OpJournal(path=path, capacity=capacity)
        self.oplog = journal
        return journal

    def utilization_report(self) -> Dict[str, Any]:
        """Operational snapshot of the device (monitoring/debug surface)."""
        erase_low, erase_high = self.array.erase_count_spread()
        return {
            "namespaces": len(self.namespaces),
            "snapshots": len(self.snapshots),
            "dram_used_bytes": self.dram.used_bytes,
            "dram_free_bytes": self.dram.free_bytes,
            "nvram_used_bytes": self.nvram.used_bytes,
            "staged_records": len(self._staged),
            "valid_bytes": sum(self._valid_bytes.values()),
            "free_blocks": sum(log.free_blocks for log in self.logs),
            "retired_blocks": int(self.metrics.total("kaml.log.retired_blocks")),
            "gc_erased_blocks": int(self.metrics.total("kaml.log.gc.erased_blocks")),
            "flash_programs": self.array.total_programs(),
            "flash_reads": self.array.total_reads(),
            "erase_count_min": erase_low,
            "erase_count_max": erase_high,
        }
