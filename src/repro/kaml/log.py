"""The in-storage append logs (Sections IV-B, IV-E).

Each log owns one flash target (a chip behind a channel) and manages its
blocks as an append-only stream of record-packed pages.  A page fills in a
non-volatile buffer (records are already durable in NVRAM when they arrive
here) and is programmed when full or when the flush timer expires.  GC
runs per log: victims are chosen by low erase count and low valid bytes,
pages are parsed via the OOB bitmap, and still-valid records are
re-appended through a dedicated GC write point.

The log knows nothing about namespaces; validity checks and index updates
go through the hooks the :class:`~repro.kaml.ssd.KamlSsd` provides.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import sanitize
from repro.config import ReproConfig
from repro.flash import (
    EraseFailure,
    FlashArray,
    PagePointer,
    ProgramFailure,
    ReadError,
    WearOutError,
)
from repro.ftl.gc_policy import GcCandidate, WearAwarePolicy
from repro.kaml.record import PageAssembly, Record, RecordLocation, RecordTooLargeError
from repro.obs import NULL_CONTEXT, NullTracer, TraceContext
from repro.sim import Environment, Event, SimLock


class LogSpaceError(Exception):
    """A log ran out of blocks and GC could not reclaim any."""


@dataclass
class _WritePoint:
    """An open page being assembled (user or GC stream)."""

    assembly: PageAssembly
    waiters: List[Tuple[int, Record, Event]] = field(default_factory=list)
    generation: int = 0
    #: Pending flush-timer event (bootstrap or armed timeout); defused
    #: when the page flushes early so no ghost fires at the deadline.
    timer: Optional[Event] = None


class KamlLog:
    """One append log on one flash target.

    A flush that finds no programmable page parks on an ordered wait
    list until GC frees space.  Each erase wakes, in the order flushes
    first parked, only those that can get a page now (plus one, see
    :meth:`_wake_budget`); the end of a GC pass wakes every parked flush
    so the first one still stuck restarts GC or fails with
    :class:`LogSpaceError`.
    """

    #: Bounded retries for transient media faults before giving up.
    MAX_PROGRAM_RETRIES = 4
    MAX_ERASE_RETRIES = 2

    def __init__(
        self,
        env: Environment,
        config: ReproConfig,
        array: FlashArray,
        log_id: int,
        channel: int,
        chip: int,
        hooks: Any,
    ):
        self.env = env
        self.config = config
        self.array = array
        self.log_id = log_id
        self.channel = channel
        self.chip = chip
        self.hooks = hooks
        self.geometry = config.geometry
        self.params = config.kaml
        self.metrics = getattr(hooks, "metrics", None)
        if self.metrics is None:
            from repro.obs import MetricsRegistry

            self.metrics = MetricsRegistry()
        self.tracer = getattr(hooks, "tracer", None) or NullTracer()
        #: Monotonic id for GC passes; tags every span of one pass.
        self._gc_generation = 0
        self.gc_policy = WearAwarePolicy()
        self.gc_policy.metrics = self.metrics
        self.free: List[int] = list(range(self.geometry.blocks_per_chip))
        self.full: List[int] = []
        self._active: Dict[bool, Optional[int]] = {False: None, True: None}  # for_gc -> block
        self._active_wp: Dict[bool, int] = {False: 0, True: 0}
        self._points: Dict[bool, _WritePoint] = {
            False: _WritePoint(self._new_assembly()),
            True: _WritePoint(self._new_assembly()),
        }
        self._program_lock = SimLock(
            env, name=f"log{log_id}.program", static_site="KamlLog._program_lock"
        )
        # Hot-path instruments, resolved once instead of per append/flush
        # (registry lookups sort+hash the label set on every call).
        metrics = self.metrics
        self._wasted_chunks_counter = metrics.counter(
            "kaml.log.wasted_chunks", log=log_id
        )
        self._timer_flushes_counter = metrics.counter(
            "kaml.log.timer_flushes", log=log_id
        )
        self._programmed_pages_counter = metrics.counter(
            "kaml.log.programmed_pages", log=log_id
        )
        self._programmed_bytes_counter = metrics.counter(
            "kaml.log.programmed_bytes", log=log_id
        )
        self._program_us_histogram = metrics.histogram(
            "kaml.log.program_us", log=log_id
        )
        #: (namespace_id, stream) -> (records counter, bytes counter)
        self._append_counters: Dict[Tuple[int, str], Tuple[Any, Any]] = {}
        #: Flushes waiting for GC to free space, as ``(ticket, for_gc,
        #: wake)`` sorted by the ticket each took when it first parked.
        self._parked: List[Tuple[int, bool, Event]] = []
        self._next_ticket = 0
        self.gc_running = False
        #: Bumped by crash recovery; in-flight processes from before the
        #: crash notice the change and die without touching state.
        self.epoch = 0

    def _new_assembly(self) -> PageAssembly:
        return PageAssembly(self.geometry.chunks_per_page, self.geometry.chunk_size)

    @property
    def block_capacity_bytes(self) -> int:
        return self.geometry.pages_per_block * self.geometry.page_size

    def block_key(self, block_index: int) -> Tuple[int, int, int]:
        return (self.channel, self.chip, block_index)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(
        self, record: Record, ctx: TraceContext = NULL_CONTEXT, parent=None
    ) -> Any:
        """Append one record; returns its :class:`RecordLocation` once the
        containing page is programmed (Put phase 2, Section IV-D)."""
        started = self.env.now
        event = self._stage(record, for_gc=False)
        location = yield event
        ctx.record_span(
            "log.append",
            start_us=started,
            parent=parent,
            log=self.log_id,
            namespace=record.namespace_id,
            key=record.key,
        )
        return location

    def _stage(self, record: Record, for_gc: bool) -> Event:
        """Synchronously place a record into the open page; returns the
        event that fires with its location after the program completes."""
        point = self._points[for_gc]
        nchunks = record.chunks(self.geometry.chunk_size)
        if nchunks > self.geometry.chunks_per_page:
            raise RecordTooLargeError(
                f"record of {record.size} B exceeds one page"
            )
        if not point.assembly.fits(record):
            self._wasted_chunks_counter.inc(point.assembly.free_chunks)
            self._launch_flush(for_gc)
            point = self._points[for_gc]
        was_empty = point.assembly.is_empty
        start = point.assembly.add(record)
        event = self.env.event()
        point.waiters.append((start, record, event))
        stream = "gc" if for_gc else "host"
        counters = self._append_counters.get((record.namespace_id, stream))
        if counters is None:
            counters = (
                self.metrics.counter(
                    "kaml.log.appended_records",
                    log=self.log_id, namespace=record.namespace_id, stream=stream,
                ),
                self.metrics.counter(
                    "kaml.log.append_bytes",
                    log=self.log_id, namespace=record.namespace_id, stream=stream,
                ),
            )
            self._append_counters[(record.namespace_id, stream)] = counters
        counters[0].inc()
        counters[1].inc(record.size)
        if point.assembly.free_chunks == 0:
            self._launch_flush(for_gc)
        elif was_empty:
            self._start_flush_timer(for_gc, point)
        return event

    def _launch_flush(self, for_gc: bool) -> None:
        point = self._points[for_gc]
        if point.assembly.is_empty:
            return
        if point.timer is not None:
            # The page is flushing before its deadline: kill the timer
            # instead of letting it fire as a ghost wakeup.
            point.timer.defuse()
            point.timer = None
        assembly, waiters = point.assembly, point.waiters
        self._points[for_gc] = _WritePoint(self._new_assembly(), generation=point.generation + 1)
        # The epoch is captured *here*, not at the flush body's first
        # step: a power cut can land between ``env.process()`` and the
        # first resume, and a flush that captured the post-cut epoch
        # would happily program a page of pre-crash records into the
        # recovered log.
        self.env.process(self._flush_process(assembly, waiters, for_gc, self.epoch))

    def _start_flush_timer(self, for_gc: bool, point: _WritePoint) -> None:
        """Program a partially filled page after a timeout (Section IV-B).

        Event-based replacement for the old generator process, keeping its
        exact two-step schedule (a bootstrap event at *now*, the timeout at
        bootstrap dispatch) so event ordering — and therefore every
        fixed-seed digest — is unchanged.  Unlike the process version, the
        timer is defused when the page flushes early, so a full page does
        not leave a ghost wakeup in the heap.
        """
        generation = point.generation

        def arm(_bootstrap: Event) -> None:
            if self._points[for_gc] is not point or point.generation != generation:
                return  # flushed while the bootstrap was in flight
            timeout = self.env.timeout(self.params.flush_timeout_us)
            timeout.add_callback(fire)
            point.timer = timeout

        def fire(_timeout: Event) -> None:
            current = self._points[for_gc]
            if current.generation == generation and not current.assembly.is_empty:
                # Timer flushes pad out the page: the free tail is wasted.
                self._wasted_chunks_counter.inc(current.assembly.free_chunks)
                self._timer_flushes_counter.inc()
                self._launch_flush(for_gc)

        bootstrap = Event(self.env)
        bootstrap._triggered = True
        bootstrap.add_callback(arm)
        point.timer = bootstrap
        self.env._schedule(bootstrap, 0.0)

    def _flush_process(
        self, assembly: PageAssembly, waiters, for_gc: bool,
        epoch: Optional[int] = None,
    ) -> Any:
        """Program one assembled page and resolve its records' events.

        With no programmable page and GC running, the flush parks on the
        log's wait list (see :meth:`_wake_parked`) under the ticket of
        its first park, and retries when woken; with GC idle it fails
        its records with :class:`LogSpaceError`.
        """
        if epoch is None:
            epoch = self.epoch
        if self.epoch != epoch:
            return  # launched an instant before a cut; the page is gone
        yield self._program_lock.acquire(owner=("flush", for_gc))
        held = True
        try:
            if sanitize.enabled():
                # SAN-CHUNK: runs must be packed, in-bounds, and bitmap
                # round-trippable before they become on-flash truth.
                sanitize.check_page_assembly(assembly)
            data = {}
            start_cursor = 0
            for record in assembly.records:
                data[start_cursor] = record
                start_cursor += record.chunks(self.geometry.chunk_size)
            attempts = 0
            ticket: Optional[int] = None
            while True:
                if self.epoch != epoch:
                    return  # ghost flush from before a crash
                pointer = self._try_allocate(for_gc)
                if pointer is None:
                    if not self.gc_running:
                        error = LogSpaceError(
                            f"log {self.log_id} is full and nothing is reclaimable"
                        )
                        for _start, _record, event in waiters:
                            event.fail(error)
                        return
                    self._program_lock.release()
                    held = False
                    if ticket is None:
                        ticket = self._next_ticket
                        self._next_ticket += 1
                    wake = self.env.event()
                    bisect.insort(self._parked, (ticket, for_gc, wake))
                    yield wake
                    yield self._program_lock.acquire(owner=("flush-retry", for_gc))
                    held = True
                    continue
                self._crash_point("log.mid_flush")
                program_start = self.env.now
                # Device-side telemetry trace: one root per page program,
                # so the profiler can separate flash-program cost (bus
                # transfer, engine wait, t_PROG) from the request-side
                # log.append wait that covers it.
                flush_ctx = self.tracer.request(
                    "kaml.flash_program",
                    log=self.log_id,
                    stream="gc" if for_gc else "host",
                    records=len(assembly.records),
                )
                try:
                    yield from self.array.program_page(
                        pointer, data, oob=assembly.bitmap(),
                        ctx=flush_ctx, parent=flush_ctx.root,
                    )
                except ProgramFailure:
                    flush_ctx.root.tags["failed"] = True
                    flush_ctx.close()
                    # Transient media fault: the attempted page is burned
                    # (its write pointer advanced past garbage); remap the
                    # whole assembly to the next allocatable page.
                    attempts += 1
                    self.metrics.counter(
                        "kaml.log.program_failures", log=self.log_id
                    ).inc()
                    fail_ctx = self.tracer.request(
                        "kaml.flash_fault",
                        kind="program",
                        log=self.log_id,
                        block=pointer.block,
                        page=pointer.page,
                        attempt=attempts,
                    )
                    fail_ctx.close()
                    if self.epoch != epoch:
                        return
                    if attempts >= self.MAX_PROGRAM_RETRIES:
                        error = LogSpaceError(
                            f"log {self.log_id} page program failed "
                            f"{attempts} times; giving up"
                        )
                        for _start, _record, event in waiters:
                            event.fail(error)
                        return
                    self.metrics.counter(
                        "kaml.log.program_retries", log=self.log_id
                    ).inc()
                    continue
                flush_ctx.close()
                break
            self._programmed_pages_counter.inc()
            self._programmed_bytes_counter.inc(self.geometry.page_size)
            self._program_us_histogram.observe(self.env.now - program_start)
        finally:
            if held:
                self._program_lock.release()
        if self.epoch != epoch:
            # A crash hit while this page was programming: the page is a
            # torn write the mapping tables never point at.
            return
        for start, record, event in waiters:
            event.succeed(
                RecordLocation(
                    page=pointer,
                    chunk=start,
                    nchunks=record.chunks(self.geometry.chunk_size),
                )
            )

    # ------------------------------------------------------------------
    # Block allocation
    # ------------------------------------------------------------------

    def _try_allocate(self, for_gc: bool) -> Optional[PagePointer]:
        """Next programmable page for a stream, or None if blocks must be
        reclaimed first.  Never yields; called under the program lock."""
        active = self._active[for_gc]
        if active is not None and self._active_wp[for_gc] < self.geometry.pages_per_block:
            page_index = self._active_wp[for_gc]
            self._active_wp[for_gc] += 1
            return PagePointer(self.channel, self.chip, active, page_index)
        if active is not None:
            self.full.append(active)
            self._active[for_gc] = None
        reserve = 0 if for_gc else 1
        if len(self.free) > reserve:
            self.free.sort(key=lambda b: self._chip().block(b).erase_count)
            block = self.free.pop(0)
            self._active[for_gc] = block
            self._active_wp[for_gc] = 0
            self._maybe_start_gc()
            return self._try_allocate(for_gc)
        self._maybe_start_gc()
        return None

    def _chip(self):
        return self.array.chip(self.channel, self.chip)

    # ------------------------------------------------------------------
    # Garbage collection (Section IV-E)
    # ------------------------------------------------------------------

    def _maybe_start_gc(self) -> None:
        if self.gc_running:
            return
        if len(self.free) >= self.params.gc_free_block_threshold:
            return
        if not self.full:
            return
        # Don't spin up a GC pass that cannot reclaim anything: a stuck
        # flush would otherwise restart it in a zero-time livelock.
        if not any(self._gc_feasible(c) for c in self._gc_candidates()):
            return
        self.gc_running = True
        self.env.process(self._gc_process())

    def _gc_candidates(self) -> List[GcCandidate]:
        chip = self._chip()
        return [
            GcCandidate(
                token=block_index,
                valid_bytes=self.hooks.valid_bytes(self.block_key(block_index)),
                erase_count=chip.block(block_index).erase_count,
            )
            for block_index in self.full
        ]

    def _gc_process(self) -> Any:
        epoch = self.epoch
        self._gc_generation += 1
        ctx = self.tracer.request(
            "kaml.gc", log=self.log_id, generation=self._gc_generation
        )
        gc_span = ctx.root
        try:
            while len(self.free) < self.params.gc_restore_target:
                if self.epoch != epoch:
                    return  # crashed meanwhile
                candidates = [
                    c for c in self._gc_candidates() if self._gc_feasible(c)
                ]
                victim = self.gc_policy.choose(candidates)
                if victim is None:
                    break
                block_index = victim.token
                self.full.remove(block_index)
                # From here until block_erased fires, any mapping install
                # into this block is installing into a block whose erase
                # is already decided; the hook lets late phase-3 installs
                # detect that and re-append instead (the survivor scan
                # below has already judged them garbage).
                self.hooks.block_doomed(self.block_key(block_index))
                clean_span = ctx.begin(
                    "gc.clean_block",
                    parent=gc_span,
                    log=self.log_id,
                    block=block_index,
                    generation=self._gc_generation,
                )
                yield from self._clean_block(block_index, ctx, clean_span)
                ctx.finish(clean_span)
                if self.epoch != epoch:
                    return
                block_key = self.block_key(block_index)
                pin_wait_start = self.env.now
                yield from self.hooks.wait_unpinned(block_key)
                if self.env.now > pin_wait_start:
                    ctx.record_span(
                        "gc.pin_wait",
                        start_us=pin_wait_start,
                        parent=gc_span,
                        block=block_index,
                    )
                erase_span = ctx.begin(
                    "gc.erase", parent=gc_span, log=self.log_id, block=block_index
                )
                retired = False
                erase_attempts = 0
                while True:
                    try:
                        yield from self.array.erase_block(
                            PagePointer(self.channel, self.chip, block_index, 0),
                            ctx=ctx, parent=erase_span,
                        )
                        break
                    except EraseFailure:
                        # Transient fault: retry the erase pulse a bounded
                        # number of times, then retire the block.
                        erase_attempts += 1
                        self.metrics.counter(
                            "kaml.log.erase_failures", log=self.log_id
                        ).inc()
                        fail_ctx = self.tracer.request(
                            "kaml.flash_fault",
                            kind="erase",
                            log=self.log_id,
                            block=block_index,
                            attempt=erase_attempts,
                        )
                        fail_ctx.close()
                        if self.epoch != epoch:
                            return
                        if erase_attempts > self.MAX_ERASE_RETRIES:
                            retired = True
                            break
                    except WearOutError:
                        # The block exceeded its endurance: retire it.  Its
                        # survivors were already relocated; capacity shrinks
                        # by one block and the log carries on (Section
                        # II-A's "limited number of erase operations").
                        retired = True
                        break
                if self.epoch != epoch:
                    return  # cut mid-pulse: the block was never erased
                if retired:
                    self.metrics.counter(
                        "kaml.log.retired_blocks", log=self.log_id
                    ).inc()
                    if erase_span is not None:
                        erase_span.tags["retired"] = True
                    ctx.finish(erase_span)
                    self.hooks.block_erased(block_key)
                    continue
                ctx.finish(erase_span)
                self.metrics.counter(
                    "kaml.log.gc.erased_blocks", log=self.log_id
                ).inc()
                self.hooks.block_erased(block_key)
                self.free.append(block_index)
                self._wake_parked()
        finally:
            ctx.close()
            if self.epoch == epoch:
                self.gc_running = False
                # Every parked flush re-checks: the first still without a
                # page restarts GC or fails with LogSpaceError.
                parked, self._parked = self._parked, []
                for _ticket, _for_gc, wake in parked:
                    wake.succeed()

    def _wake_parked(self) -> None:
        """After an erase, wake each stream's first :meth:`_wake_budget`
        parked flushes in ticket order; the others would only fail
        again, so they stay parked without costing an event."""
        budget = {False: self._wake_budget(False), True: self._wake_budget(True)}
        still_parked = []
        for entry in self._parked:
            for_gc = entry[1]
            if budget[for_gc] > 0:
                budget[for_gc] -= 1
                entry[2].succeed()
            else:
                still_parked.append(entry)
        self._parked = still_parked

    def _wake_budget(self, for_gc: bool) -> int:
        """Parked flushes of one stream an erase wakes.

        One per page :meth:`_try_allocate` could hand the stream right
        now (the rest of its active block plus the free blocks beyond its
        reserve), and one more whose failed allocation moves the filled
        active block to the full list at the same instant as it would
        if every flush woke, so GC sees the same victims.
        """
        active = self._active[for_gc] is not None
        pages = self.geometry.pages_per_block - self._active_wp[for_gc] if active else 0
        spare_blocks = len(self.free) - (0 if for_gc else 1)
        if spare_blocks > 0:
            pages += spare_blocks * self.geometry.pages_per_block
        return pages + 1 if active or pages else 0

    def _gc_feasible(self, candidate: GcCandidate) -> bool:
        """Can the victim's survivors fit in the pages GC can reach?

        Prevents the GC stream from wedging mid-victim with nowhere to
        put relocated records.  Cleaning must also net at least a page.
        """
        if candidate.valid_bytes >= self.block_capacity_bytes - self.geometry.page_size:
            return False
        required_pages = -(-candidate.valid_bytes // self.geometry.page_size)
        gc_active = self._active[True]
        available = len(self.free) * self.geometry.pages_per_block
        if gc_active is not None:
            available += self.geometry.pages_per_block - self._active_wp[True]
        return required_pages <= available

    def _clean_block(
        self, block_index: int, ctx: TraceContext = NULL_CONTEXT, parent=None
    ) -> Any:
        """Relocate every still-valid record out of a victim block."""
        self.metrics.observe(
            "kaml.gc.victim_valid_bytes",
            self.hooks.valid_bytes(self.block_key(block_index)),
            log=self.log_id,
        )
        clean_start = self.env.now
        epoch = self.epoch
        chip = self._chip()
        block = chip.block(block_index)
        survivors: List[Tuple[Record, RecordLocation]] = []
        for page_index in range(block.programmed_pages):
            pointer = PagePointer(self.channel, self.chip, block_index, page_index)
            try:
                data, bitmap = yield from self.array.read_page(
                    pointer, ctx=ctx, parent=parent
                )
            except ReadError:
                if self.epoch != epoch:
                    return  # ghost pass: the block was reclaimed post-crash
                raise
            if self.epoch != epoch:
                return
            for start, record in data.items():
                location = RecordLocation(
                    page=pointer,
                    chunk=start,
                    nchunks=record.chunks(self.geometry.chunk_size),
                )
                if self.hooks.is_valid(record, location):
                    survivors.append((record, location))
        if not survivors:
            return
        staged = []
        for record, old_location in survivors:
            event = self._stage(record, for_gc=True)
            staged.append((event, record, old_location))
        self._launch_flush(for_gc=True)
        moved_bytes = 0
        for event, record, old_location in staged:
            new_location = yield event
            self._crash_point("gc.mid_relocation")
            if self.epoch != epoch:
                return  # ghost pass: never CAS into recovered mapping state
            if self.hooks.relocate(record, old_location, new_location):
                self.metrics.counter(
                    "kaml.log.gc.relocated_records", log=self.log_id
                ).inc()
                moved_bytes += record.size
                ctx.event(
                    "gc.relocate",
                    parent=parent,
                    log=self.log_id,
                    namespace=record.namespace_id,
                    key=record.key,
                    block=block_index,
                )
        self.metrics.counter(
            "kaml.log.gc.moved_bytes", log=self.log_id
        ).inc(moved_bytes)
        self.metrics.observe(
            "kaml.gc.clean_block_us", self.env.now - clean_start, log=self.log_id
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return len(self.free)

    def force_flush(self) -> None:
        """Push any open pages toward flash (test/shutdown helper)."""
        self._launch_flush(for_gc=False)
        self._launch_flush(for_gc=True)

    def _crash_point(self, name: str) -> None:
        """Announce a named crash point to the SSD's fault injector."""
        fault = getattr(self.hooks, "fault", None)
        if fault is not None:
            fault.reached(name)

    def reset_write_points(self) -> None:
        """Drop open-page state after a simulated crash; the records are
        still staged in NVRAM and will be replayed (Section IV-D).

        Parked flushes are dropped: their pages died with the cut, and a
        ghost must never take a wake-up a post-recovery flush needs.
        """
        self.epoch += 1
        self._parked = []
        for for_gc in (False, True):
            point = self._points[for_gc]
            if point.timer is not None:
                point.timer.defuse()
                point.timer = None
            self._points[for_gc] = _WritePoint(
                self._new_assembly(), generation=point.generation + 1
            )

    def power_loss(self) -> None:
        """Full power cut: block lists and write points lived in DRAM.

        Everything is cleared; :meth:`adopt_blocks` reinstalls lists
        reconstructed by the recovery flash scan.  The lock instance is
        deliberately kept — ghost flushes from before the cut still
        release it through their ``finally`` blocks.
        """
        self.reset_write_points()
        self.gc_running = False
        self.free = []
        self.full = []
        self._active = {False: None, True: None}
        self._active_wp = {False: 0, True: 0}

    def adopt_blocks(
        self,
        free: List[int],
        full: List[int],
        host_active: Optional[Tuple[int, int]] = None,
        gc_active: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Install block lists reconstructed by the recovery scan.

        ``host_active``/``gc_active`` are optional ``(block, write_pointer)``
        pairs: partially-programmed blocks the streams resume appending
        into.  Re-adopting those tails matters — sealing every partial
        block as full after a crash can leave the log with zero
        allocatable pages, wedging both replay and the GC that would
        have reclaimed space.
        """
        self.free = list(free)
        self.full = list(full)
        self._active = {False: None, True: None}
        self._active_wp = {False: 0, True: 0}
        for for_gc, adopted in ((False, host_active), (True, gc_active)):
            if adopted is not None:
                self._active[for_gc] = adopted[0]
                self._active_wp[for_gc] = adopted[1]
