"""Direct unit tests for KamlLog: staging, flushing, timers, wear."""

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.flash import FlashArray
from repro.kaml.log import KamlLog, LogSpaceError
from repro.kaml.record import Record, RecordLocation, decode_bitmap
from repro.sim import Environment


class FakeHooks:
    """Minimal index stand-in: a key is valid only at its registered
    current location (mirroring what KamlSsd's mapping tables provide)."""

    def __init__(self):
        self.valid = {}          # block_key -> bytes
        self.locations = {}      # key -> current RecordLocation
        self.relocations = []

    @staticmethod
    def _block_key(location):
        return (location.page.channel, location.page.chip, location.page.block)

    def register(self, key, location):
        """Mark a key's freshly written record as its current copy."""
        old = self.locations.get(key)
        if old is not None:
            self.valid[self._block_key(old)] -= old.nchunks * 128
        self.locations[key] = location
        block_key = self._block_key(location)
        self.valid[block_key] = self.valid.get(block_key, 0) + location.nchunks * 128

    def invalidate(self, key):
        old = self.locations.pop(key, None)
        if old is not None:
            self.valid[self._block_key(old)] -= old.nchunks * 128

    def valid_bytes(self, block_key):
        return self.valid.get(block_key, 0)

    def is_valid(self, record, location):
        return self.locations.get(record.key) == location

    def relocate(self, record, old, new):
        if self.locations.get(record.key) != old:
            return False
        self.relocations.append((record.key, old, new))
        self.register(record.key, new)
        return True

    def block_doomed(self, block_key):
        pass  # these tests never install during a clean

    def block_erased(self, block_key):
        self.valid.pop(block_key, None)

    def wait_unpinned(self, block_key):
        yield from ()  # never pinned in these tests


def make_log(blocks=8, pages=4, endurance=3000, flush_timeout=500.0):
    env = Environment()
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=blocks,
        pages_per_block=pages, erase_endurance=endurance,
    )
    config = ReproConfig().with_(
        geometry=geometry,
        kaml=KamlParams(num_logs=1, flush_timeout_us=flush_timeout),
    )
    array = FlashArray(env, geometry, config.flash)
    hooks = FakeHooks()
    log = KamlLog(env, config, array, log_id=0, channel=0, chip=0, hooks=hooks)
    return env, log, hooks, array


def record(key, size=1000):
    return Record(namespace_id=1, key=key, value=("r", key), size=size)


def run(env, gen):
    proc = env.process(gen)
    env.run_until(proc)
    return proc.value




def test_append_returns_location_after_program():
    env, log, hooks, array = make_log()

    def flow():
        location = yield from log.append(record(1, size=7000))  # ~55 chunks
        return location

    location = run(env, flow())
    assert isinstance(location, RecordLocation)
    assert location.chunk == 0
    assert log.metrics.total("kaml.log.programmed_pages", log=log.log_id) >= 1
    data, bitmap = array.block_at(location.page).read(location.page.page)
    assert data[0].key == 1
    assert decode_bitmap(bitmap)[0] == (0, location.nchunks)


def test_records_pack_into_one_page():
    env, log, hooks, array = make_log()

    def flow():
        stages = [log._stage(record(k, size=1000), for_gc=False) for k in range(4)]
        log.force_flush()
        locations = []
        for event in stages:
            locations.append((yield event))
        return locations

    locations = run(env, flow())
    pages = {loc.page for loc in locations}
    assert len(pages) == 1  # 4 x 8-chunk records share one 64-chunk page
    chunks = [loc.chunk for loc in locations]
    assert chunks == sorted(chunks)
    assert log.metrics.total("kaml.log.programmed_pages", log=log.log_id) == 1


def test_full_page_flushes_without_timer():
    env, log, hooks, array = make_log(flush_timeout=10_000_000.0)

    def flow():
        # 8 records x 8 chunks each = 64 chunks: exactly one page.
        stages = [log._stage(record(k, size=1000), for_gc=False) for k in range(8)]
        for event in stages:
            yield event
        return env.now

    finished = run(env, flow())
    assert finished < 10_000_000.0  # programmed by page-full, not timer
    assert log.metrics.total("kaml.log.programmed_pages", log=log.log_id) == 1


def test_timer_flushes_partial_page():
    env, log, hooks, array = make_log(flush_timeout=500.0)

    def flow():
        location = yield from log.append(record(1, size=100))
        return env.now, location

    finished, _location = run(env, flow())
    assert finished >= 500.0  # waited for the timer
    assert log.metrics.total("kaml.log.wasted_chunks", log=log.log_id) > 0


def test_oversized_tail_starts_new_page():
    env, log, hooks, array = make_log()

    def flow():
        # 60 chunks, then a 10-chunk record that cannot fit the tail.
        first = log._stage(record(1, size=7600), for_gc=False)
        second = log._stage(record(2, size=1200), for_gc=False)
        log.force_flush()
        a = yield first
        b = yield second
        return a, b

    a, b = run(env, flow())
    assert a.page != b.page
    assert b.chunk == 0


def test_gc_reclaims_invalid_records():
    env, log, hooks, array = make_log(blocks=6, pages=2)

    def flow():
        # Fill most of the device; nothing is ever registered as current,
        # so GC has pure garbage to collect.
        for i in range(40):
            yield from log.append(record(i, size=7000))
            yield env.timeout(800.0)
        return True

    assert run(env, flow())
    assert log.metrics.total("kaml.log.gc.erased_blocks", log=log.log_id) > 0
    # Nothing was valid.
    assert log.metrics.total("kaml.log.gc.relocated_records", log=log.log_id) == 0


def test_gc_relocates_valid_records():
    """Blocks mixing one live record with garbage force relocation."""
    env, log, hooks, array = make_log(blocks=6, pages=2)
    live_keys = list(range(100, 105))

    def flow():
        # Interleave live and dead records so every block carries a
        # survivor (one record per page, two pages per block).
        for key in live_keys:
            location = yield from log.append(record(key, size=7000))
            hooks.register(key, location)
            yield from log.append(record(9000 + key, size=7000))  # garbage
            yield env.timeout(800.0)
        # Churn with garbage until GC must clean the mixed blocks.
        for i in range(20):
            yield from log.append(record(i, size=7000))
            yield env.timeout(800.0)
        return True

    assert run(env, flow())
    relocated_keys = {key for key, _old, _new in hooks.relocations}
    assert relocated_keys & set(live_keys)
    # Every live key's current location still holds its record.
    for key in live_keys:
        location = hooks.locations[key]
        data, _bitmap = array.block_at(location.page).read(location.page.page)
        assert data[location.chunk].key == key


def test_worn_out_blocks_retire():
    env, log, hooks, array = make_log(blocks=6, pages=2, endurance=3)

    def flow():
        for i in range(120):
            yield from log.append(record(i, size=7000))
            yield env.timeout(800.0)
        return True

    try:
        run(env, flow())
    except LogSpaceError:
        pass  # acceptable: the device ran out of healthy blocks mid-run
    assert log.metrics.total("kaml.log.retired_blocks", log=log.log_id) > 0
    # Retired blocks never return to the free pool.
    chip = array.chip(0, 0)
    for block_index in log.free:
        assert not chip.block(block_index).is_bad


def test_space_error_when_everything_valid():
    """Running out of space fails every parked flush loudly."""
    env, log, hooks, array = make_log(blocks=3, pages=2)
    outcomes = {}
    parked_counts = []

    def appender(writer):
        # All records stay registered (valid): the device genuinely fills.
        for i in range(12):
            key = writer * 100 + i
            try:
                location = yield from log.append(record(key, size=7000))
            except LogSpaceError:
                outcomes[writer] = "full"
                return
            hooks.register(key, location)
            outcomes[writer] = location
            parked_counts.append(len(log._parked))
            yield env.timeout(800.0)

    writers = [env.process(appender(w)) for w in range(6)]
    env.run()
    assert max(parked_counts) > 1  # several flushes were parked at once
    assert all(proc.triggered for proc in writers)  # nobody stays parked
    assert sorted(outcomes) == list(range(6))
    assert all(
        outcome == "full" or isinstance(outcome, RecordLocation)
        for outcome in outcomes.values()
    )
    assert "full" in outcomes.values()
    assert log._parked == []


def test_erase_wakes_parked_flushes_in_order_within_budget():
    """An erase wakes only the parked flushes that can get a page.

    Sixty flushes race for a two-page-per-block log whose records are
    all garbage, so GC erases a block every few programs while most
    flushes sit parked.  Waking every parked flush on each erase made
    the losers fail another page allocation each time: 552 failed
    allocations here, against 68 with the ordered wait list.
    """
    appenders = 60
    env, log, hooks, array = make_log(blocks=8, pages=2)
    first_parked = []  # flush processes, in the order they first parked
    programmed = []  # flush processes, in page-program order
    failed_allocations = [0]
    allocate = log._try_allocate
    program_page = array.program_page

    def counting_allocate(for_gc):
        pointer = allocate(for_gc)
        if pointer is None:
            failed_allocations[0] += 1
            if env.active_process not in first_parked:
                first_parked.append(env.active_process)
        return pointer

    def recording_program_page(pointer, data, **kwargs):
        programmed.append(env.active_process)
        return (yield from program_page(pointer, data, **kwargs))

    hidden_full_blocks = []
    candidates = log._gc_candidates

    def checked_candidates():
        # With the program lock idle, any woken flush has had its turn,
        # so a stream with parked flushes has already moved its filled
        # active block to the full list, where GC can pick it.
        if not log._program_lock.locked:
            for _ticket, for_gc, _wake in log._parked:
                if (
                    log._active[for_gc] is not None
                    and log._active_wp[for_gc] == log.geometry.pages_per_block
                ):
                    hidden_full_blocks.append((env.now, for_gc))
        return candidates()

    log._try_allocate = counting_allocate
    log._gc_candidates = checked_candidates
    array.program_page = recording_program_page
    locations = []

    def appender(key):
        locations.append((yield from log.append(record(key, size=7000))))

    for key in range(appenders):
        env.process(appender(key))
    env.run()
    assert len(locations) == appenders
    assert log.metrics.total("kaml.log.gc.erased_blocks", log=log.log_id) > 0
    assert len(first_parked) > appenders // 2
    parked = set(first_parked)
    assert [proc for proc in programmed if proc in parked] == first_parked
    assert failed_allocations[0] <= 2 * appenders
    assert hidden_full_blocks == []


def test_power_loss_drops_parked_flushes():
    """Flushes parked before a cut never program into the recovered log
    and leave every wake-up to the flushes appended after it."""
    env, log, hooks, array = make_log(blocks=6, pages=2)
    programmed = []  # (sim time, keys) per page program
    program_page = array.program_page

    def recording_program_page(pointer, data, **kwargs):
        programmed.append((env.now, [r.key for r in data.values()]))
        return (yield from program_page(pointer, data, **kwargs))

    array.program_page = recording_program_page

    def appender(key):
        yield from log.append(record(key, size=7000))

    for key in range(30):
        env.process(appender(key))
    while len(log._parked) < 8:
        env.step()
    assert log.gc_running  # cut in the middle of a GC pass
    cut = env.now
    array.power_loss()
    log.power_loss()
    assert log._parked == []
    passes = [0, 0]  # live GC passes started after the cut: running, peak
    gc_process = log._gc_process

    def counted_gc_process():
        passes[0] += 1
        passes[1] = max(passes[1], passes[0])

        def body():
            try:
                yield from gc_process()
            finally:
                passes[0] -= 1

        return body()

    log._gc_process = counted_gc_process
    chip = array.chip(0, 0)
    log.adopt_blocks(
        free=[b for b in range(6) if chip.block(b).programmed_pages == 0],
        full=[b for b in range(6) if chip.block(b).programmed_pages > 0],
    )
    completed = []

    def survivor(key):
        completed.append((yield from log.append(record(key, size=7000))))

    for key in range(100, 120):
        env.process(survivor(key))
    env.run()
    assert len(completed) == 20
    assert log.metrics.total("kaml.log.gc.erased_blocks", log=log.log_id) > 0
    # The pre-cut pass ends as a ghost: it must not clear the live
    # pass's running flag, or a flush starts a second pass beside it.
    assert passes[1] == 1
    assert log._parked == []
    after_cut = [keys for when, keys in programmed if when > cut]
    assert sorted(k for keys in after_cut for k in keys) == list(range(100, 120))
