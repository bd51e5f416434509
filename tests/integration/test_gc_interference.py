"""GC vs foreground Puts, observed through the trace stream.

Drives a tiny device into garbage collection and then checks, from the
flight recorder alone, that the firmware kept its ordering promises:

* every ``gc.relocate`` instant is causally contained in a
  ``gc.clean_block`` span of the same GC pass;
* a record is only relocated after some Put of that key logically
  committed (its ``put.ack`` fired) — GC never moves data the host has
  not yet been acked; and
* no relocation of a key lands inside an open ack window (between a
  Put's phase-1 start and its ack) for that same key.
"""

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment
from repro.workloads.oltp import drive


def run_churn(overwrites=400, working_set=6, value_size=2048):
    env = Environment()
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=12, pages_per_block=4
    )
    config = ReproConfig().with_(
        geometry=geometry, kaml=KamlParams(num_logs=1, flush_timeout_us=200.0)
    )
    ssd = KamlSsd(env, config)
    ssd.tracer.enabled = True

    def churn():
        nsid = yield from ssd.create_namespace(
            NamespaceAttributes(expected_keys=working_set * 8)
        )
        for i in range(overwrites):
            yield from ssd.put(
                [PutItem(nsid, i % working_set, ("hot", i), value_size)]
            )
            if i % 3 == 0:
                cold_key = 1000 + (i // 3) % (working_set * 4)
                yield from ssd.put(
                    [PutItem(nsid, cold_key, ("cold", i), value_size)]
                )
            yield env.timeout(1500.0)
        yield from ssd.drain()
        yield from ssd.drain()
        # With the churn stopped, let any in-flight GC pass run to
        # completion so its kaml.gc root span is committed to the
        # recorder (open spans are invisible by design).
        for _ in range(200):
            if not any(log.gc_running for log in ssd.logs):
                break
            yield env.timeout(5_000.0)

    drive(env, churn())
    return ssd


def test_gc_relocations_respect_put_ack_windows():
    ssd = run_churn()
    events = ssd.tracer.recorder.events()
    by_id = {e.span_id: e for e in events}

    relocates = [e for e in events if e.name == "gc.relocate"]
    clean_blocks = [e for e in events if e.name == "gc.clean_block"]
    assert relocates, "churn never triggered a GC relocation"
    assert clean_blocks, "churn never triggered a GC block clean"

    # 1. Causal containment: each relocate parents to a clean_block span
    #    of the same trace and falls inside its interval.
    for relocate in relocates:
        parent = by_id.get(relocate.parent_id)
        assert parent is not None, "relocate instant lost its parent span"
        assert parent.name == "gc.clean_block"
        assert parent.trace_id == relocate.trace_id
        assert parent.start_us <= relocate.start_us <= parent.end_us

    # ... and each clean_block nests under a kaml.gc root.
    for clean in clean_blocks:
        root = by_id.get(clean.parent_id)
        assert root is not None and root.name == "kaml.gc"

    # 2/3. Ack-window bookkeeping per key.
    ack_windows = {}  # key -> list of (phase1_start, ack_ts)
    for ack in (e for e in events if e.name == "put.ack"):
        put_span = by_id.get(ack.parent_id)
        assert put_span is not None and put_span.name == "kaml.put"
        for key in put_span.tags["keys"]:
            ack_windows.setdefault(key, []).append(
                (put_span.start_us, ack.start_us)
            )

    for relocate in relocates:
        key = relocate.tags["key"]
        windows = ack_windows.get(key, [])
        assert windows, f"key {key} relocated but never acked"
        first_ack = min(ack for _start, ack in windows)
        assert relocate.start_us >= first_ack, (
            f"key {key} relocated at {relocate.start_us} before its first "
            f"logical commit at {first_ack}"
        )
        for start, ack in windows:
            assert not (start < relocate.start_us < ack), (
                f"key {key} relocated at {relocate.start_us} inside the "
                f"open ack window [{start}, {ack}]"
            )


def test_gc_trace_carries_generation_and_block_tags():
    ssd = run_churn(overwrites=200)
    events = ssd.tracer.recorder.events()
    gc_roots = [e for e in events if e.name == "kaml.gc"]
    assert gc_roots
    assert all("generation" in e.tags and "log" in e.tags for e in gc_roots)
    cleans = [e for e in events if e.name == "gc.clean_block"]
    assert all("block" in e.tags for e in cleans)
