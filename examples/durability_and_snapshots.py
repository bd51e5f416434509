#!/usr/bin/env python
"""Durability and snapshots: the services the mapping indirection buys.

Part 1 — crash recovery (Section IV-D): commit a batch, power-cut the
device before its flash writes finish, recover from the NVRAM staging
buffers, and show the batch survived atomically.

Part 2 — snapshots (the Introduction's motivating service): freeze a
namespace, keep overwriting it, and read the frozen state back while GC
churns the flash underneath.

Run:  python examples/durability_and_snapshots.py
"""

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment


def crash_recovery_demo() -> None:
    print("=== Part 1: power-cut and recovery ===")
    env = Environment()
    config = ReproConfig()
    ssd = KamlSsd(env, config)
    state = {}

    def writer():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=64))
        state["nsid"] = nsid
        yield from ssd.put([
            PutItem(nsid, 1, "balance:100", 512),
            PutItem(nsid, 2, "balance:250", 512),
            PutItem(nsid, 3, "audit-row", 512),
        ])
        state["acked"] = env.now

    env.process(writer())
    # Stop the world shortly after the Put acked — long before the page
    # flush timer would have programmed the records to flash.
    env.run(until=120.0)
    assert state.get("acked"), "the Put should have acked by now"
    programs = ssd.array.total_programs()
    print(f"Put of 3 records acked at t={state['acked']:.0f}us; "
          f"flash programs so far: {programs}")
    print("power cut!")
    ssd.simulate_crash()

    def recover_and_check():
        yield from ssd.recover()
        values = []
        for key in (1, 2, 3):
            value = yield from ssd.get(state["nsid"], key)
            values.append(value)
        return values

    proc = env.process(recover_and_check())
    env.run_until(proc)
    print(f"after recovery: {proc.value}")
    recovered = int(ssd.metrics.total("kaml.ssd.recovered_batches"))
    print(f"recovered batches: {recovered} "
          f"(replayed from battery-backed NVRAM)\n")


def snapshot_demo() -> None:
    print("=== Part 2: snapshots vs GC churn ===")
    env = Environment()
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=12, pages_per_block=4
    )
    config = ReproConfig().with_(
        geometry=geometry, kaml=KamlParams(num_logs=1, flush_timeout_us=200.0)
    )
    ssd = KamlSsd(env, config)

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=32))
        yield from ssd.put([
            PutItem(nsid, k, f"monday-report-{k}", 2048) for k in range(4)
        ])
        snap = yield from ssd.snapshot_namespace(nsid)
        # A week of churn: overwrite everything many times over — far
        # more data than the tiny device holds, so GC must run.
        for i in range(200):
            yield from ssd.put([PutItem(nsid, i % 4, f"tuesday-{i}", 2048)])
            yield env.timeout(1500.0)
        yield from ssd.drain()
        current = yield from ssd.get(nsid, 0)
        frozen = yield from ssd.get_from_snapshot(snap, 0)
        erased = int(ssd.metrics.total("kaml.log.gc.erased_blocks", log=0))
        yield from ssd.delete_snapshot(snap)
        return current, frozen, erased

    proc = env.process(flow())
    env.run_until(proc)
    current, frozen, erased = proc.value
    print(f"current value of key 0:  {current!r}")
    print(f"snapshot value of key 0: {frozen!r}")
    print(f"GC erased {erased} blocks during the churn — the snapshot's "
          f"records were kept valid throughout")


if __name__ == "__main__":
    crash_recovery_demo()
    snapshot_demo()
