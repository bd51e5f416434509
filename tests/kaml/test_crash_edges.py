"""Crash-timing edge cases: ghosts must never corrupt recovered state."""

import pytest

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment


def make_small_ssd(flush_timeout=200.0):
    env = Environment()
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=12, pages_per_block=4
    )
    config = ReproConfig().with_(
        geometry=geometry,
        kaml=KamlParams(num_logs=1, flush_timeout_us=flush_timeout),
    )
    return env, KamlSsd(env, config)


def run(env, gen):
    proc = env.process(gen)
    env.run_until(proc)
    return proc.value


@pytest.mark.parametrize("crash_at", [30.0, 80.0, 150.0, 400.0, 900.0])
def test_crash_at_any_instant_recovers_consistently(crash_at):
    """Whatever instant the power cut lands on, recovery must produce the
    full batch (it was staged in NVRAM before or during the window) or,
    for very early cuts, an entirely absent batch — never a partial one."""
    env, ssd = make_small_ssd()
    state = {}

    def writer():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=32))
        state["nsid"] = nsid
        yield from ssd.put([PutItem(nsid, k, ("batch", k), 512) for k in range(6)])

    env.process(writer())
    env.run(until=crash_at)
    if "nsid" not in state:
        return  # crashed before the namespace existed; nothing to check
    ssd.simulate_crash()

    def recovery():
        yield from ssd.recover()
        values = []
        for k in range(6):
            value = yield from ssd.get(state["nsid"], k)
            values.append(value)
        return values

    values = run(env, recovery())
    present = [v for v in values if v is not None]
    assert len(present) in (0, 6), f"partial batch after crash at {crash_at}"
    if present:
        assert values == [("batch", k) for k in range(6)]


def test_crash_during_gc_preserves_data():
    """A power cut in the middle of a GC pass must not lose any record:
    relocated copies are installed transactionally via CAS, victims are
    only erased after full relocation."""
    env, ssd = make_small_ssd()
    state = {}

    def churner():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=16))
        state["nsid"] = nsid
        for k in range(4):
            yield from ssd.put([PutItem(nsid, 100 + k, ("cold", k), 2048)])
        state["cold_done"] = True
        for i in range(400):
            yield from ssd.put([PutItem(nsid, i % 4, ("hot", i), 2048)])
            yield env.timeout(1500.0)

    env.process(churner())
    # Run long enough that GC is active, then cut power mid-everything.
    env.run(until=250_000.0)
    assert state.get("cold_done")
    assert ssd.metrics.total("kaml.log.gc.erased_blocks") > 0
    ssd.simulate_crash()

    def recovery():
        yield from ssd.recover()
        cold = []
        for k in range(4):
            value = yield from ssd.get(state["nsid"], 100 + k)
            cold.append(value)
        hot_ok = True
        for k in range(4):
            value = yield from ssd.get(state["nsid"], k)
            hot_ok = hot_ok and (value is None or value[0] == "hot")
        return cold, hot_ok

    cold, hot_ok = run(env, recovery())
    assert cold == [("cold", k) for k in range(4)]
    assert hot_ok


def test_double_crash_recover():
    """Crash, recover, crash again immediately, recover again."""
    env, ssd = make_small_ssd()
    state = {}

    def writer():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=16))
        state["nsid"] = nsid
        yield from ssd.put([PutItem(nsid, 1, "value-1", 512)])

    env.process(writer())
    env.run(until=100.0)
    ssd.simulate_crash()

    def first_recovery():
        yield from ssd.recover()

    run(env, first_recovery())
    ssd.simulate_crash()

    def second_recovery():
        yield from ssd.recover()
        value = yield from ssd.get(state["nsid"], 1)
        return value

    assert run(env, second_recovery()) == "value-1"


def test_traffic_resumes_after_recovery():
    env, ssd = make_small_ssd()
    state = {}

    def writer():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=32))
        state["nsid"] = nsid
        yield from ssd.put([PutItem(nsid, 1, "pre-crash", 512)])

    env.process(writer())
    env.run(until=100.0)
    ssd.simulate_crash()

    def after():
        yield from ssd.recover()
        nsid = state["nsid"]
        for i in range(20):
            yield from ssd.put([PutItem(nsid, 10 + i, ("post", i), 512)])
        yield from ssd.drain()
        old = yield from ssd.get(nsid, 1)
        new = yield from ssd.get(nsid, 29)
        return old, new

    assert run(env, after()) == ("pre-crash", ("post", 19))
