"""Host-cost gate for a GC-bound device run.

``harness perf`` gates ``sim_events`` only on workloads where GC never
runs, so a change that multiplies the events GC-bound runs schedule
(say, waking every parked flush on each erase) passes it unnoticed.
This test pins the kernel events per put of a small fixed-seed run on
one cluster-shard device that keeps GC erasing throughout.  The count is
deterministic, so it gates host cost without depending on the machine.
"""

from random import Random

from repro.fault.cluster_harness import default_device_config
from repro.harness import build_kaml_ssd
from repro.kaml import PutItem

WRITERS = 4
PUTS_PER_WRITER = 300
KEYS = 60
VALUE_SIZE = 1000
#: Kernel events per put measured with the ordered flush wait list.
#: Waking every parked flush on each erase took 54.6.
MEASURED_EVENTS_PER_PUT = 24.293
#: The same tolerance ``harness perf`` applies to ``sim_events``.
TOLERANCE = 0.15


def test_gc_bound_run_events_per_put():
    env, ssd = build_kaml_ssd(config=default_device_config())
    created = env.process(ssd.create_namespace())
    env.run_until(created)
    namespace = created.value
    model = {}
    landed = []

    def writer(index):
        rng = Random(7_000 + index)
        for seq in range(PUTS_PER_WRITER):
            key = rng.randrange(KEYS)
            value = (index, seq)
            # Phase 1 only: NVRAM backpressure, not the writer, paces
            # the flushes, so many of them wait on GC at once.
            landed.append(
                (yield from ssd.put([PutItem(namespace, key, value, VALUE_SIZE)]))
            )
            model[key] = value

    start = env.events_processed
    writers = [env.process(writer(index)) for index in range(WRITERS)]
    env.run_until(env.all_of(writers))
    env.run_until(env.all_of(landed))
    events_per_put = (env.events_processed - start) / (WRITERS * PUTS_PER_WRITER)

    assert ssd.metrics.total("kaml.log.gc.erased_blocks") > 50  # GC-bound

    def read_back():
        mismatches = []
        for key, value in sorted(model.items()):
            observed = yield from ssd.get(namespace, key)
            if observed != value:
                mismatches.append((key, observed, value))
        return mismatches

    check = env.process(read_back())
    env.run_until(check)
    assert check.value == []
    assert events_per_put <= MEASURED_EVENTS_PER_PUT * (1 + TOLERANCE), (
        f"{events_per_put:.3f} events/put, pinned {MEASURED_EVENTS_PER_PUT}"
    )
