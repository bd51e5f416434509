"""Integration: a real workload populates the registry end to end, and
its counters keep their cross-family invariants."""

import pytest

from repro.harness import build_kaml_store
from repro.harness.reporting import to_json as result_to_json
from repro.kaml import PutItem
from repro.obs import derived_metrics
from repro.workloads import KamlAdapter, Ycsb
from repro.workloads.oltp import drive


@pytest.fixture(scope="module")
def ycsb_run():
    env, ssd, store = build_kaml_store(cache_bytes=96 * 1024)
    ycsb = Ycsb(env, KamlAdapter(store), records=300, workload="a")
    ycsb.setup()
    result = ycsb.run(threads=4, ops_per_thread=30)
    return env, ssd, store, result


def test_one_registry_per_stack(ycsb_run):
    _env, ssd, store, _result = ycsb_run
    assert store.metrics is ssd.metrics
    assert store.buffer.metrics is ssd.metrics
    assert store.locks.metrics is ssd.metrics
    for log in ssd.logs:
        assert log.metrics is ssd.metrics


def test_write_amplification_at_least_one(ycsb_run):
    _env, _ssd, store, _result = ycsb_run
    derived = derived_metrics(store.metrics)
    assert derived["kaml.gc.write_amplification"] >= 1.0


def test_cache_hits_plus_misses_equals_reads(ycsb_run):
    _env, ssd, store, _result = ycsb_run
    registry = store.metrics
    hits = registry.total("cache.hits")
    misses = registry.total("cache.misses")
    assert hits + misses == registry.total("cache.reads")
    assert hits + misses > 0
    # Every cache miss becomes exactly one SSD Get (YCSB never scans or
    # reads snapshots, so the gets counter is pure get_record traffic).
    assert misses == registry.total("kaml.ssd.gets")
    assert derived_metrics(registry)["cache.hit_rate"] == pytest.approx(hits / (hits + misses))


def test_put_phase_histograms_populated(ycsb_run):
    _env, _ssd, store, _result = ycsb_run
    registry = store.metrics
    phase1 = registry.histogram("kaml.put.phase1_us")
    phase2 = registry.histogram("kaml.put.phase2_us")
    pinned = registry.histogram("kaml.put.nvram_pin_us")
    assert phase1.count == registry.total("kaml.ssd.puts")
    assert phase2.count > 0
    assert pinned.count > 0
    # Phase 1 acks out of NVRAM, long before flash program + unpin.
    assert phase1.summary()["p50"] <= phase2.summary()["p50"]


def test_per_namespace_bandwidth_counters(ycsb_run):
    _env, _ssd, store, _result = ycsb_run
    registry = store.metrics
    put_bytes = registry.family("kaml.put.bytes")
    assert put_bytes, "per-namespace Put byte counters missing"
    assert registry.total("kaml.put.bytes") > 0
    append = registry.total("kaml.log.append_bytes", stream="host")
    assert append > 0


def test_registry_counter_invariants(ycsb_run):
    _env, ssd, store, _result = ycsb_run
    registry = store.metrics
    begun = registry.total("store.txn.begun")
    assert begun > 0
    assert begun == registry.total("store.txn.committed") + registry.total("store.txn.aborted")
    assert store.locks.conflicts == registry.total("cache.lock.conflicts")
    per_log = sum(registry.total("kaml.log.appended_records", log=log.log_id) for log in ssd.logs)
    assert per_log == registry.total("kaml.log.appended_records")


def test_firmware_and_queue_gauges_touched(ycsb_run):
    _env, _ssd, store, _result = ycsb_run
    registry = store.metrics
    assert registry.gauge("sim.queue_depth").high_water > 0
    assert registry.histogram("kaml.firmware.wait_us").count > 0


def test_gc_instrumentation_under_churn():
    """Heavy overwrite on a small device: GC victim telemetry appears."""
    from repro.config import FlashGeometry, KamlParams, ReproConfig
    from repro.kaml import KamlSsd
    from repro.sim import Environment

    env = Environment()
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=12, pages_per_block=4
    )
    config = ReproConfig().with_(
        geometry=geometry, kaml=KamlParams(num_logs=1, flush_timeout_us=200.0)
    )
    ssd = KamlSsd(env, config)

    def churn():
        namespace_id = yield from ssd.create_namespace()
        # A working set filling ~half the device: GC victims still hold
        # valid records, so cleaning must relocate (write amplification).
        for i in range(600):
            yield from ssd.put([PutItem(namespace_id, i % 96, ("v", i), 2048)])
            yield env.timeout(1500.0)  # let flash drain keep pace
        yield from ssd.drain()

    drive(env, churn())

    registry = ssd.metrics
    assert registry.total("kaml.log.gc.erased_blocks") > 0
    assert registry.total("gc.victims_chosen", policy="wear-aware") > 0
    assert registry.histogram("gc.victim.valid_bytes", policy="wear-aware").count > 0
    derived = derived_metrics(registry)
    assert derived["kaml.gc.write_amplification"] > 1.0


def test_result_to_json_embeds_registry(ycsb_run):
    _env, _ssd, store, result = ycsb_run
    import json

    payload = {
        "title": "ycsb-a smoke",
        "metrics": {"tps": result.tps},
        "registry": store.metrics,
    }
    decoded = json.loads(result_to_json(payload))
    assert decoded["title"] == "ycsb-a smoke"
    assert decoded["registry"]["derived"]["kaml.gc.write_amplification"] >= 1.0
    assert "kaml.put.phase1_us" in decoded["registry"]["histograms"]
