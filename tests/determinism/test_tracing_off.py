"""Tracing is pay-as-you-go: off by default, and arming it is invisible
to the simulation.

Spans only read the sim clock; they never schedule an event.  So a run
with the tracer armed and the same run disarmed must agree on every
simulated number — results, the full registry export,
``events_processed``, SLO breaches — and differ only in what the flight
recorder holds.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, Tuple

from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy
from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.fault.cluster_harness import default_device_config
from repro.harness.runner import build_kaml_ssd, build_kaml_store
from repro.kaml import NamespaceAttributes, PutItem
from repro.obs import to_builtin
from repro.sim import Environment
from repro.workloads.oltp import drive

#: Tiny geometry (as in tests/integration/test_gc_interference.py) so the
#: overwrite churn below drives the log into garbage collection.
GC_CONFIG = ReproConfig().with_(
    geometry=FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=12, pages_per_block=4
    ),
    kaml=KamlParams(num_logs=1, flush_timeout_us=200.0),
)


def _store_and_gc_run(trace: bool) -> Tuple[Dict[str, Any], Any, Any]:
    env, ssd, store = build_kaml_store(cache_bytes=16 * 1024, config=GC_CONFIG)
    ssd.tracer.enabled = trace

    def workload():
        nsid = yield from store.create_namespace(
            NamespaceAttributes(expected_keys=64)
        )
        ssd.slo.set_slo("put", 30.0)
        reads = []
        for i in range(300):
            key = i % 6
            if i % 4 == 0:
                txn = store.transaction_begin()
                value = yield from store.transaction_read(txn, nsid, key)
                yield from store.transaction_update(
                    txn, nsid, key, ("txn", i, value), 2048
                )
                yield from store.transaction_commit(txn)
                store.transaction_free(txn)
            else:
                yield from store.put(nsid, key, ("put", i), 2048)
            reads.append((yield from store.get(nsid, (i * 7) % 6)))
            yield env.timeout(1500.0)
        yield from ssd.drain()
        yield from ssd.drain()
        return reads

    reads = drive(env, workload())
    payload = {
        "reads": reads,
        "now": env.now,
        "registry": to_builtin(ssd.metrics),
        "breaches": [breach._asdict() for breach in ssd.slo.breaches],
    }
    return payload, env, ssd


def _breach_view(payload: Dict[str, Any]) -> Any:
    # Trace ids are 0 when disarmed; everything else about a breach
    # (what, when, how slow) must match.
    return [
        {k: v for k, v in breach.items() if k != "trace_id"}
        for breach in payload["breaches"]
    ]


def test_arming_the_tracer_never_changes_the_simulation():
    armed, armed_env, armed_ssd = _store_and_gc_run(trace=True)
    plain, plain_env, plain_ssd = _store_and_gc_run(trace=False)
    # The run really covered the cache and GC paths.
    assert plain_ssd.metrics.total("kaml.log.gc.erased_blocks") > 0
    assert plain_ssd.metrics.total("store.txn.committed") > 0
    assert plain["breaches"], "a 30 us Put SLO must breach on this device"

    assert armed_env.events_processed == plain_env.events_processed
    assert _breach_view(armed) == _breach_view(plain)
    for payload in (armed, plain):
        del payload["breaches"]
    assert armed == plain

    assert armed_ssd.tracer.recorder.recorded > 0
    assert plain_ssd.tracer.recorder.recorded == 0


def _cluster_run(trace: bool) -> Tuple[Any, Any, Any]:
    env = Environment()
    cluster = KamlCluster.build(
        env, default_device_config(), ClusterConfig(num_shards=2)
    )
    cluster.tracer.enabled = trace
    cluster.register_tenant(TenantPolicy("t", latency_budget_us=100_000.0))
    # A sub-microsecond objective: every put breaches, without tightening
    # the tenant's admission budget.
    cluster.qos.slo.set_slo("cluster.put", 0.001, namespace="t")

    def flow():
        yield from cluster.create_namespace("data", tenant="t", mode="hashed")
        for key in range(0, 24, 2):
            # Two keys per put: cross-shard groups take the 2PC path.
            yield from cluster.put(
                "data", [(key, ("v", key), 250), (key + 1, ("v", key + 1), 250)]
            )
        yield from cluster.drain()
        observed = []
        for key in range(24):
            observed.append((yield from cluster.get("data", key)))
        return observed

    return drive(env, flow()), env, cluster


def test_cluster_breach_attribution_is_independent_of_tracing():
    armed, armed_env, armed_cluster = _cluster_run(trace=True)
    plain, plain_env, plain_cluster = _cluster_run(trace=False)
    assert plain == armed == [("v", key) for key in range(24)]
    assert armed_env.events_processed == plain_env.events_processed
    assert plain_cluster.qos.breach_counts()["t"] > 0
    assert armed_cluster.qos.breach_counts() == plain_cluster.qos.breach_counts()
    assert to_builtin(armed_cluster.metrics) == to_builtin(plain_cluster.metrics)
    assert armed_cluster.tracer.recorder.recorded > 0
    assert plain_cluster.tracer.recorder.recorded == 0
    # Untraced breaches still dump, and say why their span list is empty.
    dump = plain_cluster.qos.slo.dump_breaches()[0]
    assert dump["traced"] is False and dump["events"] == []


def test_default_stacks_record_no_spans():
    env, ssd = build_kaml_ssd()

    def device_ops():
        nsid = yield from ssd.create_namespace()
        yield from ssd.put([PutItem(nsid, 1, "a", 512)])
        yield from ssd.get_record(nsid, 1)
        yield from ssd.drain()

    drive(env, device_ops())
    assert ssd.tracer.enabled is False
    assert ssd.tracer.recorder.recorded == 0

    env, ssd, store = build_kaml_store(cache_bytes=1 << 20)

    def store_ops():
        nsid = yield from store.create_namespace()
        yield from store.put(nsid, 1, "a", 512)
        yield from store.get(nsid, 1)
        yield from ssd.drain()

    drive(env, store_ops())
    assert ssd.tracer.recorder.recorded == 0

    _result, _env, cluster = _cluster_run(trace=False)
    tracers = [cluster.tracer] + [d.tracer for d in cluster.shards.values()]
    assert [t.recorder.recorded for t in tracers] == [0] * len(tracers)


def _assert_span_trees(events) -> None:
    """Every span's parent is retained: the trees are whole."""
    by_id = {event["span_id"]: event for event in events}
    assert by_id
    for event in events:
        parent = event["parent_id"]
        assert parent is None or parent in by_id, event


def test_span_reading_tools_arm_their_tracer(tmp_path):
    from repro.harness import obs_cli, prof_cli

    prof = prof_cli.run_prof(
        prof_cli.build_parser().parse_args([
            "--workload", "mixed", "--ops", "40", "--threads", "2",
            "--key-space", "32", "--no-timeseries",
        ]),
        out=io.StringIO(),
    )
    assert prof["recorder"]["recorded"] > 0
    assert {"store.get", "store.put"} <= set(prof["requests"])

    flight = tmp_path / "flight.jsonl"
    obs = obs_cli.run_obs(
        obs_cli.build_parser().parse_args(
            ["--ops", "40", "--threads", "2", "--flight-out", str(flight)]
        ),
        out=io.StringIO(),
    )
    assert obs["capture"]["recorder"]["dropped"] == 0
    _assert_span_trees(
        [json.loads(line) for line in flight.read_text().splitlines()]
    )
