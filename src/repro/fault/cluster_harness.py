"""Cluster crash-consistency scenarios: cross-shard 2PC atomicity.

Mirrors :mod:`repro.fault.harness` one level up: a small
:class:`~repro.cluster.KamlCluster` runs a seeded multi-writer workload
whose multi-record puts deliberately straddle shards (so every one runs
the host-side two-phase commit), a :class:`ClusterPowerLossInjector`
waits for an armed *coordinator* crash point
(:data:`~repro.fault.plan.CLUSTER_CRASH_POINTS`), and after recovery the
cluster must agree with the host-side :class:`ShadowModel` — in
particular, every cross-shard batch must be all-or-nothing across
devices (exclusive key groups make tearing observable), no shard may
hold a leftover in-doubt prepare, and the intent journal must be empty.

Two-pass structure is identical to the device matrix: a counting pass
with an unarmed injector learns how many times each coordinator crash
point is announced, then the armed pass cuts at a seed-derived
occurrence (``zlib.crc32``-based, never the salted ``hash``).
"""

from __future__ import annotations

from random import Random
from typing import Any, Dict, List, Optional

from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy, key_shard_slot
from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.errors import InvariantError, PowerLossError
from repro.fault.harness import pick_hit
from repro.fault.plan import CLUSTER_CRASH_POINTS, FaultPlan
from repro.fault.shadow import ShadowModel

#: Single-key working set, partitioned across writers (one serial issuer
#: per key, the shadow model's ordering assumption).
SINGLE_KEYS = 32
#: Exclusive key groups; each group's keys straddle >= 2 shards so every
#: group put is a genuine cross-shard transaction.
GROUPS = 4
GROUP_SIZE = 3
GROUP_KEY_BASE = 1000
WRITERS = 4
VALUE_SIZES = (160, 420, 900)
SMOKE_KEY_BASE = 9_000_000
NAMESPACE = "crash"
TENANT = "crash-tenant"


class ClusterPowerLossInjector:
    """Counts coordinator crash-point announcements; cuts the rack.

    The cluster analogue of :class:`~repro.fault.plan.PowerLossInjector`:
    attached to a :class:`KamlCluster`, it powers down *every* device and
    the host serving tier at the armed announcement (the intent journal
    survives, being host-durable), then raises
    :class:`~repro.errors.PowerLossError` out of the announcing process.
    """

    def __init__(self, cluster: Any, plan: FaultPlan):
        self.cluster = cluster
        self.plan = plan
        self.hits: Dict[str, int] = {}
        self.fired: Optional[Dict[str, Any]] = None

    def attach(self) -> "ClusterPowerLossInjector":
        if self.cluster.fault is not None and self.cluster.fault is not self:
            raise InvariantError(
                "SAN-FAULT", "cluster already has a fault injector attached"
            )
        self.cluster.fault = self
        if self.plan.at_time is not None:
            self.cluster.env.process(self._timer())
        return self

    def detach(self) -> None:
        if self.cluster.fault is self:
            self.cluster.fault = None

    def reached(self, name: str) -> None:
        count = self.hits.get(name, 0) + 1
        self.hits[name] = count
        if self.fired is not None:
            return  # power is already off; the caller is a ghost
        if self.plan.point == name and count == self.plan.hit:
            self._cut(name, count)

    def _timer(self) -> Any:
        yield self.cluster.env.timeout(self.plan.at_time)
        if self.fired is None:
            self._cut("timer", 0)

    def _cut(self, point: str, hit: int) -> None:
        now = self.cluster.env.now
        self.fired = {"point": point, "hit": hit, "time_us": now}
        self.cluster.power_loss()
        raise PowerLossError(
            f"cluster power lost at {point} (hit {hit}, t={now:.1f}us)"
        )


def default_cluster_config(num_shards: int) -> ClusterConfig:
    """Generous queues so the crash workload is never admission-shed
    (shedding is covered by its own tests; here it would only thin the
    crash-point announcement stream)."""
    return ClusterConfig(num_shards=num_shards, queue_limit=256, workers_per_shard=4)


def default_device_config() -> ReproConfig:
    """Small but not starved: a few more blocks than the single-device
    crash geometry, because a shard must absorb the whole workload's
    churn *plus* the recovery-time replay re-appends without running a
    log completely out of reclaimable space."""
    geometry = FlashGeometry(
        channels=2,
        chips_per_channel=1,
        blocks_per_chip=12,
        pages_per_block=4,
        page_size=2048,
        chunk_size=128,
    )
    return ReproConfig().with_(
        geometry=geometry,
        kaml=KamlParams(num_logs=2, flush_timeout_us=200.0),
    )


def _cluster_group_keys(num_shards: int) -> List[List[int]]:
    """GROUPS exclusive key groups, each spanning >= 2 shards.

    Keys are drawn consecutively from ``GROUP_KEY_BASE``; the last slot
    of each group skips candidates until the group's hashed placement
    covers at least two distinct shards (always possible for
    ``num_shards >= 2``).
    """
    groups: List[List[int]] = []
    next_key = GROUP_KEY_BASE
    for _group in range(GROUPS):
        keys: List[int] = []
        slots: set = set()
        while len(keys) < GROUP_SIZE:
            key = next_key
            next_key += 1
            slot = key_shard_slot(key, num_shards)
            if (
                num_shards > 1
                and len(keys) == GROUP_SIZE - 1
                and len(slots) < 2
                and slot in slots
            ):
                continue  # need a second shard in the last slot
            keys.append(key)
            slots.add(slot)
        groups.append(keys)
    return groups


def _writer(env, cluster, shadow, seed, widx, ops, group_keys):
    """One serial issuer: single puts, cross-shard group puts, deletes."""
    rng = Random(seed * 7919 + widx)
    epoch0 = cluster.epoch
    my_singles = [k for k in range(SINGLE_KEYS) if k % WRITERS == widx]
    my_group = group_keys[widx % GROUPS]
    for _ in range(ops):
        if cluster.epoch != epoch0:
            return  # power was cut; the host stops issuing
        roll = rng.random()
        try:
            if roll < 0.15:
                key = rng.choice(my_singles)
                op_id = shadow.begin("delete", [key])
                yield from cluster.delete(NAMESPACE, key)
            elif roll < 0.45:
                op_id = shadow.begin("put", my_group)
                size = rng.choice(VALUE_SIZES)
                yield from cluster.put(
                    NAMESPACE,
                    [
                        (key, shadow.value_for(op_id, key), size)
                        for key in my_group
                    ],
                )
            else:
                key = rng.choice(my_singles)
                op_id = shadow.begin("put", [key])
                completion = yield from cluster.put(
                    NAMESPACE,
                    [(key, shadow.value_for(op_id, key), rng.choice(VALUE_SIZES))],
                )
                if completion is None:
                    return  # crashed mid-command; never acknowledged
        except PowerLossError:
            return  # the cut surfaced through this very command
        if cluster.epoch != epoch0:
            return  # cut landed during the command: treat as unacked
        shadow.ack(op_id)
        yield env.timeout(rng.uniform(50.0, 400.0))


def _reader(env, cluster, seed, ops):
    rng = Random(seed * 104729 + 17)
    epoch0 = cluster.epoch
    for _ in range(ops):
        if cluster.epoch != epoch0:
            return
        try:
            yield from cluster.get(NAMESPACE, rng.randrange(SINGLE_KEYS))
        except PowerLossError:
            return
        yield env.timeout(rng.uniform(80.0, 300.0))


def _read_back(cluster, shadow):
    observed = {}
    for key in shadow.touched_keys:
        value = yield from cluster.get(NAMESPACE, key)
        observed[key] = value
    return observed


def _smoke(cluster, count):
    """The recovered cluster must still serve fresh cross-shard traffic."""
    problems = []
    for i in range(count):
        yield from cluster.put(
            NAMESPACE,
            [(SMOKE_KEY_BASE + i * 2 + j, ("smoke", i, j), 256) for j in range(2)],
        )
    yield from cluster.drain()
    for i in range(count):
        for j in range(2):
            value = yield from cluster.get(NAMESPACE, SMOKE_KEY_BASE + i * 2 + j)
            if value != ("smoke", i, j):
                problems.append(
                    f"smoke key {SMOKE_KEY_BASE + i * 2 + j}: wrote "
                    f"('smoke', {i}, {j}), read {value!r}"
                )
    return problems


def run_cluster_scenario(
    plan: FaultPlan,
    seed: int,
    num_shards: int = 2,
    ops_per_writer: int = 40,
    device_config: Optional[ReproConfig] = None,
    smoke_ops: int = 3,
) -> Dict[str, Any]:
    """One workload/crash/recover/verify cycle on a cluster."""
    from repro.sim import Environment

    env = Environment()
    cluster = KamlCluster.build(
        env,
        device_config if device_config is not None else default_device_config(),
        default_cluster_config(num_shards),
    )
    # Armed so a failing cell's flight-recorder dump holds its spans.
    cluster.tracer.enabled = True
    cluster.register_tenant(TenantPolicy(TENANT, latency_budget_us=50_000.0))
    injector = ClusterPowerLossInjector(cluster, plan).attach()
    shadow = ShadowModel()
    group_keys = _cluster_group_keys(num_shards)
    for keys in group_keys:
        shadow.register_group(keys)

    def setup():
        yield from cluster.create_namespace(NAMESPACE, tenant=TENANT, mode="hashed")

    setup_proc = env.process(setup())
    env.run_until(setup_proc)

    procs = [
        env.process(
            _writer(env, cluster, shadow, seed, widx, ops_per_writer, group_keys)
        )
        for widx in range(WRITERS)
    ]
    procs.append(env.process(_reader(env, cluster, seed, ops_per_writer * 2)))
    done = env.all_of(procs)
    crashed = False
    failures: List[str] = []
    try:
        env.run_until(done)
        if done.triggered and not done.ok:
            if isinstance(done.exception, PowerLossError):
                crashed = True
            else:
                raise done.exception
    except PowerLossError:
        # The cut surfaced through a process nobody awaited (a flush,
        # a background phase-2 install) and unwound the kernel loop.
        crashed = True
    if injector.fired is not None:
        crashed = True

    armed = plan.point is not None or plan.at_time is not None
    if armed and not crashed:
        failures.append(
            f"armed plan {plan.point or f'at_time={plan.at_time}'} never fired "
            f"(hits: {dict(injector.hits)})"
        )
    if not armed and crashed:
        failures.append("counting-pass injector fired; plans must stay unarmed")

    recovery_stats: Dict[str, int] = {}
    if crashed and not failures:
        recover_proc = env.process(cluster.recover())
        try:
            env.run_until(recover_proc)
            recovery_stats = recover_proc.value
        except PowerLossError as exc:
            failures.append(f"second power loss during recovery: {exc}")
        except Exception as exc:
            failures.append(f"recovery failed: {type(exc).__name__}: {exc}")
        else:
            # All-or-nothing bookkeeping: nothing may stay in doubt.
            for shard_id in sorted(cluster.shards):
                leftover = cluster.shards[shard_id].prepared_batches()
                if leftover:
                    failures.append(
                        f"shard {shard_id} still holds in-doubt prepares "
                        f"after recovery: {leftover}"
                    )
            open_txns = cluster.journal.open_txns()
            if open_txns:
                failures.append(
                    f"intent journal still open after recovery: {open_txns}"
                )
            audit_proc = env.process(_read_back(cluster, shadow))
            try:
                env.run_until(audit_proc)
                observed = audit_proc.value
            except Exception as exc:
                observed = None
                failures.append(
                    f"post-recovery read-back failed: {type(exc).__name__}: {exc}"
                )
            if observed is not None:
                failures.extend(shadow.verify(observed))
                smoke_proc = env.process(_smoke(cluster, smoke_ops))
                try:
                    env.run_until(smoke_proc)
                    failures.extend(smoke_proc.value)
                except Exception as exc:
                    failures.append(
                        f"post-recovery smoke traffic failed: "
                        f"{type(exc).__name__}: {exc}"
                    )

    return {
        "ok": not failures,
        "failures": failures,
        "seed": seed,
        "shards": num_shards,
        "point": plan.point,
        "hit": plan.hit,
        "at_time": plan.at_time,
        "crashed": crashed,
        "fired": injector.fired,
        "hits": dict(injector.hits),
        "ops": len(shadow.ops),
        "acked_ops": shadow.acked_ops,
        "in_flight_ops": shadow.in_flight_ops,
        "txns": int(cluster.metrics.total("cluster.2pc.txns")),
        "recovered_committed": recovery_stats.get("committed", 0),
        "recovered_aborted": recovery_stats.get("aborted", 0),
        "sim_time_us": env.now,
        "recorder": cluster.tracer.recorder,
        "metrics": cluster.metrics,
    }


def run_cluster_matrix(
    seeds: List[int],
    points: Optional[List[str]] = None,
    num_shards: int = 2,
    ops_per_writer: int = 40,
) -> Dict[str, Any]:
    """Sweep coordinator crash points x seeds (two passes per cell)."""
    points = list(points) if points else list(CLUSTER_CRASH_POINTS)
    cells: List[Dict[str, Any]] = []
    for seed in seeds:
        profile = run_cluster_scenario(
            FaultPlan(), seed, num_shards=num_shards, ops_per_writer=ops_per_writer
        )
        if not profile["ok"]:
            cells.append(profile)
            continue
        counts = profile["hits"]
        for point in points:
            available = counts.get(point, 0)
            if available == 0:
                cells.append(
                    {
                        "ok": False,
                        "failures": [
                            f"coordinator crash point {point} never reached in "
                            f"the counting pass (seed {seed}); grow the workload"
                        ],
                        "seed": seed,
                        "shards": num_shards,
                        "point": point,
                        "hit": None,
                        "crashed": False,
                        "fired": None,
                        "recorder": profile["recorder"],
                    }
                )
                continue
            cells.append(
                run_cluster_scenario(
                    FaultPlan(point=point, hit=pick_hit(seed, point, available)),
                    seed,
                    num_shards=num_shards,
                    ops_per_writer=ops_per_writer,
                )
            )
    return {
        "ok": all(cell["ok"] for cell in cells),
        "seeds": list(seeds),
        "points": points,
        "shards": num_shards,
        "cells": cells,
    }
