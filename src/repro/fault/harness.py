"""Crash-consistency scenarios: workload, power cut, recovery, verdict.

One scenario builds a small KAML device, runs a seeded mixed workload
(single-key puts, multi-record group puts, deletes, concurrent reads)
while a :class:`~repro.fault.plan.PowerLossInjector` waits for its armed
crash point, then recovers the device and diffs every touched key
against the host-side :class:`~repro.fault.shadow.ShadowModel`.

The crash matrix runs two passes per (point, seed) cell.  A *counting*
pass (unarmed injector — observation does not perturb the workload)
learns how many times the workload announces each crash point; the
*armed* pass then cuts at a seed-derived occurrence, so different seeds
crash the same point at different depths of the workload.  Occurrence
selection hashes the point name with ``zlib.crc32`` — Python's ``hash``
is salted per process and would destroy reproducibility.

Everything here observes the device exclusively through its public
command surface (``get``/``put``/``delete``/``recover``): kamllint rule
KL-FLT001 keeps fault-injection code from peeking at mapping-table
internals, which would let a recovery bug hide from its own test.
"""

from __future__ import annotations

import zlib
from random import Random
from typing import Any, Dict, List, Optional

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.errors import PowerLossError
from repro.fault.flashfault import FlashFaultInjector
from repro.fault.plan import CRASH_POINTS, FaultPlan, PowerLossInjector
from repro.fault.shadow import ShadowModel
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment

#: Single-key working set; partitioned across writers so each key has
#: exactly one serial issuer (the shadow model's ordering assumption).
SINGLE_KEYS = 24
#: Exclusive key groups for multi-record atomic batches.
GROUPS = 4
GROUP_SIZE = 3
GROUP_KEY_BASE = 1000
WRITERS = 4
VALUE_SIZES = (160, 420, 900, 1600)
#: Post-recovery smoke keys live far from the workload's key space.
SMOKE_KEY_BASE = 9_000_000


def default_config() -> ReproConfig:
    """A deliberately small device: few blocks and short flush timers
    force page turnover and GC within a few hundred operations, so every
    crash point is exercised quickly."""
    geometry = FlashGeometry(
        channels=2,
        chips_per_channel=1,
        blocks_per_chip=6,
        pages_per_block=4,
        page_size=2048,
        chunk_size=128,
    )
    return ReproConfig().with_(
        geometry=geometry,
        kaml=KamlParams(num_logs=2, flush_timeout_us=200.0),
    )


def _group_keys() -> List[List[int]]:
    return [
        [GROUP_KEY_BASE + group * GROUP_SIZE + i for i in range(GROUP_SIZE)]
        for group in range(GROUPS)
    ]


def _writer(env, ssd, nsid, shadow, seed, widx, ops, group_keys):
    """One serial issuer: seeded mix of puts, group puts, and deletes."""
    rng = Random(seed * 7919 + widx)
    epoch0 = ssd.epoch
    my_singles = [k for k in range(SINGLE_KEYS) if k % WRITERS == widx]
    my_group = group_keys[widx % GROUPS]
    for _ in range(ops):
        if ssd.epoch != epoch0:
            return  # power was cut; the host stops issuing
        roll = rng.random()
        if roll < 0.15:
            key = rng.choice(my_singles)
            op_id = shadow.begin("delete", [key])
            yield from ssd.delete(nsid, key)
        elif roll < 0.30:
            op_id = shadow.begin("put", my_group)
            size = rng.choice(VALUE_SIZES)
            completion = yield from ssd.put(
                [
                    PutItem(nsid, key, shadow.value_for(op_id, key), size)
                    for key in my_group
                ]
            )
            if completion is None:
                return  # crashed mid-command; never acknowledged
        else:
            key = rng.choice(my_singles)
            op_id = shadow.begin("put", [key])
            completion = yield from ssd.put(
                [
                    PutItem(
                        nsid, key, shadow.value_for(op_id, key),
                        rng.choice(VALUE_SIZES),
                    )
                ]
            )
            if completion is None:
                return
        if ssd.epoch != epoch0:
            return  # cut landed during the command: treat as unacked
        shadow.ack(op_id)
        yield env.timeout(rng.uniform(50.0, 400.0))


def _reader(env, ssd, nsid, seed, ops):
    """Concurrent read traffic; results are checked only at the audit."""
    rng = Random(seed * 104729 + 17)
    epoch0 = ssd.epoch
    for _ in range(ops):
        if ssd.epoch != epoch0:
            return
        yield from ssd.get(nsid, rng.randrange(SINGLE_KEYS))
        yield env.timeout(rng.uniform(80.0, 300.0))


def _read_back(ssd, nsid, shadow):
    """Post-recovery state of every key the workload ever touched."""
    observed = {}
    for key in shadow.touched_keys:
        value = yield from ssd.get(nsid, key)
        observed[key] = value
    return observed


def _smoke(ssd, nsid, count):
    """The recovered device must still serve fresh traffic."""
    problems = []
    for i in range(count):
        yield from ssd.put([PutItem(nsid, SMOKE_KEY_BASE + i, ("smoke", i), 256)])
    yield from ssd.drain()
    for i in range(count):
        value = yield from ssd.get(nsid, SMOKE_KEY_BASE + i)
        if value != ("smoke", i):
            problems.append(
                f"smoke key {SMOKE_KEY_BASE + i}: wrote ('smoke', {i}), "
                f"read {value!r}"
            )
    return problems


def run_scenario(
    plan: FaultPlan,
    seed: int,
    ops_per_writer: int = 90,
    config: Optional[ReproConfig] = None,
    program_fail_rate: float = 0.0,
    erase_fail_rate: float = 0.0,
    smoke_ops: int = 4,
) -> Dict[str, Any]:
    """Run one workload/crash/recover/verify cycle; returns a verdict.

    With an unarmed plan this is the counting pass: the workload runs to
    completion and ``hits`` reports how often each crash point was
    announced.  With an armed plan the device must crash, recover, match
    the shadow model on every touched key, and serve smoke traffic.
    """
    env = Environment()
    ssd = KamlSsd(env, config if config is not None else default_config())
    # Armed so a failing cell's flight-recorder dump holds its spans.
    ssd.tracer.enabled = True
    if program_fail_rate > 0.0 or erase_fail_rate > 0.0:
        FlashFaultInjector(
            seed * 31 + 7, program_fail_rate, erase_fail_rate, metrics=ssd.metrics
        ).install(ssd.array)
    injector = PowerLossInjector(ssd, plan).attach()
    shadow = ShadowModel()
    group_keys = _group_keys()
    for keys in group_keys:
        shadow.register_group(keys)

    def setup():
        namespace_id = yield from ssd.create_namespace(
            NamespaceAttributes(expected_keys=256)
        )
        return namespace_id

    setup_proc = env.process(setup())
    env.run_until(setup_proc)
    nsid = setup_proc.value

    procs = [
        env.process(
            _writer(env, ssd, nsid, shadow, seed, widx, ops_per_writer, group_keys)
        )
        for widx in range(WRITERS)
    ]
    procs.append(env.process(_reader(env, ssd, nsid, seed, ops_per_writer * 2)))
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
        # The cut surfaced through a background process nobody awaited
        # (flush, GC, phase-2 completion) and unwound the kernel loop.
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

    if crashed and not failures:
        recover_proc = env.process(ssd.recover())
        try:
            env.run_until(recover_proc)
            recover_proc.value  # re-raise a failed recovery  # noqa: B018
        except PowerLossError as exc:
            failures.append(f"second power loss during recovery: {exc}")
        except Exception as exc:
            failures.append(f"recovery failed: {type(exc).__name__}: {exc}")
        else:
            audit_proc = env.process(_read_back(ssd, nsid, shadow))
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
                smoke_proc = env.process(_smoke(ssd, nsid, smoke_ops))
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
        "point": plan.point,
        "hit": plan.hit,
        "at_time": plan.at_time,
        "crashed": crashed,
        "fired": injector.fired,
        "hits": dict(injector.hits),
        "ops": len(shadow.ops),
        "acked_ops": shadow.acked_ops,
        "in_flight_ops": shadow.in_flight_ops,
        "recovered_batches": ssd.stats.recovered_batches,
        "scanned_pages": int(ssd.metrics.total("kaml.recover.scanned_pages")),
        "scanned_records": int(ssd.metrics.total("kaml.recover.scanned_records")),
        "sim_time_us": env.now,
        "recorder": ssd.tracer.recorder,
        "metrics": ssd.metrics,
    }


def pick_hit(seed: int, point: str, available: int) -> int:
    """Seed-derived occurrence (1-based) of ``point`` to crash at."""
    rng = Random(seed * 1000003 + zlib.crc32(point.encode("utf-8")))
    return 1 + rng.randrange(available)


def run_matrix(
    seeds: List[int],
    points: Optional[List[str]] = None,
    ops_per_writer: int = 90,
    program_fail_rate: float = 0.0,
    erase_fail_rate: float = 0.0,
) -> Dict[str, Any]:
    """Sweep crash points x seeds; each cell is one armed scenario.

    A point the counting pass never saw is a failing cell: the matrix
    must exercise every crash point, not silently skip it.
    """
    points = list(points) if points else list(CRASH_POINTS)
    cells: List[Dict[str, Any]] = []
    for seed in seeds:
        profile = run_scenario(
            FaultPlan(),
            seed,
            ops_per_writer,
            program_fail_rate=program_fail_rate,
            erase_fail_rate=erase_fail_rate,
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
                            f"crash point {point} never reached in the "
                            f"counting pass (seed {seed}); grow the workload"
                        ],
                        "seed": seed,
                        "point": point,
                        "hit": None,
                        "crashed": False,
                        "fired": None,
                        "recorder": profile["recorder"],
                    }
                )
                continue
            cells.append(
                run_scenario(
                    FaultPlan(point=point, hit=pick_hit(seed, point, available)),
                    seed,
                    ops_per_writer,
                    program_fail_rate=program_fail_rate,
                    erase_fail_rate=erase_fail_rate,
                )
            )
    return {
        "ok": all(cell["ok"] for cell in cells),
        "seeds": list(seeds),
        "points": points,
        "cells": cells,
    }
