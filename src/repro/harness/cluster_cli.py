"""Cluster serving-tier driver: ``python -m repro.harness cluster``.

The CI front door for :mod:`repro.cluster`.  Each cell of the matrix
(shard count x seed) builds a cluster, drives the multi-tenant workload
(:mod:`repro.workloads.multitenant`) plus a deliberately skewed homed
namespace, lets the autobalancer migrate that namespace off the hot
shard mid-run, then drains and verifies every acknowledged write
through the serving tier.  A verdict table goes to stdout (and
``GITHUB_STEP_SUMMARY`` when present); ``--json-out`` writes the full
report including the aggregate throughput and rebalance-latency numbers
the perf gate consumes; failing cells dump their flight recorder::

    python -m repro.harness cluster --shards 4 --seeds 3
    python -m repro.harness cluster --shards 2,4,8 --seeds 1,2,3 \\
        --json-out cluster.json --flight-dir artifacts/
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from random import Random
from typing import Any, Dict, List, Optional

from repro.cluster import (
    Autobalancer,
    ClusterConfig,
    HotShardDetector,
    KamlCluster,
    install_cluster_probes,
)
from repro.fault.cluster_harness import default_device_config
from repro.obs import TimeSeriesCollector
from repro.sim import Environment
from repro.workloads import MultiTenantWorkload

#: The homed namespace every cell skews: enough serial writes to trip
#: hot-shard detection so the autobalancer migrates it mid-run.
HOT_NAMESPACE = "hot-homed"
HOT_TENANT = "gold"
HOT_KEYS = 24
HOT_OPS = 240
HOT_VALUE_SIZE = 420
HOT_THINK_US = (5.0, 30.0)
#: With the background tenants hashed across every shard, the homed
#: shard's excess over the mean tops out near 2x at two shards — a 1.5x
#: trigger would need the skew writer to out-issue the whole background
#: population, so the cells run the detector at a gentler ratio.
HOT_RATIO = 1.2


def _hot_writer(env: Environment, cluster: KamlCluster, seed: int,
                model: Dict[int, Any]) -> Any:
    """Single serial writer hammering the homed namespace."""
    rng = Random(seed * 7_368_787 + 11)
    for op in range(HOT_OPS):
        yield env.timeout(rng.uniform(*HOT_THINK_US))
        key = rng.randrange(HOT_KEYS)
        value = ("hot", key, op)
        yield from cluster.put(
            HOT_NAMESPACE, [(key, value, HOT_VALUE_SIZE)]
        )
        model[key] = value


def run_cluster_cell(
    num_shards: int,
    seed: int,
    collector_interval_us: float = 2_000.0,
    balance_interval_us: float = 8_000.0,
) -> Dict[str, Any]:
    """One (shard count, seed) cell: workload + mid-run rebalance + verify."""
    env = Environment()
    cluster = KamlCluster.build(
        env, default_device_config(), ClusterConfig(num_shards=num_shards)
    )
    # Armed so a failing cell's flight-recorder dump holds its spans.
    cluster.tracer.enabled = True
    collector = TimeSeriesCollector(env, interval_us=collector_interval_us)
    install_cluster_probes(collector, cluster)
    collector.start()
    detector = HotShardDetector(collector, cluster, hot_ratio=HOT_RATIO)
    balancer = Autobalancer(
        cluster, detector,
        check_interval_us=balance_interval_us, max_migrations=2,
    )
    workload = MultiTenantWorkload(env, cluster, seed=seed)
    hot_model: Dict[int, Any] = {}
    failures: List[str] = []

    def drive() -> Any:
        yield from workload.setup()
        yield from cluster.create_namespace(
            HOT_NAMESPACE, tenant=HOT_TENANT, mode="homed", home_shard=0
        )
        balancer.start()
        hot_proc = env.process(_hot_writer(env, cluster, seed, hot_model))
        yield from workload.run()
        yield hot_proc
        collector.stop()
        yield from cluster.drain()
        failures.extend((yield from workload.verify()))
        for key in sorted(hot_model):
            observed = yield from cluster.get(HOT_NAMESPACE, key)
            if observed != hot_model[key]:
                failures.append(
                    f"{HOT_NAMESPACE}[{key}]: expected {hot_model[key]!r}, "
                    f"got {observed!r}"
                )

    proc = env.process(drive())
    try:
        env.run_until(proc)
    except Exception as exc:  # a cell must never take down the matrix
        failures.append(f"cell crashed: {type(exc).__name__}: {exc}")

    summary = workload.summary()
    migrated = list(balancer.migrations)
    if not migrated:
        failures.append(
            "autobalancer never migrated the homed namespace; the hot-shard "
            "signal or the rebalance path is broken"
        )
    rebalance_p99 = cluster.metrics.histogram("cluster.rebalance.us").percentile(0.99)
    total_ops = summary["total_ops"] + HOT_OPS
    elapsed_us = summary["elapsed_us"]
    return {
        "ok": not failures,
        "failures": failures,
        "shards": num_shards,
        "seed": seed,
        "total_ops": total_ops,
        "ops_per_sec": round(total_ops * 1e6 / elapsed_us, 3) if elapsed_us else 0.0,
        "total_sheds": summary["total_sheds"],
        "tenants": summary["tenants"],
        "rebalances": int(cluster.metrics.total("cluster.rebalances")),
        "rebalance_p99_us": round(rebalance_p99, 3),
        "migrations": [
            {"namespace": name, "source": source, "target": target}
            for name, source, target in migrated
        ],
        "sim_time_us": env.now,
        "recorder": cluster.tracer.recorder,
    }


def run_cluster_cells(
    shard_counts: List[int], seeds: List[int]
) -> Dict[str, Any]:
    """The full matrix, plus the aggregate numbers the perf gate reads."""
    cells = [
        run_cluster_cell(num_shards, seed)
        for num_shards in shard_counts
        for seed in seeds
    ]
    ok_cells = [cell for cell in cells if cell["ok"]]
    throughput = (
        sum(cell["ops_per_sec"] for cell in ok_cells) / len(ok_cells)
        if ok_cells else 0.0
    )
    rebalance_p99 = max(
        (cell["rebalance_p99_us"] for cell in ok_cells), default=0.0
    )
    return {
        "ok": all(cell["ok"] for cell in cells),
        "shards": list(shard_counts),
        "seeds": list(seeds),
        "cells": cells,
        "ops_per_sec": round(throughput, 3),
        "rebalance_p99_us": round(rebalance_p99, 3),
    }


def _parse_ints(text: str, flag: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"{flag} wants comma-separated integers, got {text!r}")
    if not values:
        raise SystemExit(f"{flag} must name at least one value")
    return values


def _cell_row(cell: Dict[str, Any]) -> str:
    status = "ok" if cell["ok"] else "FAIL"
    detail = "" if cell["ok"] else f'  {"; ".join(cell["failures"][:2])}'
    return (
        f"  [{status:>4}] shards {cell['shards']:>2}  seed {cell['seed']:>3}  "
        f"{cell['ops_per_sec']:>9.0f} ops/s  "
        f"rebalances {cell['rebalances']}  sheds {cell['total_sheds']}{detail}"
    )


def _md_cell(text: str, limit: int = 160) -> str:
    text = text.replace("|", "\\|").replace("\n", " ")
    if len(text) > limit:
        text = text[: limit - 1] + "…"
    return text


def _step_summary(report: Dict[str, Any]) -> str:
    lines = [
        "### Cluster serving-tier matrix",
        "",
        "| shards | seed | ops/s | rebalances | rebalance p99 (us) | sheds | result |",
        "|---:|---:|---:|---:|---:|---:|---|",
    ]
    for cell in report["cells"]:
        result = "ok" if cell["ok"] else "FAIL: " + _md_cell(cell["failures"][0])
        lines.append(
            f"| {cell['shards']} | {cell['seed']} | {cell['ops_per_sec']:.0f} "
            f"| {cell['rebalances']} | {cell['rebalance_p99_us']:.0f} "
            f"| {cell['total_sheds']} | {result} |"
        )
    lines.append("")
    lines.append(
        f"aggregate: {report['ops_per_sec']:.0f} ops/s, "
        f"rebalance p99 {report['rebalance_p99_us']:.0f} us"
    )
    lines.append("")
    return "\n".join(lines)


def _json_payload(report: Dict[str, Any]) -> Dict[str, Any]:
    cells = [
        {k: v for k, v in cell.items() if k != "recorder"}
        for cell in report["cells"]
    ]
    return {**{k: v for k, v in report.items() if k != "cells"}, "cells": cells}


def _write_flight_dumps(report: Dict[str, Any], flight_dir: str) -> List[str]:
    os.makedirs(flight_dir, exist_ok=True)
    written = []
    for cell in report["cells"]:
        if cell["ok"] or cell.get("recorder") is None:
            continue
        path = os.path.join(
            flight_dir, f"flight-shards{cell['shards']}-seed{cell['seed']}.jsonl"
        )
        cell["recorder"].write_jsonl(path)
        written.append(path)
    return written


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness cluster",
        description="Sharded serving-tier workload + rebalance matrix.",
    )
    parser.add_argument(
        "--shards", default="4",
        help="comma-separated shard counts (default: 4)",
    )
    parser.add_argument(
        "--seeds", default="1,2,3",
        help="comma-separated workload seeds (default: 1,2,3)",
    )
    parser.add_argument(
        "--json-out", default=None,
        help="write the full matrix report as JSON to this path",
    )
    parser.add_argument(
        "--flight-dir", default=None,
        help="dump flight-recorder JSONL for each failing cell here",
    )
    args = parser.parse_args(argv)

    shard_counts = _parse_ints(args.shards, "--shards")
    seeds = _parse_ints(args.seeds, "--seeds")
    report = run_cluster_cells(shard_counts, seeds)

    print(f"cluster matrix: shards {shard_counts}, seeds {seeds}")
    for cell in report["cells"]:
        print(_cell_row(cell))
    print(
        f"aggregate: {report['ops_per_sec']:.0f} ops/s, "
        f"rebalance p99 {report['rebalance_p99_us']:.0f} us"
    )

    if args.json_out:
        out_dir = os.path.dirname(args.json_out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.json_out, "w") as handle:
            json.dump(_json_payload(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"cluster report -> {args.json_out}")
    if args.flight_dir and not report["ok"]:
        for path in _write_flight_dumps(report, args.flight_dir):
            print(f"flight recorder -> {path}")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(_step_summary(report))
            handle.write("\n")

    failing = [cell for cell in report["cells"] if not cell["ok"]]
    if failing:
        print(
            f"\nCLUSTER MATRIX FAILED ({len(failing)} failing cell(s)); "
            "reproduce one locally with e.g.\n"
            f"  python -m repro.harness cluster --shards {failing[0]['shards']} "
            f"--seeds {failing[0]['seed']}",
            file=sys.stderr,
        )
        return 1
    print("\ncluster matrix passed: every acknowledged write read back intact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
