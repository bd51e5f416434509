"""``python -m repro.harness prof`` — the kamlprof profiling driver.

Runs a seeded workload against the full KAML store stack with an
enlarged flight recorder, then walks the recorded span trees through
:mod:`repro.obs.profile` to print where each request's latency went:
per-namespace component breakdowns (fractions sum to 1.0 by
construction), background/device activity, the slowest-request
exemplars, and the device utilization snapshot.  The same run samples
the :mod:`repro.obs.timeseries` telemetry ring, so one command yields
both the *why is it slow* and the *what was the device doing* views.

Everything is simulated time, so a fixed ``--seed`` produces a
bit-identical breakdown JSON — which is what lets the perf gate pin
component fractions in ``benchmarks/baseline.json``.

Example::

    python -m repro.harness prof --workload ycsb-b --ops 1000 \
        --flame-out /tmp/kaml.folded --json-out /tmp/prof.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Any, Dict, List, Optional

from repro.harness.reporting import format_kv, format_table
from repro.kaml import NamespaceAttributes
from repro.obs import analyze, collapsed_stacks, write_collapsed
from repro.obs.profile import breakdown_rows, markdown_breakdown
from repro.obs.trace import FlightRecorder

#: Profileable workloads (the perf CLI's ``kernel`` has no KV stack and
#: therefore no spans to attribute).
WORKLOADS = ("ycsb-b", "mixed")


def _build_stack(cache_bytes: int, recorder_capacity: int):
    from repro.harness.runner import build_kaml_store

    env, ssd, store = build_kaml_store(cache_bytes=cache_bytes)
    # Tracers start disarmed; the profile is built from spans, so arm
    # before any op runs.  The default ring keeps the last 16Ki spans —
    # plenty for breach dumps, too small for a whole profiled run — so a
    # large ring shared by the tracer and the SLO tracker goes in too.
    ssd.tracer.enabled = True
    recorder = FlightRecorder(capacity=recorder_capacity)
    ssd.tracer.recorder = recorder
    ssd.slo.recorder = recorder
    return env, ssd, store


def _run_ycsb_b(env, ssd, store, args) -> None:
    """YCSB B through the caching layer (the Figure 10 stack)."""
    from repro.workloads import KamlAdapter, Ycsb

    ycsb = Ycsb(
        env,
        KamlAdapter(store),
        records=args.records,
        workload="b",
        seed=args.seed,
    )
    ycsb.setup()
    _start_measurement(env, ssd, args)
    ops_per_thread = max(1, args.ops // args.threads)
    ycsb.run(threads=args.threads, ops_per_thread=ops_per_thread)


def _run_mixed(env, ssd, store, args) -> None:
    """50/50 Get/Put mix (the perf gate's headline workload)."""
    from repro.workloads.oltp import drive

    def create():
        attributes = NamespaceAttributes(
            expected_keys=int(args.key_space * 0.75), target_load=0.75
        )
        namespace_id = yield from ssd.create_namespace(attributes)
        return namespace_id

    namespace_id = drive(env, create())

    def worker(rng, ops):
        for _ in range(ops):
            key = rng.randrange(args.key_space)
            if rng.random() < 0.5:
                yield from store.put(namespace_id, key, ("prof", key), 512)
            else:
                yield from store.get(namespace_id, key)

    _start_measurement(env, ssd, args)
    ops_per_thread = max(1, args.ops // args.threads)
    workers = [
        env.process(worker(random.Random(args.seed + 997 * t), ops_per_thread))
        for t in range(args.threads)
    ]
    env.run_until(env.all_of(workers))


_RUNNERS = {
    "ycsb-b": _run_ycsb_b,
    "mixed": _run_mixed,
}


def _start_measurement(env, ssd, args) -> None:
    """Reset the recorder after setup/load and arm the telemetry sampler.

    The load phase's spans would dominate the profile and say nothing
    about steady state, so the device is drained and the ring cleared
    before measurement begins.  Draining first matters: setup's detached
    Put phase-2/3 spans are still in flight when the load loop returns,
    and clearing without the drain would strand them in the measured
    window as orphaned load-phase traces.  The sampler starts here
    because the namespaces under test exist now (per-namespace rate
    probes bind at install).
    """
    for _ in range(2):
        settle = env.process(ssd.drain())
        env.run_until(settle)
    ssd.tracer.recorder.clear()
    if not args.no_timeseries:
        ssd.enable_timeseries(
            interval_us=args.interval_us, capacity=args.timeseries_capacity
        )


def run_prof(args: argparse.Namespace, out=None) -> Dict[str, Any]:
    """Build the stack, run the workload, profile; returns the report."""
    out = out if out is not None else sys.stdout
    env, ssd, store = _build_stack(args.cache_bytes, args.recorder_capacity)
    _RUNNERS[args.workload](env, ssd, store, args)

    # Let the background Put pipeline (phases 2/3, log flushes) drain so
    # detached spans finish and the trees are complete.
    for _ in range(2):
        settle = env.process(ssd.drain())
        env.run_until(settle)
    if ssd.timeseries is not None:
        ssd.timeseries.stop()
        ssd.timeseries.sample_now()  # end-state sample after the drain

    recorder = ssd.tracer.recorder
    events = recorder.events()
    report = analyze(events, top_n=args.top)
    report["workload"] = args.workload
    report["seed"] = args.seed
    report["elapsed_us"] = env.now
    report["recorder"] = {
        "recorded": recorder.recorded,
        "retained": len(events),
        "dropped": recorder.dropped,
    }
    # SLO percentiles and telemetry means ride along so `harness diff`
    # can compare two prof artifacts on all three axes at once.
    report["slo"] = ssd.slo.latency_summary()
    if ssd.timeseries is not None:
        report["telemetry"] = {
            "summary": ssd.timeseries.summary(),
            "samples": len(ssd.timeseries.samples),
            "dropped": ssd.timeseries.dropped,
        }
    report["capture"] = {
        "recorder": dict(report["recorder"]),
        "oplog": ssd.oplog.counts() if ssd.oplog.enabled else None,
    }

    print(
        format_table(
            f"kamlprof breakdown ({args.workload}, seed {args.seed})",
            ["op", "ns", "component", "us", "fraction"],
            breakdown_rows(report, min_fraction=args.min_fraction),
        ),
        file=out,
    )
    print(file=out)
    for op, by_namespace in sorted(report["requests"].items()):
        for namespace, bucket in sorted(by_namespace.items()):
            print(
                format_kv(
                    f"{op} ns={namespace}",
                    {
                        key: bucket[key]
                        for key in ("count", "mean_us", "p50_us", "p99_us", "max_us")
                    },
                ),
                file=out,
            )
            print(file=out)
    if report["background"]:
        rows = [
            [name, bucket["count"], round(bucket["total_us"], 1)]
            for name, bucket in sorted(report["background"].items())
        ]
        print(
            format_table(
                "Background / device activity", ["trace", "count", "total us"], rows
            ),
            file=out,
        )
        print(file=out)
    if report["exemplars"]:
        print(f"Top {len(report['exemplars'])} slowest requests:", file=out)
        for row in report["exemplars"]:
            top = sorted(
                row["components"].items(), key=lambda item: (-item[1], item[0])
            )
            detail = ", ".join(f"{comp} {us:.1f}us" for comp, us in top[:3])
            print(
                f"  {row['op']} ns={row['namespace']} "
                f"{row['latency_us']:.1f}us at t={row['start_us']:.1f} "
                f"({detail})",
                file=out,
            )
        print(file=out)
    print(format_kv("Device utilization", ssd.utilization_report()), file=out)
    if ssd.timeseries is not None:
        summary = ssd.timeseries.summary()
        rows = [
            [name, round(s["min"], 3), round(s["mean"], 3), round(s["max"], 3)]
            for name, s in sorted(summary.items())
        ]
        print(file=out)
        print(
            format_table(
                f"Telemetry ({len(ssd.timeseries.samples)} samples, "
                f"{ssd.timeseries.interval_us:.0f}us interval)",
                ["series", "min", "mean", "max"],
                rows,
            ),
            file=out,
        )
    print(
        f"\nspans: {recorder.recorded} recorded, {recorder.dropped} dropped "
        f"(ring capacity {args.recorder_capacity})",
        file=out,
    )
    if ssd.oplog.enabled:
        counts = ssd.oplog.counts()
        print(
            f"op journal: {counts['recorded']} recorded, "
            f"{counts['dropped']} dropped "
            f"(capacity {counts['capacity']})",
            file=out,
        )

    if args.flame_out:
        write_collapsed(args.flame_out, collapsed_stacks(events))
        print(f"collapsed stacks written to {args.flame_out}", file=out)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"breakdown JSON written to {args.json_out}", file=out)
    if args.timeseries_out and ssd.timeseries is not None:
        ssd.timeseries.write_json(args.timeseries_out)
        print(f"telemetry JSON written to {args.timeseries_out}", file=out)

    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a") as handle:
            handle.write(
                markdown_breakdown(
                    report,
                    title=f"kamlprof latency breakdown ({args.workload})",
                )
            )
            handle.write("\n")
            capture = report["capture"]
            oplog_cell = "off"
            if capture["oplog"] is not None:
                oplog_cell = (
                    f"{capture['oplog']['recorded']} recorded / "
                    f"{capture['oplog']['dropped']} dropped"
                )
            handle.write(
                "**Capture health:** "
                f"spans {capture['recorder']['recorded']} recorded / "
                f"{capture['recorder']['dropped']} dropped; "
                f"op journal {oplog_cell}\n\n"
            )
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness prof",
        description="Profile a seeded workload: critical-path latency "
                    "attribution plus device telemetry.",
    )
    parser.add_argument(
        "--workload", choices=WORKLOADS, default="ycsb-b",
        help="which workload to profile",
    )
    parser.add_argument("--ops", type=int, default=1000, help="total operations")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument(
        "--records", type=int, default=1000, help="YCSB table size (ycsb-b)"
    )
    parser.add_argument(
        "--key-space", type=int, default=512, help="key range (mixed)"
    )
    parser.add_argument("--seed", type=int, default=7, help="workload RNG seed")
    parser.add_argument("--cache-bytes", type=int, default=1 << 20)
    parser.add_argument(
        "--recorder-capacity", type=int, default=1 << 18,
        help="flight-recorder ring size for the profiled run",
    )
    parser.add_argument(
        "--interval-us", type=float, default=1000.0,
        help="simulated time between telemetry samples",
    )
    parser.add_argument(
        "--timeseries-capacity", type=int, default=4096,
        help="telemetry ring size (oldest samples drop beyond this)",
    )
    parser.add_argument(
        "--no-timeseries", action="store_true",
        help="skip the telemetry sampler (pure span attribution)",
    )
    parser.add_argument(
        "--top", type=int, default=5, help="slowest-request exemplars to keep"
    )
    parser.add_argument(
        "--min-fraction", type=float, default=0.005,
        help="hide breakdown rows below this fraction",
    )
    parser.add_argument(
        "--flame-out", default=None,
        help="write flamegraph.pl/speedscope collapsed stacks here",
    )
    parser.add_argument(
        "--json-out", default=None, help="write the breakdown report JSON here"
    )
    parser.add_argument(
        "--timeseries-out", default=None, help="write the telemetry JSON here"
    )
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    run_prof(args, out=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
