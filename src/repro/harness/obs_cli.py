"""``python -m repro.harness obs`` — the observability driver.

Runs the canonical ``mixed`` workload against a full KAML store stack with
latency SLOs armed, prints a live (simulated-time) dashboard while the
workload runs, and finishes with the trace summary, per-namespace
latency percentiles, and any SLO breach dumps.  The flight recorder's
span stream can be exported as JSONL (``--flight-out``) or as a Chrome
``trace_event`` file (``--trace-out``) loadable in Perfetto or
``chrome://tracing``.

Example::

    python -m repro.harness obs --ops 200 --slo-put-us 150 \
        --trace-out /tmp/kaml_trace.json --flight-out /tmp/kaml_flight.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.harness.reporting import format_kv, format_table
from repro.obs import analyze, write_chrome_trace
from repro.obs.profile import breakdown_rows
from repro.workloads.canonical import Mixed


def _dashboard(env, ssd, namespace_id, interval_us, done, out):
    """Print one status line per ``interval_us`` of *simulated* time."""
    while not done.triggered:
        yield env.timeout(interval_us)
        summary = ssd.slo.latency_summary()
        put_row = summary.get(f"slo.put.us{{namespace={namespace_id}}}") or {}
        get_row = summary.get(f"slo.store.get.us{{namespace={namespace_id}}}") or {}
        recorder = ssd.tracer.recorder
        print(
            f"[obs t={env.now:>10.0f}us] "
            f"put p99={put_row.get('p99', 0.0):>8.1f}us "
            f"get p99={get_row.get('p99', 0.0):>8.1f}us "
            f"breaches={len(ssd.slo.breaches):>3d} "
            f"spans={recorder.recorded:>6d} (dropped {recorder.dropped})",
            file=out,
        )


def _breach_line(dump: Dict[str, Any]) -> str:
    """One report line per SLO breach dump."""
    breach = dump["breach"]
    # op_id joins the breach back to its captured journal row (0 when the
    # op journal was off for this run).
    op_ref = f" op_id={breach['op_id']}" if breach.get("op_id") else ""
    events = (
        f"{len(dump['events'])} causally-linked events"
        if dump["traced"]
        else "no spans: tracing was off"
    )
    return (
        f"  {breach['op']} ns={breach['namespace']} "
        f"{breach['latency_us']:.1f}us > {breach['threshold_us']:.1f}us "
        f"at t={breach['start_us']:.1f}{op_ref} ({events})"
    )


def run_obs(args: argparse.Namespace, out=None) -> Dict[str, Any]:
    """Build the stack, run the workload, report; returns the result dict."""
    out = out if out is not None else sys.stdout
    from repro.harness.runner import build_kaml_store

    env, ssd, store = build_kaml_store(cache_bytes=args.cache_bytes)
    # Tracers start disarmed; the trace summary, breach dumps and exports
    # all read spans, so arm before any op runs.
    ssd.tracer.enabled = True
    workload = Mixed(env, store, seed=args.seed, key_space=args.key_space)
    workload.setup()
    namespace_id = workload.namespace_id
    journal = None
    if args.record_out:
        journal = ssd.enable_oplog(
            path=args.record_out, capacity=args.record_capacity
        )
    if args.slo_put_us is not None:
        ssd.slo.set_slo("put", args.slo_put_us)
    if args.slo_get_us is not None:
        ssd.slo.set_slo("store.get", args.slo_get_us)
    if args.slo_txn_us is not None:
        ssd.slo.set_slo("txn.commit", args.slo_txn_us)

    done = workload.start(args.ops, args.threads)
    env.process(_dashboard(env, ssd, namespace_id, args.interval_us, done, out))
    env.run_until(done)
    # Let the background Put pipeline (phase 2/3, log flushes) drain so
    # the trace summary includes the full causal tree, not just phase 1.
    for _ in range(2):
        settle = env.process(ssd.drain())
        env.run_until(settle)

    summary = ssd.tracer.summary()
    rows: List[List[Any]] = [
        [name, row["count"], row["mean_us"], row["max_us"]]
        for name, row in sorted(summary["spans"].items())
    ]
    print(file=out)
    print(
        format_table(
            "Trace summary (flight-recorder window)",
            ["span", "count", "mean us", "max us"],
            rows,
        ),
        file=out,
    )
    print(file=out)
    slo_summary = ssd.slo.latency_summary()
    for series, row in sorted(slo_summary.items()):
        print(
            format_kv(
                series,
                {k: row[k] for k in ("count", "mean", "p50", "p99", "p999")},
            ),
            file=out,
        )
        print(file=out)
    breach_dumps = ssd.slo.dump_breaches()
    print(
        f"SLO breaches: {len(ssd.slo.breaches)}"
        + (
            f" (+{ssd.slo.overflowed_breaches} beyond the retention cap)"
            if ssd.slo.overflowed_breaches
            else ""
        ),
        file=out,
    )
    for dump in breach_dumps[: args.max_breach_prints]:
        print(_breach_line(dump), file=out)

    profile_report = None
    if args.profile:
        # Reuse the kamlprof report path over the same recorded window.
        profile_report = analyze(ssd.tracer.recorder.events())
        print(file=out)
        print(
            format_table(
                "kamlprof breakdown (flight-recorder window)",
                ["op", "ns", "component", "us", "fraction"],
                breakdown_rows(profile_report, min_fraction=0.005),
            ),
            file=out,
        )

    if args.trace_out:
        write_chrome_trace(
            args.trace_out, ssd.tracer.recorder.events(), process_name="repro-obs"
        )
        print(f"chrome trace written to {args.trace_out}", file=out)
    if args.flight_out:
        ssd.tracer.recorder.write_jsonl(args.flight_out)
        print(f"flight-recorder JSONL written to {args.flight_out}", file=out)
    if args.breach_out:
        with open(args.breach_out, "w") as handle:
            json.dump(breach_dumps, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        print(f"breach dumps written to {args.breach_out}", file=out)

    recorder = ssd.tracer.recorder
    capture: Dict[str, Any] = {
        "recorder": {
            "recorded": recorder.recorded,
            "retained": len(recorder.events()),
            "dropped": recorder.dropped,
        },
        "oplog": None,
    }
    if journal is not None:
        journal.close()
        capture["oplog"] = journal.counts()
        print(
            f"op journal: {capture['oplog']['recorded']} recorded, "
            f"{capture['oplog']['dropped']} dropped -> {args.record_out}",
            file=out,
        )
    print(
        f"spans: {capture['recorder']['recorded']} recorded, "
        f"{capture['recorder']['dropped']} dropped",
        file=out,
    )
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        oplog_cell = "off"
        if capture["oplog"] is not None:
            oplog_cell = (
                f"{capture['oplog']['recorded']} recorded / "
                f"{capture['oplog']['dropped']} dropped"
            )
        with open(step_summary, "a") as handle:
            handle.write(
                "**obs capture health:** "
                f"spans {capture['recorder']['recorded']} recorded / "
                f"{capture['recorder']['dropped']} dropped; "
                f"op journal {oplog_cell}; "
                f"SLO breaches {len(ssd.slo.breaches)}\n\n"
            )

    result = {
        "summary": summary,
        "slo": slo_summary,
        "breaches": breach_dumps,
        "namespace_id": namespace_id,
        "elapsed_us": env.now,
        "capture": capture,
    }
    if profile_report is not None:
        result["profile"] = profile_report
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness obs",
        description="Run a mixed workload with tracing, SLOs, and a live dashboard.",
    )
    parser.add_argument("--ops", type=int, default=200, help="total operations")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--key-space", type=int, default=512)
    parser.add_argument("--seed", type=int, default=42, help="workload RNG seed")
    parser.add_argument("--cache-bytes", type=int, default=1 << 20)
    parser.add_argument(
        "--interval-us", type=float, default=10_000.0,
        help="simulated time between dashboard lines",
    )
    parser.add_argument(
        "--slo-put-us", type=float, default=None, help="Put ack-latency SLO"
    )
    parser.add_argument(
        "--slo-get-us", type=float, default=None,
        help="store Get (cache-inclusive) latency SLO",
    )
    parser.add_argument(
        "--slo-txn-us", type=float, default=None, help="transaction-commit SLO"
    )
    parser.add_argument(
        "--trace-out", default=None, help="write a Chrome trace_event JSON here"
    )
    parser.add_argument(
        "--flight-out", default=None, help="write the flight-recorder JSONL here"
    )
    parser.add_argument(
        "--breach-out", default=None, help="write SLO breach dumps (JSON) here"
    )
    parser.add_argument("--max-breach-prints", type=int, default=8)
    parser.add_argument(
        "--record-out", default=None,
        help="capture an op journal (.jsonl/.jsonl.gz) during the run",
    )
    parser.add_argument(
        "--record-capacity", type=int, default=1 << 20,
        help="op-journal row budget for --record-out",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="also print the kamlprof latency breakdown of the recorded window",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="suppress the human report and print the result dict as JSON",
    )
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    if args.json:
        # Machine-readable mode: the human report goes nowhere, stdout
        # carries exactly one JSON document.
        import io

        result = run_obs(args, out=io.StringIO())
        print(
            json.dumps(result, indent=2, sort_keys=True, default=str),
            file=out if out is not None else sys.stdout,
        )
        return 0
    run_obs(args, out=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
