"""KAML repository benchmark: one script, three workloads, two kinds of run.

Usage (from the repository root)::

    python3 kamlbench/run.py --workload store-ycsb-b --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the program as users get it and prints the
end-to-end metrics: simulated throughput and read/write latency tails,
host ops/s, set-up time and peak memory.  ``--trace 1`` runs the same
workload and seed once untraced and once with the probes of
:mod:`layers` armed, checks that both runs simulate exactly the same
thing, and prints the per-layer metrics plus the tracing overhead.

Each rep builds and loads a fresh stack (timed as set-up), runs the
timed window of closed-loop clients, then drains and reads every touched
key back.  Reps repeat until ``--seconds`` of wall time have passed
(at least ``MIN_REPS``); every rep of one seed must simulate identically.
The last line of stdout is one JSON object; a full report goes to
``kamlbench/out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from stats import median, ratio, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Reps per ``--trace 0`` run: set-up time is a median over at least this many.
MIN_REPS = 3
#: Seed reserved for confirming a claimed gain; never used while tuning.
HELD_OUT_SEED = 9_001

END_TO_END_UNITS = {
    "sim_ops_per_s": "1/sim_s",
    "sim_read_p50_us": "sim_us",
    "sim_read_p99_us": "sim_us",
    "sim_write_p50_us": "sim_us",
    "sim_write_p99_us": "sim_us",
    "host_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Device counters read (summed over every device) through
#: ``MetricsRegistry.total`` before and after the window.
DEVICE_COUNTERS = (
    "cache.reads", "cache.hits", "cache.evictions", "cache.writebacks",
    "store.txn.begun", "store.txn.aborted",
    "kaml.ssd.gets", "kaml.ssd.puts", "kaml.ssd.put_records", "kaml.put.bytes",
    "kaml.log.programmed_bytes", "kaml.log.programmed_pages",
    "kaml.log.wasted_chunks", "kaml.log.gc.relocated_records",
    "kaml.log.gc.erased_blocks", "kaml.get.relocation_chases",
)
CLUSTER_COUNTERS = (
    "cluster.2pc.txns", "cluster.2pc.aborts", "cluster.shed", "cluster.sched.admitted",
)


class BenchmarkError(Exception):
    """The benchmark itself is mis-sized or could not run."""


def _import_program() -> Any:
    """Import the workloads (and with them the program under ``src/``)."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    return workloads


class Rep:
    """What one build + window + read-back produced."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.window_s = 0.0
        self.ops = 0
        self.events = 0
        self.sim_window_us = 0.0
        self.counters: Dict[str, float] = {}
        self.sim: Dict[str, Any] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.chunks_per_page = 0

    @property
    def host_ops_per_s(self) -> float:
        return self.ops / self.window_s

    def fingerprint(self) -> Tuple[Any, ...]:
        """Everything simulated: equal for equal seeds, traced or not."""
        return (
            self.ops, self.events, self.sim_window_us,
            tuple(sorted(self.counters.items())),
            tuple(sorted((k, v["value"]) for k, v in self.sim.items())),
        )


def _counters(stack: Any) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for name in DEVICE_COUNTERS:
        values[name] = sum(d.metrics.total(name) for d in stack.devices)
    probes = [
        instrument
        for device in stack.devices
        for instrument in device.metrics.family("kaml.get.index_probes").values()
    ]
    values["kaml.get.index_probes.count"] = sum(h.count for h in probes)
    values["kaml.get.index_probes.sum"] = sum(h.total for h in probes)
    values["flash.reads"] = sum(d.array.total_reads() for d in stack.devices)
    values["flash.programs"] = sum(d.array.total_programs() for d in stack.devices)
    values["flash.erases"] = sum(d.array.total_erases() for d in stack.devices)
    registry = stack.cluster_registry
    for name in CLUSTER_COUNTERS:
        values[name] = registry.total(name) if registry is not None else 0.0
    return values


def run_rep(workload: Any, seed: int, tracing: Any = None) -> Rep:
    """Build, load, run the timed window, drain and read back."""
    gc.collect()
    rep = Rep()
    started = perf_counter()
    stack = workload.build()
    rep.setup_s = perf_counter() - started
    env = stack.env
    before = _counters(stack)
    clients = workload.clients(stack, seed)
    if tracing is not None:
        tracing.install()
    try:
        done = env.all_of([env.process(client) for client in clients])
        events, sim_start = env.events_processed, env.now
        host_start = perf_counter()
        env.run_until(done)
        rep.window_s = perf_counter() - host_start
    finally:
        if tracing is not None:
            tracing.uninstall()
    if not done.ok:
        stack.fail(f"a client process died: {done.exception!r}")
    rep.events = env.events_processed - events
    rep.sim_window_us = env.now - sim_start
    after = _counters(stack)
    rep.counters = {name: after[name] - before[name] for name in after}
    samples = stack.samples
    rep.ops = samples.ops
    rep.chunks_per_page = stack.devices[0].geometry.chunks_per_page
    rep.sim = {
        "sim_ops_per_s": {"value": rep.ops * 1e6 / rep.sim_window_us},
        "sim_read_p50_us": tail(samples.reads, 0.50),
        "sim_read_p99_us": tail(samples.reads, 0.99),
        "sim_write_p50_us": tail(samples.writes, 0.50),
        "sim_write_p99_us": tail(samples.writes, 0.99),
    }
    for name, entry in rep.sim.items():
        if "q" in entry and entry["q_used"] != entry["q"]:
            raise BenchmarkError(
                f"{workload.name}: {name} has only {entry['n']} samples; the "
                f"window must leave at least 10 beyond the percentile"
            )
    stack.run(workload.verify(stack))
    rep.attempted = stack.attempted + stack.verified
    rep.failures = list(stack.failures)
    return rep


def _fits(started: float, done: List[Any], seconds: float) -> bool:
    """Would one more round, as long as the average so far, end in time?"""
    elapsed = perf_counter() - started
    return elapsed + elapsed / len(done) <= seconds


def end_to_end(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    started = perf_counter()
    reps: List[Rep] = []
    while len(reps) < MIN_REPS or _fits(started, reps, seconds):
        reps.append(run_rep(workload, seed))
    first = reps[0]
    problems = [
        f"rep {i} simulated differently from rep 0 with the same seed"
        for i, rep in enumerate(reps) if rep.fingerprint() != first.fingerprint()
    ]
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, entry in first.sim.items():
        metrics[name] = dict(entry)
    metrics["host_ops_per_s"] = {
        "value": median([rep.host_ops_per_s for rep in reps]),
        "runs": [rep.host_ops_per_s for rep in reps],
    }
    metrics["setup_s"] = {
        "value": median([rep.setup_s for rep in reps]),
        "runs": [rep.setup_s for rep in reps],
    }
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, entry in metrics.items():
        entry["unit"] = END_TO_END_UNITS[name]
    return {"reps": reps, "metrics": metrics, "problems": problems}


def per_layer(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced/traced pairs of the same seed; per-layer metrics."""
    from layers import PACKAGES, Tracing

    started = perf_counter()
    untraced: List[Rep] = []
    traced: List[Tuple[Rep, Any]] = []
    while not traced or _fits(started, traced, seconds):
        untraced.append(run_rep(workload, seed))
        tracing = Tracing()
        traced.append((run_rep(workload, seed, tracing), tracing))
    reference = untraced[0].fingerprint()
    problems = [
        "the traced run simulated differently from the untraced run"
        for rep, _t in traced if rep.fingerprint() != reference
    ] + [
        "an untraced rep simulated differently from the first one"
        for rep in untraced if rep.fingerprint() != reference
    ]
    rep, tracing = traced[0]
    ops = rep.ops
    c = rep.counters
    m: Dict[str, Dict[str, Any]] = {}

    def put(name: str, unit: str, entry: Dict[str, Any]) -> None:
        m[name] = dict(entry, unit=unit)

    put("sim.events_per_op", "count", ratio(rep.events, ops))
    put("sim.host_us_per_event", "us", {
        "value": median([r.window_s * 1e6 / r.events for r in untraced]),
        "runs": [r.window_s * 1e6 / r.events for r in untraced],
    })
    by_package = [t.packages(r.ops) for r, t in traced]
    for package in PACKAGES:
        for key in ("self_us_per_op", "calls_per_op"):
            values = [p.get(package, {}).get(key, 0.0) for p in by_package]
            if key == "calls_per_op" and len(set(values)) > 1:
                problems.append(f"host.{package}.calls_per_op differs between traced reps")
            put(f"host.{package}.{key}", "us" if key.startswith("self") else "count", {
                "value": values[0] if key == "calls_per_op" else median(values),
                "runs": values,
            })
    put("cache.hit_ratio", "ratio", ratio(c["cache.hits"], c["cache.reads"]))
    put("cache.evictions_per_op", "count", ratio(c["cache.evictions"], ops))
    put("cache.writebacks_per_op", "count", ratio(c["cache.writebacks"], ops))
    put("cache.txn_abort_ratio", "ratio",
        ratio(c["store.txn.aborted"], c["store.txn.begun"]))
    put("cache.lock_wait_sim_us", "sim_us",
        tail(tracing.span_durations("cache.lock.acquire"), 0.99))
    put("kaml.get.sim_us_p99", "sim_us",
        tail(tracing.span_durations("kaml.get_record"), 0.99))
    put("kaml.index_probes_per_get", "count",
        ratio(c["kaml.get.index_probes.sum"], c["kaml.get.index_probes.count"]))
    put("kaml.nvram_wait_p99_us", "sim_us",
        tail(tracing.tee["kaml.put.nvram_wait_us"], 0.99))
    put("kaml.write_amp", "ratio",
        ratio(c["kaml.log.programmed_bytes"], c["kaml.put.bytes"]))
    put("kaml.gc.relocated_per_put", "count",
        ratio(c["kaml.log.gc.relocated_records"], c["kaml.ssd.put_records"]))
    put("kaml.gc.erased_blocks_per_kop", "1/kop",
        ratio(c["kaml.log.gc.erased_blocks"], ops, scale=1000.0))
    put("kaml.log.wasted_chunk_ratio", "ratio", ratio(
        c["kaml.log.wasted_chunks"], c["kaml.log.programmed_pages"] * rep.chunks_per_page
    ))
    put("kaml.gc.clean_block_p99_us", "sim_us",
        tail(tracing.tee["kaml.gc.clean_block_us"], 0.99))
    put("kaml.get.relocation_chases_per_get", "count",
        ratio(c["kaml.get.relocation_chases"], c["kaml.ssd.gets"]))
    put("ssd.firmware_wait_p99_us", "sim_us",
        tail(tracing.tee["kaml.firmware.wait_us"], 0.99))
    put("flash.reads_per_op", "count", ratio(c["flash.reads"], ops))
    put("flash.programs_per_op", "count", ratio(c["flash.programs"], ops))
    put("flash.erases_per_op", "count", ratio(c["flash.erases"], ops))
    put("flash.read_page.sim_us_p99", "sim_us",
        tail(tracing.span_durations("flash.read_page"), 0.99))
    put("flash.program_page.sim_us_p99", "sim_us",
        tail(tracing.span_durations("flash.program_page"), 0.99))
    put("cluster.queue_wait_p99_us", "sim_us",
        tail(tracing.tee["cluster.queue.wait_us"], 0.99))
    put("cluster.2pc_per_op", "count", ratio(c["cluster.2pc.txns"], ops))
    put("cluster.2pc_abort_ratio", "ratio",
        ratio(c["cluster.2pc.aborts"], c["cluster.2pc.txns"]))
    put("cluster.2pc_p99_us", "sim_us", tail(tracing.tee["cluster.2pc.us"], 0.99))
    put("cluster.rebalance_p99_us", "sim_us",
        tail(tracing.tee["cluster.rebalance.us"], 0.99))
    put("cluster.shed_ratio", "ratio",
        ratio(c["cluster.shed"], c["cluster.shed"] + c["cluster.sched.admitted"]))
    untraced_ops = median([r.host_ops_per_s for r in untraced])
    traced_ops = median([r.host_ops_per_s for r, _t in traced])
    put("trace.host_ops_per_s", "1/s", {
        "value": traced_ops, "runs": [r.host_ops_per_s for r, _t in traced],
    })
    put("trace.overhead_ratio", "x", ratio(untraced_ops, traced_ops))
    return {
        "reps": untraced + [r for r, _t in traced],
        "metrics": m,
        "problems": problems,
        "spans": tracing.span_summary(ops),
        "packages": by_package[0],
        "tracing": tracing,
    }


def _report_line(name: str, entry: Dict[str, Any]) -> str:
    detail = ""
    if "n" in entry:
        detail = f"  (n={entry['n']}, q={entry['q_used']:.4g})"
    elif "denominator" in entry:
        detail = f"  ({entry['numerator']:.6g} / {entry['denominator']:.6g})"
    return f"  {name:<38} {entry['value']:>16.6f} {entry['unit']}{detail}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 kamlbench/run.py",
        description="KAML benchmark: end-to-end (--trace 0) or per-layer (--trace 1).",
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The benchmark measures the default configuration: sanitizers off.
    os.environ.pop("KAML_SANITIZE", None)
    try:
        workloads = _import_program()
    except ImportError as exc:
        print(f"kamlbench: cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 3
    if args.workload not in workloads.WORKLOADS:
        print(f"kamlbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    try:
        if args.trace:
            result = per_layer(workload, args.seed, args.seconds)
        else:
            result = end_to_end(workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"kamlbench: {exc}", file=sys.stderr)
        return 4

    reps: List[Rep] = result["reps"]
    failures = [f for rep in reps for f in rep.failures]
    attempted = sum(rep.attempted for rep in reps)
    problems = result["problems"]
    correct = not failures and not problems
    metrics = result["metrics"]
    failed_frac = len(failures) / attempted if attempted else 0.0

    print(f"kamlbench {workload.name} seed={args.seed} trace={args.trace} "
          f"reps={len(reps)} held-out seed={HELD_OUT_SEED}")
    for key, value in workload.sizes().items():
        print(f"  size {key}: {value}")
    for name, entry in metrics.items():
        print(_report_line(name, entry))
    print(f"  {'failed_frac':<38} {failed_frac:>16.6f} ratio  "
          f"({len(failures)} / {attempted})")
    for message in failures[:10] + problems:
        print(f"  FAIL {message}")

    report = {
        "workload": workload.name,
        "sizes": workload.sizes(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": failed_frac,
        "failures": failures[:50],
        "problems": problems,
        "metrics": metrics,
        "reps": [
            {"setup_s": r.setup_s, "window_s": r.window_s, "ops": r.ops,
             "events": r.events, "sim_window_us": r.sim_window_us,
             "counters": r.counters}
            for r in reps
        ],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        report["spans"] = result["spans"]
        report["packages"] = result["packages"]
        result["tracing"].write_spans(stem + "-spans.jsonl.gz")
    with open(stem + ".json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
