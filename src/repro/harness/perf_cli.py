"""``python -m repro.harness perf`` — simulator throughput benchmark.

Measures host wall-clock throughput of the DES kernel itself, separate
from the simulated device's bandwidth numbers (those live in the fig5
smoke bench).  Three canonical workloads:

``kernel``
    Pure scheduler: a timer cascade plus resource ping-pong with no KV
    stack on top.  Isolates event-loop cost (heap ops, callback
    dispatch, process resumption).

``mixed``
    A 50/50 Get/Put mix through the full KAML store — the canonical
    end-to-end profile; this is the workload the perf gate's headline
    sim-events/sec number comes from.

``ycsb-b``
    YCSB B (95% read) through the caching layer and lock table, the
    stack the paper's Figure 10 exercises.

``mixed`` and ``ycsb-b`` are the :mod:`repro.workloads.canonical`
definitions that ``prof``, ``record`` and ``obs`` run too.

Each workload reports two kinds of numbers:

* ``sim_events`` and ``events_per_op`` are **deterministic** — identical
  on every machine and every run.  A change here means the simulation is
  doing more (or less) work per operation: scheduler-overhead
  regressions show up exactly.
* ``events_per_sec`` / ``ops_per_sec`` are wall-clock and
  machine-dependent.  The CI gate compares them on the same runner
  class with the baseline tolerance; locally they are best-of
  ``--repeat`` to shave scheduler noise.

The ``--json`` artifact feeds :mod:`repro.harness.baseline`, which
merges a ``perf`` section into ``benchmarks/baseline.json`` on
``make rebaseline`` and gates regressions in CI.
"""
# kamllint: file-allow[KL-DET001] this module's purpose is timing the host

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Any, Dict, List, Optional

from repro.sim import Environment
from repro.sim.resources import Resource

#: Canonical workload names, in display order.
WORKLOADS = ("kernel", "mixed", "ycsb-b")


# ---------------------------------------------------------------------------
# Workload bodies
# ---------------------------------------------------------------------------

def _run_kernel(scale: int) -> Dict[str, Any]:
    """Timer cascade + resource ping-pong: no KV stack, pure kernel."""
    pingers, hops = 64, 400 * scale

    def build(env: Environment):
        gate = Resource(env, capacity=8, name="perf.gate")

        def pinger(seed: int):
            rng = random.Random(seed)
            for _ in range(hops):
                request = gate.request()
                yield request
                yield env.timeout(1.0 + rng.random())
                gate.release(request)
                yield env.timeout(0.5)

        return env.all_of([env.process(pinger(1000 + i)) for i in range(pingers)])

    env = Environment()
    done = build(env)
    started = time.perf_counter()
    env.run_until(done)
    wall_s = time.perf_counter() - started
    return {
        "ops": pingers * hops,
        "sim_events": env.events_processed,
        "wall_s": wall_s,
    }


#: Seed and total ops per unit of ``--scale`` of each canonical KV
#: workload (4 threads; ycsb-b loads 1000 records per unit).
_CANONICAL_RUNS = {"mixed": (42, 2000), "ycsb-b": (7, 1000)}


def _run_canonical(name: str, scale: int) -> Dict[str, Any]:
    """One :mod:`repro.workloads.canonical` workload through the full
    KAML store; only the run after setup is counted and timed."""
    from repro.harness.runner import build_kaml_store
    from repro.workloads.canonical import canonical

    seed, ops_per_scale = _CANONICAL_RUNS[name]
    ops = ops_per_scale * scale
    env, _ssd, store = build_kaml_store(cache_bytes=1 << 20)
    workload = canonical(name, env, store, seed=seed, records=1000 * scale)
    workload.setup()
    events_before = env.events_processed
    started = time.perf_counter()
    workload.run(ops, threads=4)
    wall_s = time.perf_counter() - started
    return {
        "ops": ops,
        "sim_events": env.events_processed - events_before,
        "wall_s": wall_s,
    }


_RUNNERS = {
    "kernel": _run_kernel,
    "mixed": lambda scale: _run_canonical("mixed", scale),
    "ycsb-b": lambda scale: _run_canonical("ycsb-b", scale),
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure(workload: str, repeat: int = 3, scale: int = 1) -> Dict[str, Any]:
    """Run one workload ``repeat`` times; keep the fastest wall clock.

    The simulation is deterministic, so ``sim_events`` must agree across
    repeats — a mismatch means nondeterminism crept into the stack and
    is reported as a hard error rather than averaged away.
    """
    runner = _RUNNERS[workload]
    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, repeat)):
        result = runner(scale)
        if best is not None and result["sim_events"] != best["sim_events"]:
            raise RuntimeError(
                f"{workload}: nondeterministic event count "
                f"({result['sim_events']} vs {best['sim_events']})"
            )
        if best is None or result["wall_s"] < best["wall_s"]:
            best = result
    if best is None:  # unreachable: range(max(1, repeat)) runs at least once
        raise RuntimeError(f"{workload}: no measurement produced")
    wall_s = best["wall_s"]
    return {
        "workload": workload,
        "scale": scale,
        "ops": best["ops"],
        "sim_events": best["sim_events"],
        "events_per_op": best["sim_events"] / best["ops"],
        "wall_s": wall_s,
        "events_per_sec": best["sim_events"] / wall_s if wall_s > 0 else 0.0,
        "ops_per_sec": best["ops"] / wall_s if wall_s > 0 else 0.0,
    }


def format_results(results: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':10} {'ops':>10} {'sim events':>12} {'ev/op':>7} "
        f"{'wall s':>8} {'events/s':>12} {'ops/s':>10}",
    ]
    for row in results:
        lines.append(
            f"{row['workload']:10} {row['ops']:>10,} {row['sim_events']:>12,} "
            f"{row['events_per_op']:>7.1f} {row['wall_s']:>8.3f} "
            f"{row['events_per_sec']:>12,.0f} {row['ops_per_sec']:>10,.0f}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness perf",
        description="Simulator throughput benchmark (sim-events/sec and "
                    "ops/sec on the canonical workloads).",
    )
    parser.add_argument(
        "--workloads", default=",".join(WORKLOADS),
        help=f"comma-separated subset of: {', '.join(WORKLOADS)}",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="runs per workload; the fastest wall clock is reported",
    )
    parser.add_argument(
        "--scale", type=int, default=1,
        help="multiply per-workload op counts (nightly paper-scale runs "
             "use --scale 20)",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None,
        help="also write the results as a JSON artifact (for the perf gate)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="after measuring, run each KV workload once more through the "
             "kamlprof breakdown (kernel has no spans and is skipped)",
    )
    args = parser.parse_args(argv)

    names = [name.strip() for name in args.workloads.split(",") if name.strip()]
    for name in names:
        if name not in _RUNNERS:
            print(f"unknown perf workload: {name!r} "
                  f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
            return 2

    results = []
    for name in names:
        results.append(measure(name, repeat=args.repeat, scale=args.scale))
    print(format_results(results))

    if args.profile:
        from repro.harness import prof_cli

        for name in names:
            if name == "kernel":
                print("\n[profile] kernel has no KV stack above it; skipping")
                continue
            # Mirror this workload's perf parameters so the breakdown
            # explains the run the gate actually measures.
            seed, ops_per_scale = _CANONICAL_RUNS[name]
            prof_argv = [
                "--workload", name, "--seed", str(seed),
                "--ops", str(ops_per_scale * args.scale),
                "--records", str(1000 * args.scale),
            ]
            print(f"\n[profile] {name}")
            prof_cli.run_prof(
                prof_cli.build_parser().parse_args(prof_argv + ["--no-timeseries"])
            )

    if args.json_out:
        payload = {
            "benchmark": "perf",
            "repeat": args.repeat,
            "scale": args.scale,
            "workloads": {row["workload"]: row for row in results},
        }
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
