"""Ablations of the design decisions DESIGN.md calls out.

These are not paper figures; they isolate individual mechanisms:

* GC victim policy (greedy / cost-benefit / KAML's wear-aware);
* mapping-table structure per namespace (bucket / open / sorted);
* the NVRAM page-buffer flush timer;
* WAL group commit in the baseline engine.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.ftl.gc_policy import CostBenefitPolicy, GreedyPolicy, WearAwarePolicy
from repro.harness.runner import build_kaml_ssd, build_shore_engine
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.kaml import DedicatedLogsPolicy, ExplicitLogsPolicy
from repro.sim import Environment
from repro.workloads import ShoreAdapter, TpcB, kaml_fetch
from repro.workloads.micro import kaml_populate
from repro.workloads.oltp import drive
from repro.analysis import summarize


# ---------------------------------------------------------------------------
# GC victim policy
# ---------------------------------------------------------------------------

def gc_policy_ablation(
    overwrites: int = 600,
    working_set: int = 6,
    value_size: int = 2048,
) -> Dict[str, Any]:
    """Churn a tiny device under each victim policy; report relocation
    work (write amplification) and wear spread."""
    policies = {
        "greedy": GreedyPolicy,
        "cost-benefit": None,  # needs block size; built below
        "wear-aware": WearAwarePolicy,
    }
    rows: List[List[Any]] = []
    metrics: Dict[str, float] = {}

    for name in policies:
        env = Environment()
        geometry = FlashGeometry(
            channels=1, chips_per_channel=1, blocks_per_chip=12, pages_per_block=4
        )
        config = ReproConfig().with_(
            geometry=geometry, kaml=KamlParams(num_logs=1, flush_timeout_us=200.0)
        )
        ssd = KamlSsd(env, config)
        log = ssd.logs[0]
        if name == "greedy":
            log.gc_policy = GreedyPolicy()
        elif name == "cost-benefit":
            log.gc_policy = CostBenefitPolicy(log.block_capacity_bytes)
        else:
            log.gc_policy = WearAwarePolicy()

        def churn():
            nsid = yield from ssd.create_namespace(
                NamespaceAttributes(expected_keys=working_set * 8)
            )
            # Cold records interleave with hot ones so victim blocks carry
            # valid data that GC must relocate.
            for i in range(overwrites):
                yield from ssd.put(
                    [PutItem(nsid, i % working_set, ("hot", i), value_size)]
                )
                if i % 3 == 0:
                    cold_key = 1000 + (i // 3) % (working_set * 4)
                    yield from ssd.put(
                        [PutItem(nsid, cold_key, ("cold", i), value_size)]
                    )
                yield env.timeout(1500.0)
            yield from ssd.drain()

        drive(env, churn())
        relocated = int(ssd.metrics.total("kaml.log.gc.relocated_records"))
        erased = int(ssd.metrics.total("kaml.log.gc.erased_blocks"))
        low, high = ssd.array.erase_count_spread()
        write_amp = 1.0 + relocated / max(1, overwrites)
        rows.append([name, relocated, erased, write_amp, high - low])
        metrics[f"write-amp/{name}"] = write_amp
        metrics[f"wear-spread/{name}"] = high - low
        metrics[f"erased/{name}"] = erased

    return {
        "title": "Ablation: GC victim policy under overwrite churn",
        "headers": ["policy", "relocated records", "blocks erased",
                    "write amplification", "erase spread"],
        "rows": rows,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Mapping-table structure
# ---------------------------------------------------------------------------

def index_structure_ablation(
    keys: int = 2048,
    value_size: int = 512,
    threads: int = 8,
    ops_per_thread: int = 30,
) -> Dict[str, Any]:
    """Get bandwidth per index structure at identical population."""
    rows: List[List[Any]] = []
    metrics: Dict[str, float] = {}
    for structure in ("bucket", "open", "sorted"):
        env, ssd = build_kaml_ssd()
        attributes = NamespaceAttributes(
            expected_keys=keys * 2, index_structure=structure
        )

        def create():
            namespace_id = yield from ssd.create_namespace(attributes)
            return namespace_id

        namespace_id = drive(env, create())
        kaml_populate(env, ssd, namespace_id, keys, value_size)
        fetch = kaml_fetch(env, ssd, namespace_id, keys, value_size,
                           threads, ops_per_thread)
        index = ssd.namespaces[namespace_id].index
        rows.append([structure, fetch.throughput_mb_s, fetch.mean_latency_us,
                     index.memory_bytes // 1024])
        metrics[f"mb_s/{structure}"] = fetch.throughput_mb_s
        metrics[f"latency/{structure}"] = fetch.mean_latency_us

    return {
        "title": "Ablation: Get performance per mapping-table structure",
        "headers": ["index", "MB/s", "mean latency us", "index KiB"],
        "rows": rows,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# NVRAM flush timer
# ---------------------------------------------------------------------------

def flush_timer_ablation(
    timeouts_us=(200.0, 1000.0, 5000.0),
    records: int = 48,
    value_size: int = 512,
) -> Dict[str, Any]:
    """Trickle-rate Puts: how long until everything is actually on flash?

    The timer bounds how long a partially filled page may hold committed
    data in NVRAM (Section IV-B).  Low-rate workloads drain faster with a
    short timer at the cost of padding pages (wasted chunks).
    """
    rows: List[List[Any]] = []
    metrics: Dict[str, float] = {}
    for timeout_us in timeouts_us:
        env = Environment()
        config = ReproConfig()
        # One log so trickled records actually share pages when the timer
        # lets them accumulate.
        config = config.with_(
            kaml=replace(config.kaml, flush_timeout_us=timeout_us, num_logs=1)
        )
        ssd = KamlSsd(env, config)

        def trickle():
            nsid = yield from ssd.create_namespace()
            for i in range(records):
                yield from ssd.put([PutItem(nsid, i, ("t", i), value_size)])
                yield env.timeout(300.0)  # slower than page fill wants
            start = env.now
            while ssd._staged:
                yield env.timeout(100.0)
            return env.now - start

        drain_lag = drive(env, trickle())
        wasted = int(ssd.metrics.total("kaml.log.wasted_chunks"))
        programmed = int(ssd.metrics.total("kaml.log.programmed_pages"))
        rows.append([timeout_us, drain_lag, programmed, wasted])
        metrics[f"drain-lag/{timeout_us}"] = drain_lag
        metrics[f"pages/{timeout_us}"] = programmed

    return {
        "title": "Ablation: NVRAM page-buffer flush timer (trickle writes)",
        "headers": ["timer us", "post-burst drain lag us", "pages programmed",
                    "wasted chunks"],
        "rows": rows,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Quality of service: namespace-to-log isolation (Section IV-B)
# ---------------------------------------------------------------------------

def qos_isolation_ablation(
    noisy_threads: int = 12,
    victim_ops: int = 80,
    victim_records: int = 256,
    value_size: int = 2048,
) -> Dict[str, Any]:
    """A read-latency-sensitive tenant next to a write-flooding neighbor.

    With shared logs the victim's records are spread over every flash
    target, so its reads queue behind the neighbor's 700 us page
    programs.  Partitioning pins the victim to 8 logs the neighbor never
    touches, keeping its chips idle — the paper's claim that the
    namespace-to-log mapping "allows the SSD to control the allocation
    of resources" (Section IV-B).
    """
    rows: List[List[Any]] = []
    metrics: Dict[str, float] = {}

    for mode in ("shared", "partitioned"):
        env = Environment()
        ssd = KamlSsd(env, ReproConfig())

        def create():
            if mode == "shared":
                noisy = yield from ssd.create_namespace(
                    NamespaceAttributes(expected_keys=8192)
                )
                victim = yield from ssd.create_namespace(
                    NamespaceAttributes(expected_keys=1024)
                )
            else:
                noisy = yield from ssd.create_namespace(
                    NamespaceAttributes(
                        expected_keys=8192, log_policy=DedicatedLogsPolicy(56)
                    )
                )
                taken = set(ssd.namespaces[noisy].log_ids)
                rest = [log.log_id for log in ssd.logs if log.log_id not in taken]
                victim = yield from ssd.create_namespace(
                    NamespaceAttributes(
                        expected_keys=1024, log_policy=ExplicitLogsPolicy(rest)
                    )
                )
            return noisy, victim

        noisy_ns, victim_ns = drive(env, create())
        # Place the victim's records (on its assigned logs) and drain.
        kaml_populate(env, ssd, victim_ns, victim_records, value_size)
        victim_latencies: List[float] = []
        stop = {"flag": False}

        def noisy_writer(thread_id):
            i = 0
            while not stop["flag"]:
                key = thread_id * 1_000_000 + i
                yield from ssd.put([PutItem(noisy_ns, key, ("n", i), value_size)])
                i += 1

        def victim_reader():
            yield env.timeout(3000.0)  # let the flood reach steady state
            for i in range(victim_ops):
                key = (i * 37) % victim_records
                start = env.now
                yield from ssd.get(victim_ns, key)
                victim_latencies.append(env.now - start)
                yield env.timeout(400.0)
            stop["flag"] = True

        for thread_id in range(noisy_threads):
            env.process(noisy_writer(thread_id))
        victim = env.process(victim_reader())
        env.run_until(victim)

        summary = summarize(victim_latencies)
        rows.append([mode, summary.mean_us, summary.p95_us, summary.max_us])
        metrics[f"mean/{mode}"] = summary.mean_us
        metrics[f"p95/{mode}"] = summary.p95_us

    return {
        "title": "Ablation: victim-tenant Get latency under a neighbor's write flood",
        "headers": ["log assignment", "mean us", "p95 us", "max us"],
        "rows": rows,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# WAL group commit (baseline engine)
# ---------------------------------------------------------------------------

def group_commit_ablation(
    threads: int = 8,
    txns_per_thread: int = 25,
    branches: int = 4,
    accounts_per_branch: int = 400,
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    """TPC-B on the baseline with and without group commit."""
    rows: List[List[Any]] = []
    metrics: Dict[str, float] = {}
    for group_commit in (True, False):
        env, engine = build_shore_engine(group_commit=group_commit)
        adapter = ShoreAdapter(engine)
        tpcb = TpcB(env, adapter, branches=branches,
                    accounts_per_branch=accounts_per_branch,
                    **({} if seed is None else {"seed": seed}))
        tpcb.setup()
        result = tpcb.run(threads=threads, txns_per_thread=txns_per_thread)
        label = "group commit" if group_commit else "fsync per commit"
        rows.append([label, result.tps, engine.fs.fsyncs])
        metrics[f"tps/{label}"] = result.tps
        metrics[f"fsyncs/{label}"] = engine.fs.fsyncs

    return {
        "title": "Ablation: WAL group commit in the Shore-MT baseline (TPC-B)",
        "headers": ["mode", "tps", "fsyncs"],
        "rows": rows,
        "metrics": metrics,
    }
