"""The replay report and the per-tenant p99 use ``obs.metrics.percentile``,
the same statistic as every device histogram.

On 1..10 the definitions disagree: linear interpolation puts p99 at 9.91,
while nearest rank (rounded or floored) lands on 10.
"""

import io

import pytest

from repro.harness import trace_cli
from repro.obs.metrics import percentile
from repro.workloads.multitenant import TenantResult

SAMPLES = [7.0, 1.0, 10.0, 4.0, 2.0, 9.0, 5.0, 3.0, 8.0, 6.0]


def test_tenant_p99_is_the_shared_percentile():
    result = TenantResult(name="t", latencies_us=list(SAMPLES))
    assert result.p99_latency_us == percentile(sorted(SAMPLES), 0.99)
    assert result.p99_latency_us == pytest.approx(9.91)


def test_replay_report_uses_the_shared_percentile(tmp_path, monkeypatch):
    journal = str(tmp_path / "synth.jsonl")
    argv = ["--workload", "synth-hotkey", "--ops", "10", "--key-space", "8", "--out", journal]
    trace_cli.run_record(trace_cli.build_record_parser().parse_args(argv), out=io.StringIO())
    real_replay = trace_cli.replay_journal

    def replay_with_known_latencies(*args, **kwargs):
        result = real_replay(*args, **kwargs)
        result.latencies_us = list(SAMPLES)
        return result

    monkeypatch.setattr(trace_cli, "replay_journal", replay_with_known_latencies)
    report = trace_cli.run_replay(
        trace_cli.build_replay_parser().parse_args([journal]), out=io.StringIO()
    )
    ordered = sorted(SAMPLES)
    assert report["latency_p50_us"] == percentile(ordered, 0.50)
    assert report["latency_p99_us"] == percentile(ordered, 0.99)
