"""The simulator-throughput benchmark CLI (python -m repro.harness perf)."""

import json
from pathlib import Path

import pytest

from repro.harness import perf_cli
from repro.harness.__main__ import main as harness_main


def test_kernel_workload_is_deterministic():
    first = perf_cli.measure("kernel", repeat=1)
    second = perf_cli.measure("kernel", repeat=1)
    assert first["sim_events"] == second["sim_events"]
    assert first["ops"] == second["ops"] == 64 * 400
    assert first["events_per_sec"] > 0
    assert first["events_per_op"] == pytest.approx(
        first["sim_events"] / first["ops"]
    )


def test_repeat_rejects_nondeterminism(monkeypatch):
    events = iter([100, 101])

    def flaky(scale):
        return {"ops": 10, "sim_events": next(events), "wall_s": 0.01}

    monkeypatch.setitem(perf_cli._RUNNERS, "kernel", flaky)
    with pytest.raises(RuntimeError, match="nondeterministic"):
        perf_cli.measure("kernel", repeat=2)


def test_scale_multiplies_op_count():
    base = perf_cli.measure("kernel", repeat=1, scale=1)
    scaled = perf_cli.measure("kernel", repeat=1, scale=2)
    assert scaled["ops"] == 2 * base["ops"]
    assert scaled["sim_events"] > base["sim_events"]


def test_cli_writes_json_artifact(tmp_path, capsys):
    out = tmp_path / "perf.json"
    assert harness_main([
        "perf", "--workloads", "kernel", "--repeat", "1", "--json", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["benchmark"] == "perf"
    assert "kernel" in payload["workloads"]
    row = payload["workloads"]["kernel"]
    assert row["sim_events"] > 0 and row["ops_per_sec"] > 0
    assert "events/s" in capsys.readouterr().out


def test_cli_rejects_unknown_workload(capsys):
    assert harness_main(["perf", "--workloads", "nope"]) == 2
    assert "unknown perf workload" in capsys.readouterr().err


def test_list_mentions_perf(capsys):
    harness_main(["--list"])
    assert "perf" in capsys.readouterr().out


BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "baseline.json"


@pytest.mark.parametrize("workload", perf_cli.WORKLOADS)
def test_sim_events_match_baseline_exactly(workload):
    """The CI perf gate allows ``sim_events`` 15%; tier-1 holds every
    workload to the baseline's exact count, so a change to a canonical
    workload's definition cannot slip through under the tolerance."""
    pinned = json.loads(BASELINE.read_text())["perf"]["workloads"][workload]
    assert perf_cli.measure(workload, repeat=1)["sim_events"] == pinned["sim_events"]
