"""Figure 5: Get/Put vs read/write bandwidth across value sizes and
mapping-table load factors."""

from repro.harness import format_table
from repro.harness.experiments import fig5_bandwidth


def test_fig5_bandwidth(run_once, emit, artifact, trace_artifact):
    result = run_once(fig5_bandwidth, ops_per_thread=25, trace=True)
    emit(format_table(result["title"], result["headers"], result["rows"]))
    artifact("fig5_bandwidth", result)
    trace_artifact("fig5", result["tracer"])
    m = result["metrics"]

    # Fig 5a: Get beats read at low load factor...
    assert m["get/512/0.1"] > 1.05 * m["read/512"]
    # ...is comparable mid-range...
    assert 0.9 < m["get/512/0.4"] / m["read/512"] < 1.15
    # ...and read wins once the table is dense.
    assert m["get/512/0.9"] < m["read/512"]
    # Monotonic decline of Get bandwidth with load factor.
    series = [m[f"get/512/{lf}"] for lf in (0.1, 0.4, 0.7, 0.9)]
    assert series == sorted(series, reverse=True)

    # Fig 5b: Put crushes write for sub-page updates (paper: 6.7-7.9x)...
    assert m["put-upd/512"] > 4.0 * m["write-upd/512"]
    # ...but write catches up at 4 KB (no read-modify-write).
    assert m["write-upd/4096"] > 0.9 * m["put-upd/4096"]

    # Fig 5c: write beats Put for 4 KB inserts (array store vs hash insert).
    assert m["write-ins/4096"] > m["put-ins/4096"]
    # Sub-page inserts: Put at least competitive (baseline pays RMW).
    assert m["put-ins/512"] > m["write-ins/512"]
