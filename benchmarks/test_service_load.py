"""Service load bench: latency percentiles under skewed tenant traffic.

Drives the seeded load generator (mixed Stencil/Circuit/Pennant tenants,
zipf-skewed submission schedule) through a live
:class:`~repro.service.service.AnalysisService` and emits
``BENCH_service.json`` — p50/p95/p99 session latency plus throughput —
which CI uploads as an artifact and soft-gates against the
``service_load`` rows of ``benchmarks/baseline.json``
(``--subset service_load``).

Every completed session is still held to the correctness bar:
``verify_sessions`` cold-replays the full schedule and demands
bit-identical fingerprints before any timing row is written.
"""

import time
from pathlib import Path

from repro.service import verify_sessions
from repro.service.loadgen import LoadSpec, run_load

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

SPEC = LoadSpec(seed=2023, tenants=3, sessions=18, pieces=4, iterations=1,
                skew=1.0)


def test_bench_service_json_emission():
    """Emit ``BENCH_service.json`` and gate it against the committed
    ``service_load`` baseline rows: every row must be present on both
    sides and no row may be slower than the gate's fail ratio (``warn``
    rows stay soft, as in CI)."""
    from repro.bench.gate import compare, load_bench
    from repro.bench.harness import write_bench_json

    t0 = time.perf_counter()
    results, summary = run_load(
        SPEC, backend="serial", shards=2, rate=1000.0, burst=1000.0,
        max_inflight=64, queue_limit=64)
    wall = time.perf_counter() - t0

    assert summary["by_status"] == {"ok": SPEC.sessions}, summary
    assert verify_sessions(results) == []
    # the zipf skew really concentrates traffic on tenant0
    counts = summary["by_tenant"]
    assert counts.get("tenant0", 0) == max(counts.values())

    latency = summary["latency"]
    rows = [
        {"name": "service_load[p50]", "seconds": latency["p50"]},
        {"name": "service_load[p95]", "seconds": latency["p95"]},
        {"name": "service_load[p99]", "seconds": latency["p99"]},
        {"name": "service_load[mean]", "seconds": latency["mean"]},
        {"name": "service_load[wall]", "seconds": wall,
         "sessions": SPEC.sessions},
    ]
    out = write_bench_json(
        RESULTS_DIR / "BENCH_service.json", "service_load", rows,
        extra={"spec": {"seed": SPEC.seed, "tenants": SPEC.tenants,
                        "sessions": SPEC.sessions, "pieces": SPEC.pieces,
                        "skew": SPEC.skew},
               "summary": summary})
    doc = load_bench(out)
    assert doc["bench"] == "service_load"
    assert all(row["seconds"] > 0 for row in doc["rows"])
    gate = compare(doc, load_bench(BASELINE), subsets=["service_load"])
    assert len(gate) == len(rows)
    bad = [r for r in gate if r.status in ("missing", "new", "fail")]
    assert not bad, bad


def test_schedule_is_deterministic():
    """Same seed ⇒ byte-identical schedule (what lets CI compare chaos
    runs against cold runs)."""
    from repro.service.loadgen import build_requests

    a = build_requests(SPEC)
    b = build_requests(SPEC)
    assert a == b
    c = build_requests(LoadSpec(seed=SPEC.seed + 1,
                                tenants=SPEC.tenants,
                                sessions=SPEC.sessions))
    assert a != c
