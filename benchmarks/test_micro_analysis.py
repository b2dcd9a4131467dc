"""Microbenchmarks: real wall-clock analysis throughput per algorithm.

Unlike the figure benchmarks (which replay metered costs onto simulated
clocks), these measure the actual Python execution time of one steady
iteration of analysis per algorithm — an honest like-for-like comparison
of this implementation's constants.  At this single-process scale the
painter is clearly slowest; Warnock and ray casting are within a small
factor of each other (Warnock's domain-aligned histories have lower
per-entry constants, ray casting's sub-domain entries pay for index
arithmetic).  The *distributed* advantages of ray casting — fewer sets,
no centralized structures, stable steady state — are what the figure
benchmarks measure.
"""

import statistics
import time
from pathlib import Path

import pytest

from repro import Runtime
from repro.apps import CircuitApp
from repro.distributed.verify import analysis_fingerprint
from repro.geometry.fastpath import GeometryCache, tenant_geometry_cache

PIECES = 32
ALGOS = ("tree_painter", "warnock", "raycast", "painter")
RESULTS_DIR = Path(__file__).resolve().parent / "results"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
STEADY_SAMPLES = 5  # independent timings per steady-iteration row


@pytest.mark.parametrize("algorithm", ALGOS)
def test_steady_iteration_analysis(benchmark, algorithm):
    app = CircuitApp(pieces=PIECES, nodes_per_piece=16, wires_per_piece=24)
    rt = Runtime(app.tree, app.initial, algorithm=algorithm)
    rt.replay(app.init_stream())
    rt.replay(app.iteration_stream())  # warm up structures and memos

    benchmark(rt.replay, app.iteration_stream())


@pytest.mark.parametrize("algorithm", ("warnock", "raycast"))
def test_cold_start_analysis(benchmark, algorithm):
    """First-iteration (structure-building) cost: the initialization
    figures' microscopic counterpart."""
    app = CircuitApp(pieces=PIECES, nodes_per_piece=16, wires_per_piece=24)

    def cold():
        rt = Runtime(app.tree, app.initial, algorithm=algorithm)
        rt.replay(app.init_stream())
        rt.replay(app.iteration_stream())

    benchmark.pedantic(cold, rounds=5, iterations=1)


# ----------------------------------------------------------------------
# geometry fast path: cached vs uncached on the repeated-stream workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cache", ("cached", "uncached"))
@pytest.mark.parametrize("algorithm", ("raycast", "warnock"))
def test_repeated_stream_geom_cache(benchmark, algorithm, cache):
    """The fast path's target workload: the same iteration stream over and
    over (every iterative application's steady state).  Compare the
    ``cached`` and ``uncached`` rows — EXPERIMENTS.md records the ratio.
    Larger spaces than the constants benchmarks above: the raw set-algebra
    cost grows with index-array size while a cache hit stays O(1).  Both
    rows run on a thread-scoped cache, so both pay the same dispatch hop
    and differ only in caching."""
    app = CircuitApp(pieces=PIECES, nodes_per_piece=64, wires_per_piece=96)
    rt = Runtime(app.tree, app.initial, algorithm=algorithm)
    with tenant_geometry_cache(GeometryCache(enabled=(cache == "cached"))):
        rt.replay(app.init_stream())
        rt.replay(app.iteration_stream())  # warm structures and the cache
        benchmark(rt.replay, app.iteration_stream())


@pytest.mark.parametrize("algorithm", ALGOS)
def test_geom_cache_differential_smoke(algorithm):
    """CI's cache-correctness gate: cached and uncached analysis of the
    same program must produce bit-identical fingerprints (structure AND
    meter counts), and the cache must have actually been exercised.  Runs
    in smoke mode too (no ``benchmark`` fixture), so
    ``--benchmark-disable`` keeps the differential check alive."""
    app = CircuitApp(pieces=8, nodes_per_piece=8, wires_per_piece=12)

    def analyze(cache):
        with tenant_geometry_cache(cache):
            rt = Runtime(app.tree, app.initial, algorithm=algorithm)
            rt.replay(app.init_stream())
            for _ in range(2):
                rt.replay(app.iteration_stream())
            return analysis_fingerprint(rt)

    cache = GeometryCache()
    t0 = time.perf_counter()
    cached = analyze(cache)
    cached_s = time.perf_counter() - t0
    stats = cache.stats()
    assert stats["hits"] > 0, "repeated streams must hit the cache"

    t0 = time.perf_counter()
    uncached = analyze(GeometryCache(enabled=False))
    uncached_s = time.perf_counter() - t0

    assert cached == uncached, \
        f"{algorithm}: geometry fast path changed the analysis fingerprint"
    print(f"{algorithm}: cached {cached_s:.3f}s vs uncached {uncached_s:.3f}s "
          f"({uncached_s / max(cached_s, 1e-9):.2f}x), "
          f"{stats['hits']} hits / {stats['misses']} misses")


# ----------------------------------------------------------------------
# precedence labels: O(1) soundness checks on a long steady-state stream
# (>= 2k tasks)
# ----------------------------------------------------------------------
PREC_PIECES = 32
PREC_ITERATIONS = 32  # 32 init + 32 * 64 steady tasks = 2080 >= 2k
PREC_SOUNDNESS_TAIL = 2080  # tasks whose edges the soundness rows check
_PREC_CACHE: dict = {}


def _bfs_missing_pairs(graph, pairs) -> list:
    """``missing_pairs`` answered from ``ancestors_of`` alone: one BFS
    walk per distinct later task, memoized across pairs."""
    closure: dict = {}
    out = []
    for earlier, later in pairs:
        if later not in closure:
            closure[later] = graph.ancestors_of(later)
        if earlier not in closure[later]:
            out.append((earlier, later))
    return out


def _precedence_data() -> dict:
    """Analyze a 2080-task Stencil stream, then time the closure
    soundness check answered by order labels vs. plain BFS.  Built once
    and shared by the smoke test and the bench-document emission (the
    runtime is the expensive part)."""
    if _PREC_CACHE:
        return _PREC_CACHE
    from repro.apps import StencilApp

    app = StencilApp(pieces=PREC_PIECES, tile=2)
    rt = Runtime(app.tree, app.initial, algorithm="raycast")
    rt.replay(app.init_stream())
    for _ in range(PREC_ITERATIONS):
        rt.replay(app.iteration_stream())

    # Soundness-check rows: "are all these known-true orderings present
    # transitively?" over the direct edges of the newest tasks.  The
    # labels answer each pair with O(1) bit tests; the BFS reference
    # re-walks ancestors.  This is where the labels' O(1) `precedes`
    # pays off at stream scale.
    pairs = [(dep, tid)
             for tid in rt.graph.task_ids[-PREC_SOUNDNESS_TAIL:]
             for dep in rt.graph.dependences_of(tid)]
    reps = 3
    t0 = time.perf_counter()
    for _ in range(reps):
        assert rt.graph.missing_pairs(pairs) == []
    labels_s = (time.perf_counter() - t0) / reps

    t0 = time.perf_counter()
    assert _bfs_missing_pairs(rt.graph, pairs) == []
    bfs_s = time.perf_counter() - t0

    _PREC_CACHE.update(rt=rt, labels_s=labels_s, bfs_s=bfs_s,
                       pairs=len(pairs))
    return _PREC_CACHE


def test_precedence_soundness_smoke():
    """CI's precedence gate, in smoke mode like the geometry differential
    above: on the 2080-task stream the label-backed soundness check must
    beat repeated BFS."""
    data = _precedence_data()
    assert len(data["rt"].tasks) >= 2000
    assert data["labels_s"] < data["bfs_s"], (
        f"labels {data['labels_s']:.4f}s vs bfs {data['bfs_s']:.4f}s")
    print(f"precedence: {len(data['rt'].tasks)} tasks, "
          f"soundness ({data['pairs']} pairs) labels "
          f"{data['labels_s'] * 1e3:.2f}ms vs bfs "
          f"{data['bfs_s'] * 1e3:.2f}ms "
          f"({data['bfs_s'] / max(data['labels_s'], 1e-9):.0f}x)")


# ----------------------------------------------------------------------
# machine-readable bench document + soft gate (runs in smoke mode too)
# ----------------------------------------------------------------------
def test_bench_json_emission():
    """Emit ``BENCH_micro_analysis.json`` — one timed steady-iteration
    row per algorithm, self-describing environment block — validate it
    through the gate loader, and gate it against the committed
    ``steady_iteration`` and ``precedence`` rows of
    ``benchmarks/baseline.json``: every row must be present on both
    sides and no row may be slower than the gate's fail ratio (``warn``
    rows stay soft, as in CI).  CI uploads the file as an artifact."""
    from repro.bench.gate import compare, load_bench
    from repro.bench.harness import BENCH_SCHEMA_ID, write_bench_json

    app = CircuitApp(pieces=8, nodes_per_piece=8, wires_per_piece=12)
    rows = []
    for algorithm in ALGOS:
        # median over independent samples of the same quantity (the first
        # iteration after warm-up), so one noisy timing cannot trip the
        # gate's fail ratio
        samples = []
        for _ in range(STEADY_SAMPLES):
            rt = Runtime(app.tree, app.initial, algorithm=algorithm)
            rt.replay(app.init_stream())
            rt.replay(app.iteration_stream())  # warm structures and memos
            stream = app.iteration_stream()
            t0 = time.perf_counter()
            rt.replay(stream)
            samples.append(time.perf_counter() - t0)
        rows.append({"name": f"steady_iteration[{algorithm}]",
                     "seconds": statistics.median(samples),
                     "tasks": len(rt.tasks)})

    # precedence rows: the labels-vs-BFS soundness-check timing (the
    # measured O(1)-precedes speedup on a >= 2k-task stream)
    prec = _precedence_data()
    rows.append({"name": "precedence_soundness[labels]",
                 "seconds": prec["labels_s"], "pairs": prec["pairs"]})
    rows.append({"name": "precedence_soundness[bfs]",
                 "seconds": prec["bfs_s"], "pairs": prec["pairs"]})

    out = write_bench_json(RESULTS_DIR / "BENCH_micro_analysis.json",
                           "micro_analysis", rows,
                           extra={"pieces": 8, "iterations": 1})
    doc = load_bench(out)
    assert doc["schema"] == BENCH_SCHEMA_ID
    assert doc["bench"] == "micro_analysis"
    assert {row["name"] for row in doc["rows"]} \
        == ({f"steady_iteration[{a}]" for a in ALGOS}
            | {"precedence_soundness[labels]", "precedence_soundness[bfs]"})
    assert all(row["seconds"] > 0 for row in doc["rows"])
    assert "python" in doc["environment"]

    gate = compare(doc, load_bench(BASELINE),
                   subsets=["steady_iteration", "precedence"])
    assert len(gate) == len(rows)
    bad = [r for r in gate if r.status in ("missing", "new", "fail")]
    assert not bad, bad
