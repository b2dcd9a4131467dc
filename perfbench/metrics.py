"""The benchmark's metrics and how they are derived from measured rounds.

:data:`END_TO_END` and :data:`PER_LAYER` are the metric lists that
``BENCHMARK.json`` records; ``test_perfbench.py`` keeps the two in step.

End-to-end metrics come from untraced rounds.  An operation (``Op``) is the
workload's unit of work -- one cell's init window, one steady iteration,
one service session -- and it has the same key in every round.  For a
throughput its time is the median of its samples across rounds, so a burst
of noise from the host moves it only if it hits most rounds; latency
percentiles pool every sample of every round.  Times are in reference
seconds (see :mod:`calibration`), so a slow phase of a shared host, which
slows a whole run, cancels out.

Per-layer metrics come from traced rounds (see :mod:`probes`).  Layers that
only some workloads exercise (task bodies, the distributed and service
layers) are reported as shares of the time the workload spent in its
operations, so they read 0 where the layer does not run.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from statistics import median

import numpy as np

import calibration
from workloads import ALGORITHMS

#: (name, unit, better, bound): every workload reports all of them
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("tasks_per_s", "1/s", "higher", 0.25),
    *[(f"tasks_per_s.{alg}", "1/s", "higher", 0.25) for alg in ALGORITHMS],
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_p90_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

#: CostMeter events reported per task, per algorithm
METER_EVENTS = ("entries_scanned", "intersection_tests", "eqsets_created",
                "eqsets_split", "bvh_nodes_visited", "views_traversed",
                "elements_moved")

#: (name, unit, better)
PER_LAYER = [
    ("apps.stream_s", "s", "lower"),
    ("apps.body_share", "fraction", "lower"),
    ("runtime.launch_self_s", "s", "lower"),
    ("runtime.graph_add_s", "s", "lower"),
    ("runtime.tasks", "count", "higher"),
    ("runtime.deps_per_task", "deps/task", "lower"),
    *[m for alg in ALGORITHMS for m in (
        (f"visibility.materialize_s.{alg}", "s", "lower"),
        (f"visibility.commit_s.{alg}", "s", "lower"),
        *[(f"visibility.{event}.{alg}", "count/task", "lower")
          for event in METER_EVENTS],
        (f"visibility.dep_yield.{alg}", "edges/test", "higher"))],
    ("geometry.kernel_calls", "count", "lower"),
    ("geometry.kernel_s", "s", "lower"),
    ("geometry.kernel_candidates_p50", "count", "higher"),
    ("geometry.kernel_small_frac", "fraction", "lower"),
    ("geometry.cache_hit_ratio", "fraction", "higher"),
    ("geometry.cache_evictions", "count", "lower"),
    ("distributed.slot_build_share", "fraction", "lower"),
    ("distributed.analyze_share", "fraction", "lower"),
    ("distributed.shard_max_share", "fraction", "lower"),
    ("distributed.verify_share", "fraction", "lower"),
    ("distributed.checkpoint_share", "fraction", "lower"),
    ("distributed.checkpoint_growth", "x", "lower"),
    ("distributed.ship_bytes", "B/session", "lower"),
    ("service.wait_share", "fraction", "lower"),
    ("service.wait_frac_p50", "fraction", "lower"),
    ("service.wait_frac_p90", "fraction", "lower"),
    ("service.analyze_share", "fraction", "lower"),
    ("service.fresh_frac", "fraction", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.degraded", "count", "lower"),
    ("service.breaker_transitions", "count", "lower"),
    ("trace.overhead", "fraction", "lower"),
    ("ledger.count_drift", "count", "lower"),
]

#: units of the paper-axis names in the human summary
PAPER_AXIS_UNITS = {
    **{f"init_s.{alg}": "s" for alg in ALGORITHMS},
    **{f"tasks_per_s.{alg}": "1/s" for alg in ALGORITHMS},
    "sessions_per_s": "1/s", "session_p50_s": "s", "session_p90_s": "s",
    "session_samples": "count",
    "error_rate": "fraction"}

UNITS = {**PAPER_AXIS_UNITS,
         **{name: unit for name, unit, *_ in END_TO_END + PER_LAYER}}


def p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def op_samples(rounds) -> dict:
    """Per op key, its timed samples from every round."""
    samples = defaultdict(list)
    for rnd in rounds:
        for op in rnd.ops:
            samples[op.key].append(op.seconds)
    return dict(samples)


def _op_times(rounds) -> dict:
    """Per op key: (algorithm, tasks per round, seconds per round), the
    seconds being the op's median sample times its count per round."""
    meta = {op.key: (op.algorithm, op.tasks) for op in rounds[0].ops}
    per_round = Counter(op.key for op in rounds[0].ops)
    out = {}
    for key, values in op_samples(rounds).items():
        (algorithm, tasks), n, seconds = meta[key], per_round[key], \
            median(values)
        out[key] = (algorithm, tasks * n, seconds * n)
    return out


def latencies(rounds) -> list[float]:
    """Every operation's latency, pooled over the rounds."""
    return [op.seconds for rnd in rounds for op in rnd.ops]


def tasks_per_s(rounds, algorithm: str | None = None) -> float:
    if algorithm is None and rounds[0].concurrent:
        # overlapping ops: throughput is tasks over the loop's wall time
        return median(sum(op.tasks for op in rnd.ops) / rnd.wall
                      for rnd in rounds)
    ops = [(tasks, seconds) for alg, tasks, seconds
           in _op_times(rounds).values()
           if algorithm is None or alg == algorithm]
    return _ratio(sum(t for t, _ in ops), sum(s for _, s in ops))


def host_factor(rounds) -> float:
    """The host factor of ``rounds``, from all their calibration samples."""
    return calibration.host_factor([t for rnd in rounds
                                    for t in rnd.calibration])


def end_to_end(rounds, import_s: float, peak_rss_mb: float,
               factor: float | None = None) -> dict:
    """The end-to-end metrics, in reference seconds (``factor=1``: raw)."""
    factor = host_factor(rounds) if factor is None else factor
    lat = latencies(rounds)
    out = {"setup_s": (import_s + median(rnd.setup for rnd in rounds))
           / factor,
           "tasks_per_s": tasks_per_s(rounds) * factor}
    for alg in ALGORITHMS:
        out[f"tasks_per_s.{alg}"] = tasks_per_s(rounds, alg) * factor
    out["latency_p50_s"] = median(lat) / factor
    out["latency_p90_s"] = p90(lat) / factor
    out["peak_rss_mb"] = peak_rss_mb
    return out


def paper_axis(workload: str, rounds) -> dict:
    """The same measurements under the paper's axis names, for the human
    summary: init seconds per algorithm, steady throughput per algorithm,
    or the service's session rate and latency (reference seconds)."""
    factor = host_factor(rounds)
    if workload == "init_cold":
        times = _op_times(rounds).values()
        return {f"init_s.{alg}": sum(s for a, _, s in times if a == alg)
                / factor for alg in ALGORITHMS}
    if workload == "steady_warm":
        return {f"tasks_per_s.{alg}": tasks_per_s(rounds, alg) * factor
                for alg in ALGORITHMS}
    lat = latencies(rounds)
    return {"sessions_per_s": median(len(rnd.ops) / rnd.wall
                                     for rnd in rounds) * factor,
            "session_p50_s": median(lat) / factor,
            "session_p90_s": p90(lat) / factor,
            "session_samples": len(lat)}


# ----------------------------------------------------------------------
# per layer (one traced round)
# ----------------------------------------------------------------------
def session_waits(sessions, intervals) -> dict:
    """Per session: latency minus the slot build and analysis done for it.

    The probe sees build/analyze calls per runtime, not per tenant.  Each
    runtime belongs to the tenant whose sessions contain its calls (every
    call of a tenant's runtime lies inside one of that tenant's sessions,
    because each client has one session in flight), so ownership is a
    majority vote, and a call is charged to the owner's session that
    contains it."""
    spans = defaultdict(list)
    for key, tenant, start, end, _ in sessions:
        spans[tenant].append((key, start, end))

    def holding(tenant, a, b):
        return next((key for key, s, e in spans[tenant]
                     if s <= a and b <= e), None)

    votes = defaultdict(Counter)
    for _, owner, a, b, _ in intervals:
        for tenant in spans:
            if holding(tenant, a, b) is not None:
                votes[owner][tenant] += 1
    busy = Counter()
    for _, owner, a, b, _ in intervals:
        if votes[owner]:
            key = holding(votes[owner].most_common(1)[0][0], a, b)
            if key is not None:
                busy[key] += b - a
    return {key: max(0.0, end - start - busy[key])
            for key, _, start, end, _ in sessions}


def layer_metrics(rnd, probe) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, plus absolute details for
    the human summary."""
    busy = sum(op.seconds for op in rnd.ops)
    analysis = rnd.analysis
    builds = [i for i in probe.intervals if i[0] == "build"]
    analyses = [i for i in probe.intervals if i[0] == "analyze"]
    if analyses:
        analysis = defaultdict(Counter)
        for *_, payload in analyses:
            counts = analysis[payload["algorithm"]]
            counts.update(payload["meter"])
            counts["tasks"] += payload["tasks"]
            counts["edges"] += payload["edges"]
    out = {
        "apps.stream_s": probe.self_time("apps.stream"),
        "apps.body_share": _ratio(probe.inclusive("apps.body"), rnd.wall),
        "runtime.launch_self_s": probe.self_time("runtime.launch"),
        "runtime.graph_add_s": probe.inclusive("runtime.graph_add"),
        "runtime.tasks": probe.calls("runtime.launch"),
        "runtime.deps_per_task": _ratio(
            sum(c["edges"] for c in analysis.values()),
            sum(c["tasks"] for c in analysis.values())),
    }
    for alg in ALGORITHMS:
        counts = analysis.get(alg, Counter())
        out[f"visibility.materialize_s.{alg}"] = probe.inclusive(
            f"visibility.materialize.{alg}")
        out[f"visibility.commit_s.{alg}"] = probe.inclusive(
            f"visibility.commit.{alg}")
        for event in METER_EVENTS:
            out[f"visibility.{event}.{alg}"] = _ratio(counts[event],
                                                      counts["tasks"])
        out[f"visibility.dep_yield.{alg}"] = _ratio(
            counts["edges"], counts["intersection_tests"])

    candidates = probe.samples["geometry.kernel_candidates"]
    cache = Counter(rnd.cache)
    for tenant_cache in probe.caches.values():
        cache.update({k: v for k, v in tenant_cache.stats().items()
                      if k in ("hits", "misses", "evictions")})
    out.update({
        "geometry.kernel_calls": probe.calls("geometry.kernel"),
        "geometry.kernel_s": probe.inclusive("geometry.kernel"),
        "geometry.kernel_candidates_p50": (float(median(candidates))
                                           if candidates else 0.0),
        "geometry.kernel_small_frac": _ratio(
            sum(1 for c in candidates if c <= 4), len(candidates)),
        "geometry.cache_hit_ratio": _ratio(
            cache["hits"], cache["hits"] + cache["misses"]),
        "geometry.cache_evictions": cache["evictions"],
    })

    checkpoints = probe.samples["distributed.checkpoint"]
    sessions = len(rnd.sessions)
    shipped = (sum(i[4]["shipped"] for i in builds)
               + sum(i[4]["shipped"] for i in analyses))
    out.update({
        "distributed.slot_build_share": _ratio(
            probe.inclusive("distributed.slot_build"), busy),
        "distributed.analyze_share": _ratio(
            probe.inclusive("distributed.analyze"), busy),
        "distributed.shard_max_share": _ratio(
            sum(i[4]["shard_max"] for i in analyses), busy),
        "distributed.verify_share": _ratio(
            sum(i[4]["verify"] for i in analyses), busy),
        "distributed.checkpoint_share": _ratio(sum(checkpoints), busy),
        "distributed.checkpoint_growth": _ratio(
            max(checkpoints, default=0.0),
            median(checkpoints) if checkpoints else 0.0),
        "distributed.ship_bytes": _ratio(shipped, sessions),
    })

    waits = session_waits(rnd.sessions, builds + analyses)
    wait_fracs = [_ratio(waits[key], end - start)
                  for key, _, start, end, _ in rnd.sessions]
    results = [s[4] for s in rnd.sessions]
    out.update({
        "service.wait_share": _ratio(sum(waits.values()), busy),
        "service.wait_frac_p50": (median(wait_fracs) if wait_fracs
                                  else 0.0),
        "service.wait_frac_p90": p90(wait_fracs),
        "service.analyze_share": _ratio(sum(r.seconds for r in results),
                                        busy),
        "service.fresh_frac": _ratio(sum(r.fresh for r in results),
                                     sessions),
        "service.rejected": rnd.census.get("rejected", 0),
        "service.degraded": rnd.census.get("degraded_sessions", 0),
        "service.breaker_transitions": rnd.census.get(
            "breaker_transitions", 0),
    })

    details = {"timed_s": rnd.wall, "op_s": busy,
               "kernel_candidates": len(candidates)}
    if sessions:
        wait_values = list(waits.values())
        details.update({
            "slot_build_s": probe.inclusive("distributed.slot_build"),
            "analyze_s": probe.inclusive("distributed.analyze"),
            "verify_s": sum(i[4]["verify"] for i in analyses),
            "checkpoint_p50_s": (median(checkpoints) if checkpoints
                                 else 0.0),
            "checkpoint_max_s": max(checkpoints, default=0.0),
            "checkpoints": len(checkpoints),
            "wait_p50_s": median(wait_values),
            "wait_p90_s": p90(wait_values),
            "ship_bytes": shipped,
        })
    return out, details
