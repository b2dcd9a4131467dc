"""Benchmark of ``repro`` on the paper's two axes plus a closed-loop service.

Run from the repository root::

    python3 perfbench/run.py --workload init_cold --seed 1 --seconds 35 --trace 0

Workloads: ``init_cold`` (init window, Figs 12-14), ``steady_warm``
(steady iterations, Figs 15-17) and ``service_mixed`` (two closed-loop
clients on the analysis service).  ``BENCHMARK.json`` records why each is
here and ``perfbench/layers.json`` which layer metric should move which
end-to-end metric on which workload.

A run repeats rounds of fixed work until ``--seconds`` is spent, checks
every round's outputs against the specification, and prints a human
summary followed by one JSON line::

    {"correct": true, "attempted": 27, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics from untraced rounds, with
times in reference seconds (see ``calibration.py``; raw seconds are in the
summary).
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The
deterministic counts of each round go to a ledger under ``perfbench/out``;
a count that differs between rounds, or from an earlier run of the same
code and seed, is flagged as drift.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("init_cold", "steady_warm", "service_mixed")

#: timed in a fresh interpreter: the imports a user of the library pays
IMPORTS = ("import time; t = time.perf_counter(); import numpy, repro, "
           "repro.apps, repro.runtime, repro.distributed, "
           "repro.service.service; print(time.perf_counter() - t)")


def import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORTS], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout.split()[-1])


def code_digest() -> str:
    """Digest of the program and benchmark sources: ledgers compare only
    across runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_rounds(workload: str, seed: int, seconds: float, trace: bool,
               config=None) -> list:
    """Rounds of ``workload`` until ``seconds`` are spent (at least one
    round; with tracing, at least one untraced and one traced round)."""
    import workloads as wl
    from metrics import layer_metrics
    from probes import Probe

    cfg = config or wl.CONFIGS[workload]
    service = workload == "service_mixed"
    probe = Probe() if trace else None
    if service:
        plan = wl.service_plan(cfg, seed)
        tasks = wl.session_tasks(cfg, seed)
    else:
        spec = wl.Spec()
    rounds: list = []
    began = perf_counter()
    longest = 0.0
    with wl.seeded_service_apps(seed) if service else nullcontext():
        while True:
            traced = trace and len(rounds) % 2 == 1
            start = perf_counter()
            if traced:
                probe.reset()
            with probe.installed() if traced else nullcontext():
                active = probe if traced else None
                rnd = (wl.service_round(cfg, plan, tasks, active) if service
                       else wl.analysis_round(cfg, seed, spec, active))
            if traced:
                rnd.layers, rnd.details = layer_metrics(rnd, probe)
                rnd.ledger["round"] = {
                    "kernel_calls": probe.calls("geometry.kernel")}
                if service:
                    rnd.ledger["round"]["ship_bytes"] = \
                        rnd.details["ship_bytes"]
            if service:
                wl.check_sessions(rnd, rounds[0] if rounds else None)
            rounds.append(rnd)
            longest = max(longest, perf_counter() - start)
            if len(rounds) >= (2 if trace else 1) \
                    and perf_counter() - began + longest > seconds:
                return rounds


def ledger_drift(rounds, path: Path, code: str) -> list[str]:
    """Counts that differ between rounds, or from the ledger an earlier
    run of the same code and seed left at ``path``; updates ``path``."""
    drift = []
    counts: dict = {}
    for index, rnd in enumerate(rounds):
        for unit, entry in rnd.ledger.items():
            for name, value in entry.items():
                key = f"{unit}:{name}"
                first = counts.setdefault(key, (index, value))
                if first[1] != value:
                    drift.append(f"{key}: round {index} has {value}, "
                                 f"round {first[0]} had {first[1]}")
    counts = {key: value for key, (_, value) in counts.items()}
    previous = {}
    if path.is_file():
        doc = json.loads(path.read_text())
        if doc.get("code") == code:
            previous = doc["counts"]
    for key in sorted(previous.keys() & counts.keys()):
        if previous[key] != counts[key]:
            drift.append(f"{key}: {counts[key]}, an earlier run had "
                         f"{previous[key]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"code": code, "counts": {**previous,
                                                         **counts}},
                               indent=1, sort_keys=True) + "\n")
    return drift


def stop_children() -> None:
    """The service closes its workers; make sure none outlives the run."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import metrics
    from repro.bench.harness import bench_environment

    import_s = median(import_seconds() for _ in range(5))
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    finally:
        stop_children()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    code = code_digest()
    drift = ledger_drift(
        rounds, OUT / f"ledger-{args.workload}-seed{args.seed}.json", code)
    untraced = [rnd for rnd in rounds if not rnd.traced]
    traced = [rnd for rnd in rounds if rnd.traced]
    e2e = metrics.end_to_end(untraced, import_s, peak_rss_mb)
    raw = metrics.end_to_end(untraced, import_s, peak_rss_mb, factor=1.0)
    attempted = sum(rnd.attempted for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    environment = {**bench_environment(), "nproc": len(os.sched_getaffinity(0)),
                   "code": code, "seed": args.seed}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment, "rounds": len(rounds),
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "host_factor": metrics.host_factor(untraced),
        "paper_axis": {**metrics.paper_axis(args.workload, untraced),
                       "error_rate": failed / attempted,
                       "setup_s": e2e["setup_s"],
                       "peak_rss_mb": peak_rss_mb},
        "import_s": import_s,
        "warmup_s": median(rnd.warmup for rnd in rounds),
        "problems": [f"{unit}: {text}" for rnd in rounds
                     for unit, text in rnd.problems],
        "count_drift": drift,
        "op_samples": metrics.op_samples(untraced),
        "round_tasks_wall": [(sum(op.tasks for op in rnd.ops), rnd.wall)
                             for rnd in untraced],
    }
    if args.trace:
        factor = metrics.host_factor(traced)
        layers = {name: median(rnd.layers[name] for rnd in traced)
                  / (factor if metrics.UNITS[name] == "s" else 1.0)
                  for name in traced[0].layers}
        traced_e2e = metrics.end_to_end(traced, import_s, peak_rss_mb)
        layers["trace.overhead"] = (e2e["tasks_per_s"]
                                    / traced_e2e["tasks_per_s"] - 1.0)
        layers["ledger.count_drift"] = len(drift)
        summary.update(per_layer=layers, traced_end_to_end=traced_e2e,
                       tracing_cost={name: traced_e2e[name] - e2e[name]
                                     for name in e2e},
                       layer_details=[rnd.details for rnd in traced])
        reported = [name for name, *_ in metrics.PER_LAYER]
        values = layers
    else:
        reported = [name for name, *_ in metrics.END_TO_END]
        values = e2e

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(summary, indent=1, sort_keys=True,
                               default=str) + "\n")
    print(render(summary))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name],
                           "unit": metrics.UNITS[name]}
                    for name in reported}}))
    return 0 if correct else 1


def render(summary: dict) -> str:
    """The human summary printed above the JSON line."""
    lines = [f"perfbench {summary['workload']} seed={summary['seed']} "
             f"trace={summary['trace']} rounds={summary['rounds']}",
             "environment: " + " ".join(
                 f"{k}={v}" for k, v in sorted(summary['environment'].items()))]
    from metrics import UNITS

    def unit(name):
        return UNITS.get(name) or ("s" if name.endswith("_s") else
                                   "B" if name.endswith("bytes") else "count")

    def block(title, values):
        lines.append(title)
        for name, value in values.items():
            lines.append(f"  {name:<40} {value:>14.6g} {unit(name)}")

    block("paper axis (untraced):", summary["paper_axis"])
    block("set-up parts (medians):", {"import_s": summary["import_s"],
                                      "warmup_s": summary["warmup_s"]})
    if "tracing_cost" in summary:
        lines.append("end to end: untraced / traced / difference")
        for name, value in summary["end_to_end"].items():
            lines.append(f"  {name:<40} {value:>14.6g} "
                         f"{summary['traced_end_to_end'][name]:>14.6g} "
                         f"{summary['tracing_cost'][name]:>+14.6g}")
        block("per layer (traced rounds, median):", summary["per_layer"])
        for details in summary["layer_details"]:
            block("traced round details (raw seconds):", details)
    else:
        block("end to end (reference seconds):", summary["end_to_end"])
    block(f"end to end (raw seconds; host factor "
          f"{summary['host_factor']:.4f}):", summary["end_to_end_raw"])
    lines.append(f"count drift: {len(summary['count_drift'])}")
    lines += [f"  {d}" for d in summary["count_drift"][:10]]
    lines.append(f"failed checks: {len(summary['problems'])}")
    lines += [f"  {p}" for p in summary["problems"][:10]]
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
