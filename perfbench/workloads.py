"""The benchmark's three workloads, each run as rounds of fixed work.

A round always does the same work for a given seed: it starts from fresh
program state (fresh applications, runtimes, geometry cache or service), so
its timings can be pooled with other rounds and its counts must repeat
exactly.  Every round times its operations, records the deterministic
counts in a ledger, and checks its outputs against the specification
outside the timed region.

* ``init_cold`` -- the paper's init window (Figs 12-14): a fresh
  :class:`~repro.runtime.context.Runtime` runs ``init_stream()`` and the
  first ``iteration_stream()``, per (app, algorithm) cell.
* ``steady_warm`` -- steady-state throughput (Figs 15-17): each cell is
  warmed with init plus two iterations, then runs timed iterations.
* ``service_mixed`` -- a closed loop of two clients (one tenant each, zero
  think time) driving :class:`~repro.service.service.AnalysisService` on
  the process backend with nothing shed.
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import calibration
from repro.apps import APPS
from repro.geometry import geometry_cache, reset_geometry_cache
from repro.runtime import Runtime, SequentialExecutor, oracle_dependences
from repro.service import AnalysisService, SessionRequest, verify_sessions
import repro.service.service as service_mod

APP_NAMES = ("stencil", "circuit", "pennant")
ALGORITHMS = ("raycast", "warnock", "tree_painter")
#: (app, algorithm) pairs the service sessions draw from
SERVICE_PAIRS = (("stencil", "raycast"), ("circuit", "warnock"),
                 ("pennant", "tree_painter"))
#: dependence soundness is checked over this many most recent tasks
ORACLE_WINDOW = 512
#: closed-loop clients (one tenant each; at most nproc = 2 run at once)
CLIENTS = 2
#: steady iterations per service session
SESSION_ITERATIONS = 2


@dataclass(frozen=True)
class Config:
    """Sizes of one workload's round."""

    pieces: int
    warm_iterations: int = 0     #: untimed steady iterations after init
    timed_iterations: int = 0    #: timed steady iterations (0: init window)
    sessions: int = 0            #: service sessions per round


CONFIGS = {
    "init_cold": Config(pieces=128),
    "steady_warm": Config(pieces=64, warm_iterations=2, timed_iterations=4),
    "service_mixed": Config(pieces=16, sessions=48),
}


@dataclass
class Op:
    """One timed operation.  ``key`` names the same work in every round."""

    key: str
    algorithm: str
    tasks: int
    seconds: float


@dataclass
class Round:
    """What one round measured, counted and checked."""

    traced: bool
    ops: list = field(default_factory=list)
    #: timed seconds: the sum of the ops, or the client loop's wall time
    #: when ops overlap (service)
    wall: float = 0.0
    concurrent: bool = False
    setup: float = 0.0
    warmup: float = 0.0
    attempted: int = 0
    #: (checked unit, description) per failed check
    problems: list = field(default_factory=list)
    #: deterministic counts: checked unit -> {name: value}
    ledger: dict = field(default_factory=dict)
    #: per algorithm: tasks, dependence edges and CostMeter events
    analysis: dict = field(default_factory=dict)
    #: geometry-cache hits, misses and evictions in the timed region
    cache: Counter = field(default_factory=Counter)
    #: service only: (key, tenant, start, end, SessionResult) per session
    sessions: list = field(default_factory=list)
    census: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    #: host-speed kernel timings taken between the timed operations
    calibration: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len({unit for unit, _ in self.problems})


def build_app(name: str, pieces: int, seed: int):
    """One application; the seed drives Circuit's random graph."""
    if name == "circuit":
        return APPS[name](pieces=pieces, seed=seed)
    return APPS[name](pieces=pieces)


def _recording(probe):
    return probe.recording() if probe is not None else nullcontext()


# ----------------------------------------------------------------------
# analysis cells: init_cold and steady_warm
# ----------------------------------------------------------------------
class Spec:
    """Specification results per (app, iterations), computed once and
    shared by every algorithm and round: the sequential executor's field
    values and the oracle's interference pairs over the last
    :data:`ORACLE_WINDOW` tasks."""

    def __init__(self) -> None:
        self._cache: dict = {}

    def problems(self, app_name: str, app, runtime: Runtime,
                 iterations: int) -> list[str]:
        ref = self._cache.get((app_name, iterations))
        if ref is None:
            executor = SequentialExecutor(app.tree, app.initial)
            executor.run_stream(app.init_stream())
            for _ in range(iterations):
                executor.run_stream(app.iteration_stream())
            window = list(runtime.tasks)[-ORACLE_WINDOW:]
            ref = self._cache[(app_name, iterations)] = (
                executor.fields(), oracle_dependences(window))
        fields, pairs = ref
        out = []
        for name, want in fields.items():
            if not np.allclose(runtime.read_field(name), want):
                out.append(f"field {name!r} differs from the sequential "
                           "executor")
        missing = runtime.graph.missing_pairs(pairs)
        if missing:
            out.append(f"{len(missing)} oracle dependences not covered, "
                       f"e.g. {missing[:3]}")
        return out


def analysis_round(cfg: Config, seed: int, spec: Spec, probe=None) -> Round:
    """One round of ``init_cold`` or ``steady_warm`` over all nine cells."""
    rnd = Round(traced=probe is not None)
    for app_name in APP_NAMES:
        for algorithm in ALGORITHMS:
            key = f"{app_name}/{algorithm}"
            start = perf_counter()
            reset_geometry_cache()
            app = build_app(app_name, cfg.pieces, seed)
            runtime = Runtime(app.tree, app.initial, algorithm=algorithm)
            rnd.setup += perf_counter() - start
            if cfg.warm_iterations:
                start = perf_counter()
                runtime.replay(app.init_stream())
                for _ in range(cfg.warm_iterations):
                    runtime.replay(app.iteration_stream())
                rnd.warmup += perf_counter() - start
            meter = runtime.meter.snapshot()
            edges = runtime.graph.edge_count()
            first_task = runtime.next_task_id
            cache = geometry_cache().stats()
            kernel_calls = probe.calls("geometry.kernel") if probe else 0
            rnd.calibration += calibration.sample()
            with _recording(probe):
                if cfg.timed_iterations == 0:
                    start = perf_counter()
                    runtime.replay(app.init_stream())
                    runtime.replay(app.iteration_stream())
                    rnd.ops.append(Op(key, algorithm,
                                      runtime.next_task_id - first_task,
                                      perf_counter() - start))
                for _ in range(cfg.timed_iterations):
                    before = runtime.next_task_id
                    start = perf_counter()
                    runtime.replay(app.iteration_stream())
                    rnd.ops.append(Op(key, algorithm,
                                      runtime.next_task_id - before,
                                      perf_counter() - start))
            counts = Counter({k: v - meter.get(k, 0) for k, v in
                              runtime.meter.snapshot().items()})
            counts["tasks"] = runtime.next_task_id - first_task
            counts["edges"] = runtime.graph.edge_count() - edges
            after = geometry_cache().stats()
            for name in ("hits", "misses", "evictions"):
                rnd.cache[name] += after[name] - cache[name]
            rnd.analysis.setdefault(algorithm, Counter()).update(counts)
            ledger = dict(counts)
            if probe is not None:
                ledger["kernel_calls"] = (probe.calls("geometry.kernel")
                                          - kernel_calls)
            rnd.ledger[key] = ledger
            rnd.attempted += 1
            iterations = cfg.warm_iterations + max(cfg.timed_iterations, 1)
            rnd.problems += [(key, p) for p in
                             spec.problems(app_name, app, runtime, iterations)]
    rnd.wall = sum(op.seconds for op in rnd.ops)
    return rnd


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------
def service_plan(cfg: Config, seed: int) -> dict[str, list[tuple]]:
    """The clients' session sequence: an equal share of every pair, in an
    order drawn from the seed.  Every seed thus runs the same mix, and
    every client runs the same sequence on its own tenant, so a session
    always competes with the same kind of session whatever the order."""
    pairs = list(SERVICE_PAIRS) * (cfg.sessions
                                   // (CLIENTS * len(SERVICE_PAIRS)))
    random.Random(seed).shuffle(pairs)
    return {f"tenant{client}": pairs for client in range(CLIENTS)}


@contextmanager
def seeded_service_apps(seed: int):
    """Make the service (and its cold-replay verifier) build seeded apps."""
    original = service_mod.make_app
    service_mod.make_app = lambda name, pieces: build_app(name, pieces, seed)
    try:
        yield
    finally:
        service_mod.make_app = original


def session_tasks(cfg: Config, seed: int) -> dict[tuple, int]:
    """Tasks per session, by (app, fresh)."""
    out = {}
    for app_name, _ in SERVICE_PAIRS:
        app = build_app(app_name, cfg.pieces, seed)
        steady = SESSION_ITERATIONS * len(app.iteration_stream())
        out[(app_name, False)] = steady
        out[(app_name, True)] = steady + len(app.init_stream())
    return out


def service_round(cfg: Config, plan: dict, tasks: dict,
                  probe=None) -> Round:
    """One closed-loop round on a fresh service."""
    return asyncio.run(_service_round(cfg, plan, tasks, probe))


async def _service_round(cfg: Config, plan: dict, tasks: dict,
                         probe) -> Round:
    rnd = Round(traced=probe is not None, concurrent=True)
    service = AnalysisService(backend="process", shards=2, rate=1e9,
                              burst=1e9, recv_timeout=60.0)
    start = perf_counter()
    await service.start()
    rnd.setup = perf_counter() - start

    async def client(tenant: str, pairs: list) -> None:
        for index, (app, algorithm) in enumerate(pairs):
            request = SessionRequest(
                tenant=tenant, app=app, pieces=cfg.pieces,
                iterations=SESSION_ITERATIONS, algorithm=algorithm)
            begin = perf_counter()
            result = await service.submit(request)
            end = perf_counter()
            key = f"{tenant}/{index}"
            rnd.sessions.append((key, tenant, begin, end, result))
            rnd.ops.append(Op(key, algorithm, tasks[(app, result.fresh)],
                              end - begin))

    try:
        rnd.calibration += calibration.sample()
        with _recording(probe):
            start = perf_counter()
            await asyncio.gather(*(client(tenant, pairs)
                                   for tenant, pairs in plan.items()))
            rnd.wall = perf_counter() - start
        rnd.calibration += calibration.sample()
        rnd.census = service.census_block()
    finally:
        await service.stop()
    rnd.sessions.sort(key=lambda s: s[0])
    for key, _, _, _, result in rnd.sessions:
        rnd.attempted += 1
        rnd.ledger[key] = {"status": result.status,
                           "fresh": int(result.fresh),
                           "fingerprint": result.fingerprint}
        if not result.ok:
            rnd.problems.append((key, f"session {result.describe()}"))
    return rnd


def check_sessions(rnd: Round, first: Round | None) -> None:
    """Cold-replay the first round's ok sessions (:func:`verify_sessions`);
    a later round's sessions must match the first round's fingerprints,
    since they are the same work on the same fresh state."""
    if first is None:
        results = [s[4] for s in rnd.sessions]
        rnd.problems += [(f"verify/{i}", p) for i, p in
                         enumerate(verify_sessions(results))]
        return
    for key, _, _, _, result in rnd.sessions:
        want = first.ledger.get(key, {}).get("fingerprint")
        if result.fingerprint != want:
            rnd.problems.append((key, "fingerprint differs from the "
                                 "cold-replayed first round"))
