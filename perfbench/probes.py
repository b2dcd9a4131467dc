"""Per-layer tracing for the benchmark, done entirely from outside the program.

A :class:`Probe` wraps the public entry points of the six layers of
``repro`` (``apps``, ``runtime``, ``visibility``, ``geometry``,
``distributed`` and ``service``) by replacing module and class attributes
for the duration of one traced round, and restores every attribute
afterwards.  Nothing under ``src/`` is edited and the program's own tracer
stays off.

Each wrapped call is a span: it records its inclusive time and its self time
(inclusive minus the time of wrapped calls nested inside it, on the same
thread).  Spans are aggregated in memory per key -- calls, inclusive seconds,
self seconds -- and a few keys keep per-call samples or intervals that the
service metrics need.  The probe records only while it is armed, so set-up
and warm-up work outside the timed region never counts.

Forked worker processes inherit the wrappers; a fork hook disarms the probe
in the child, so workers run the plain functions and never touch the
parent's lock.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Probe:
    """Aggregated spans of one traced round (see module docstring)."""

    def __init__(self) -> None:
        self.armed = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        self.reset()
        os.register_at_fork(after_in_child=self._disarm)

    def _disarm(self) -> None:
        self.armed = False

    def reset(self) -> None:
        """Drop everything recorded so far."""
        #: key -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: key -> per-call samples (numbers)
        self.samples: dict[str, list] = defaultdict(list)
        #: (kind, owner id, start, end, payload) for the service attribution
        self.intervals: list[tuple] = []
        #: the service's per-tenant geometry caches, by id
        self.caches: dict = {}

    @contextmanager
    def recording(self):
        """Arm the probe for the block (the timed region)."""
        self.armed = True
        try:
            yield self
        finally:
            self.armed = False

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, key_of, fn, before=None, after=None):
        """``fn`` wrapped as a span named ``key_of(args)``.

        ``before(args)`` runs first and its result is handed to
        ``after(args, result, start, seconds, state)`` once ``fn`` returns.
        """
        probe = self

        def wrapper(*args, **kwargs):
            if not probe.armed:
                return fn(*args, **kwargs)
            key = key_of(args)
            state = before(args) if before is not None else None
            stack = probe._stack()
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                with probe._lock:
                    stat = probe.stats[key]
                    stat[0] += 1
                    stat[1] += seconds
                    stat[2] += seconds - frame[0]
            if after is not None:
                after(args, result, start, seconds, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def add_sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def add_interval(self, kind: str, owner: int, start: float, end: float,
                     **payload) -> None:
        with self._lock:
            self.intervals.append((kind, owner, start, end, payload))

    # ------------------------------------------------------------------
    def patch(self, owner, name: str, wrapper) -> None:
        """Replace ``owner.name`` until :meth:`restore`."""
        had_own = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), had_own))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, name, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    @contextmanager
    def installed(self):
        """Wrap every layer's entry points for the block."""
        install_layers(self)
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    def calls(self, key: str) -> int:
        return self.stats[key][0] if key in self.stats else 0

    def inclusive(self, key: str) -> float:
        return self.stats[key][1] if key in self.stats else 0.0

    def self_time(self, key: str) -> float:
        return self.stats[key][2] if key in self.stats else 0.0


# ----------------------------------------------------------------------
# the wrapped entry points, layer by layer
# ----------------------------------------------------------------------
def _const(key: str):
    return lambda args: key


def _wrap_method(probe: Probe, cls, name: str, key_of, **hooks) -> None:
    probe.patch(cls, name, probe.span(key_of, getattr(cls, name), **hooks))


def install_layers(probe: Probe) -> None:
    """Patch the public entry points of all six layers onto ``probe``."""
    import repro.geometry
    import repro.geometry.fastpath as fastpath
    import repro.service.service as service_mod
    import repro.visibility.eqset as eqset
    import repro.visibility.history as history
    from repro.apps import APPS
    from repro.distributed.backends import ProcessBackend
    from repro.distributed.sharded import ShardedRuntime
    from repro.runtime.context import Runtime
    from repro.runtime.dependence import DependenceGraph
    from repro.visibility import ALGORITHMS

    # apps: stream construction and task bodies
    for cls in APPS.values():
        for name in ("init_stream", "iteration_stream"):
            _wrap_method(probe, cls, name, _const("apps.stream"))
    probe.patch(service_mod, "session_stream",
                probe.span(_const("apps.stream"), service_mod.session_stream))

    # runtime: launch (bodies are timed by wrapping the body argument) and
    # the dependence graph's order-label bookkeeping
    launch = Runtime.launch

    def traced_launch(self, name, requirements, body=None, point=None):
        if body is not None and probe.armed:
            body = probe.span(_const("apps.body"), body)
        return launch(self, name, requirements, body, point)

    probe.patch(Runtime, "launch",
                probe.span(_const("runtime.launch"), traced_launch))
    _wrap_method(probe, DependenceGraph, "add_task",
                 _const("runtime.graph_add"))

    # visibility: materialize / commit per algorithm (resolve every
    # original first: subclasses may inherit the same function)
    originals = [(cls, name, getattr(cls, name))
                 for cls in ALGORITHMS.values()
                 for name in ("materialize", "commit")]
    for cls, name, fn in originals:
        probe.patch(cls, name, probe.span(
            lambda args, name=name: f"visibility.{name}.{type(args[0]).name}",
            fn))

    # geometry: the batched interference kernel, wherever it is bound
    def kernel_after(args, result, start, seconds, state):
        probe.add_sample("geometry.kernel_candidates", len(args[1]))

    kernel = probe.span(_const("geometry.kernel"), fastpath.batch_overlaps,
                        after=kernel_after)
    for module in (fastpath, repro.geometry, history, eqset):
        probe.patch(module, "batch_overlaps", kernel)

    # geometry: the service's per-tenant caches, for their counters
    tenant_cache = service_mod.tenant_geometry_cache

    def traced_tenant_cache(cache):
        probe.caches[id(cache)] = cache
        return tenant_cache(cache)

    probe.patch(service_mod, "tenant_geometry_cache", traced_tenant_cache)

    # distributed: slot build (worker spawn included), analysis, verify,
    # shipping and recovery checkpoints
    def build_after(args, result, start, seconds, state):
        runtime = args[0]
        probe.add_interval("build", id(runtime), start, start + seconds,
                           shipped=runtime.backend.shipped_bytes)

    _wrap_method(probe, ShardedRuntime, "__init__",
                 _const("distributed.slot_build"), after=build_after)

    def analyze_before(args):
        runtime = args[0]
        verify = runtime.profile.snapshot().get("verify")
        return (runtime.backend.shipped_bytes,
                verify.seconds if verify is not None else 0.0,
                runtime.analysis_meter.snapshot(),
                runtime.graph.edge_count())

    def analyze_after(args, reports, start, seconds, state):
        runtime = args[0]
        shipped, verify_before, meter_before, edges_before = state
        verify = runtime.profile.snapshot().get("verify")
        meter = runtime.analysis_meter.snapshot()
        probe.add_interval(
            "analyze", id(runtime), start, start + seconds,
            algorithm=runtime.backend.reference.algorithm_name,
            tasks=len(args[1]),
            shard_max=max(r.seconds for r in reports),
            verify=(verify.seconds if verify is not None else 0.0)
            - verify_before,
            shipped=runtime.backend.shipped_bytes - shipped,
            edges=runtime.graph.edge_count() - edges_before,
            meter={k: v - meter_before.get(k, 0) for k, v in meter.items()
                   if v != meter_before.get(k, 0)})

    _wrap_method(probe, ShardedRuntime, "analyze",
                 _const("distributed.analyze"), before=analyze_before,
                 after=analyze_after)

    def checkpoint_before(args):
        return args[0].recovery.checkpoints

    def checkpoint_after(args, result, start, seconds, before):
        if args[0].recovery.checkpoints > before:
            probe.add_sample("distributed.checkpoint", seconds)

    _wrap_method(probe, ProcessBackend, "after_verified",
                 _const("distributed.after_verified"),
                 before=checkpoint_before, after=checkpoint_after)
