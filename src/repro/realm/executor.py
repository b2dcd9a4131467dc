"""Executing analyzed task streams as Realm event graphs.

This is the hand-off the Legion stack performs: the coherence/dependence
analysis (this repository's `visibility` layer) produces a dependence
graph; the runtime lowers it onto Realm by spawning one deferred operation
per task, preconditioned on the **merge of its dependences' completion
events**.  Realm then extracts whatever parallelism the graph allows.

Poison propagation gives failure semantics for free: a task body that
raises poisons its completion event, every transitively dependent task is
skipped (its event poisons too), and *independent* tasks still run —
strictly better than the sequential executor's halt-on-error.
"""

from __future__ import annotations

import threading
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors import TaskError
from repro.obs import tracer as obs
from repro.realm.events import Event
from repro.realm.runtime import RealmRuntime
from repro.regions.tree import RegionTree
from repro.runtime.dependence import DependenceGraph
from repro.runtime.task import Task, initial_values


class RealmExecutor:
    """Run an analyzed task stream on a :class:`RealmRuntime`."""

    def __init__(self, tree: RegionTree,
                 initial: Mapping[str, np.ndarray],
                 runtime: Optional[RealmRuntime] = None) -> None:
        self.tree = tree
        self._owns_runtime = runtime is None
        self.runtime = runtime if runtime is not None else RealmRuntime(4)
        self._fields = {name: values.copy() for name, values
                        in initial_values(tree, initial).items()}
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Task], graph: DependenceGraph,
            timeout: Optional[float] = 60.0) -> dict[int, bool]:
        """Lower the graph to events and execute it.

        Returns a map task id → poisoned (True for tasks that failed or
        were skipped because a dependence failed).
        """
        by_id = {t.task_id: t for t in tasks}
        if set(by_id) != set(graph.task_ids):
            raise TaskError("graph and task list disagree on task ids")

        with obs.span("realm.run", "realm", tasks=len(tasks)):
            completion: dict[int, Event] = {}
            for tid in sorted(by_id):  # program order: deps precede dependents
                deps = graph.dependences_of(tid)
                precondition = Event.merge(
                    [completion[d] for d in sorted(deps)])
                task = by_id[tid]
                completion[tid] = self.runtime.spawn(
                    lambda task=task: self._execute_one(task),
                    wait_on=precondition)

            self.runtime.wait_for_quiescence(timeout=timeout)
        return {tid: event.is_poisoned()
                for tid, event in completion.items()}

    # ------------------------------------------------------------------
    def _execute_one(self, task: Task) -> None:
        with obs.span(task.name, "realm", task_id=task.task_id):
            self._execute_body(task)

    def _execute_body(self, task: Task) -> None:
        root_space = self.tree.root.space
        positions = []
        buffers = []
        with self._state_lock:
            for req in task.requirements:
                pos = root_space.positions_of(req.region.space)
                positions.append(pos)
                if req.privilege.is_reduce:
                    assert req.privilege.redop is not None
                    buf = req.privilege.redop.identity_array(
                        pos.size, self._fields[req.field].dtype)
                else:
                    buf = self._fields[req.field][pos].copy()
                    if req.privilege.is_read:
                        buf.setflags(write=False)
                buffers.append(buf)

        if task.body is not None:
            task.body(*buffers)

        with self._state_lock:
            for req, pos, buf in zip(task.requirements, positions, buffers):
                if req.privilege.is_write:
                    self._fields[req.field][pos] = buf
                elif req.privilege.is_reduce:
                    assert req.privilege.redop is not None
                    current = self._fields[req.field]
                    current[pos] = req.privilege.redop.fold(current[pos], buf)

    # ------------------------------------------------------------------
    def field(self, name: str) -> np.ndarray:
        """Current values of a field over the root region (copy)."""
        with self._state_lock:
            return self._fields[name].copy()

    def fields(self) -> dict[str, np.ndarray]:
        """Snapshot of every field."""
        with self._state_lock:
            return {k: v.copy() for k, v in self._fields.items()}

    def close(self) -> None:
        """Shut the owned runtime down (no-op for shared runtimes)."""
        if self._owns_runtime:
            self.runtime.shutdown()

    def __enter__(self) -> "RealmExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
