"""The sequential reference executor — ground truth for coherence.

Applies every task eagerly in program order against full per-field arrays,
with none of the lazy-reduction or history machinery: a write stores, a
reduction folds immediately, a read observes.  By section 3.1's definition
of the blending function ``B``, this *is* the specification each visibility
algorithm must match; every equivalence test in the suite compares against
it.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.obs import tracer as obs
from repro.regions.tree import RegionTree
from repro.runtime.task import Task, TaskStream, initial_values


class SequentialExecutor:
    """Eager, in-order execution with a global view of every field."""

    def __init__(self, tree: RegionTree,
                 initial: Mapping[str, np.ndarray]) -> None:
        self.tree = tree
        self._fields = {name: values.copy() for name, values
                        in initial_values(tree, initial).items()}

    # ------------------------------------------------------------------
    def run(self, task: Task) -> None:
        """Execute one task eagerly."""
        with obs.span(task.name, "runtime.execute", task_id=task.task_id):
            self._run(task)

    def _run(self, task: Task) -> None:
        root_space = self.tree.root.space
        buffers: list[np.ndarray] = []
        positions: list[np.ndarray] = []
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

        for req, pos, buf in zip(task.requirements, positions, buffers):
            if req.privilege.is_write:
                self._fields[req.field][pos] = buf
            elif req.privilege.is_reduce:
                assert req.privilege.redop is not None
                current = self._fields[req.field]
                current[pos] = req.privilege.redop.fold(current[pos], buf)

    def run_stream(self, stream: TaskStream) -> None:
        """Execute every task of a stream in program order."""
        for task in stream:
            self.run(task)

    # ------------------------------------------------------------------
    def field(self, name: str) -> np.ndarray:
        """Current values of a field over the root region (copy)."""
        return self._fields[name].copy()

    def fields(self) -> dict[str, np.ndarray]:
        """Snapshot of every field."""
        return {k: v.copy() for k, v in self._fields.items()}

    def fingerprint(self) -> str:
        """Stable digest of the current field contents.

        The differential tests compare this against
        :meth:`ShardedRuntime.state_fingerprint` of a sharded run: equal
        digests mean bit-identical distributed state without
        materializing a field-by-field comparison.
        """
        from repro.distributed.verify import fields_fingerprint

        return fields_fingerprint(self._fields)
