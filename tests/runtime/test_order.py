"""Property suite for the order-maintenance precedence labels.

The central claims under test, mirroring the module contract of
``repro.runtime.order``:

* **Exactness** — ``OrderMaintainer.precedes(a, b)`` agrees with the
  brute-force BFS answer ``a in graph.ancestors_of(b)`` on arbitrary
  random DAGs and on the graphs produced by running random task streams
  through the real runtime.
* **No traversal** — a ``precedes`` query costs a constant number of
  label-store lookups (at most two ``dict.get`` calls) and zero BFS
  walks, independent of graph size.
* **Scaling** — the soundness-harness helpers (``missing_pairs`` /
  ``contains_transitively``) issue no BFS traversals: a 2k-task check
  performs zero ``ancestors_of`` calls, where the BFS reference performs
  one per distinct later task.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Runtime
from repro.runtime.dependence import DependenceGraph
from repro.runtime.order import OrderMaintainer
from repro.visibility.base import INITIAL_TASK_ID

from tests.conftest import random_programs


# ----------------------------------------------------------------------
# strategies and helpers
# ----------------------------------------------------------------------
@st.composite
def random_dags(draw, max_tasks: int = 28):
    """Dependence lists of a random DAG in program order: task ``t``
    depends on a random subset of ``0..t-1``."""
    n = draw(st.integers(1, max_tasks))
    edges: list[list[int]] = []
    for t in range(n):
        upper = min(4, t)
        k = draw(st.integers(0, upper))
        deps = draw(st.sets(st.integers(0, t - 1), min_size=k, max_size=k)) \
            if t else set()
        edges.append(sorted(deps))
    return edges


def build_graph(edges, graph=None) -> DependenceGraph:
    g = DependenceGraph() if graph is None else graph
    for tid, deps in enumerate(edges):
        g.add_task(tid, deps)
    return g


def reference_missing_pairs(graph: DependenceGraph, pairs):
    """``missing_pairs`` answered by BFS alone: one ``ancestors_of``
    walk per distinct later task."""
    closure: dict[int, set[int]] = {}
    out = []
    for earlier, later in pairs:
        if later not in closure:
            closure[later] = graph.ancestors_of(later)
        if earlier not in closure[later]:
            out.append((earlier, later))
    return out


class CountingGraph(DependenceGraph):
    """DependenceGraph that counts BFS traversals (the operation the
    label fast path exists to eliminate)."""

    def __init__(self) -> None:
        super().__init__()
        self.bfs_calls = 0

    def ancestors_of(self, task_id: int) -> set[int]:
        self.bfs_calls += 1
        return super().ancestors_of(task_id)


class CountingLabelStore(dict):
    """Label dict instrumented to count lookups — the *only* data
    structure a query is allowed to touch."""

    gets = 0

    def get(self, key, default=None):
        CountingLabelStore.gets += 1
        return super().get(key, default)


# ----------------------------------------------------------------------
# exactness: labels agree with brute-force BFS
# ----------------------------------------------------------------------
class TestExactness:
    @given(random_dags())
    def test_precedes_matches_bfs_on_random_dags(self, edges):
        g = build_graph(edges)
        om = g.order_maintainer
        assert om is not None
        n = len(edges)
        for b in range(n):
            bfs_ancestors = g.ancestors_of(b)
            for a in range(n):
                want = a in bfs_ancestors
                assert om.precedes(a, b) is want, (a, b, edges)
            # the decoded bitmap is the whole ancestor set at once
            assert om.ancestors(b) == bfs_ancestors

    @given(random_dags())
    def test_label_invariants(self, edges):
        g = build_graph(edges)
        om = g.order_maintainer
        levels = g.levels()
        for tid, deps in enumerate(edges):
            label = om.label(tid)
            assert label.index == tid
            assert label.level == levels[tid]
            ancestors = g.ancestors_of(tid)
            assert label.low == min(ancestors | {tid})
            # reach includes the task's own bit
            assert (label.reach >> tid) & 1

    @given(random_programs())
    @settings(max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    def test_runtime_labels_match_bfs(self, program):
        """Labels assigned during real launches (through every coherence
        algorithm's reported dependences) decode to the BFS closure."""
        tree, initial, stream = program
        rt = Runtime(tree, initial, algorithm="raycast")
        rt.replay(stream)
        om = rt.graph.order_maintainer
        assert om is not None
        for tid in rt.graph.task_ids:
            assert om.ancestors(tid) == rt.graph.ancestors_of(tid)

    def test_unlabelled_and_negative_ids(self):
        om = OrderMaintainer()
        om.assign(0, [])
        assert om.precedes(0, 5) is None       # unlabelled target: no answer
        assert om.precedes(5, 0) is False      # unlabelled source: exact no
        assert om.precedes(INITIAL_TASK_ID, 0) is False
        assert om.reach_mask(INITIAL_TASK_ID) == 0
        assert om.ancestors(7) is None
        assert om.precedes(0, 0) is False      # strict order: irreflexive


# ----------------------------------------------------------------------
# the no-traversal proof: constant lookups per query, zero BFS
# ----------------------------------------------------------------------
class TestNoTraversal:
    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_constant_lookups_per_query(self, n):
        """Cost per query must not grow with the graph: at most two label
        lookups (source + target), never a walk over the structure."""
        om = OrderMaintainer()
        om._labels = CountingLabelStore()
        for t in range(n):
            om.assign(t, [t - 1] if t else [])
        CountingLabelStore.gets = 0
        queries = 0
        for a in range(0, n, 7):
            for b in range(0, n, 5):
                om.precedes(a, b)
                queries += 1
        assert CountingLabelStore.gets <= 2 * queries

    def test_oracle_never_walks_the_graph(self):
        g = CountingGraph()
        for t in range(200):
            g.add_task(t, [t - 1] if t else [])
        om = g.order_maintainer
        for a in range(0, 200, 3):
            for b in range(0, 200, 3):
                assert om.precedes(a, b) is (a < b)
        assert g.bfs_calls == 0

    def test_soundness_check_scaling_2k_chain(self):
        """The 2k-task soundness check: zero BFS from the labels, one BFS
        per distinct later task from the reference — and measurably
        faster wall-clock."""
        n = 2048
        chain = [[t - 1] if t else [] for t in range(n)]
        pairs = [(0, j) for j in range(1, n)]
        graph = build_graph(chain, CountingGraph())

        t0 = time.perf_counter()
        assert graph.missing_pairs(pairs) == []
        labelled_seconds = time.perf_counter() - t0
        assert graph.bfs_calls == 0

        t0 = time.perf_counter()
        assert reference_missing_pairs(graph, pairs) == []
        bfs_seconds = time.perf_counter() - t0
        assert graph.bfs_calls == n - 1

        # On a 2k chain the BFS reference does ~n²/2 node visits versus
        # the label path's n bit tests; any sane machine shows the gap.
        assert labelled_seconds < bfs_seconds


# ----------------------------------------------------------------------
# the graph helpers against the BFS reference
# ----------------------------------------------------------------------
class TestGraphHelpers:
    @given(random_dags())
    @settings(max_examples=25)
    def test_helpers_match_ancestors_reference(self, edges):
        g = build_graph(edges)
        n = len(edges)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        missing = reference_missing_pairs(g, pairs)
        assert g.missing_pairs(pairs) == missing
        covered = [p for p in pairs if p not in set(missing)]
        assert g.contains_transitively(covered)
        for pair in missing:
            assert not g.contains_transitively([pair])

    def test_negative_id_rejected(self):
        g = DependenceGraph()
        with pytest.raises(ValueError, match="non-negative"):
            g.add_task(-1, [])
        assert len(g) == 0
