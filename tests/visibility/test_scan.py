"""The dependence scan: ``scan_dependences`` against a scalar reference.

The property: for any privilege mix (reads, writes, reductions with
distinct operators, collapsed summaries, repeated task ids, empty
domains), any query space and any pre-collected dependence set, the scan
produces the same dependences, the same meter totals and the same
provenance edge/prune records as :func:`reference_scan` — a per-entry
``privilege.interferes`` plus scalar ``space.overlaps`` walk that never
touches the batched overlap kernel.  Plus the scan-path regression that
entries already collected in ``deps`` at scan start must not reach the
kernel at all.
"""

import numpy as np
from hypothesis import given, strategies as st

import repro.visibility.history as hist_mod
from repro.geometry.index_space import IndexSpace
from repro.obs import provenance as prov
from repro.privileges import READ, READ_WRITE, reduce
from repro.visibility.history import (HistoryEntry, RegionValues,
                                      scan_dependences)
from repro.visibility.meter import CostMeter

from tests.conftest import index_spaces

PRIVILEGES = [READ, READ_WRITE, reduce("sum"), reduce("max")]


def make_entry(privilege, indices, task_id, collapsed=frozenset()):
    domain = IndexSpace.from_indices(indices)
    if privilege.is_read:
        values = None
    else:
        values = RegionValues(domain,
                              np.arange(domain.size, dtype=np.float64))
    return HistoryEntry(privilege, domain, values, task_id, collapsed)


def reference_scan(privilege, space, entries, deps, meter):
    """The specification of a dependence scan, one entry at a time:
    privilege interference first, then the scalar domain-overlap test."""
    led = prov.active_ledger()
    for entry in entries:
        meter.count("entries_scanned")
        if entry.task_id in deps and not entry.collapsed_ids:
            continue
        if not privilege.interferes(entry.privilege):
            continue
        meter.count("intersection_tests")
        if space.overlaps(entry.domain):
            deps.add(entry.task_id)
            deps.update(entry.collapsed_ids)
            led.edge(entry.task_id,
                     "summary" if entry.collapsed_ids else "history",
                     prov.privilege_label(entry.privilege),
                     prov.domain_desc(entry.domain),
                     collapsed=entry.collapsed_ids)
        else:
            led.prune(entry.task_id, "disjoint",
                      prov.domain_desc(entry.domain))


def run_scan(scan, entries, privilege, space, seed_deps=()):
    """One scan under a fresh meter and ledger; returns every observable."""
    deps = set(seed_deps)
    meter = CostMeter()
    led = prov.ProvenanceLedger(enabled=True)
    prev = prov.set_ledger(led)
    try:
        led.begin_access(10**6, "x", "test", privilege, space)
        scan(privilege, space, list(entries), deps, meter)
        led.end_access()
    finally:
        prov.set_ledger(prev)
    (record,) = led.snapshot()
    return deps, meter.snapshot(), record.edges, record.pruned


# ----------------------------------------------------------------------
# the equivalence property
# ----------------------------------------------------------------------
entry_specs = st.lists(
    st.tuples(st.integers(0, len(PRIVILEGES) - 1),
              st.lists(st.integers(0, 40), min_size=0, max_size=10),
              st.booleans(),   # collapsed summary?
              st.booleans()),  # reuse the previous task id?
    min_size=0, max_size=24)


def build_history(specs):
    entries = []
    for i, (pk, indices, collapsed, dup) in enumerate(specs):
        task_id = max(0, i - 1) if dup else i
        if collapsed and indices:
            entries.append(make_entry(
                READ_WRITE, indices, task_id,
                frozenset({1000 + 2 * i, 1001 + 2 * i})))
        else:
            entries.append(make_entry(PRIVILEGES[pk], indices, task_id))
    return entries


class TestScanMatchesReference:
    @given(specs=entry_specs,
           pk=st.integers(0, len(PRIVILEGES) - 1),
           space=index_spaces(max_index=48, min_size=0, max_size=16),
           seed=st.lists(st.integers(0, 23), max_size=4))
    def test_scan_matches_reference(self, specs, pk, space, seed):
        entries = build_history(specs)
        privilege = PRIVILEGES[pk]
        got = run_scan(scan_dependences, entries, privilege, space,
                       seed_deps=seed)
        want = run_scan(reference_scan, entries, privilege, space,
                        seed_deps=seed)
        assert got == want

    def test_empty_history(self):
        space = IndexSpace.from_indices([1, 2, 3])
        deps, counts, edges, pruned = run_scan(
            scan_dependences, [], READ_WRITE, space)
        assert deps == set()
        assert counts == {}
        assert edges == [] and pruned == []

    def test_single_entry(self):
        space = IndexSpace.from_indices([1, 2, 3])
        entry = make_entry(READ_WRITE, [2, 5], 7)
        deps, counts, edges, pruned = run_scan(
            scan_dependences, [entry], READ, space)
        assert deps == {7}
        assert counts == {"entries_scanned": 1, "intersection_tests": 1}
        assert len(edges) == 1 and pruned == []

    def test_single_disjoint_entry(self):
        space = IndexSpace.from_indices([10, 11])
        entry = make_entry(READ_WRITE, [2, 5], 7)
        deps, counts, edges, pruned = run_scan(
            scan_dependences, [entry], READ, space)
        assert deps == set()
        assert counts == {"entries_scanned": 1, "intersection_tests": 1}
        assert edges == [] and len(pruned) == 1

    def test_empty_query_space(self):
        space = IndexSpace.from_indices([])
        entries = [make_entry(READ_WRITE, [1, 2], i) for i in range(3)]
        got = run_scan(scan_dependences, entries, READ, space)
        assert got == run_scan(reference_scan, entries, READ, space)
        assert got[0] == set()


class TestNoZeroMeterKeys:
    """The scan tallies locally and flushes once per walk; a tally of
    zero must add no key (fingerprints hash the key set)."""

    def test_no_entries_leaves_meter_empty(self):
        meter = CostMeter()
        deps: set[int] = set()
        scan_dependences(READ_WRITE, IndexSpace.from_range(0, 4), [], deps,
                         meter)
        assert deps == set()
        assert meter.snapshot() == {}

    def test_all_entries_already_dependences(self):
        entries = [make_entry(READ_WRITE, [i, i + 1], i) for i in range(5)]
        meter = CostMeter()
        deps = {0, 1, 2, 3, 4}
        scan_dependences(READ_WRITE, IndexSpace.from_range(0, 8), entries,
                         deps, meter)
        assert deps == {0, 1, 2, 3, 4}
        assert meter.snapshot() == {"entries_scanned": 5}


# ----------------------------------------------------------------------
# regression: pre-collected deps never reach the kernel
# ----------------------------------------------------------------------
def _spy_kernel(monkeypatch):
    calls = []
    real = hist_mod.batch_overlaps

    def spy(query, candidates):
        calls.append(len(candidates))
        return real(query, candidates)

    monkeypatch.setattr(hist_mod, "batch_overlaps", spy)
    return calls


class TestDepsAtStartMasking:
    def test_kernel_sees_only_untested_entries(self, monkeypatch):
        """Entries whose task is already a dependence at scan start are
        skipped by the loop, so precomputing their verdicts is pure
        waste — the kernel input must exclude them."""
        entries = [make_entry(READ_WRITE, [i, i + 1], i) for i in range(6)]
        space = IndexSpace.from_indices([0, 1, 2, 3, 4, 5, 6])
        deps = {0, 1, 2, 3}
        kernel = _spy_kernel(monkeypatch)
        meter = CostMeter()
        scan_dependences(READ, space, entries, deps, meter)
        assert kernel == [2], "pre-collected deps must be masked out"
        assert deps == {0, 1, 2, 3, 4, 5}
        # meter counts replay the unmasked control flow bit-identically
        assert meter.snapshot() == {"entries_scanned": 6,
                                    "intersection_tests": 2}

    def test_collapsed_summaries_still_tested(self, monkeypatch):
        """A summary whose max id is already a dependence still carries
        other collapsed ids, so it must stay in the kernel input."""
        summary = make_entry(READ_WRITE, [1, 2], 5, frozenset({3, 4, 5}))
        other = make_entry(READ_WRITE, [2, 3], 7)
        third = make_entry(READ_WRITE, [3, 4], 8)
        space = IndexSpace.from_indices([1, 2, 3, 4])
        deps = {5}
        kernel = _spy_kernel(monkeypatch)
        scan_dependences(READ, space, [summary, other, third], deps,
                         CostMeter())
        assert kernel == [3]
        assert deps == {3, 4, 5, 7, 8}
