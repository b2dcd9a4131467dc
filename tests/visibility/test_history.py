"""Tests for RegionValues, HistoryEntry, and the blending kernel."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import READ, READ_WRITE, CoherenceError, IndexSpace, reduce
from repro.reductions import SUM
from repro.visibility.history import (HistoryEntry, RegionValues,
                                      paint_history, scan_dependences)


def rv(indices, values):
    return RegionValues(IndexSpace.from_indices(indices),
                        np.asarray(values, dtype=np.int64))


def as_dict(r: RegionValues) -> dict[int, int]:
    return {int(i): int(v) for i, v in zip(r.domain.indices, r.values)}


class TestRegionValues:
    def test_shape_validated(self):
        with pytest.raises(CoherenceError):
            RegionValues(IndexSpace.from_indices([1, 2]), np.zeros(3))

    def test_filled(self):
        r = RegionValues.filled(IndexSpace.from_indices([3, 7]), 5, np.int64)
        assert as_dict(r) == {3: 5, 7: 5}

    def test_restrict(self):
        r = rv([1, 2, 3], [10, 20, 30])
        out = r.restrict(IndexSpace.from_indices([2, 3, 9]))
        assert as_dict(out) == {2: 20, 3: 30}

    def test_restrict_full_is_shared(self):
        r = rv([1, 2], [10, 20])
        assert r.restrict(IndexSpace.from_indices([1, 2, 3])) is r

    def test_subtract(self):
        r = rv([1, 2, 3], [10, 20, 30])
        assert as_dict(r.subtract(IndexSpace.from_indices([2]))) == \
            {1: 10, 3: 30}

    def test_overlay(self):
        a = rv([1, 2, 3], [10, 20, 30])
        b = rv([2, 4], [99, 40])
        assert as_dict(a.overlay(b)) == {1: 10, 2: 99, 3: 30, 4: 40}
        assert a.overlay(rv([], [])) is a
        assert rv([], []).overlay(b) is b

    def test_fold_in(self):
        a = rv([1, 2, 3], [10, 20, 30])
        b = rv([2, 3, 9], [1, 2, 3])
        assert as_dict(a.fold_in(SUM, b)) == {1: 10, 2: 21, 3: 32}

    def test_fold_in_disjoint_noop(self):
        a = rv([1], [10])
        assert a.fold_in(SUM, rv([5], [1])) is a

    def test_write_onto(self):
        a = rv([1, 2, 3], [10, 20, 30])
        b = rv([2, 9], [77, 88])
        assert as_dict(a.write_onto(b)) == {1: 10, 2: 77, 3: 30}

    def test_gather_into(self):
        target = IndexSpace.from_indices([1, 2, 3, 4])
        out = np.zeros(4, dtype=np.int64)
        rv([2, 4], [20, 40]).gather_into(target, out)
        assert list(out) == [0, 20, 0, 40]

    @given(st.dictionaries(st.integers(0, 30), st.integers(-100, 100),
                           max_size=10),
           st.dictionaries(st.integers(0, 30), st.integers(-100, 100),
                           max_size=10))
    def test_overlay_model(self, da, db):
        a = rv(sorted(da), [da[k] for k in sorted(da)])
        b = rv(sorted(db), [db[k] for k in sorted(db)])
        assert as_dict(a.overlay(b)) == {**da, **db}


class TestHistoryEntry:
    def test_read_entries_carry_no_values(self):
        space = IndexSpace.from_indices([1])
        with pytest.raises(CoherenceError):
            HistoryEntry(READ, space, rv([1], [5]), 0)
        entry = HistoryEntry(READ, space, None, 0)
        assert not entry.is_visible

    def test_visible_entries_need_aligned_values(self):
        space = IndexSpace.from_indices([1, 2])
        with pytest.raises(CoherenceError):
            HistoryEntry(READ_WRITE, space, None, 0)
        with pytest.raises(CoherenceError):
            HistoryEntry(READ_WRITE, space, rv([1], [5]), 0)

    def test_restricted(self):
        entry = HistoryEntry(READ_WRITE, IndexSpace.from_indices([1, 2, 3]),
                             rv([1, 2, 3], [10, 20, 30]), 4)
        sub = entry.restricted(IndexSpace.from_indices([2, 5]))
        assert sub is not None and as_dict(sub.values) == {2: 20}
        assert entry.restricted(IndexSpace.from_indices([9])) is None
        assert entry.restricted(IndexSpace.from_indices([1, 2, 3, 4])) is entry


class TestPaintEntry:
    def test_write_opaque(self):
        cur = rv([1, 2], [0, 0])
        entry = HistoryEntry(READ_WRITE, IndexSpace.from_indices([2, 3]),
                             rv([2, 3], [9, 9]), 0)
        painted, moved = paint_history(cur, [entry])
        assert as_dict(painted) == {1: 0, 2: 9}
        assert moved == 2

    def test_reduce_translucent(self):
        cur = rv([1, 2], [5, 5])
        entry = HistoryEntry(reduce("sum"), IndexSpace.from_indices([2]),
                             rv([2], [3]), 0)
        painted, moved = paint_history(cur, [entry])
        assert as_dict(painted) == {1: 5, 2: 8}
        assert moved == 1

    def test_read_transparent(self):
        cur = rv([1], [5])
        entry = HistoryEntry(READ, IndexSpace.from_indices([1]), None, 0)
        assert paint_history(cur, [entry]) == (cur, 0)

    def test_disjoint_noop(self):
        cur = rv([1], [5])
        entry = HistoryEntry(READ_WRITE, IndexSpace.from_indices([9]),
                             rv([9], [7]), 0)
        assert paint_history(cur, [entry]) == (cur, 0)


class TestScanDependences:
    def test_interference_and_overlap_required(self):
        entries = [
            HistoryEntry(READ_WRITE, IndexSpace.from_indices([1, 2]),
                         rv([1, 2], [0, 0]), 0),
            HistoryEntry(READ, IndexSpace.from_indices([1]), None, 1),
            HistoryEntry(READ_WRITE, IndexSpace.from_indices([8]),
                         rv([8], [0]), 2),
        ]
        deps: set[int] = set()
        scan_dependences(READ, IndexSpace.from_indices([1]), entries, deps)
        # depends on the write (0); not on the read (read/read);
        # not on the disjoint write (2)
        assert deps == {0}

    def test_same_reduction_no_dep(self):
        entries = [HistoryEntry(reduce("sum"), IndexSpace.from_indices([1]),
                                rv([1], [3]), 0)]
        deps: set[int] = set()
        scan_dependences(reduce("sum"), IndexSpace.from_indices([1]),
                         entries, deps)
        assert deps == set()
        scan_dependences(reduce("max"), IndexSpace.from_indices([1]),
                         entries, deps)
        assert deps == {0}
