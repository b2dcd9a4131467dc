"""Region values, history entries, and the blending kernel of section 3.1.

A :class:`RegionValues` pairs an index-space domain with a value array
aligned element-for-element with ``domain.indices``.  The three set-lifted
operators of Figure 7 —

* ``X/Y``  → :meth:`RegionValues.restrict`
* ``X\\Y`` → :meth:`RegionValues.subtract`
* ``X ⊕ Y`` → :meth:`RegionValues.overlay`

— plus the pointwise-lifted reduction fold are implemented here once and
shared by every algorithm.  The blending function ``b`` of section 3.1
(writes opaque, reductions semi-transparent, reads transparent) appears as
:func:`paint_history`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.errors import CoherenceError
from repro.geometry.fastpath import batch_overlaps
from repro.geometry.index_space import IndexSpace
from repro.obs import provenance as prov
from repro.privileges import Privilege
from repro.visibility.meter import CostMeter


class RegionValues:
    """Values over an index-space domain.

    ``values[k]`` is the value of element ``domain.indices[k]``.  Instances
    are conceptually immutable: every operation returns a new object (the
    arrays themselves may be shared views when provably safe).
    """

    __slots__ = ("domain", "values")

    def __init__(self, domain: IndexSpace, values: np.ndarray) -> None:
        values = np.asarray(values)
        if values.shape != (domain.size,):
            raise CoherenceError(
                f"values shape {values.shape} does not match domain size "
                f"{domain.size}")
        self.domain = domain
        self.values = values

    # ------------------------------------------------------------------
    @staticmethod
    def filled(domain: IndexSpace, fill: float | int,
               dtype: np.dtype | type = np.float64) -> "RegionValues":
        """A constant-valued region."""
        arr = np.empty(domain.size, dtype=dtype)
        arr.fill(fill)
        return RegionValues(domain, arr)

    @property
    def size(self) -> int:
        """Number of elements."""
        return self.domain.size

    @property
    def is_empty(self) -> bool:
        """True when the domain is empty."""
        return self.domain.is_empty

    def copy(self) -> "RegionValues":
        """Deep copy (fresh value buffer)."""
        return RegionValues(self.domain, self.values.copy())

    # ------------------------------------------------------------------
    # Figure 7's set operators lifted to value arrays
    # ------------------------------------------------------------------
    def restrict(self, space: IndexSpace) -> "RegionValues":
        """``X/Y``: the subset of this region sharing points with ``space``."""
        common = self.domain & space
        if common.size == self.domain.size:
            return self
        pos = self.domain.positions_of(common)
        return RegionValues(common, self.values[pos])

    def subtract(self, space: IndexSpace) -> "RegionValues":
        """``X\\Y``: the subset of this region not sharing points with
        ``space``."""
        remaining = self.domain - space
        if remaining.size == self.domain.size:
            return self
        pos = self.domain.positions_of(remaining)
        return RegionValues(remaining, self.values[pos])

    def overlay(self, other: "RegionValues") -> "RegionValues":
        """``X ⊕ Y``: union of domains, ``other``'s values winning on the
        overlap."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        domain = self.domain | other.domain
        out = np.empty(domain.size, dtype=np.result_type(self.values, other.values))
        out[domain.positions_of(self.domain)] = self.values
        out[domain.positions_of(other.domain)] = other.values
        return RegionValues(domain, out)

    def _same_domain(self, other: "RegionValues") -> bool:
        """Cheap test for the blending fast path: identical domains."""
        return other.domain is self.domain or (
            other.domain.size == self.domain.size
            and other.domain == self.domain)

    def fold_in(self, op, other: "RegionValues") -> "RegionValues":
        """``X ⊕ f(X/Y, Y/X)``: fold ``other`` into this region where the
        domains overlap (Figure 7 line 8)."""
        if self._same_domain(other):
            # the common steady-state case: whole-domain fold, no gathers
            return RegionValues(self.domain, op.fold(self.values,
                                                     other.values))
        common = self.domain & other.domain
        if common.is_empty:
            return self
        out = self.values.copy()
        mine = self.domain.positions_of(common)
        theirs = other.domain.positions_of(common)
        out[mine] = op.fold(out[mine], other.values[theirs])
        return RegionValues(self.domain, out)

    def write_onto(self, other: "RegionValues") -> "RegionValues":
        """``(X ⊕ Y)/X``: overwrite this region with ``other``'s values on
        the overlap, keeping this domain (Figure 7 line 6)."""
        if self._same_domain(other):
            # full overwrite: adopt the other buffer (copied — histories
            # must never alias task buffers)
            return RegionValues(self.domain, other.values.copy())
        common = self.domain & other.domain
        if common.is_empty:
            return self
        out = self.values.copy()
        out[self.domain.positions_of(common)] = \
            other.values[other.domain.positions_of(common)]
        return RegionValues(self.domain, out)

    def gather_into(self, target_domain: IndexSpace, out: np.ndarray) -> None:
        """Scatter this region's values into a buffer aligned with
        ``target_domain`` (which must contain this domain)."""
        out[target_domain.positions_of(self.domain)] = self.values

    def __repr__(self) -> str:
        return f"RegionValues(size={self.size}, dtype={self.values.dtype})"


@dataclass(frozen=True)
class HistoryEntry:
    """One recorded operation: who (task), how (privilege), what (values).

    ``values`` is ``None`` for read entries — reads never contribute to
    painting but must stay in histories so later writers pick up
    write-after-read dependences.

    ``collapsed_ids`` appears on *summary* entries produced by history
    compaction: a long prefix of operations is folded into one opaque
    write holding the blended values, and the ids of every collapsed task
    ride along so dependence scans stay sound (conservatively — a summary
    interferes like a write even where the collapsed operations were
    reductions).
    """

    privilege: Privilege
    domain: IndexSpace
    values: Optional[RegionValues]
    task_id: int
    collapsed_ids: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.privilege.is_read:
            if self.values is not None:
                raise CoherenceError("read entries must not carry values")
        else:
            if self.values is None or (self.values.domain is not self.domain
                                       and self.values.domain != self.domain):
                raise CoherenceError("entry values must live on the entry domain")

    @property
    def is_visible(self) -> bool:
        """Whether the entry contributes to painted values (writes and
        reductions do; reads are fully transparent)."""
        return not self.privilege.is_read

    def restricted(self, space: IndexSpace) -> Optional["HistoryEntry"]:
        """The entry restricted to ``space``; None when disjoint."""
        domain = self.domain & space
        if domain.is_empty:
            return None
        if domain.size == self.domain.size:
            return self
        values = None if self.values is None else self.values.restrict(domain)
        return HistoryEntry(self.privilege, domain, values, self.task_id,
                            self.collapsed_ids)

    def __repr__(self) -> str:
        return (f"HistoryEntry(t{self.task_id}, {self.privilege!r}, "
                f"n={self.domain.size})")


def paint_history(current: RegionValues, entries: Iterable[HistoryEntry]
                  ) -> tuple[RegionValues, int]:
    """Apply history entries, oldest first, to a region being materialized.

    This is the blending function ``b`` of section 3.1 applied in the
    oldest-to-newest traversal of Figure 7: a write overlays, a reduction
    folds, a read does nothing.  Returns the painted region and the number
    of elements moved, the ``elements_moved`` tally callers flush to their
    meter once per walk.
    """
    domain = current.domain
    size = current.size
    moved = 0
    for entry in entries:
        if entry.values is None or not domain.bbox_overlaps(entry.domain):
            continue  # reads are transparent (and carry no values)
        moved += min(size, entry.domain.size)
        if entry.privilege.is_write:
            current = current.write_onto(entry.values)
        else:
            assert entry.privilege.redop is not None
            current = current.fold_in(entry.privilege.redop, entry.values)
    return current, moved


def scan_dependences(privilege: Privilege, space: IndexSpace,
                     entries: Iterable[HistoryEntry],
                     deps: set[int],
                     meter: Optional[CostMeter] = None) -> None:
    """Collect task ids of entries that interfere with a new access.

    A dependence exists when the privileges interfere *and* the domains
    truly overlap (content-based coherence, section 3.2).  Every
    algorithm that keeps per-entry domains (painter, tree painter, ray
    casting) finds its dependences through this one walk.

    The exact overlap answers are precomputed for every
    privilege-interfering entry in one :func:`batch_overlaps` pass; the
    loop below then replays the original control flow — including the
    already-a-dependence skip, which consults ``deps`` as it grows — so
    the meter counts are bit-identical to the unbatched scan (analysis
    fingerprints hash those counts).  The walk tallies into locals and
    flushes them to ``meter`` once at the end.
    The provenance ledger (``repro.obs.provenance``) observes the same
    loop: one hoisted enabled-check, then edge/prune records that never
    touch the meter or alter control flow.
    """
    led = prov._LEDGER
    led = led if led.enabled else None
    entries = list(entries)
    interfering = [privilege.interferes(e.privilege) for e in entries]
    # Only entries the loop can actually test go to the kernel: the
    # already-a-dependence skip consults deps *at scan start* here (the
    # loop's growing-deps skip replays below), so pre-collected tasks
    # don't cost kernel work or op-cache churn.
    test_idx = [i for i, ok in enumerate(interfering)
                if ok and (entries[i].collapsed_ids
                           or entries[i].task_id not in deps)]
    overlap: dict[int, bool] = {}
    if len(test_idx) > 1:
        verdicts = batch_overlaps(space,
                                  [entries[i].domain for i in test_idx])
        overlap = dict(zip(test_idx, (bool(v) for v in verdicts)))
    tests = 0
    for i, entry in enumerate(entries):
        if entry.task_id in deps and not entry.collapsed_ids:
            continue
        if not interfering[i]:
            continue
        tests += 1
        hit = overlap[i] if i in overlap else space.overlaps(entry.domain)
        if hit:
            deps.add(entry.task_id)
            if entry.collapsed_ids:
                deps.update(entry.collapsed_ids)
            if led is not None:
                led.edge(entry.task_id,
                         "summary" if entry.collapsed_ids else "history",
                         prov.privilege_label(entry.privilege),
                         prov.domain_desc(entry.domain),
                         collapsed=entry.collapsed_ids)
        elif led is not None:
            led.prune(entry.task_id, "disjoint",
                      prov.domain_desc(entry.domain))
    if meter is not None:
        meter.flush(entries_scanned=len(entries), intersection_tests=tests)
