"""Differential harness: the geometry fast path is observationally invisible.

Analysis fingerprints hash the dependence graph, the equivalence-set
structure tokens, *and* the cost-meter counter snapshot.  These tests run
the same program on the process-wide operation cache + batched kernel and
on the uncached reference (``GeometryCache(enabled=False)`` installed on
the calling thread) for every coherence algorithm, and require
bit-identical fingerprints.  Any cached result that diverges from a fresh
computation, or any batched verdict that differs from the scalar path, or
any stray meter count introduced by the fast path, lands here.  The
sharded backends are pinned to the same fingerprints by
``test_golden_fingerprints.py``.
"""

import pytest

from repro import ALGORITHMS, Runtime
from repro.distributed.verify import analysis_fingerprint
from repro.geometry.fastpath import (GeometryCache, geometry_cache,
                                     reset_geometry_cache,
                                     tenant_geometry_cache)

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree


@pytest.fixture(autouse=True)
def clean_cache():
    reset_geometry_cache()
    yield
    reset_geometry_cache()


class TestCacheDifferential:
    @pytest.mark.parametrize("algo", list(ALGORITHMS))
    def test_plain_runtime_bit_identical(self, algo):
        tree, P, G = make_fig1_tree()
        stream = fig1_stream(tree, P, G, 2)
        rt = Runtime(tree, fig1_initial(tree), algorithm=algo)
        rt.replay(stream)
        cached = analysis_fingerprint(rt)
        if algo != "zbuffer":  # zbuffer is per-element: no set algebra
            stats = geometry_cache().stats()
            assert stats["hits"] + stats["misses"] > 0, \
                "the fast path never ran — the differential proves nothing"
        with tenant_geometry_cache(GeometryCache(enabled=False)):
            rt2 = Runtime(tree, fig1_initial(tree), algorithm=algo)
            rt2.replay(stream)
            uncached = analysis_fingerprint(rt2)
        assert cached == uncached, algo
