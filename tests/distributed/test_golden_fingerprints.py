"""Golden analysis fingerprints: the Figure 1 stream, pinned as constants.

``analysis_fingerprint`` hashes the dependence graph, the structure
tokens *and* the meter counts, so any change to a dependence scan, a
refinement walk or a meter charge moves it.  The constants below were
recorded from the single-scan code path (object walk plus interleaved
refinement) and repeat exactly across fresh interpreters; a refactor
that is meant to be behaviour-preserving must leave every one of them
unchanged, for every algorithm, plain and sharded on every backend.

Regenerate only for an intended behaviour change, and say why in the
commit: rerun the two helpers below and paste their output.
"""

import pytest

from repro import ALGORITHMS, Runtime
from repro.distributed import BACKENDS, ShardedRuntime
from repro.distributed.verify import analysis_fingerprint

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree

#: ``analysis_fingerprint`` of a plain ``Runtime`` after two iterations of
#: the Figure 1 stream.  A control-replicated shard evolves the identical
#: analysis state, so each shard of a 4-shard run reports the same value
#: on every backend.
GOLDEN = {
    "painter":
        "c6bf08b7ed4d88311b8ab42158009f4faddb3b3b9c6bca510b191c8ca0f75623",
    "tree_painter":
        "7e40babe7c859bdc0d38db17dcd04a1d8585ce23b6ef13108ec1d242c6cb19aa",
    "warnock":
        "8d553f1ad2016f6336d2f58f29334ed947ed6ad5627d4590709d6ba219b86054",
    "raycast":
        "a4e9bf04250ee1bba138e86ead824fbe162dc5ce3ab6f47b4d4a8c621ba3640c",
    "zbuffer":
        "b99c886bc5238500484f39a691f79c22f7bdcf4aed6251fe913c262b818697db",
}


def _plain_fingerprint(algo: str) -> str:
    tree, P, G = make_fig1_tree()
    rt = Runtime(tree, fig1_initial(tree), algorithm=algo)
    rt.replay(fig1_stream(tree, P, G, 2))
    return analysis_fingerprint(rt)


def _sharded_fingerprints(algo: str, backend: str, shards: int = 4) -> set:
    tree, P, G = make_fig1_tree()
    with ShardedRuntime(tree, fig1_initial(tree), shards=shards,
                        algorithm=algo, backend=backend) as srt:
        reports = srt.analyze(fig1_stream(tree, P, G, 2))
    return {r.fingerprint for r in reports}


def test_golden_covers_every_algorithm():
    assert set(GOLDEN) == set(ALGORITHMS)


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_plain_runtime_matches_golden(algo):
    assert _plain_fingerprint(algo) == GOLDEN[algo], algo


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_sharded_matches_golden(algo, backend):
    assert _sharded_fingerprints(algo, backend) == {GOLDEN[algo]}, \
        (algo, backend)
