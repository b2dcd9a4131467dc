"""End-to-end tracing through the sharded backends.

Worker-side spans must ship back with the analyze replies, land in the
driver tracer with shard-attributed pid/tid, and appear on the matching
:class:`ShardReport`; recovery incidents must appear as instant events.
"""

import pytest

from repro.distributed import ShardedRuntime
from repro.distributed.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.obs import tracer as obs

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree

FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.01, multiplier=2.0,
                         max_delay=0.05)


@pytest.fixture
def driver_tracer():
    """Install a fresh enabled tracer for the test, restore after."""
    tracer = obs.Tracer()
    previous = obs.set_tracer(tracer)
    yield tracer
    obs.set_tracer(previous)


def analyze_fig1(driver_tracer, **kwargs):
    tree, P, G = make_fig1_tree()
    srt = ShardedRuntime(tree, fig1_initial(tree), shards=3,
                         checkpoint_interval=2, **kwargs)
    with srt:
        reports = srt.analyze(fig1_stream(tree, P, G, iterations=1))
    return reports, driver_tracer.snapshot()


class TestBackendAttribution:
    def test_serial_backend_reference_spans(self, driver_tracer):
        reports, buffer = analyze_fig1(driver_tracer, backend="serial")
        replica = [s for s in buffer.spans
                   if s.category == "distributed.replica"]
        assert {s.name for s in replica} == {
            "analyze.shard0", "analyze.shard1", "analyze.shard2"}
        # Reference replica runs on the driver process.
        assert all(s.pid == 0 for s in replica
                   if s.name == "analyze.shard0")
        # Hosted replicas 1..n-1 are attributed pid shard+1 / tid shard.
        others = {(s.pid, s.tid) for s in replica
                  if s.name != "analyze.shard0"}
        assert others == {(2, 1), (3, 2)}

    def test_shared_worker_replica_spans(self, driver_tracer):
        """One worker hosting both remote replicas still attributes each
        replica's span to its own shard."""
        reports, buffer = analyze_fig1(driver_tracer, backend="process",
                                       max_workers=1, recv_timeout=10.0,
                                       retry=FAST_RETRY)
        replica = {s.name: (s.pid, s.tid) for s in buffer.spans
                   if s.category == "distributed.replica"}
        assert replica["analyze.shard1"] == (2, 1)
        assert replica["analyze.shard2"] == (3, 2)

    def test_task_spans_cover_the_stream(self, driver_tracer):
        reports, buffer = analyze_fig1(driver_tracer, backend="serial")
        tasks = [s for s in buffer.spans if s.category == "task"]
        assert {s.args["task_id"] for s in tasks} == set(range(6))
        assert all("deps" in s.args for s in tasks)


class TestProcessBackend:
    def test_worker_spans_ship_back_and_attach_to_reports(
            self, driver_tracer):
        reports, buffer = analyze_fig1(driver_tracer, backend="process",
                                       recv_timeout=10.0, retry=FAST_RETRY)
        replica = [s for s in buffer.spans
                   if s.category == "distributed.replica"]
        by_shard = {s.args["shard"]: s for s in replica}
        assert set(by_shard) == {0, 1, 2}
        for shard in (1, 2):
            span = by_shard[shard]
            assert (span.pid, span.tid) == (shard + 1, shard)
        # Worker clocks are offset-aligned into the driver timeline:
        # shipped spans must overlap the driver's own span window.
        driver_end = max(s.end for s in buffer.spans if s.pid == 0)
        driver_start = min(s.start for s in buffer.spans if s.pid == 0)
        for shard in (1, 2):
            assert driver_start <= by_shard[shard].start <= driver_end

        for report in reports:
            if report.shard == 0:
                continue
            assert report.spans, f"shard {report.shard} shipped no spans"
            assert all(s.tid == report.shard for s in report.spans)

    def test_disabled_tracer_ships_nothing(self):
        # The default process-global tracer is disabled — workers must
        # not pay for or ship span buffers.
        tree, P, G = make_fig1_tree()
        srt = ShardedRuntime(tree, fig1_initial(tree), shards=3,
                             backend="process", recv_timeout=10.0,
                             retry=FAST_RETRY)
        with srt:
            reports = srt.analyze(fig1_stream(tree, P, G, iterations=1))
        assert all(r.spans == () for r in reports)

    def test_recovery_instants_for_pinned_crash(self, driver_tracer):
        # op 0 is the first (and only) analyze request this single-window
        # run sends worker 0 — the crash fires mid-analysis.
        plan = FaultPlan(events=(FaultEvent("crash", worker=0, op=0),))
        reports, buffer = analyze_fig1(
            driver_tracer, backend="process", faults=plan,
            recv_timeout=10.0, retry=FAST_RETRY)
        names = [i.name for i in buffer.instants]
        assert "fault.crash" in names
        assert "respawn" in names
        crash = next(i for i in buffer.instants if i.name == "fault.crash")
        assert crash.category == "recovery"
        assert crash.args["worker"] == 0
        respawn = next(i for i in buffer.instants if i.name == "respawn")
        assert respawn.args["incarnation"] >= 1
        # Determinism contract still holds through the recovery.
        assert len({r.fingerprint for r in reports}) == 1
