"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import metrics  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from repro.visibility import RayCastAlgorithm  # noqa: E402
from repro.visibility.base import AnalysisOutcome  # noqa: E402

TINY = {
    "init_cold": wl.Config(pieces=4),
    "steady_warm": wl.Config(pieces=4, warm_iterations=1,
                             timed_iterations=1),
    "service_mixed": wl.Config(pieces=4, sessions=6),
}


def failed(rounds) -> int:
    return sum(rnd.failed for rnd in rounds)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_rounds_pass_their_checks(workload, tmp_path):
    rounds = run.run_rounds(workload, seed=3, seconds=0, trace=True,
                            config=TINY[workload])
    assert [rnd.traced for rnd in rounds] == [False, True]
    assert failed(rounds) == 0
    assert all(rnd.attempted > 0 for rnd in rounds)
    # tracing must not perturb a single deterministic count
    assert run.ledger_drift(rounds, tmp_path / "ledger.json", "code") == []
    layers = rounds[1].layers
    assert set(layers) | {"trace.overhead", "ledger.count_drift"} == {
        name for name, *_ in metrics.PER_LAYER}
    assert layers["runtime.tasks"] > 0
    assert layers["geometry.kernel_calls"] > 0
    if workload == "service_mixed":
        assert layers["distributed.analyze_share"] > 0
        assert layers["service.fresh_frac"] > 0
    e2e = metrics.end_to_end(rounds[:1], 0.1, 50.0)
    assert all(value > 0 for value in e2e.values())


def test_dropped_dependence_is_caught(monkeypatch):
    """Dropping the dependences of one region argument must fail the
    soundness check and make the error rate non-zero."""
    original = RayCastAlgorithm.materialize

    def materialize(self, privilege, region):
        outcome = original(self, privilege, region)
        if (self.field == "in" and privilege.is_write
                and region.name.endswith("P[0]") and outcome.dependences):
            return AnalysisOutcome(outcome.values, frozenset())
        return outcome

    monkeypatch.setattr(RayCastAlgorithm, "materialize", materialize)
    config = replace(TINY["steady_warm"], timed_iterations=2)
    rounds = run.run_rounds("steady_warm", seed=3, seconds=0, trace=False,
                            config=config)
    problems = [p for rnd in rounds for p in rnd.problems]
    assert failed(rounds) == 1
    assert problems[0][0] == "stencil/raycast"
    assert "oracle dependences not covered" in problems[0][1]


def test_a_second_round_repeats_the_first(tmp_path):
    rounds = [wl.analysis_round(TINY["init_cold"], 5, wl.Spec())
              for _ in range(2)]
    assert run.ledger_drift(rounds, tmp_path / "l.json", "code") == []
    rounds[1].ledger["stencil/raycast"]["entries_scanned"] += 1
    assert len(run.ledger_drift(rounds, tmp_path / "l.json", "code")) == 1


def test_service_plan_covers_every_pair_and_follows_the_seed():
    config = wl.CONFIGS["service_mixed"]
    plan = wl.service_plan(config, 7)
    assert plan == wl.service_plan(config, 7)
    assert plan != wl.service_plan(config, 8)
    for pairs in plan.values():
        assert sorted(pairs) == sorted(wl.SERVICE_PAIRS * 8)


def test_session_waits_charge_each_runtime_to_its_tenant():
    sessions = [("a/0", "a", 0.0, 1.0, None), ("b/0", "b", 0.1, 1.2, None),
                ("a/1", "a", 1.0, 2.0, None)]
    intervals = [("build", 1, 0.2, 0.3, {}), ("analyze", 1, 0.3, 0.9, {}),
                 ("analyze", 1, 1.1, 1.5, {}),
                 ("build", 2, 0.2, 0.4, {}), ("analyze", 2, 0.4, 1.1, {})]
    waits = metrics.session_waits(sessions, intervals)
    assert waits == pytest.approx({"a/0": 0.3, "b/0": 0.2, "a/1": 0.6})


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == metrics.PER_LAYER
    layers = json.loads((HERE / "layers.json").read_text())
    named = {m for layer in layers["layers"].values()
             for m in layer["metrics"]}
    assert named == {name for name, *_ in metrics.PER_LAYER}


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "init_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
