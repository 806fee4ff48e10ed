"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

They run the benchmark through its command line, for one pass (``--seconds 0``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# counts that must repeat exactly for a seed; only timings may vary
REPEATED_COUNTS = ["agg.steps", "policy.rollouts", "baseline.greedy_calls",
                   "baseline.candidates_per_call", "data.days", "env.replays", "llf.calls"]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    done = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_and_cost_repeat_exactly(workload):
    args = ["--workload", workload, "--seed", "3", "--seconds", "0"]
    traced = [bench(*args, "--trace", "1") for _ in range(2)]
    plain = [bench(*args, "--trace", "0") for _ in range(2)]
    for code, result in traced + plain:
        assert code == 0 and result["correct"] and result["failed"] == 0, result
    layers = [{k: v["value"] for k, v in r["metrics"].items()} for _, r in traced]
    assert [layers[0][k] for k in REPEATED_COUNTS] == [layers[1][k] for k in REPEATED_COUNTS]
    assert layers[0]["agg.steps"] > 0 and layers[0]["env.replay_mismatch"] == 0
    costs = [r["metrics"]["heldout_cost_ratio"]["value"] for _, r in plain]
    assert costs[0] == costs[1]
    assert set(plain[0][1]["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced[0][1]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for section, (_, result) in (("end_to_end", plain[0]), ("per_layer", traced[0])):
        assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC[section])


def test_replay_check_catches_wrong_reward_and_infeasible_actions():
    inputs = workloads.PgTrain().setup(5, None)
    day = inputs["train"][0]
    idle = workloads.Evaluated("pg", "d", day, 0.0, (0,) * day.horizon)  # zero-laxity EVs left idle
    assert "replay raised" in workloads.replay_check(idle)
    reward, actions = workloads.policy.evaluate_policy(
        day, inputs["params"], inputs["scaler"], workloads.MAX_LAXITY)
    good = workloads.Evaluated("pg", "d", day, reward, actions)
    assert workloads.replay_check(good) is None
    assert "differs" in workloads.replay_check(good._replace(reward=reward - 1.0))


def test_failed_gate_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "replay_check", lambda item: "forced mismatch")
    code = run.main(["--workload", "qe_train", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == workloads.N_HELDOUT_DAYS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result = bench("--workload", "pg_train", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert code != 0 and result is None
