"""Smoke test of scripts/run_experiment.py, run as a script."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_experiment_writes_a_parsable_comparison(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("EVCS_OUT_DIR", None)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiment.py"),
         "--iterations", "2", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stderr
    with (tmp_path / "results" / "compare.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and rows[-1]["day"] == "average"
    assert [row["day"] for row in rows[:-1]] == [f"day{i:02d}" for i in range(len(rows) - 1)]
    for row in rows:
        assert set(row) == {"day", "reward_a", "reward_b", "improvement_pct"}
        assert math.isfinite(float(row["reward_a"])) and math.isfinite(float(row["reward_b"]))
        float(row["improvement_pct"])  # a number, or nan where undefined
