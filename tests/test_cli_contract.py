"""Input contract of the `evcs` command line: whatever a config, a day file
or a model file holds, `main` returns an exit code in 0-3 and no exception
escapes it.  Every input is a one-edit mutation of a tiny valid one (two
days of eight slots, models trained for one iteration).  Mutated numbers stay
small, so that no case asks the program for a large allocation, with two
exceptions.  In day files, 10**6 is a harmless price and must be rejected at
load time as an arrival's slot, demand or parking.  In models, 10**9 must
neither allocate (as a capped model's ``max_laxity``, say) nor crash.  Config
edits keep to small numbers, where ``days`` or ``horizon`` would allocate."""

import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcs.cli import DEFAULT_EXPERIMENT, main

EXIT_CODES = {0, 1, 2, 3}

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(-1e3, 1e3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.lists(st.integers(-3, 40) | st.floats(-1e3, 1e3), max_size=30),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)
# an edit: a path into the document, then a new value, or None to delete it
EDITS = st.tuples(st.integers(0, 10**6), st.none() | st.tuples(JSON_VALUES))
MODEL_EDITS = st.tuples(
    st.integers(0, 10**6), st.none() | st.tuples(JSON_VALUES | st.just(10**9))
)

CONFIG_PATHS = [
    ("days",), ("horizon",), ("slots_per_hour",), ("max_laxity",), ("version",),
    ("price",), ("price", "base"), ("price", "noise"),
    ("profiles",), ("profiles", 0), ("profiles", 1, "category"),
    ("profiles", 0, "hourly_rates"), ("profiles", 2, "hourly_rates", 1),
    ("profiles", 1, "demand"), ("profiles", 0, "demand", 0), ("profiles", 2, "parking", 2),
]
PG_PATHS = [
    ("algo",), ("weights",), ("weights", 0), ("bias",), ("sigma",), ("feature_mean",),
    ("feature_std", 1), ("max_laxity",), ("level_cap",),
]
QE_PATHS = [("algo",), ("theta",), ("theta", 2), ("price_threshold",), ("congestion_count",),
            ("max_laxity",)]


def _experiment() -> dict:
    doc = json.loads(json.dumps(DEFAULT_EXPERIMENT))
    doc.update(days=2, horizon=8)
    for profile in doc["profiles"]:
        profile.update(hourly_rates=[1.0] * 24, demand=[1, 2, 4], parking=[2, 4, 8])
    return doc


def _edit(document, paths, edit):
    """Apply an EDITS draw to ``document`` in place."""
    index, replacement = edit
    *head, last = paths[index % len(paths)]
    target = document
    for key in head:
        target = target[key]
    if replacement is None:
        del target[last]
    else:
        target[last] = replacement[0]


def _run(argv) -> int:
    code = main([str(a) for a in argv])
    assert code in EXIT_CODES, (argv, code)
    return code


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Valid day files and the PG, capped PG and QE models trained on them."""
    root = tmp_path_factory.mktemp("contract")
    config = root / "exp.json"
    config.write_text(json.dumps(_experiment()))
    assert _run(["generate", "--config", config, "--seed", 4, "--out", root / "days"]) == 0
    models = {}
    for name, extra in (("pg", []), ("pg_cap", ["--lmax", 1]), ("qe", ["--algo", "qe"])):
        models[name] = root / f"{name}.json"
        argv = ["train", "--data", root / "days", "--iterations", 1, "--out", models[name]]
        assert _run(argv + extra) == 0
    return root / "days", models


def _train_and_eval(data_dir, models):
    for extra in ([], ["--algo", "qe"]):
        with tempfile.TemporaryDirectory() as out:
            _run(["train", "--data", data_dir, "--iterations", 2, "--batch", 3,
                  "--out", Path(out) / "m.json"] + extra)
    _run(["compare", models["pg_cap"], models["qe"], "--data", data_dir])


@settings(max_examples=40, deadline=None)
@given(EDITS)
def test_mutated_config_never_crashes(base, edit):
    _, models = base
    document = _experiment()
    _edit(document, CONFIG_PATHS, edit)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "exp.json"
        config.write_text(json.dumps(document))
        days = Path(tmp) / "days"
        if _run(["generate", "--config", config, "--out", days]) == 0:
            _train_and_eval(days, models)


TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(
        ["", "nan", "inf", "x", "normal", "2026-01-01T00:00", "2026-01-01T05:00", str(10**6)]
    ),
    st.text(alphabet="0123456789,.-:T \n", max_size=6),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["day00_prices.csv", "day00_arrivals.csv", "day01_arrivals.csv"]),
    st.integers(0, 10**6),
    st.integers(0, 3),
    st.sampled_from(["replace", "delete", "append"]),
    TOKENS,
)
def test_mutated_day_files_never_crash(base, name, line, cell, op, token):
    days, models = base
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "days"
        shutil.copytree(days, data_dir)
        path = data_dir / name
        lines = path.read_text().splitlines()
        i = line % len(lines)
        if op == "replace":
            cells = lines[i].split(",")
            cells[cell % len(cells)] = token
            lines[i] = ",".join(cells)
        elif op == "delete":
            del lines[i]
        else:
            lines.insert(i + 1, token)
        path.write_text("\n".join(lines) + "\n")
        _train_and_eval(data_dir, models)
        _run(["eval", "--model", models["pg"], "--data", data_dir])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["pg", "pg_cap", "qe"]), MODEL_EDITS, st.booleans())
def test_mutated_model_never_crashes(base, name, edit, compare):
    days, models = base
    model = json.loads(models[name].read_text())
    _edit(model, QE_PATHS if name == "qe" else PG_PATHS, edit)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(model))
        if compare:
            _run(["compare", models["qe"], path, "--data", days])
        else:
            _run(["eval", "--model", path, "--data", days])
