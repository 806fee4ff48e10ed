import hashlib
import json
import math

import numpy as np
import pytest

from evcs.cli import (
    DEFAULT_EXPERIMENT,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    load_days,
    main,
    percent_improvement,
)
from evcs.policy import FeatureScaler, PolicyParams, load_model, run_policy_episode


def _small_experiment(days=2, horizon=24):
    doc = json.loads(json.dumps(DEFAULT_EXPERIMENT))
    doc["days"] = days
    doc["horizon"] = horizon
    for profile in doc["profiles"]:
        profile["demand"] = [1, 2, 4]
        profile["parking"] = [2, 4, 8]
    return doc


def _generate(tmp_path, days=2, horizon=24, seed=0):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(_small_experiment(days, horizon)))
    out = tmp_path / "days"
    code = main(["generate", "--config", str(config), "--seed", str(seed), "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_generate_writes_paired_files(tmp_path):
    out = _generate(tmp_path, days=3)
    for day in range(3):
        assert (out / f"day{day:02d}_prices.csv").exists()
        assert (out / f"day{day:02d}_arrivals.csv").exists()
    assert (out / "generation.json").exists()
    days = load_days(out)
    assert len(days) == 3
    assert all(cfg.horizon == 24 for _, cfg in days)


def test_generate_zero_days_succeeds(tmp_path):
    out = _generate(tmp_path, days=0)
    assert list(out.glob("*_arrivals.csv")) == []


def test_generate_missing_field_is_data_error(tmp_path, capsys):
    doc = _small_experiment()
    del doc["profiles"][1]["demand"]
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    code = main(["generate", "--config", str(config), "--out", str(tmp_path / "x")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "profiles[1]" in err and "demand" in err


def test_generate_bad_json_is_data_error(tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "x")]) == EXIT_DATA


def test_usage_errors_exit_one(tmp_path):
    assert main(["train", "--data", str(tmp_path), "--algo", "bogus", "--out", "m.json"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["eval", "--model"]) == EXIT_USAGE


def test_train_empty_dir_is_data_error(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code = main(["train", "--data", str(empty), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_DATA


def test_train_writes_model_and_curve(tmp_path):
    data_dir = _generate(tmp_path)
    model_path = tmp_path / "model.json"
    code = main([
        "train", "--data", str(data_dir), "--algo", "pg",
        "--iterations", "5", "--alpha", "0.01", "--sigma", "1.0",
        "--seed", "3", "--out", str(model_path),
    ])
    assert code == EXIT_OK
    model = load_model(model_path)
    assert model["algo"] == "pg"
    curve = (tmp_path / "model_curve.csv").read_text().strip().splitlines()
    assert curve[0].startswith("iteration,reward,w_price,w_n0")
    assert len(curve) == 6  # header + 5 iterations


def test_train_fixed_seed_reproduces_model_bytes(tmp_path):
    data_dir = _generate(tmp_path)
    args = [
        "train", "--data", str(data_dir), "--algo", "pg",
        "--iterations", "6", "--seed", "9",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_train_config_hash_covers_schedule_flags(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    base = ["train", "--data", str(data_dir), "--algo", "pg", "--iterations", "2",
            "--out", str(tmp_path / "m.json")]

    def printed_hash(*extra):
        assert main(base + list(extra)) == EXIT_OK
        return capsys.readouterr().out.rsplit("(config ", 1)[1].rstrip(")\n")

    plain = printed_hash()
    assert printed_hash() == plain
    assert printed_hash("--batch", "4") != plain
    assert printed_hash("--step-decay", "0.9") != plain
    assert printed_hash("--sigma-decay", "0.9") != plain


def test_train_qe_and_eval_table(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    model_path = tmp_path / "qe.json"
    code = main([
        "train", "--data", str(data_dir), "--algo", "qe",
        "--iterations", "8", "--alpha", "0.02", "--seed", "1",
        "--out", str(model_path),
    ])
    assert code == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--model", str(model_path), "--data", str(data_dir)]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "day,reward"
    assert len(out) == 1 + 2 + 1  # header, two days, average
    assert out[-1].startswith("average,")
    # deterministic evaluation: run twice, identical output
    main(["eval", "--model", str(model_path), "--data", str(data_dir)])
    assert capsys.readouterr().out.strip().splitlines() == out


def test_eval_empty_day_reward_zero(tmp_path, capsys):
    data_dir = tmp_path / "days"
    data_dir.mkdir()
    rows = ["timestamp,price"] + [f"2026-01-01T{h:02d}:00,5.0" for h in range(2)]
    (data_dir / "day00_prices.csv").write_text("\n".join(rows) + "\n")
    (data_dir / "day00_arrivals.csv").write_text("slot,demand,parking,category\n")

    train_dir = _generate(tmp_path)
    model_path = tmp_path / "m.json"
    main(["train", "--data", str(train_dir), "--iterations", "3", "--out", str(model_path)])
    capsys.readouterr()
    assert main(["eval", "--model", str(model_path), "--data", str(data_dir)]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[1] == "day00,0.0"


def test_percent_improvement_matches_published_arithmetic():
    # the published per-day and average figures, reproduced by the formula
    assert round(percent_improvement(-5016.2, -5240.1), 2) == 4.27
    assert round(percent_improvement(-5013.8, -5236.9), 2) == 4.26
    assert percent_improvement(-5.0, -5.0) == 0.0
    assert percent_improvement(0.0, 0.0) == 0.0
    assert math.isnan(percent_improvement(1.0, 0.0))


def test_compare_self_is_zero_everywhere(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    model_path = tmp_path / "m.json"
    main(["train", "--data", str(data_dir), "--iterations", "4", "--out", str(model_path)])
    out_dir = tmp_path / "cmp"
    capsys.readouterr()
    code = main([
        "compare", str(model_path), str(model_path),
        "--data", str(data_dir), "--out", str(out_dir),
    ])
    assert code == EXIT_OK
    table = (out_dir / "compare.csv").read_text().strip().splitlines()
    assert table[0] == "day,reward_a,reward_b,improvement_pct"
    for line in table[1:]:
        day, a, b, pct = line.split(",")
        assert a == b and pct == "0.00"
    actions = (out_dir / "actions_day00.csv").read_text().strip().splitlines()
    assert actions[0] == "slot,price,action_a,action_b"
    assert len(actions) == 1 + 24


def test_out_dir_env_override(tmp_path, monkeypatch, capsys):
    data_dir = _generate(tmp_path)
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("EVCS_OUT_DIR", str(override))
    code = main(["train", "--data", str(data_dir), "--iterations", "3",
                 "--out", str(tmp_path / "sub" / "model.json")])
    assert code == EXIT_OK
    assert (override / "model.json").exists()
    assert not (tmp_path / "sub" / "model.json").exists()


def test_eval_model_of_smaller_laxity_range_pools_unseen_levels(tmp_path, capsys):
    data_dir = _generate(tmp_path)
    model_path = tmp_path / "m.json"
    main(["train", "--data", str(data_dir), "--iterations", "3", "--out", str(model_path)])
    # hand-edit the model to a smaller laxity range than the data has: every
    # level pools into its one count feature
    model = json.loads(model_path.read_text())
    model["max_laxity"] = 0
    model["weights"] = model["weights"][:2]
    model["feature_mean"] = model["feature_mean"][:2]
    model["feature_std"] = model["feature_std"][:2]
    model_path.write_text(json.dumps(model))
    capsys.readouterr()
    assert main(["eval", "--model", str(model_path), "--data", str(data_dir)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("day,reward\nday00,")


def test_eval_qe_model_ignores_its_max_laxity(tmp_path, capsys):
    """QE features read no per-level count, so evaluation sizes its simulator
    to the day alone: a hand-edited max_laxity of 10**9 allocates nothing
    and evaluates exactly as the same model at 12."""
    data_dir = _generate(tmp_path)
    model_path = tmp_path / "qe.json"
    main(["train", "--data", str(data_dir), "--algo", "qe", "--iterations", "40",
          "--alpha", "0.02", "--seed", "1", "--out", str(model_path)])
    model = json.loads(model_path.read_text())
    outputs = []
    for max_laxity in (12, 10**9):
        model["max_laxity"] = max_laxity
        model_path.write_text(json.dumps(model))
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--data", str(data_dir)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("day,reward\nday00,")
    assert outputs[1] == outputs[0]


def _one_ev_day(tmp_path):
    """Two hours, priced 5.0 in hour 0 and 0.0 after; one EV of laxity 7
    arrives at slot 0 and needs one unit of charge."""
    data_dir = tmp_path / "one_ev"
    data_dir.mkdir()
    rows = ["timestamp,price", "2026-01-01T00:00,5.0", "2026-01-01T01:00,0.0"]
    (data_dir / "day00_prices.csv").write_text("\n".join(rows) + "\n")
    (data_dir / "day00_arrivals.csv").write_text("slot,demand,parking,category\n0,1,8,normal\n")
    return data_dir


def _hand_models():
    """A PG model that charges every parked EV at once (mean 10) and a QE
    model whose all-zero theta charges only zero-laxity EVs."""
    pg = {"algo": "pg", "weights": [0.0] * 9, "bias": 10.0, "sigma": 1.0,
          "feature_mean": [0.0] * 9, "feature_std": [1.0] * 9,
          "max_laxity": 7, "level_cap": None, "config_hash": ""}
    qe = {"algo": "qe", "theta": [0.0] * 4, "price_threshold": None,
          "congestion_count": 12, "max_laxity": 7, "config_hash": ""}
    return pg, qe


def test_compare_zero_baseline_reward_writes_nan(tmp_path, capsys):
    data_dir = _one_ev_day(tmp_path)
    pg, qe = _hand_models()
    (tmp_path / "pg.json").write_text(json.dumps(pg))
    (tmp_path / "qe.json").write_text(json.dumps(qe))
    code = main(["compare", str(tmp_path / "pg.json"), str(tmp_path / "qe.json"),
                 "--data", str(data_dir)])
    assert code == EXIT_OK
    table = capsys.readouterr().out.strip().splitlines()
    assert table[1:] == ["day00,-5.0,0.0,nan", "average,-5.0,0.0,nan"]



def test_models_taking_equal_actions_get_equal_rewards(tmp_path, capsys):
    """An urgent-only PG model and an all-zero QE model charge exactly the
    zero-laxity EVs, so on paper-scale days they take the same actions, get
    the same reward and `compare` prints 0.00.  On these days a running sum
    of the slot rewards differs from numpy's pairwise sum in the last bits,
    so this holds only while both evaluators sum a day alike."""
    doc = json.loads(json.dumps(DEFAULT_EXPERIMENT))
    doc["days"] = 4
    (tmp_path / "exp.json").write_text(json.dumps(doc))
    data_dir = tmp_path / "days"
    assert main(["generate", "--config", str(tmp_path / "exp.json"), "--seed", "1",
                 "--out", str(data_dir)]) == EXIT_OK
    urgent_only = PolicyParams(np.eye(14)[1], 0.0, 1.0)
    running_sum_differs = False
    for _, config in load_days(data_dir):
        rewards = run_policy_episode(config, urgent_only, FeatureScaler.identity(14), 12).rewards
        running = 0.0
        for reward in rewards.tolist():
            running += reward
        running_sum_differs |= running != rewards.sum()
    assert running_sum_differs

    pg, qe = _hand_models()
    pg.update(weights=np.eye(14)[1].tolist(), bias=0.0, feature_mean=[0.0] * 14,
              feature_std=[1.0] * 14, max_laxity=12)
    (tmp_path / "pg.json").write_text(json.dumps(pg))
    (tmp_path / "qe.json").write_text(json.dumps(qe))
    out_dir = tmp_path / "cmp"
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "pg.json"), str(tmp_path / "qe.json"),
                 "--data", str(data_dir), "--out", str(out_dir)]) == EXIT_OK
    table = capsys.readouterr().out.strip().splitlines()
    assert len(table) == 1 + 4 + 1
    for line in table[1:]:
        _, reward_a, reward_b, pct = line.split(",")
        assert reward_a == reward_b and pct == "0.00", line
    for day in range(4):
        actions = (out_dir / f"actions_day{day:02d}.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[2] == row.split(",")[3] for row in actions)


def test_arrival_parked_past_the_day_is_data_error(tmp_path, capsys):
    """A parking that runs past the end of the day is rejected at load time,
    naming the file, the line and the field, before it can size a
    simulator."""
    data_dir = _one_ev_day(tmp_path)
    arrivals = data_dir / "day00_arrivals.csv"
    arrivals.write_text("slot,demand,parking,category\n0,1,8,normal\n0,1,1000000,normal\n")
    pg, _ = _hand_models()
    (tmp_path / "pg.json").write_text(json.dumps(pg))
    for argv in (["train", "--algo", "qe", "--iterations", "1", "--out", str(tmp_path / "m.json")],
                 ["eval", "--model", str(tmp_path / "pg.json")]):
        capsys.readouterr()
        assert main(argv + ["--data", str(data_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{arrivals}:3: field 'parking'" in err, err

@pytest.mark.parametrize(
    "algo, edit, field",
    [
        ("pg", lambda m: m.pop("bias"), "bias"),
        ("pg", lambda m: m["weights"].pop(), "weights"),
        ("pg", lambda m: m["feature_std"].append(1.0), "feature_std"),
        pytest.param("pg", lambda m: m.update(bias=float("nan")), "bias", id="pg-nan-bias"),
        pytest.param("pg", lambda m: m.update(sigma=float("inf")), "sigma", id="pg-inf-sigma"),
        pytest.param("pg", lambda m: m["weights"].__setitem__(0, float("nan")), "weights",
                     id="pg-nan-weights"),
        pytest.param("pg", lambda m: m["feature_mean"].__setitem__(1, -float("inf")),
                     "feature_mean", id="pg-inf-feature_mean"),
        pytest.param("pg", lambda m: m["feature_std"].__setitem__(2, 0.0), "feature_std",
                     id="pg-zero-feature_std"),
        pytest.param("pg", lambda m: m.update(level_cap=0), "level_cap", id="pg-zero-level_cap"),
        pytest.param("pg", lambda m: m.update(max_laxity=-1), "max_laxity",
                     id="pg-negative-max_laxity"),
        ("qe", lambda m: m["theta"].pop(), "theta"),
        ("qe", lambda m: m.pop("max_laxity"), "max_laxity"),
        ("qe", lambda m: m.update(algo=["qe"]), "algo"),
        # numbers are read as config fields are: JSON integers for int
        # fields, finite numbers for float fields, no booleans or strings
        pytest.param("pg", lambda m: m.update(max_laxity=7.9), "max_laxity",
                     id="pg-float-max_laxity"),
        pytest.param("pg", lambda m: m.update(max_laxity="7"), "max_laxity",
                     id="pg-string-max_laxity"),
        pytest.param("pg", lambda m: m.update(bias="1.5"), "bias", id="pg-string-bias"),
        pytest.param("pg", lambda m: m.update(bias=True), "bias", id="pg-bool-bias"),
        pytest.param("pg", lambda m: m.update(sigma="2"), "sigma", id="pg-string-sigma"),
        pytest.param("pg", lambda m: m.update(level_cap="7"), "level_cap", id="pg-string-level_cap"),
        pytest.param("pg", lambda m: m.update(weights=0.0), "weights", id="pg-number-weights"),
        pytest.param("qe", lambda m: m.update(price_threshold=float("nan")), "price_threshold",
                     id="qe-nan-price_threshold"),
        pytest.param("qe", lambda m: m.update(price_threshold=float("inf")), "price_threshold",
                     id="qe-inf-price_threshold"),
        pytest.param("qe", lambda m: m.update(congestion_count=True), "congestion_count",
                     id="qe-bool-congestion_count"),
        pytest.param("qe", lambda m: m.update(congestion_count=2.7), "congestion_count",
                     id="qe-float-congestion_count"),
        pytest.param("qe", lambda m: m.update(congestion_count=-5), "congestion_count",
                     id="qe-negative-congestion_count"),
        pytest.param("qe", lambda m: m.update(max_laxity=-4), "max_laxity",
                     id="qe-negative-max_laxity"),
        pytest.param("qe", lambda m: m.update(max_laxity="7"), "max_laxity",
                     id="qe-string-max_laxity"),
        pytest.param("pg", lambda m: m["weights"].__setitem__(3, "0.0"), "weights",
                     id="pg-string-weights"),
        pytest.param("qe", lambda m: m["theta"].__setitem__(1, True), "theta", id="qe-bool-theta"),
    ],
)
def test_malformed_model_is_data_error_naming_file_and_field(tmp_path, capsys, algo, edit, field):
    data_dir = _one_ev_day(tmp_path)
    models = dict(zip(("pg", "qe"), _hand_models()))
    edit(models[algo])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(models[algo]))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(models["qe" if algo == "pg" else "pg"]))
    for argv in (["eval", "--model", str(bad)], ["compare", str(good), str(bad)]):
        capsys.readouterr()
        assert main(argv + ["--data", str(data_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and field in err


@pytest.mark.parametrize(
    "argv, edit, code, names",
    [
        (["train", "--iterations", "0"], None, EXIT_USAGE, ["--iterations"]),
        (["train", "--alpha", "-1"], None, EXIT_USAGE, ["--alpha"]),
        (["train", "--sigma", "0"], None, EXIT_USAGE, ["--sigma"]),
        (["train", "--batch", "-1"], None, EXIT_USAGE, ["--batch"]),
        (["train", "--sigma-decay", "0"], None, EXIT_USAGE, ["--sigma-decay"]),
        (["train", "--step-decay", "2"], None, EXIT_USAGE, ["--step-decay"]),
        (["generate"], lambda d: d.update(days="x"), EXIT_DATA, ["days"]),
        (["generate"], lambda d: d.update(profiles=5), EXIT_DATA, ["profiles"]),
        (["generate"], lambda d: d.update(profiles=[5]), EXIT_DATA, ["profiles[0]"]),
        (["generate"], lambda d: d["profiles"][1].update(hourly_rates=["x"]), EXIT_DATA,
         ["profiles[1]", "hourly_rates"]),
        (["generate"], lambda d: d["profiles"][2].update(demand=[1, 2]), EXIT_DATA,
         ["profiles[2]", "demand"]),
        (["generate"], lambda d: d.update(price={"base": "x"}), EXIT_DATA, ["price", "base"]),
        (["generate"], lambda d: d.update(max_laxity=-1), EXIT_DATA, ["max_laxity"]),
        (["generate"], lambda d: d.update(slots_per_hour=2, horizon=48), EXIT_DATA,
         ["slots_per_hour"]),
        (["train", "--lmax", "0"], None, EXIT_USAGE, ["--lmax"]),
    ],
)
def test_bad_cli_input_exits_with_its_code_naming_the_culprit(
    tmp_path, capsys, argv, edit, code, names
):
    """A bad flag is a usage error naming the flag; a bad config field is a
    data error naming the file and the field.  A max_laxity of -1 would
    write empty days, and a slots_per_hour of 2 days that load as 15-minute
    slots."""
    if edit is None:
        data_dir = _generate(tmp_path)
        argv = argv[:1] + ["--data", str(data_dir), "--out", str(tmp_path / "m.json")] + argv[1:]
    else:
        doc = _small_experiment()
        edit(doc)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        names = names + [str(config)]
        argv = argv + ["--config", str(config), "--out", str(tmp_path / "x")]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert all(name in err for name in names), err


def test_load_days_pads_prices_by_repeating_the_last_slot(tmp_path):
    """An episode reads the price one slot past its end: `load_days` repeats
    the last slot's price there, and keeps every slot's own price."""
    data_dir = _one_ev_day(tmp_path)
    (stem, config), = load_days(data_dir)
    assert stem == "day00" and config.horizon == 8
    assert config.prices == (5.0,) * 4 + (0.0,) * 4 + (0.0,)


def test_eval_capped_pg_model_ignores_its_max_laxity(tmp_path, capsys):
    """A capped PG model's state keeps levels below its cap apart and pools
    the rest, so evaluation sizes its simulator to the cap and the day: a
    hand-edited max_laxity of 10**9 allocates nothing and evaluates exactly
    as the same model at its trained value."""
    data_dir = _generate(tmp_path)
    model_path = tmp_path / "cap.json"
    assert main(["train", "--data", str(data_dir), "--iterations", "3", "--lmax", "2",
                 "--out", str(model_path)]) == EXIT_OK
    model = json.loads(model_path.read_text())
    outputs = []
    for max_laxity in (model["max_laxity"], 10**9):
        model["max_laxity"] = max_laxity
        model_path.write_text(json.dumps(model))
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--data", str(data_dir)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("day,reward\nday00,")
    assert outputs[1] == outputs[0]


# (file, field, edit, result): "same" means the edited file behaves exactly
# as the unedited one, where the field holds its default
NULL_OR_ABSENT = [
    ("pg", "level_cap", None, "same"),
    ("pg", "level_cap", "absent", "same"),
    ("qe", "price_threshold", None, "same"),
    ("qe", "price_threshold", "absent", "same"),
    ("qe", "congestion_count", None, EXIT_DATA),
    ("qe", "congestion_count", "absent", "same"),
    ("pg", "bias", None, EXIT_DATA),
    ("pg", "bias", "absent", EXIT_DATA),
    ("config", "days", None, EXIT_DATA),
    ("config", "days", "absent", EXIT_DATA),
    ("config", "price", None, EXIT_DATA),
    ("config", "price", "absent", "same"),
]


@pytest.mark.parametrize("source, name, edit, result", NULL_OR_ABSENT)
def test_null_reads_as_absent_only_where_the_default_is_none(
    tmp_path, capsys, source, name, edit, result
):
    """``level_cap`` and ``price_threshold`` default to None, so a null
    there reads as the field left out; any other null is a data error
    naming the file and the field, even where the field has a default."""
    if source == "config":
        document = _small_experiment()

        def run(path):
            out = tmp_path / path.stem
            code = main(["generate", "--config", str(path), "--out", str(out)])
            days = sorted((p.name, p.read_bytes()) for p in out.glob("day*.csv"))
            return code, capsys.readouterr().err, days
    else:
        document = dict(zip(("pg", "qe"), _hand_models()))[source]
        data_dir = _one_ev_day(tmp_path)

        def run(path):
            code = main(["eval", "--model", str(path), "--data", str(data_dir)])
            captured = capsys.readouterr()
            return code, captured.err, captured.out

    (tmp_path / "good.json").write_text(json.dumps(document))
    if edit == "absent":
        del document[name]
    else:
        document[name] = None
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(document))
    capsys.readouterr()
    code, err, output = run(bad)
    if result == "same":
        assert (code, err, output) == run(tmp_path / "good.json")
    else:
        assert code == result and str(bad) in err and name in err, err


def _literal_days(tmp_path):
    """Two 12-slot days written out in full, so the files do not depend on
    the day generator."""
    data_dir = tmp_path / "literal"
    data_dir.mkdir()
    days = {
        "day00": ((10.0, 25.5, 7.25),
                  ["0,2,6,normal", "1,1,3,emergent", "2,3,9,residential", "4,2,4,normal",
                   "5,1,7,emergent", "8,2,4,residential"]),
        "day01": ((14.0, 6.5, 19.75),
                  ["0,1,5,residential", "0,3,4,normal", "3,2,8,emergent", "6,1,2,normal",
                   "7,4,5,residential", "9,1,3,normal"]),
    }
    for stem, (prices, arrivals) in days.items():
        rows = ["timestamp,price"] + [f"2026-01-01T{h:02d}:00,{p}" for h, p in enumerate(prices)]
        (data_dir / f"{stem}_prices.csv").write_text("\n".join(rows) + "\n")
        rows = ["slot,demand,parking,category"] + arrivals
        (data_dir / f"{stem}_arrivals.csv").write_text("\n".join(rows) + "\n")
    return data_dir


# sha256 of the model and curve files written by the training run below
GOLDEN_QE_DIGESTS = [
    "6802fdf51ada53fc5793577c90b0325cd86c5706d0db31191ae584fe03d7ae57",
    "fddff6dab688dff2d8c4d06c914e656313cdf46f1b0c587f11eb3aec9c72a396",
]


def test_train_qe_golden_digests(tmp_path):
    """QE training runs on Python floats and numpy's Generator, so a fixed
    seed gives the same model and curve bytes on every machine, not only on
    one.  The digests pin those bytes."""
    model_path = tmp_path / "qe.json"
    assert main(["train", "--data", str(_literal_days(tmp_path)), "--algo", "qe",
                 "--iterations", "30", "--alpha", "0.05", "--seed", "5",
                 "--out", str(model_path)]) == EXIT_OK
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (model_path, tmp_path / "qe_curve.csv")]
    assert digests == GOLDEN_QE_DIGESTS
