"""Command-line front end: synthetic-day generation, training, evaluation and
policy comparison, all emitting machine-parseable CSV tables.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every flag is read through `_checked`, so a bad one is a usage error naming
the flag; every field of a config or model file is read through
`data.field`, so a bad one is a data error naming the file and the field.
Setting ``EVCS_OUT_DIR`` redirects every output path into that directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import baseline, data, policy
from .agg import max_arrival_laxity
from .baseline import QeFeatureConfig
from .data import DataError
from .env import EpisodeConfig
from .policy import DivergenceError, PolicyParams, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise UsageError(message)


# --- experiment configs ------------------------------------------------------

DEFAULT_EXPERIMENT: dict = {
    "version": data.DEFAULT_PROFILES_VERSION,
    "days": 20,
    "horizon": 96,
    "slots_per_hour": 4,
    "max_laxity": 12,
    "price": {"base": 12.0, "morning_peak": 6.0, "evening_peak": 18.0, "noise": 1.5},
    "profiles": [
        {
            "category": p.category.value,
            "hourly_rates": list(p.hourly_rates),
            "demand": list(p.demand),
            "parking": list(p.parking),
        }
        for p in data.DEFAULT_PROFILES
    ],
}


def config_hash(document: dict) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def parse_experiment(document: dict, source: str = "config") -> dict:
    """Read a generation config through `data.field`; DataError names ``source``
    and the failing field.  Slots last 15 minutes, as `load_days` reads
    them, so a ``slots_per_hour`` other than 4 is rejected."""
    out = {
        "days": data.field(document, "days", int, source),
        "horizon": data.field(document, "horizon", int, source),
        "slots_per_hour": data.field(document, "slots_per_hour", int, source, 4),
        "max_laxity": data.field(document, "max_laxity", int, source, 12),
    }
    if out["days"] < 0:
        raise DataError(f"{source}: field 'days' must be >= 0")
    if out["slots_per_hour"] != 4:
        raise DataError(f"{source}: field 'slots_per_hour' must be 4 (15-minute slots)")
    if out["horizon"] < 1 or out["horizon"] % out["slots_per_hour"]:
        raise DataError(f"{source}: field 'horizon' must be a positive multiple of slots_per_hour")
    if out["max_laxity"] < 0:
        raise DataError(f"{source}: field 'max_laxity' must be >= 0")
    price = data.field(document, "price", dict, source, {})
    out["price"] = {
        name: data.field(price, name, float, f"{source}: price", default)
        for name, default in (
            ("base", 12.0), ("morning_peak", 6.0), ("evening_peak", 18.0), ("noise", 1.5)
        )
    }
    out["profiles"] = tuple(
        _parse_profile(entry, f"{source}: profiles[{i}]")
        for i, entry in enumerate(data.field(document, "profiles", list, source))
    )
    return out


def _parse_profile(entry: dict, context: str) -> data.CategoryProfile:
    name = data.field(entry, "category", str, context)
    try:
        category = data.Category(name)
    except ValueError:
        raise DataError(f"{context}: unknown category {name!r}") from None
    rates = data.field(entry, "hourly_rates", float, context, length=24)
    demand = data.field(entry, "demand", int, context, length=3)
    parking = data.field(entry, "parking", int, context, length=3)
    try:
        return data.CategoryProfile(category, rates, demand, parking)
    except DataError as exc:
        raise DataError(f"{context}: {exc}") from None


# --- day-file loading --------------------------------------------------------

def load_days(data_dir: str | Path) -> list[tuple[str, EpisodeConfig]]:
    """Load every dayNN_{prices,arrivals}.csv pair in a directory, at 15-minute slots."""
    directory = Path(data_dir)
    if not directory.is_dir():
        raise DataError(f"{directory}: not a directory")
    days: list[tuple[str, EpisodeConfig]] = []
    for arrivals_path in sorted(directory.glob("*_arrivals.csv")):
        stem = arrivals_path.name[: -len("_arrivals.csv")]
        prices_path = directory / f"{stem}_prices.csv"
        if not prices_path.exists():
            raise DataError(f"{arrivals_path}: missing matching file {prices_path.name}")
        slot_prices = data.load_prices(prices_path)
        horizon = len(slot_prices)
        events = data.load_arrivals(arrivals_path, horizon)
        prices = slot_prices + slot_prices[-1:]  # the terminal state's price repeats the last
        days.append((stem, EpisodeConfig(horizon, prices, tuple(events))))
    if not days:
        raise DataError(f"{directory}: no day files (*_arrivals.csv) found")
    return days


def percent_improvement(reward_a: float, reward_b: float) -> float:
    """Percentage by which reward_a improves on reward_b: (a-b)/|b| * 100, or
    nan where that is undefined (a zero reward_b against a non-zero reward_a)."""
    if reward_a == reward_b:
        return 0.0
    if reward_b == 0:
        return math.nan
    return (reward_a - reward_b) / abs(reward_b) * 100.0


def _out_path(raw: str | Path) -> Path:
    override = os.environ.get("EVCS_OUT_DIR")
    path = Path(raw)
    if override:
        return Path(override) / path.name
    return path


def _write_csv(path: Path | None, header: Sequence, rows: Sequence, echo: bool = False) -> None:
    """Write a CSV table to ``path`` (None: to no file); ``echo`` first prints
    the same text, so stdout and the file agree byte for byte."""
    text = "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])
    if echo:
        print(text, end="")
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            handle.write(text)


# --- subcommands -------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    if args.config:
        try:
            document = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise DataError(f"{args.config}: no such config file") from None
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.config}: invalid JSON: {exc}") from None
    else:
        document = DEFAULT_EXPERIMENT
    experiment = parse_experiment(document, args.config or "default config")
    digest = config_hash(document)

    out_dir = _out_path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    root = np.random.SeedSequence(args.seed)
    hours = experiment["horizon"] // experiment["slots_per_hour"]
    for day, seed in enumerate(root.spawn(experiment["days"])):
        rng = np.random.default_rng(seed)
        hourly = data.gen_prices(rng, **experiment["price"], hours=hours)
        events = data.gen_day(
            experiment["profiles"],
            rng,
            horizon=experiment["horizon"],
            slots_per_hour=experiment["slots_per_hour"],
            max_laxity=experiment["max_laxity"],
        )
        stem = f"day{day:02d}"
        data.save_prices(out_dir / f"{stem}_prices.csv", hourly)
        data.save_arrivals(out_dir / f"{stem}_arrivals.csv", events)
    manifest = {
        "config_hash": digest,
        "days": experiment["days"],
        "seed": args.seed,
        "config": document,
    }
    (out_dir / "generation.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {experiment['days']} day(s) to {out_dir} (config {digest})")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    days = load_days(args.data)
    configs = [config for _, config in days]
    max_laxity = max([1, *map(max_arrival_laxity, configs)])
    level_cap = args.lmax

    settings = {
        "algo": args.algo,
        "alpha": args.alpha,
        "sigma": args.sigma,
        "iterations": args.iterations,
        "batch": args.batch,
        "sigma_decay": args.sigma_decay,
        "step_decay": args.step_decay,
        "seed": args.seed,
        "lmax": level_cap,
        "max_laxity": max_laxity,
        "days": [stem for stem, _ in days],
    }
    digest = config_hash(settings)
    model_path = _out_path(args.out)
    curve_path = model_path.with_name(model_path.stem + "_curve.csv")

    if args.algo == "pg":
        train_config = TrainConfig(
            step_size=args.alpha,
            iterations=args.iterations,
            batch=args.batch if args.batch else len(configs),
            seed=args.seed,
            sigma_decay=args.sigma_decay,
            step_decay=args.step_decay,
        )
        dim = policy.feature_dim(max_laxity, level_cap)
        initial = PolicyParams(np.zeros(dim), 0.0, args.sigma)
        result = policy.train(configs, initial, train_config, max_laxity, level_cap)
        model = policy.pg_model_dict(result.params, result.scaler, max_laxity, level_cap, digest)
        labels = ["w_price"] + [f"w_n{l}" for l in range(dim - 1)] + ["bias", "sigma"]
        trace = result.param_trace
        curve = result.curve
    else:
        train_config = TrainConfig(
            step_size=args.alpha,
            iterations=args.iterations,
            seed=args.seed,
        )
        result = baseline.qe_train(configs, train_config, QeFeatureConfig(), max_laxity)
        model = baseline.qe_model_dict(result.params, result.feature_config, max_laxity, digest)
        labels = [f"theta{i}" for i in range(baseline.N_FEATURES)]
        trace = result.param_trace
        curve = result.curve

    model_path.parent.mkdir(parents=True, exist_ok=True)
    policy.save_model(model_path, model)
    rows = [
        [i, repr(float(curve[i]))] + [repr(float(v)) for v in trace[i]]
        for i in range(len(curve))
    ]
    _write_csv(curve_path, ["iteration", "reward"] + labels, rows)
    print(f"wrote model {model_path} and learning curve {curve_path} (config {digest})")
    return EXIT_OK


def _load_evaluator(path: str) -> Callable[[EpisodeConfig], tuple[float, tuple[int, ...]]]:
    """Parse a model file once; the result evaluates the model on one day.

    A malformed file raises DataError naming the file and the field, and so
    does a model that does not fit the day it is evaluated on.
    """
    kinds = {
        policy.MODEL_KIND_PG: (policy.pg_from_model, policy.evaluate_policy),
        baseline.MODEL_KIND_QE: (baseline.qe_from_model, baseline.evaluate_qe),
    }
    try:
        model = policy.load_model(path)
        algo = data.field(model, "algo", str, path)
        if algo not in kinds:
            raise ValueError(f"unknown model algo {algo!r}")
        parse, evaluate = kinds[algo]
        fields = parse(model, path)
    except DataError:
        raise  # it names the file already
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from None

    def evaluate_day(config: EpisodeConfig) -> tuple[float, tuple[int, ...]]:
        try:
            return evaluate(config, *fields)
        except ValueError as exc:
            raise DataError(f"{path}: model does not fit this data: {exc}") from None

    return evaluate_day


def cmd_eval(args: argparse.Namespace) -> int:
    evaluate = _load_evaluator(args.model)
    days = load_days(args.data)
    rows = []
    rewards = []
    for stem, config in days:
        reward, _ = evaluate(config)
        rows.append([stem, repr(float(reward))])
        rewards.append(reward)
    rows.append(["average", repr(float(np.mean(rewards)))])
    _write_csv(_out_path(args.out) if args.out else None, ["day", "reward"], rows, echo=True)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    evaluate_a = _load_evaluator(args.model_a)
    evaluate_b = _load_evaluator(args.model_b)
    days = load_days(args.data)
    out_dir = _out_path(args.out) if args.out else None

    rows = []
    rewards_a, rewards_b = [], []
    for stem, config in days:
        reward_a, actions_a = evaluate_a(config)
        reward_b, actions_b = evaluate_b(config)
        rewards_a.append(reward_a)
        rewards_b.append(reward_b)
        rows.append(
            [stem, repr(float(reward_a)), repr(float(reward_b)),
             f"{percent_improvement(reward_a, reward_b):.2f}"]
        )
        if out_dir is not None:
            _write_csv(
                out_dir / f"actions_{stem}.csv",
                ["slot", "price", "action_a", "action_b"],
                [
                    [t, repr(float(config.prices[t])), actions_a[t], actions_b[t]]
                    for t in range(config.horizon)
                ],
            )
    mean_a, mean_b = float(np.mean(rewards_a)), float(np.mean(rewards_b))
    rows.append(
        ["average", repr(mean_a), repr(mean_b), f"{percent_improvement(mean_a, mean_b):.2f}"]
    )
    header = ["day", "reward_a", "reward_b", "improvement_pct"]
    _write_csv(None if out_dir is None else out_dir / "compare.csv", header, rows, echo=True)
    return EXIT_OK


# --- entry point -------------------------------------------------------------

def _checked(kind: type, test: Callable, rule: str) -> Callable[[str], object]:
    """An argparse type: ``kind(text)``, which must pass ``test`` (and be
    finite, for floats); argparse reports a failure as a usage error naming
    the flag."""

    def parse(text: str):
        value = kind(text)
        if not test(value) or (kind is float and not math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="evcs", description=__doc__)
    seed = _checked(int, lambda v: v >= 0, ">= 0")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write synthetic day files")
    gen.add_argument("--config", help="experiment config (JSON); defaults built in")
    gen.add_argument("--seed", type=seed, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_generate)

    train = sub.add_parser("train", help="train a policy on a directory of days")
    train.add_argument("--data", required=True, help="directory of day files")
    train.add_argument("--algo", choices=["pg", "qe"], default="pg")
    train.add_argument("--iterations", type=_checked(int, lambda v: v >= 1, ">= 1"), default=400)
    train.add_argument("--alpha", type=_checked(float, lambda v: v >= 0, ">= 0"), default=0.08)
    train.add_argument("--sigma", type=_checked(float, lambda v: v > 0, "> 0"), default=2.0)
    decay = _checked(float, lambda v: 0 < v <= 1, "in (0, 1]")
    train.add_argument("--sigma-decay", type=decay, default=0.995)
    train.add_argument("--step-decay", type=decay, default=0.995)
    train.add_argument("--batch", type=_checked(int, lambda v: v >= 0, ">= 0"), default=0,
                       help="days per update (0 = all)")
    train.add_argument("--lmax", type=_checked(int, lambda v: v >= 1, ">= 1"), default=None,
                       help="pool laxity levels >= this cap in the policy state")
    train.add_argument("--seed", type=seed, default=0)
    train.add_argument("--out", required=True, help="model file to write")
    train.set_defaults(func=cmd_train)

    eva = sub.add_parser("eval", help="evaluate a model on a directory of days")
    eva.add_argument("--model", required=True)
    eva.add_argument("--data", required=True)
    eva.add_argument("--out", help="also write the table to this CSV file")
    eva.set_defaults(func=cmd_eval)

    cmp_ = sub.add_parser("compare", help="compare two models day by day")
    cmp_.add_argument("model_a")
    cmp_.add_argument("model_b")
    cmp_.add_argument("--data", required=True)
    cmp_.add_argument("--out", help="directory for compare.csv and action traces")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
