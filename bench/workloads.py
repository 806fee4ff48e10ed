"""The benchmark's three workloads and the correctness gate they share.

A workload has a set-up (inputs built from the seed), a pass (one fixed unit
of work) and a check of the pass's outputs.  A pass is a generator: the code
before each ``yield Step(...)`` is one timed step, and the runner times it
and calibrates the machine's speed between steps.  The runner repeats passes
until the run's time is up.  Where every pass starts from the same inputs
(``repeats_inputs``), every pass must produce the same outputs, and the
runner compares their signatures.

The package is driven only through module attributes (``policy.train``, not
a name imported from ``evcs.policy``), so that the tracer's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Generator, NamedTuple

import numpy as np

from evcs import agg, baseline, cli, data, env, llf, policy

MAX_LAXITY = 12
N_TRAIN_DAYS = 20
N_HELDOUT_DAYS = 20

# pg_train: (batch, step size, iterations per pass), the two phases of the
# paper-scale schedule in the acceptance suite.  Both batches are multiples
# of the 20 training days, so every iteration rolls out the same day mix.
PG_PHASES = ((100, 0.1, 2), (300, 0.03, 1))
# qe_train: episodes per pass, half the c09 fixture's 800, at its step size.
QE_EPISODES = 400
QE_STEP_SIZE = 0.01
# cli_pipeline: a busy station (every hourly arrival rate x3, ~84 EVs/day).
BUSY_RATE_FACTOR = 3
CLI_TEST_DAYS = 10
CLI_PG_ITERATIONS = 5
CLI_QE_ITERATIONS = 100


class Evaluated(NamedTuple):
    """One deterministic day evaluation: which policy, which day, what it did."""

    policy: str
    day: str
    config: env.EpisodeConfig
    reward: float
    actions: tuple[int, ...]


class Step(NamedTuple):
    """One timed step of a pass, yielded when the step's work is done."""

    name: str  # sample name, e.g. "pg_iter_b100_s"
    kind: str  # "train", "eval" or "other"
    work: int  # 96-slot training trajectories, or days evaluated


@dataclass
class PassResult:
    """What one pass did, as the runner needs it for metrics and checks."""

    evaluated: list[Evaluated]
    operations: int
    counters: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    signature: str = ""
    input_digest: str = ""
    # set by the runner: (step, raw seconds, reference seconds per raw second)
    steps: list[tuple[Step, float, float]] = field(default_factory=list)
    traced: bool = False

    def seconds(self, kind: str | None = None, reference: bool = True) -> float:
        """Time the pass's steps (of one kind) took, in reference or raw seconds."""
        return sum(raw * (speed if reference else 1.0)
                   for step, raw, speed in self.steps if kind in (None, step.kind))

    def work(self, kind: str) -> int:
        return sum(step.work for step, _, _ in self.steps if step.kind == kind)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def configs_digest(configs) -> str:
    """Hash of day configs: prices and arrivals exactly as the program sees them."""
    text = repr(
        [
            (c.horizon, c.prices, [(e.t, e.demand, e.parking, e.category.value) for e in c.arrivals])
            for c in configs
        ]
    )
    return _digest(text.encode())


def evaluations_signature(evaluated: list[Evaluated], *extra: bytes) -> str:
    text = repr([(e.policy, e.day, e.reward, e.actions) for e in evaluated])
    return _digest(text.encode(), *extra)


def paper_day(rng: np.random.Generator) -> env.EpisodeConfig:
    """One 96-slot day, built as the acceptance suite's paper-scale days are."""
    hourly = data.gen_prices(rng)
    slot_prices = [p for p in hourly for _ in range(4)]
    return env.EpisodeConfig(
        96,
        tuple(slot_prices) + (slot_prices[-1],),
        tuple(data.gen_day(data.DEFAULT_PROFILES, rng)),
    )


def paper_days(seed: int) -> tuple[list[env.EpisodeConfig], list[env.EpisodeConfig]]:
    children = np.random.SeedSequence(seed).spawn(N_TRAIN_DAYS + N_HELDOUT_DAYS)
    days = [paper_day(np.random.default_rng(child)) for child in children]
    return days[:N_TRAIN_DAYS], days[N_TRAIN_DAYS:]


# --- correctness gate ---------------------------------------------------------


def replay_check(item: Evaluated) -> str | None:
    """Replay a day's total actions through the per-EV oracle.

    The replay (``env.run_episode`` with ``llf.llf_controller``) must end
    fully charged, its per-EV states must aggregate to the counts simulator's
    trajectory, and it must reproduce the evaluation's day reward.  Returns
    None when all of that holds, else what went wrong.
    """
    try:
        sim = agg.AggSimulator(item.config, MAX_LAXITY)
        counts = [sim.reset().counts]
        rewards = []
        for action in item.actions:
            state, reward = sim.step(action)
            counts.append(state.counts)
            rewards.append(reward)
        result = env.run_episode(item.config, llf.llf_controller(item.actions))
    except ValueError as exc:
        return f"replay raised: {exc}"
    if not result.fully_charged:
        return "per-EV replay leaves demand unmet"
    replay_counts = [agg.aggregate(s, MAX_LAXITY).counts for s in result.states]
    if replay_counts != counts:
        slot = next(t for t, (a, b) in enumerate(zip(replay_counts, counts)) if a != b)
        return f"counts trajectory differs from the per-EV replay at slot {slot}"
    if list(result.rewards) != rewards:
        return "per-slot rewards differ between per-EV and counts simulators"
    if not math.isclose(sum(result.rewards), item.reward, rel_tol=1e-12, abs_tol=1e-9):
        return f"day reward {item.reward!r} differs from replay {sum(result.rewards)!r}"
    return None


def uncontrolled_cost(config: env.EpisodeConfig) -> float:
    """Cost of charging every parked EV at once, the reference for the cost ratio."""
    sim = agg.AggSimulator(config, MAX_LAXITY)
    sim.reset()
    cost = 0.0
    for _ in range(config.horizon):
        _, reward = sim.step(sim.chargeable)
        cost -= reward
    return cost


# --- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    primary = ""  # the policy whose held-out cost is reported
    repeats_inputs = True

    def check_pass(self, inputs: dict, result: PassResult) -> None:
        """Check what a pass wrote; failures go to ``result.failures``."""

    def teardown(self, inputs: dict) -> None:
        """Remove what set-up made."""


class PgTrain(Workload):
    """Paper-scale PG training: b100 then b300 iterations, then held-out evaluation."""

    name = "pg_train"
    primary = "pg"

    def setup(self, seed: int, workdir: Path) -> dict:
        train_days, heldout = paper_days(seed)
        scaler = policy.fit_scaler(train_days, MAX_LAXITY)
        # the acceptance schedule's start: urgency-tracking dispatch, lifted
        # by 2 so exploration stays two-sided
        weights = np.zeros(policy.feature_dim(MAX_LAXITY))
        weights[1] = scaler.std[1]
        params = policy.PolicyParams(weights, float(scaler.mean[1]) + 2.0, 2.0)
        return dict(seed=seed, train=train_days, heldout=heldout, scaler=scaler, params=params,
                    digest=configs_digest(train_days + heldout))

    def run_pass(self, inputs: dict) -> Generator[Step, None, PassResult]:
        params, scaler = inputs["params"], inputs["scaler"]
        rollouts = iteration = 0
        for batch, step_size, iterations in PG_PHASES:
            for _ in range(iterations):
                # one iteration per call, so each can be timed from outside;
                # a distinct seed per iteration, as train's own loop spawns
                config = policy.TrainConfig(
                    step_size=step_size, iterations=1, batch=batch,
                    seed=inputs["seed"] * 100 + iteration,
                )
                params = policy.train(inputs["train"], params, config, MAX_LAXITY, scaler=scaler).params
                yield Step(f"pg_iter_b{batch}_s", "train", batch)
                rollouts += batch
                iteration += 1
        evaluated = [
            Evaluated("pg", f"heldout{i:02d}", day, *policy.evaluate_policy(day, params, scaler, MAX_LAXITY))
            for i, day in enumerate(inputs["heldout"])
        ]
        yield Step("pg_eval_s", "eval", len(evaluated))
        return PassResult(
            evaluated=evaluated, operations=rollouts + len(evaluated),
            signature=evaluations_signature(evaluated, params.as_vector().tobytes()),
            input_digest=inputs["digest"],
        )


class QeTrain(Workload):
    """Approximate-Q training on the paper days, then greedy held-out evaluation."""

    name = "qe_train"
    primary = "qe"

    def setup(self, seed: int, workdir: Path) -> dict:
        train_days, heldout = paper_days(seed)
        return dict(seed=seed, train=train_days, heldout=heldout,
                    digest=configs_digest(train_days + heldout))

    def run_pass(self, inputs: dict) -> Generator[Step, None, PassResult]:
        config = policy.TrainConfig(step_size=QE_STEP_SIZE, iterations=QE_EPISODES, seed=inputs["seed"])
        trained = baseline.qe_train(inputs["train"], config, baseline.QeFeatureConfig(), max_laxity=MAX_LAXITY)
        yield Step("qe_train_s", "train", QE_EPISODES)
        evaluated = [
            Evaluated("qe", f"heldout{i:02d}", day,
                      *baseline.evaluate_qe(day, trained.params, trained.feature_config, MAX_LAXITY))
            for i, day in enumerate(inputs["heldout"])
        ]
        yield Step("qe_eval_s", "eval", len(evaluated))
        return PassResult(
            evaluated=evaluated, operations=QE_EPISODES + len(evaluated),
            signature=evaluations_signature(evaluated, trained.params.theta.tobytes()),
            input_digest=inputs["digest"],
        )


def busy_experiment(days: int) -> dict:
    document = copy.deepcopy(cli.DEFAULT_EXPERIMENT)
    document["days"] = days
    for profile in document["profiles"]:
        profile["hourly_rates"] = [BUSY_RATE_FACTOR * r for r in profile["hourly_rates"]]
    return document


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


class CliPipeline(Workload):
    """generate, train (pg and qe), eval and compare through ``cli.main`` in-process.

    Each pass generates its own days, from seeds derived from the run's seed
    and the pass number.  Generation time depends strongly on the days drawn
    (``data.gen_day`` redraws an arrival that cannot fit up to 1000 times), so
    fresh days per pass average that out, where one fixed set would give each
    seed its own wall time.
    """

    name = "cli_pipeline"
    primary = "pg"
    repeats_inputs = False

    def setup(self, seed: int, workdir: Path) -> dict:
        root = Path(tempfile.mkdtemp(prefix="cli_pipeline-", dir=workdir))
        configs = {}
        for label, days in (("train", N_TRAIN_DAYS), ("test", CLI_TEST_DAYS)):
            configs[label] = root / f"busy_{label}.json"
            configs[label].write_text(json.dumps(busy_experiment(days)))
        return dict(seed=seed, root=root, configs=configs, out=root / "pass", passes=0)

    def commands(self, inputs: dict, k: int) -> list[tuple[Step, list[str]]]:
        seed, out, configs = inputs["seed"], inputs["out"], inputs["configs"]
        train, test = str(out / "train"), str(out / "test")
        days_seed = 2 * (seed * 10_000 + k)
        return [
            (Step("cli.generate_s", "other", N_TRAIN_DAYS),
             ["generate", "--config", str(configs["train"]), "--seed", str(days_seed), "--out", train]),
            (Step("cli.generate_s", "other", CLI_TEST_DAYS),
             ["generate", "--config", str(configs["test"]), "--seed", str(days_seed + 1), "--out", test]),
            (Step("cli.train_pg_s", "train", CLI_PG_ITERATIONS * N_TRAIN_DAYS),
             ["train", "--data", train, "--algo", "pg", "--iterations", str(CLI_PG_ITERATIONS),
              "--seed", str(seed), "--out", str(out / "pg.json")]),
            (Step("cli.train_qe_s", "train", CLI_QE_ITERATIONS),
             ["train", "--data", train, "--algo", "qe", "--iterations", str(CLI_QE_ITERATIONS),
              "--seed", str(seed), "--out", str(out / "qe.json")]),
            (Step("cli.eval_s", "eval", CLI_TEST_DAYS),  # the pg model
             ["eval", "--model", str(out / "pg.json"), "--data", test, "--out", str(out / "eval.csv")]),
            (Step("cli.compare_s", "eval", 2 * CLI_TEST_DAYS),  # both models
             ["compare", str(out / "pg.json"), str(out / "qe.json"), "--data", test,
              "--out", str(out / "compare")]),
        ]

    def run_pass(self, inputs: dict) -> Generator[Step, None, PassResult]:
        commands = self.commands(inputs, inputs["passes"])
        inputs["passes"] += 1
        failures = []
        for step, argv in commands:
            sink_out, sink_err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                code = cli.main(argv)
            yield step
            if code != 0:
                failures.append(f"evcs {argv[0]} exited {code}: {sink_err.getvalue().strip()}")
        return PassResult(
            evaluated=[],  # filled by check_pass from the files the pass wrote
            operations=len(commands),
            counters={"cli.nonzero_exits": len(failures)},
            failures=failures,
        )

    def check_pass(self, inputs: dict, result: PassResult) -> None:
        """Parse what the pass wrote and check it against in-process evaluation.

        ``compare.csv``, ``actions_<day>.csv`` and ``eval.csv`` must agree,
        to the last digit, with the loaded models evaluated on the loaded
        test days.  The agreeing evaluations go to the replay gate.
        """
        out = inputs["out"]
        try:
            files = sorted(p for p in out.rglob("*") if p.is_file())
            result.counters["cli.bytes_written"] = sum(p.stat().st_size for p in files)
            result.signature = _digest(*(p.relative_to(out).as_posix().encode() + p.read_bytes() for p in files))
            result.input_digest = _digest(
                *(p.read_bytes() for p in files if p.parent.name in ("train", "test") and p.suffix == ".csv")
            )
            if not result.failures:
                self._check_outputs(out, result)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_outputs(self, out: Path, result: PassResult) -> None:
        try:
            models = {"pg": policy.load_model(out / "pg.json"), "qe": policy.load_model(out / "qe.json")}
            days = cli.load_days(out / "test")
            compare_rows = {row["day"]: row for row in _read_csv(out / "compare" / "compare.csv")}
            eval_rows = {row["day"]: row for row in _read_csv(out / "eval.csv")}
        except (OSError, ValueError, KeyError) as exc:
            result.failures.append(f"pipeline outputs unreadable: {exc}")
            return
        for stem, config in days:
            result.operations += 2
            try:
                ours = {name: _eval_model(model, config) for name, model in models.items()}
                row = compare_rows[stem]
                actions_rows = _read_csv(out / "compare" / f"actions_{stem}.csv")
                theirs = {
                    "pg": (row["reward_a"], tuple(int(r["action_a"]) for r in actions_rows)),
                    "qe": (row["reward_b"], tuple(int(r["action_b"]) for r in actions_rows)),
                }
                problems = [
                    f"{name} disagrees with compare.csv/actions_{stem}.csv"
                    for name in ("pg", "qe")
                    if theirs[name] != (repr(float(ours[name][0])), ours[name][1])
                ]
                if eval_rows[stem]["reward"] != repr(float(ours["pg"][0])):
                    problems.append("pg disagrees with eval.csv")
                if row["improvement_pct"] != f"{cli.percent_improvement(ours['pg'][0], ours['qe'][0]):.2f}":
                    problems.append("improvement_pct disagrees")
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable: {exc}"]
            if problems:
                result.failures.extend(f"{stem}: {p}" for p in problems)
                continue
            for name in ("pg", "qe"):
                result.evaluated.append(Evaluated(name, stem, config, float(theirs[name][0]), theirs[name][1]))

    def teardown(self, inputs: dict) -> None:
        shutil.rmtree(inputs["root"], ignore_errors=True)


def _eval_model(model: dict, config: env.EpisodeConfig) -> tuple[float, tuple[int, ...]]:
    """Evaluate a loaded model file on one day, as ``evcs eval`` does, through
    the public functions only."""
    if model["algo"] == policy.MODEL_KIND_PG:
        params, scaler, max_laxity, level_cap = policy.pg_from_model(model)
        return policy.evaluate_policy(config, params, scaler, max_laxity, level_cap)
    params, feature_config, max_laxity = baseline.qe_from_model(model)
    return baseline.evaluate_qe(config, params, feature_config, max_laxity)


WORKLOADS = {w.name: w for w in (PgTrain, QeTrain, CliPipeline)}
