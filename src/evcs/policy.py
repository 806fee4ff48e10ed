"""Linear Gaussian policy over aggregated station features, trained by
score-function gradient ascent on reward-to-go estimates.

The policy draws a continuous total action from a Gaussian whose mean is
linear in the (standardized) feature vector [price, n_0, ..., n_{w-1},
n_w + n_{w+1} + ...], whose width `feature_dim` fixes; the environment-side
projection rounds it and clamps it into the feasible range [zero-laxity
count, parked count].  Gradients always use the raw sample.

The reward-to-go that weights each score must not depend on that
trajectory's own actions through its baseline or scale, or the estimate is
biased.  In "episode" normalization a day with at least two rollouts in the
batch is centred and scaled on its same-day peers only, so each of its
rollouts contributes that day's gradient times a positive factor, the mean
inverse of its peers' spread: the batch gradient reweights the days, and
days with low spread weigh more.  "batch" normalization shares one mean and
scale across the batch, so it weighs all days alike; each trajectory's own
share of them leaves a bias that shrinks with the batch size.  A lone
rollout of a day falls back to normalizing on its own reward-to-go, which is
biased: its own mean and spread shrink the weight of late-day costs.

Training rolls all rollouts of an iteration together on a `BatchSimulator`,
through the engine behind `rollout_batch`, and so does `fit_scaler`; a
trajectory holds per-slot arrays.  Each row keeps the arithmetic of the
one-day rollout `run_policy_episode` (its own noise stream and its own dot
product for the mean), so batching leaves trained models bit-identical.  Evaluation rolls one
day at a time through `run_policy_episode`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import data
from .agg import AggSimulator, BatchSimulator, max_arrival_laxity
from .env import EpisodeConfig


class DivergenceError(RuntimeError):
    """Raised when training parameters blow past the configured bound."""


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """Linear Gaussian policy: action ~ N(weights . features + bias, sigma^2)."""

    weights: np.ndarray
    bias: float
    sigma: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError(f"weights must be a vector, got shape {w.shape}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def as_vector(self) -> np.ndarray:
        """Flat [weights..., bias] view used by updates and traces."""
        return np.append(self.weights, self.bias)


def policy_mean(params: PolicyParams, features: Sequence[float]) -> float:
    f = np.asarray(features, dtype=float)
    if f.shape != params.weights.shape:
        raise ValueError(
            f"feature dimension {f.shape} does not match weights "
            f"{params.weights.shape}"
        )
    return float(params.weights @ f + params.bias)


def sample_action(
    params: PolicyParams, features: Sequence[float], rng: np.random.Generator
) -> float:
    """Draw one continuous action: mean plus sigma-scaled standard normal."""
    return policy_mean(params, features) + params.sigma * rng.standard_normal()


def project_action(raw: float, chargeable: int, urgent: int = 0) -> int:
    """Round the raw action and clamp it into [urgent, chargeable].

    The lower bound is the zero-laxity count: those EVs must charge now or
    become impossible to finish.  A non-finite raw action raises ValueError.
    """
    if not 0 <= urgent <= chargeable:
        raise ValueError(
            f"need 0 <= urgent <= chargeable, got urgent={urgent}, "
            f"chargeable={chargeable}"
        )
    if not math.isfinite(raw):
        raise ValueError(f"non-finite raw action {raw}")
    rounded = math.floor(raw + 0.5)
    return min(max(rounded, urgent), chargeable)


def estimate_returns(rewards: Sequence[float], gamma: float) -> np.ndarray:
    """Reward-to-go at every step: returns[t] = sum_{u>=t} gamma^(u-t) r_u.

    The steps run along the last axis, so a (B, T) array gives each row's
    reward-to-go with the same arithmetic as that row alone.
    """
    r = np.asarray(rewards, dtype=float)
    if r.size == 0:
        raise ValueError("cannot estimate returns of an empty trajectory")
    out = np.empty_like(r)
    acc = 0.0
    for t in range(r.shape[-1] - 1, -1, -1):
        acc = r[..., t] + gamma * acc
        out[..., t] = acc
    return out


def normalize_returns(returns: Sequence[float]) -> np.ndarray:
    """Center and scale to unit standard deviation (population convention).

    A constant input (including a single entry) has no scale and maps to
    zeros, which keeps degenerate trajectories from producing gradients.
    """
    r = np.asarray(returns, dtype=float)
    if r.size == 0:
        raise ValueError("cannot normalize an empty return vector")
    std = float(r.std())
    if std == 0.0 or not math.isfinite(std):
        return np.zeros_like(r)
    return (r - r.mean()) / std


def _normalize_by_day(
    returns: Sequence[np.ndarray], days: Sequence[object]
) -> list[np.ndarray]:
    """Leave-one-out normalization of reward-to-go among rollouts of one day.

    With k >= 2 rollouts of a day, each is centred slot by slot on the mean of
    the other k - 1 and divided by the mean of their population standard
    deviations (Kool, van Hoof & Welling 2019).  Neither constant depends on
    the rollout it normalizes.  Peers with no spread map to zeros, as in
    ``normalize_returns``; a day's lone rollout is passed to it unchanged.
    """
    by_day: dict[object, list[int]] = {}
    for i, day in enumerate(days):
        by_day.setdefault(day, []).append(i)
    out: list[np.ndarray] = [np.empty(0)] * len(returns)
    for day, members in by_day.items():
        if len(members) == 1:
            out[members[0]] = normalize_returns(returns[members[0]])
            continue
        if len({returns[i].size for i in members}) != 1:
            raise ValueError(f"rollouts of day {day!r} differ in length")
        q = np.array([returns[i] for i in members])
        k = len(members)
        base = (q.sum(axis=0) - q) / (k - 1)
        stds = q.std(axis=1)
        scale = (stds.sum() - stds) / (k - 1)
        # exact test for "every peer is flat": the subtraction above can
        # leave rounding residue where the true peer sum is zero
        flat = np.count_nonzero(stds == 0.0) - (stds == 0.0) == k - 1
        for i, row, b, s, no_spread in zip(members, q, base, scale, flat):
            out[i] = np.zeros_like(row) if no_spread else (row - b) / s
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One rolled day as the policy saw it, one entry per slot: standardized
    features (T, d), raw and applied action (T,), and reward (T,)."""

    features: np.ndarray
    raw: np.ndarray
    applied: np.ndarray
    rewards: np.ndarray

    @property
    def episode_reward(self) -> float:
        return float(self.rewards.sum())


def estimate_gradient(
    trajectories: Sequence[Trajectory],
    params: PolicyParams,
    gamma: float,
    normalization: str = "episode",
    days: Sequence[object] | None = None,
) -> np.ndarray:
    """Score-function gradient estimate averaged over a batch of trajectories.

    Per trajectory: sum_t normalized-return[t] * grad log pi(raw_action[t]).
    ``normalization`` is "batch" (one mean/std shared across the batch) or
    "episode".  In "episode" mode ``days`` labels the day each trajectory was
    rolled on: rollouts of a day seen at least twice are normalized on their
    same-day peers only (leave-one-out), so each day's contribution is
    unbiased up to a positive factor of its own, and days are reweighted by
    their peers' spread.  A day's lone rollout is normalized on its own
    reward-to-go, which is biased; ``days=None`` treats every trajectory as
    its own day.  "batch" mode ignores ``days``.
    """
    if not trajectories:
        raise ValueError("cannot estimate a gradient from an empty batch")
    if normalization not in ("episode", "batch"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if days is not None and len(days) != len(trajectories):
        raise ValueError(
            f"got {len(days)} day labels for {len(trajectories)} trajectories"
        )

    if len({traj.rewards.size for traj in trajectories}) == 1:
        per_traj_returns = list(
            estimate_returns(np.array([traj.rewards for traj in trajectories]), gamma)
        )
    else:
        per_traj_returns = [estimate_returns(traj.rewards, gamma) for traj in trajectories]
    if normalization == "batch":
        pooled = np.concatenate(per_traj_returns)
        std = float(pooled.std())
        mean = float(pooled.mean())
        if std == 0.0:
            per_traj_returns = [np.zeros_like(q) for q in per_traj_returns]
        else:
            per_traj_returns = [(q - mean) / std for q in per_traj_returns]
    else:
        per_traj_returns = _normalize_by_day(
            per_traj_returns, range(len(trajectories)) if days is None else days
        )

    grad = np.zeros(params.dim + 1)
    for traj, q in zip(trajectories, per_traj_returns):
        means = traj.features @ params.weights + params.bias
        weighted = q * (traj.raw - means) / params.sigma**2
        grad[:-1] += traj.features.T @ weighted
        grad[-1] += weighted.sum()
    return grad / len(trajectories)


def pg_update(
    params: PolicyParams, gradient: Sequence[float], step_size: float
) -> PolicyParams:
    """Gradient-ascent step on [weights..., bias]; sigma is left alone."""
    if not step_size > 0:
        raise ValueError(f"step size must be positive, got {step_size}")
    g = np.asarray(gradient, dtype=float)
    if g.shape != (params.dim + 1,):
        raise ValueError(
            f"gradient must have length {params.dim + 1}, got {g.shape}"
        )
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient has non-finite entries")
    return PolicyParams(
        weights=params.weights + step_size * g[:-1],
        bias=params.bias + step_size * g[-1],
        sigma=params.sigma,
    )


@dataclass(frozen=True, eq=False)
class FeatureScaler:
    """Per-feature standardization constants fitted on the training set.

    Standard deviations are floored at 1.0: rarely-populated laxity levels
    otherwise get near-zero scale and their standardized features explode.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=float))
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be vectors of equal length")
        if np.any(self.std <= 0):
            raise ValueError("std entries must be positive")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def transform(self, raw: Sequence[float]) -> np.ndarray:
        return (np.asarray(raw, dtype=float) - self.mean) / self.std

    @classmethod
    def fit(cls, rows: Sequence[Sequence[float]]) -> "FeatureScaler":
        m = np.asarray(rows, dtype=float)
        return cls(mean=m.mean(axis=0), std=np.maximum(m.std(axis=0), 1.0))

    @classmethod
    def identity(cls, dim: int) -> "FeatureScaler":
        return cls(mean=np.zeros(dim), std=np.ones(dim))


def feature_dim(max_laxity: int, level_cap: int | None = None) -> int:
    """Width w + 2 of the state [price, n_0, ..., n_{w-1}, n_w + n_{w+1} + ...],
    where w is ``max_laxity``, or ``min(level_cap, max_laxity)`` under a cap."""
    if max_laxity < 0:
        raise ValueError(f"max_laxity must be >= 0, got {max_laxity}")
    if level_cap is not None and level_cap < 1:
        raise ValueError(f"level_cap must be >= 1 or None, got {level_cap}")
    levels = max_laxity if level_cap is None else min(level_cap, max_laxity)
    return levels + 2


def run_policy_episode(
    config: EpisodeConfig,
    params: PolicyParams,
    scaler: FeatureScaler,
    max_laxity: int,
    level_cap: int | None = None,
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Roll one day under the policy; ``rng=None`` runs the deterministic mean.

    The simulator is sized to the day and the feature width w, not to
    ``max_laxity``: levels from w up pool into the last feature, so a model
    evaluates laxity it never saw and a capped model's range costs nothing.
    """
    w = feature_dim(max_laxity, level_cap) - 2
    sim = AggSimulator(config, max(w, max_arrival_laxity(config)))
    state = sim.reset()
    horizon = config.horizon
    features = np.empty((horizon, params.dim))
    raw, rewards = np.empty(horizon), np.empty(horizon)
    applied = np.empty(horizon, dtype=np.int64)
    for t in range(horizon):
        counts = state.counts
        f = scaler.transform([state.price, *counts[:w], sum(counts[w:])])
        raw[t] = policy_mean(params, f) if rng is None else sample_action(params, f, rng)
        features[t] = f
        applied[t] = project_action(raw[t], sim.chargeable, sim.urgent)
        state, rewards[t] = sim.step(applied[t])
    return Trajectory(features, raw, applied, rewards)


def rollout_batch(
    configs: Sequence[EpisodeConfig],
    params: PolicyParams,
    scaler: FeatureScaler,
    max_laxity: int,
    level_cap: int | None = None,
    rngs: Sequence[np.random.Generator] | None = None,
) -> list[Trajectory]:
    """Roll every day of ``configs`` at once, one `BatchSimulator` row each.

    Trajectory i equals ``run_policy_episode(configs[i], ..., rng=rngs[i])``
    exactly: row i draws its noise from ``rngs[i]`` and takes its mean as
    ``weights @ f + bias`` on its own feature row.  Days of different
    horizons roll as separate batches.  ``rngs=None`` runs every row at its
    deterministic mean.
    """
    if rngs is not None and len(rngs) != len(configs):
        raise ValueError(f"got {len(rngs)} generators for {len(configs)} days")
    days = range(len(configs))
    return _rollout_days(_pack_days(configs, max_laxity), days, params, scaler, level_cap, rngs)


def _pack_days(
    configs: Sequence[EpisodeConfig], max_laxity: int
) -> list[tuple[BatchSimulator, list[int]]]:
    """One simulator per horizon, over the indices of the days of that horizon."""
    by_horizon: dict[int, list[int]] = {}
    for i, config in enumerate(configs):
        by_horizon.setdefault(config.horizon, []).append(i)
    return [
        (BatchSimulator([configs[i] for i in members], max_laxity), members)
        for members in by_horizon.values()
    ]


def _rollout_days(
    packed: list[tuple[BatchSimulator, list[int]]],
    days: Sequence[int],
    params: PolicyParams,
    scaler: FeatureScaler,
    level_cap: int | None,
    rngs: Sequence[np.random.Generator] | None,
) -> list[Trajectory]:
    """Roll day ``days[i]`` of a `_pack_days` result as row i, with ``rngs[i]``."""
    rolled: dict[int, Trajectory] = {}
    for pool, members in packed:
        local = {day: j for j, day in enumerate(members)}
        rows = [i for i, day in enumerate(days) if day in local]
        if rows:
            sim = pool.take([local[days[i]] for i in rows])
            group_rngs = None if rngs is None else [rngs[i] for i in rows]
            rolled.update(zip(rows, _roll(sim, params, scaler, level_cap, group_rngs)))
    return [rolled[i] for i in range(len(days))]


def _roll(
    sim: BatchSimulator,
    params: PolicyParams,
    scaler: FeatureScaler,
    level_cap: int | None,
    rngs: Sequence[np.random.Generator] | None,
) -> list[Trajectory]:
    """Drive every row of a reset simulator to its horizon."""
    dim = feature_dim(sim.max_laxity, level_cap)
    if params.dim != dim or scaler.dim != dim:
        raise ValueError(
            f"policy dimension {params.dim} and scaler dimension {scaler.dim} "
            f"do not match the feature dimension {dim}"
        )
    batch, horizon = sim.batch, sim.horizon
    features = np.empty((batch, horizon, dim))
    raw, rewards = np.empty((batch, horizon)), np.empty((batch, horizon))
    applied = np.empty((batch, horizon), dtype=np.int64)
    if rngs is not None:
        # the same values as one scalar draw per slot
        noise = params.sigma * np.array([rng.standard_normal(horizon) for rng in rngs])
    w = dim - 2
    row = np.empty((batch, dim))
    counts = sim.counts
    for t in range(horizon):
        row[:, 0] = sim.price
        row[:, 1:-1] = counts[:, :w]
        row[:, -1] = counts[:, w:].sum(axis=1)
        f = scaler.transform(row)
        features[:, t] = f
        # one dot product per row, as policy_mean takes it: a matrix-vector
        # product may round differently
        mean = np.fromiter(map(params.weights.__matmul__, f), float, batch) + params.bias
        raw[:, t] = mean if rngs is None else mean + noise[:, t]
        rounded = np.floor(raw[:, t] + 0.5)
        if not np.all(np.isfinite(rounded)):
            raise ValueError(f"slot {t}: non-finite raw action")
        applied[:, t] = np.minimum(np.maximum(rounded, sim.urgent), sim.chargeable)
        counts, rewards[:, t] = sim.step(applied[:, t])
    return [Trajectory(features[b], raw[b], applied[b], rewards[b]) for b in range(batch)]


def fit_scaler(
    day_configs: Sequence[EpisodeConfig],
    max_laxity: int,
    level_cap: int | None = None,
) -> FeatureScaler:
    """Fit standardization constants from urgent-only rollouts of the training
    days: the linear policy a = n_0 on unscaled features, whose mean is
    exactly n_0, so rounding and clamping keep it."""
    dim = feature_dim(max_laxity, level_cap)
    urgent_only = PolicyParams(np.eye(dim)[1], 0.0, 1.0)
    identity = FeatureScaler.identity(dim)
    rolled = rollout_batch(day_configs, urgent_only, identity, max_laxity, level_cap)
    rows = np.concatenate([traj.features for traj in rolled] or [np.empty((0, dim))])
    return FeatureScaler.fit(rows) if len(rows) else identity


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the gradient-ascent training loop."""

    step_size: float
    iterations: int
    batch: int = 1
    discount: float = 1.0
    sigma_decay: float = 1.0
    sigma_min: float = 1e-2
    step_decay: float = 1.0
    seed: int = 0
    convergence_tol: float = 1e-4
    convergence_window: int = 10
    divergence_bound: float = 1e6
    return_normalization: str = "episode"

    def __post_init__(self) -> None:
        if self.step_size < 0:
            raise ValueError(f"step size must be >= 0, got {self.step_size}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if not 0 < self.discount <= 1:
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")
        if not 0 < self.sigma_decay <= 1:
            raise ValueError(f"sigma decay must be in (0, 1], got {self.sigma_decay}")
        if not 0 < self.step_decay <= 1:
            raise ValueError(f"step decay must be in (0, 1], got {self.step_decay}")


@dataclass
class TrainResult:
    params: PolicyParams
    scaler: FeatureScaler
    curve: np.ndarray        # mean episode reward per iteration
    param_trace: np.ndarray  # per iteration: [weights..., bias, sigma]
    iterations_run: int
    converged: bool


def train(
    day_configs: Sequence[EpisodeConfig],
    initial_params: PolicyParams,
    config: TrainConfig,
    max_laxity: int,
    level_cap: int | None = None,
    scaler: FeatureScaler | None = None,
) -> TrainResult:
    """Gradient-ascent policy search over the training days.

    The training days are packed into batch simulators once per call.  Each
    iteration rolls a round-robin window of ``batch`` days as one batch (one
    per horizon when days differ in length), with per-trajectory RNG streams
    spawned from the seed; every rollout equals ``run_policy_episode`` under
    its stream.  It averages their score-function gradients and steps the
    parameters.  The day of each
    rollout goes to ``estimate_gradient``, so in "episode" normalization a
    batch that rolls a day more than once normalizes it on its peers (each
    day's contribution unbiased up to a positive factor of its own, so days
    are reweighted by their peers' spread); a batch of at most
    ``len(day_configs)`` rolls each day once and keeps the biased
    per-rollout normalization.  Stops early once the relative parameter
    change stays under ``convergence_tol`` for ``convergence_window``
    consecutive iterations.
    """
    if not day_configs:
        raise ValueError("need at least one training day")
    if scaler is None:
        scaler = fit_scaler(day_configs, max_laxity, level_cap)
    if scaler.dim != initial_params.dim:
        raise ValueError(
            f"scaler dimension {scaler.dim} does not match policy dimension "
            f"{initial_params.dim}"
        )

    packed = _pack_days(day_configs, max_laxity)
    seed_root = np.random.SeedSequence(config.seed)
    params = initial_params
    n_days = len(day_configs)
    step_size = config.step_size
    curve = []
    trace = []
    quiet_streak = 0
    converged = False
    iterations_run = 0

    for iteration in range(config.iterations):
        day_idx = [
            (iteration * config.batch + j) % n_days for j in range(config.batch)
        ]
        rngs = [np.random.default_rng(child) for child in seed_root.spawn(len(day_idx))]
        trajectories = _rollout_days(packed, day_idx, params, scaler, level_cap, rngs)
        gradient = estimate_gradient(
            trajectories,
            params,
            config.discount,
            config.return_normalization,
            days=day_idx,
        )
        old_vec = params.as_vector()
        if step_size > 0:
            params = pg_update(params, gradient, step_size)
        step_size *= config.step_decay
        new_sigma = max(params.sigma * config.sigma_decay, config.sigma_min)
        params = PolicyParams(params.weights, params.bias, new_sigma)

        curve.append(float(np.mean([t.episode_reward for t in trajectories])))
        trace.append(np.append(params.as_vector(), params.sigma))
        iterations_run = iteration + 1

        new_vec = params.as_vector()
        norm = float(np.linalg.norm(new_vec))
        if not np.isfinite(norm) or norm > config.divergence_bound:
            raise DivergenceError(
                f"parameter norm {norm:.3g} exceeded the divergence bound "
                f"{config.divergence_bound:.3g} at iteration {iteration}"
            )
        rel_change = float(np.linalg.norm(new_vec - old_vec)) / max(
            1.0, float(np.linalg.norm(old_vec))
        )
        quiet_streak = quiet_streak + 1 if rel_change < config.convergence_tol else 0
        if quiet_streak >= config.convergence_window:
            converged = True
            break

    return TrainResult(
        params=params,
        scaler=scaler,
        curve=np.array(curve),
        param_trace=np.array(trace),
        iterations_run=iterations_run,
        converged=converged,
    )


def evaluate_policy(
    config: EpisodeConfig,
    params: PolicyParams,
    scaler: FeatureScaler,
    max_laxity: int,
    level_cap: int | None = None,
) -> tuple[float, tuple[int, ...]]:
    """Deterministic (mean-action) evaluation: total reward and per-slot actions."""
    traj = run_policy_episode(config, params, scaler, max_laxity, level_cap, rng=None)
    return traj.episode_reward, tuple(traj.applied.tolist())


# --- model files -----------------------------------------------------------

MODEL_KIND_PG = "pg"


def pg_model_dict(
    params: PolicyParams,
    scaler: FeatureScaler,
    max_laxity: int,
    level_cap: int | None,
    config_hash: str = "",
) -> dict:
    return {
        "algo": MODEL_KIND_PG,
        "weights": [float(w) for w in params.weights],
        "bias": float(params.bias),
        "sigma": float(params.sigma),
        "feature_mean": [float(v) for v in scaler.mean],
        "feature_std": [float(v) for v in scaler.std],
        "max_laxity": int(max_laxity),
        "level_cap": None if level_cap is None else int(level_cap),
        "config_hash": config_hash,
    }


def pg_from_model(
    model: dict, where: str = "model"
) -> tuple[PolicyParams, FeatureScaler, int, int | None]:
    """Parse a PG model dict read from ``where`` through `data.field`
    (``level_cap`` is optional).  A malformed field raises DataError; a
    negative ``max_laxity``, a ``level_cap`` below 1 or a ``sigma`` <= 0
    raises ValueError naming the field."""
    max_laxity = data.field(model, "max_laxity", int, where)
    level_cap = data.field(model, "level_cap", int, where, default=None)
    dim = feature_dim(max_laxity, level_cap)
    weights, mean, std = (
        data.field(model, name, float, where, length=dim)
        for name in ("weights", "feature_mean", "feature_std")
    )
    if min(std) <= 0:
        raise data.DataError(f"{where}: field 'feature_std' has entries <= 0")
    bias, sigma = (data.field(model, name, float, where) for name in ("bias", "sigma"))
    return PolicyParams(weights, bias, sigma), FeatureScaler(mean, std), max_laxity, level_cap


def save_model(path: str | Path, model: dict) -> None:
    """Write a model as canonical JSON (sorted keys, exact float round-trip)."""
    Path(path).write_text(json.dumps(model, sort_keys=True, indent=2) + "\n")


def load_model(path: str | Path) -> dict:
    """Read a model file; text that is not a JSON object with an 'algo'
    field raises ValueError."""
    model = json.loads(Path(path).read_text())
    if not isinstance(model, dict) or "algo" not in model:
        raise ValueError("not a model file (missing 'algo' field)")
    return model
