"""Approximate-Q comparison policy over four binary station features.

The action value is a linear combination of four indicator features (charging
while the price is high, under-serving zero-laxity EVs, saturating the
station, operating while congested), fitted episode-by-episode with
Bellman-optimality temporal-difference updates and epsilon-greedy rollouts.
The feature set is a reconstruction: it mirrors the cost/constraint flavour
of the original design but is not a numerical replica of it.

The per-slot arithmetic runs on Python floats: features are 4-tuples of
0.0/1.0, the value is ``0.0 + t0*f0 + t1*f1 + t2*f2 + t3*f3`` and the
update is ``t_i + (step_size * delta) * f_i``.  Those are the operations, in
the order, of numpy's 4-element dot and of ``theta + step_size * delta *
features``, so values and trained coefficients equal the numpy formulation
bit for bit (tests/test_baseline.py pins both); numpy arrays appear only per
episode and in ``QeParams``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import data
from .agg import AggSimulator, AggState, max_arrival_laxity
from .env import EpisodeConfig
from .policy import DivergenceError, TrainConfig

N_FEATURES = 4
EPS_START = 1.0
EPS_END = 0.05


@dataclass(frozen=True, eq=False)
class QeParams:
    """Linear coefficients over the four binary features."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        th = np.asarray(self.theta, dtype=float)
        if th.shape != (N_FEATURES,):
            raise ValueError(f"theta must have length {N_FEATURES}, got {th.shape}")
        if not np.all(np.isfinite(th)):
            raise ValueError("theta has non-finite entries")
        object.__setattr__(self, "theta", th)


@dataclass(frozen=True)
class QeFeatureConfig:
    """Knobs for the binary features.

    ``price_threshold=None`` means "use the median of the day's prices",
    computed once per day.  ``congestion_count`` is the parked-EV count
    above which the station is considered congested.
    """

    price_threshold: float | None = None
    congestion_count: int = 12


Features = tuple[float, float, float, float]


def _features(dear: bool, congested: bool, action: int, urgent: int, chargeable: int) -> Features:
    """The four binary features of ``action``, as 0.0/1.0 floats, given the
    slot's price flag (price above the threshold) and congestion flag (more
    EVs parked than the congestion count).

    f0: charging while the price is above the threshold
    f1: action below the zero-laxity count (deadline-violation risk)
    f2: every parked EV charged (saturation; inactive on an empty station)
    f3: congested
    """
    return (
        1.0 if (dear and action > 0) else 0.0,
        1.0 if action < urgent else 0.0,
        1.0 if (chargeable > 0 and action == chargeable) else 0.0,
        1.0 if congested else 0.0,
    )


def qe_value(theta: Sequence[float], features: Sequence[float]) -> float:
    """theta . features, summed left to right from +0.0 as numpy's dot of
    two 4-element float64 vectors sums, so the two agree bit for bit."""
    t0, t1, t2, t3 = theta
    f0, f1, f2, f3 = features
    return 0.0 + t0 * f0 + t1 * f1 + t2 * f2 + t3 * f3


def _greedy(
    theta: Sequence[float], dear: bool, congested: bool, urgent: int, chargeable: int
) -> tuple[int, float]:
    """(action, value) of the highest-value feasible action; ties resolve
    to the smallest action.

    On the feasible range [urgent, chargeable], f1 is always 0 and f3 does
    not depend on the action; f0 changes only between actions 0 and 1, and
    f2 only at ``chargeable``.  The features, and so the value, are constant
    on each stretch between those points, so scanning the smallest action of
    each stretch (urgent, max(urgent, 1) and chargeable) in ascending order
    finds the same argmax and tie-break as scanning the whole range.
    """
    if urgent > chargeable:
        raise ValueError("empty feasible action set: urgent exceeds chargeable")
    best_action = urgent
    best_value = qe_value(theta, _features(dear, congested, urgent, urgent, chargeable))
    middle = 1 if urgent == 0 < chargeable else urgent  # min(max(urgent, 1), chargeable)
    if middle > urgent:
        value = qe_value(theta, _features(dear, congested, middle, urgent, chargeable))
        if value > best_value:
            best_action, best_value = middle, value
    if chargeable > middle:
        value = qe_value(theta, _features(dear, congested, chargeable, urgent, chargeable))
        if value > best_value:
            best_action, best_value = chargeable, value
    return best_action, best_value


def qe_greedy_action(
    theta: Sequence[float],
    state: AggState,
    urgent: int,
    chargeable: int,
    price_threshold: float,
    congestion_count: int = 12,
) -> int:
    """Highest-value feasible action; ties resolve to the smallest action."""
    return _greedy(
        theta, state.price > price_threshold, state.total > congestion_count,
        urgent, chargeable,
    )[0]


def td_step(
    theta: Sequence[float],
    features: Sequence[float],
    reward: float,
    next_best_value: float,
    discount: float,
    step_size: float,
) -> Features:
    """One semi-gradient update toward the Bellman-optimality target:
    ``theta_i + (step_size * delta) * f_i``, numpy's association of
    ``theta + step_size * delta * features``."""
    delta = reward + discount * next_best_value - qe_value(theta, features)
    step = step_size * delta
    t0, t1, t2, t3 = theta
    f0, f1, f2, f3 = features
    return (t0 + step * f0, t1 + step * f1, t2 + step * f2, t3 + step * f3)


@dataclass
class QeTrainResult:
    params: QeParams
    feature_config: QeFeatureConfig
    curve: np.ndarray        # episode reward per training episode
    param_trace: np.ndarray  # theta after each episode
    iterations_run: int


def _day_threshold(config: EpisodeConfig, feature_config: QeFeatureConfig) -> float:
    if feature_config.price_threshold is not None:
        return feature_config.price_threshold
    return float(np.median(config.prices[: config.horizon]))


def qe_train(
    day_configs: Sequence[EpisodeConfig],
    config: TrainConfig,
    feature_config: QeFeatureConfig = QeFeatureConfig(),
    max_laxity: int = 12,
) -> QeTrainResult:
    """Episodic TD training: one training day per episode, round-robin.

    Exploration is epsilon-greedy over the feasible range, with epsilon
    falling linearly from 1.0 to 0.05 across the first half of training and
    staying there.
    """
    if not day_configs:
        raise ValueError("need at least one training day")
    rng = np.random.default_rng(config.seed)
    # the days that round-robin visits, each simulator built once
    days = [
        (AggSimulator(day, max_laxity), _day_threshold(day, feature_config))
        for day in day_configs[: config.iterations]
    ]
    congestion_count = feature_config.congestion_count
    discount, step_size = config.discount, config.step_size
    theta: Features = (0.0,) * N_FEATURES
    curve = []
    trace = []
    half = max(1, config.iterations // 2)

    for episode in range(config.iterations):
        sim, threshold = days[episode % len(days)]
        epsilon = max(
            EPS_END, EPS_START + (EPS_END - EPS_START) * episode / half
        )
        state = sim.reset()
        horizon = sim.config.horizon
        episode_reward = 0.0
        for _ in range(horizon):
            # chargeable counts every parked EV, the state's total
            urgent, chargeable = sim.urgent, sim.chargeable
            dear, congested = state.price > threshold, chargeable > congestion_count
            if rng.random() < epsilon:
                action = int(rng.integers(urgent, chargeable + 1))
            else:
                action = _greedy(theta, dear, congested, urgent, chargeable)[0]
            features = _features(dear, congested, action, urgent, chargeable)
            state, reward = sim.step(action)
            episode_reward += reward
            if sim.t >= horizon:
                next_best = 0.0
            else:
                next_chargeable = sim.chargeable
                next_best = _greedy(
                    theta, state.price > threshold, next_chargeable > congestion_count,
                    sim.urgent, next_chargeable,
                )[1]
            theta = td_step(theta, features, reward, next_best, discount, step_size)
        theta_array = np.array(theta)
        norm = float(np.linalg.norm(theta_array))
        if not np.isfinite(norm) or norm > config.divergence_bound:
            raise DivergenceError(
                f"theta norm {norm:.3g} exceeded the divergence bound "
                f"{config.divergence_bound:.3g} at episode {episode}"
            )
        curve.append(episode_reward)
        trace.append(theta_array)

    return QeTrainResult(
        params=QeParams(theta_array),
        feature_config=feature_config,
        curve=np.array(curve),
        param_trace=np.array(trace),
        iterations_run=config.iterations,
    )


def evaluate_qe(
    config: EpisodeConfig,
    params: QeParams,
    feature_config: QeFeatureConfig,
    max_laxity: int,
) -> tuple[float, tuple[int, ...]]:
    """Greedy (epsilon = 0) evaluation: total reward and per-slot actions.

    The features read no per-level count, so the simulator is sized to the
    day's highest arrival laxity and ``max_laxity`` is not used.
    """
    threshold = _day_threshold(config, feature_config)
    theta = params.theta.tolist()
    sim = AggSimulator(config, max_arrival_laxity(config))
    state = sim.reset()
    rewards = np.empty(config.horizon)
    actions = []
    for t in range(config.horizon):
        action = qe_greedy_action(
            theta, state, sim.urgent, sim.chargeable, threshold,
            feature_config.congestion_count,
        )
        state, rewards[t] = sim.step(action)
        actions.append(action)
    # summed as `Trajectory.episode_reward` sums a PG day, so two models that
    # take the same actions get the same reward
    return float(rewards.sum()), tuple(actions)


MODEL_KIND_QE = "qe"


def qe_model_dict(
    params: QeParams,
    feature_config: QeFeatureConfig,
    max_laxity: int,
    config_hash: str = "",
) -> dict:
    return {
        "algo": MODEL_KIND_QE,
        "theta": [float(v) for v in params.theta],
        "price_threshold": feature_config.price_threshold,
        "congestion_count": int(feature_config.congestion_count),
        "max_laxity": int(max_laxity),
        "config_hash": config_hash,
    }


def qe_from_model(model: dict, where: str = "model") -> tuple[QeParams, QeFeatureConfig, int]:
    """Parse a QE model dict read from ``where`` through `data.field`:
    ``price_threshold`` is optional, ``congestion_count`` defaults to 12 and
    must be >= 0, as must ``max_laxity``.  A missing or malformed field
    raises DataError naming ``where`` and the field."""
    params = QeParams(data.field(model, "theta", float, where, length=N_FEATURES))
    threshold = data.field(model, "price_threshold", float, where, default=None)
    congestion_count = data.field(model, "congestion_count", int, where, default=12)
    max_laxity = data.field(model, "max_laxity", int, where)
    for name, value in (("congestion_count", congestion_count), ("max_laxity", max_laxity)):
        if value < 0:
            raise data.DataError(f"{where}: field '{name}' must be >= 0, got {value}")
    return params, QeFeatureConfig(threshold, congestion_count), max_laxity
