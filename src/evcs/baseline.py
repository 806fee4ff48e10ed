"""Approximate-Q comparison policy over four binary station features.

The action value is a linear combination of four indicator features (charging
while the price is high, under-serving zero-laxity EVs, saturating the
station, operating while congested), fitted episode-by-episode with
Bellman-optimality temporal-difference updates and epsilon-greedy rollouts.
The feature set is a reconstruction: it mirrors the cost/constraint flavour
of the original design but is not a numerical replica of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .agg import AggSimulator, AggState, max_arrival_laxity
from .env import EpisodeConfig
from .policy import DivergenceError, TrainConfig, require_fields

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
    computed once per rollout.  ``congestion_count`` is the parked-EV count
    above which the station is considered congested.
    """

    price_threshold: float | None = None
    congestion_count: int = 12


def qe_features(
    state: AggState,
    action: int,
    urgent: int,
    chargeable: int,
    price_threshold: float,
    congestion_count: int = 12,
) -> np.ndarray:
    """Binary feature vector for one (state, action) pair.

    f0: charging while the price is above the threshold
    f1: action below the zero-laxity count (deadline-violation risk)
    f2: every parked EV charged (saturation; inactive on an empty station)
    f3: more EVs parked than the congestion threshold
    """
    return np.array(
        [
            1.0 if (state.price > price_threshold and action > 0) else 0.0,
            1.0 if action < urgent else 0.0,
            1.0 if (chargeable > 0 and action == chargeable) else 0.0,
            1.0 if state.total > congestion_count else 0.0,
        ]
    )


def qe_value(theta: Sequence[float] | QeParams, features: Sequence[float]) -> float:
    th = theta.theta if isinstance(theta, QeParams) else np.asarray(theta, dtype=float)
    f = np.asarray(features, dtype=float)
    if th.shape != f.shape:
        raise ValueError(f"theta shape {th.shape} does not match features {f.shape}")
    return float(th @ f)


def qe_greedy_action(
    theta: Sequence[float] | QeParams,
    state: AggState,
    urgent: int,
    chargeable: int,
    price_threshold: float,
    congestion_count: int = 12,
) -> int:
    """Highest-value feasible action; ties resolve to the smallest action.

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
    best_value = None
    for action in sorted({urgent, min(max(urgent, 1), chargeable), chargeable}):
        value = qe_value(
            theta,
            qe_features(state, action, urgent, chargeable, price_threshold, congestion_count),
        )
        if best_value is None or value > best_value:
            best_action, best_value = action, value
    return best_action


def td_step(
    theta: np.ndarray,
    features: np.ndarray,
    reward: float,
    next_best_value: float,
    discount: float,
    step_size: float,
) -> np.ndarray:
    """One semi-gradient update toward the Bellman-optimality target."""
    delta = reward + discount * next_best_value - float(theta @ features)
    return theta + step_size * delta * features


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
    theta = np.zeros(N_FEATURES)
    curve = []
    trace = []
    half = max(1, config.iterations // 2)

    for episode in range(config.iterations):
        day = day_configs[episode % len(day_configs)]
        threshold = _day_threshold(day, feature_config)
        epsilon = max(
            EPS_END, EPS_START + (EPS_END - EPS_START) * episode / half
        )
        sim = AggSimulator(day, max_laxity)
        state = sim.reset()
        episode_reward = 0.0
        for _ in range(day.horizon):
            urgent, chargeable = sim.urgent, sim.chargeable
            if rng.random() < epsilon:
                action = int(rng.integers(urgent, chargeable + 1))
            else:
                action = qe_greedy_action(
                    theta, state, urgent, chargeable, threshold,
                    feature_config.congestion_count,
                )
            features = qe_features(
                state, action, urgent, chargeable, threshold,
                feature_config.congestion_count,
            )
            state, reward = sim.step(action)
            episode_reward += reward
            if sim.t >= day.horizon:
                next_best = 0.0
            else:
                next_urgent, next_chargeable = sim.urgent, sim.chargeable
                best_action = qe_greedy_action(
                    theta, state, next_urgent, next_chargeable, threshold,
                    feature_config.congestion_count,
                )
                next_best = qe_value(
                    theta,
                    qe_features(
                        state, best_action, next_urgent, next_chargeable,
                        threshold, feature_config.congestion_count,
                    ),
                )
            theta = td_step(
                theta, features, reward, next_best, config.discount, config.step_size
            )
        norm = float(np.linalg.norm(theta))
        if not np.isfinite(norm) or norm > config.divergence_bound:
            raise DivergenceError(
                f"theta norm {norm:.3g} exceeded the divergence bound "
                f"{config.divergence_bound:.3g} at episode {episode}"
            )
        curve.append(episode_reward)
        trace.append(theta.copy())

    return QeTrainResult(
        params=QeParams(theta),
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

    The simulator is sized to the day's highest arrival laxity where that
    exceeds ``max_laxity``; the features read no per-level count.
    """
    threshold = _day_threshold(config, feature_config)
    sim = AggSimulator(config, max(max_laxity, max_arrival_laxity(config)))
    state = sim.reset()
    total = 0.0
    actions = []
    for _ in range(config.horizon):
        action = qe_greedy_action(
            params, state, sim.urgent, sim.chargeable, threshold,
            feature_config.congestion_count,
        )
        state, reward = sim.step(action)
        total += reward
        actions.append(action)
    return total, tuple(actions)


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


def qe_from_model(model: dict) -> tuple[QeParams, QeFeatureConfig, int]:
    """Parse a QE model dict; a missing field or a ``theta`` of the wrong
    length raises ValueError naming the field."""
    require_fields(model, ("theta", "max_laxity"))
    params = QeParams(np.array(model["theta"], dtype=float))
    threshold = model.get("price_threshold")
    feature_config = QeFeatureConfig(
        price_threshold=None if threshold is None else float(threshold),
        congestion_count=int(model.get("congestion_count", 12)),
    )
    return params, feature_config, int(model["max_laxity"])
