import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcs.agg import AggState
from evcs.baseline import (
    N_FEATURES,
    QeFeatureConfig,
    QeParams,
    evaluate_qe,
    qe_features,
    qe_from_model,
    qe_greedy_action,
    qe_model_dict,
    qe_train,
    qe_value,
    td_step,
)
from evcs.env import ArrivalEvent, EpisodeConfig
from evcs.policy import DivergenceError, TrainConfig, load_model, save_model


def test_features_inactive_on_empty_station():
    state = AggState(5.0, (0, 0, 0))
    assert np.array_equal(
        qe_features(state, 0, urgent=0, chargeable=0, price_threshold=4.0),
        np.zeros(N_FEATURES),
    )


def test_features_cost_flag():
    state = AggState(9.0, (1, 0))
    high = qe_features(state, 1, urgent=1, chargeable=1, price_threshold=4.0)
    low = qe_features(state, 1, urgent=1, chargeable=1, price_threshold=20.0)
    idle = qe_features(state, 0, urgent=0, chargeable=1, price_threshold=4.0)
    assert high[0] == 1.0 and low[0] == 0.0 and idle[0] == 0.0


def test_features_deadline_risk_flag():
    state = AggState(1.0, (2, 1))
    risky = qe_features(state, 1, urgent=2, chargeable=3, price_threshold=9.0)
    safe = qe_features(state, 2, urgent=2, chargeable=3, price_threshold=9.0)
    assert risky[1] == 1.0 and safe[1] == 0.0


def test_features_saturation_and_congestion():
    state = AggState(1.0, (1, 2))
    full = qe_features(state, 3, 1, 3, 9.0, congestion_count=2)
    part = qe_features(state, 2, 1, 3, 9.0, congestion_count=5)
    assert full[2] == 1.0 and part[2] == 0.0
    assert full[3] == 1.0 and part[3] == 0.0


def test_value():
    assert qe_value(np.zeros(4), np.ones(4)) == 0.0
    one_hot = np.array([0.0, 0.0, 1.0, 0.0])
    assert qe_value(np.array([1.0, 2.0, 3.0, 4.0]), one_hot) == 3.0
    assert qe_value(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 0, 1.0, 0])) == 4.0
    with pytest.raises(ValueError):
        qe_value(np.zeros(3), np.zeros(4))


def test_greedy_tie_rule_and_single_action():
    state = AggState(1.0, (1, 1))
    assert qe_greedy_action(np.zeros(4), state, 0, 2, 9.0) == 0
    assert qe_greedy_action(np.zeros(4), state, 2, 2, 9.0) == 2


def _full_scan(theta, state, urgent, chargeable, threshold, congestion_count=12):
    """Greedy action by scanning every feasible action; ties go to the smallest."""
    best, best_v = None, None
    for a in range(urgent, chargeable + 1):
        v = qe_value(theta, qe_features(state, a, urgent, chargeable, threshold, congestion_count))
        if best_v is None or v > best_v:
            best, best_v = a, v
    return best


def test_greedy_charges_fully_when_cheap():
    theta = np.array([-10.0, 0.0, 1.0, 0.0])
    cheap = AggState(1.0, (0, 2, 1))
    dear = AggState(9.0, (0, 2, 1))
    assert qe_greedy_action(theta, cheap, 0, 3, 5.0) == _full_scan(theta, cheap, 0, 3, 5.0) == 3
    assert qe_greedy_action(theta, dear, 0, 3, 5.0) == _full_scan(theta, dear, 0, 3, 5.0) == 0


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), min_size=4, max_size=4),
    st.integers(0, 15).flatmap(
        lambda c: st.tuples(st.one_of(st.just(0), st.just(min(1, c)), st.integers(0, c)), st.just(c))
    ),
    st.sampled_from([4.0, 5.0, 6.0]),
    st.integers(0, 16),
)
def test_greedy_three_candidates_match_full_scan(theta, bounds, price, congestion_count):
    """Scanning urgent, max(urgent, 1) and chargeable gives the full scan's
    action: theta has ties and zeros, urgent is often 0 or 1 (where the
    stretches meet), the price lies below, at and above the threshold 5.0,
    and the parked total on both sides of congestion_count."""
    urgent, chargeable = bounds
    state = AggState(price, (urgent, chargeable - urgent))
    theta = np.array(theta)
    assert qe_greedy_action(theta, state, urgent, chargeable, 5.0, congestion_count) == _full_scan(
        theta, state, urgent, chargeable, 5.0, congestion_count
    )


def test_td_gamma_zero_fits_least_squares():
    """With no bootstrapping the update is plain LMS regression on immediate
    rewards; on an exactly-linear reward it must recover the closed-form fit."""
    rng = np.random.default_rng(8)
    hidden = np.array([-9.0, 3.0, 1.5, -0.5])
    patterns = [np.array([b0, b1, b2, b3], dtype=float)
                for b0 in (0, 1) for b1 in (0, 1) for b2 in (0, 1) for b3 in (0, 1)]
    theta = np.zeros(4)
    visited = []
    for _ in range(6000):
        phi = patterns[int(rng.integers(len(patterns)))]
        reward = float(hidden @ phi)
        visited.append((phi, reward))
        theta = td_step(theta, phi, reward, next_best_value=123.0, discount=0.0,
                        step_size=0.1)
    matrix = np.array([phi for phi, _ in visited])
    targets = np.array([r for _, r in visited])
    closed_form, *_ = np.linalg.lstsq(matrix, targets, rcond=None)
    assert np.allclose(theta, closed_form, atol=1e-6)
    assert np.allclose(closed_form, hidden, atol=1e-9)


def test_td_fixed_point_matches_exact_q_on_two_state_mdp():
    """Deterministic 2-state, 2-action MDP with one-hot features (theta is the
    Q-table): the TD iteration must land on the Bellman-optimality solution."""
    gamma = 0.9
    reward = {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 2.0, (1, 1): -1.0}
    succ = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1}

    q_star = np.zeros((2, 2))
    for _ in range(2000):
        q_star = np.array(
            [
                [reward[s, a] + gamma * q_star[succ[s, a]].max() for a in (0, 1)]
                for s in (0, 1)
            ]
        )

    def one_hot(s, a):
        phi = np.zeros(4)
        phi[2 * s + a] = 1.0
        return phi

    theta = np.zeros(4)
    rng = np.random.default_rng(5)
    s = 0
    for _ in range(4000):
        a = int(rng.integers(2))
        s2 = succ[s, a]
        next_best = max(float(theta @ one_hot(s2, b)) for b in (0, 1))
        theta = td_step(theta, one_hot(s, a), reward[s, a], next_best, gamma, 1.0)
        s = s2
    assert np.allclose(theta.reshape(2, 2), q_star, atol=1e-6)


def _tiny_day(prices=(1.0, 9.0, 1.0)) -> EpisodeConfig:
    return EpisodeConfig(2, prices, (ArrivalEvent(0, 1, 2),))


def test_train_zero_rewards_leaves_theta_zero():
    cfg = _tiny_day(prices=(0.0, 0.0, 0.0))
    result = qe_train([cfg], TrainConfig(step_size=0.1, iterations=20, seed=0), max_laxity=1)
    assert np.array_equal(result.params.theta, np.zeros(4))
    assert np.array_equal(result.curve, np.zeros(20))


def test_train_curve_and_trace_shapes():
    result = qe_train(
        [_tiny_day()], TrainConfig(step_size=0.05, iterations=12, seed=2), max_laxity=1
    )
    assert result.curve.shape == (12,)
    assert result.param_trace.shape == (12, 4)
    assert result.iterations_run == 12


def test_train_divergence_guard():
    cfg = _tiny_day()
    with pytest.raises(DivergenceError):
        qe_train(
            [cfg],
            TrainConfig(step_size=0.5, iterations=50, seed=1, divergence_bound=1e-9),
            max_laxity=1,
        )


def test_train_requires_days():
    with pytest.raises(ValueError):
        qe_train([], TrainConfig(step_size=0.1, iterations=5))


def test_evaluate_deterministic_and_feasible():
    cfg = EpisodeConfig(
        4,
        (1.0, 9.0, 1.0, 9.0, 1.0),
        (ArrivalEvent(0, 2, 4), ArrivalEvent(1, 1, 2)),
    )
    params = QeParams(np.array([-5.0, 0.0, 0.5, 0.0]))
    first = evaluate_qe(cfg, params, QeFeatureConfig(), max_laxity=2)
    second = evaluate_qe(cfg, params, QeFeatureConfig(), max_laxity=2)
    assert first == second


def test_qe_model_round_trip(tmp_path):
    params = QeParams(np.array([0.25, -1.5, 3.125, 0.0]))
    model = qe_model_dict(params, QeFeatureConfig(price_threshold=7.5), 12, "hash")
    path = tmp_path / "qe.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded == model
    params2, feature_config, max_laxity = qe_from_model(loaded)
    assert np.array_equal(params2.theta, params.theta)
    assert feature_config.price_threshold == 7.5
    assert max_laxity == 12
