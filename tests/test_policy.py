import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcs.agg import AggSimulator
from evcs.baseline import QeFeatureConfig, QeParams, evaluate_qe
from evcs.env import ArrivalEvent, EpisodeConfig
from evcs.policy import (
    DivergenceError,
    FeatureScaler,
    PolicyParams,
    TrainConfig,
    Trajectory,
    estimate_gradient,
    estimate_returns,
    evaluate_policy,
    feature_dim,
    fit_scaler,
    load_model,
    normalize_returns,
    pg_from_model,
    pg_model_dict,
    pg_update,
    policy_mean,
    project_action,
    rollout_batch,
    run_policy_episode,
    sample_action,
    save_model,
    train,
)
from oracles import log_prob_grad, random_instance


def test_params_validation():
    with pytest.raises(ValueError):
        PolicyParams(np.zeros(3), 0.0, 0.0)
    with pytest.raises(ValueError):
        PolicyParams(np.zeros((2, 2)), 0.0, 1.0)


def test_mean_action_zero_noise_limit():
    params = PolicyParams(np.array([1.0, 0.0]), 2.0, 1.0)
    assert policy_mean(params, [3.0, 5.0]) == 5.0
    rng = np.random.default_rng(0)
    tight = PolicyParams(np.array([1.0, 0.0]), 2.0, 1e-12)
    assert sample_action(tight, [3.0, 5.0], rng) == pytest.approx(5.0, abs=1e-9)


def test_sample_dimension_mismatch():
    params = PolicyParams(np.array([1.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        sample_action(params, [1.0, 2.0], np.random.default_rng(0))


def test_sample_moments():
    params = PolicyParams(np.zeros(2), 0.0, 1.0)
    rng = np.random.default_rng(42)
    draws = np.array([sample_action(params, [1.0, 1.0], rng) for _ in range(100_000)])
    n = draws.size
    assert abs(draws.mean()) < 3.0 / math.sqrt(n)
    assert abs(draws.var() - 1.0) < 3.0 * math.sqrt(2.0 / (n - 1))


def test_sample_seeded_determinism():
    params = PolicyParams(np.array([0.5]), 1.0, 2.0)
    a = sample_action(params, [2.0], np.random.default_rng(7))
    b = sample_action(params, [2.0], np.random.default_rng(7))
    assert a == b


def test_project_action():
    assert project_action(2.4, 5, 0) == 2
    assert project_action(-3.0, 4, 2) == 2
    assert project_action(9.7, 4, 0) == 4
    with pytest.raises(ValueError):
        project_action(1.0, 2, 3)


@given(
    st.floats(-50, 50, allow_nan=False),
    st.integers(0, 20),
    st.data(),
)
def test_project_action_bounds(raw, chargeable, data):
    urgent = data.draw(st.integers(0, chargeable))
    out = project_action(raw, chargeable, urgent)
    assert isinstance(out, int)
    assert urgent <= out <= chargeable


def test_log_prob_grad_zero_at_mean():
    params = PolicyParams(np.array([1.0, -1.0]), 0.5, 0.7)
    features = np.array([2.0, 3.0])
    grad = log_prob_grad(params, features, policy_mean(params, features))
    assert np.allclose(grad, 0.0)


def test_log_prob_grad_closed_form():
    params = PolicyParams(np.array([0.0]), 0.0, 1.0)
    grad = log_prob_grad(params, [2.0], 3.0)
    assert np.allclose(grad, [6.0, 3.0])


def _log_density(params, features, action):
    mean = policy_mean(params, features)
    return -((action - mean) ** 2) / (2 * params.sigma**2) - math.log(
        params.sigma * math.sqrt(2 * math.pi)
    )


def test_log_prob_grad_matches_finite_differences():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        weights = rng.uniform(-2, 2, size=dim)
        bias = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.5, 2.0))
        features = rng.uniform(-2, 2, size=dim)
        params = PolicyParams(weights, bias, sigma)
        action = policy_mean(params, features) + float(rng.uniform(0.2, 2.0)) * (
            1 if rng.random() < 0.5 else -1
        )
        analytic = log_prob_grad(params, features, action)
        h = 1e-6
        fd = np.empty(dim + 1)
        for k in range(dim):
            up = PolicyParams(weights + h * np.eye(dim)[k], bias, sigma)
            dn = PolicyParams(weights - h * np.eye(dim)[k], bias, sigma)
            fd[k] = (
                _log_density(up, features, action) - _log_density(dn, features, action)
            ) / (2 * h)
        fd[-1] = (
            _log_density(PolicyParams(weights, bias + h, sigma), features, action)
            - _log_density(PolicyParams(weights, bias - h, sigma), features, action)
        ) / (2 * h)
        rel = np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1e-8)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-6


def test_estimate_returns():
    assert np.allclose(estimate_returns([-1, -2, -3], 1.0), [-6, -5, -3])
    assert np.allclose(estimate_returns([-1, -2], 0.0), [-1, -2])
    assert np.allclose(estimate_returns([0, 0, 0], 0.9), [0, 0, 0])
    out = estimate_returns([-1.0, -2.0, -4.0], 0.5)
    assert out[-1] == -4.0
    assert np.allclose(out, [-1 - 0.5 * (2 + 0.5 * 4), -2 - 0.5 * 4, -4])
    with pytest.raises(ValueError):
        estimate_returns([], 1.0)


def test_normalize_returns():
    out = normalize_returns([-6.0, -5.0, -3.0])
    assert abs(out.mean()) < 1e-12
    assert abs(out.std() - 1.0) < 1e-12
    assert out[0] < out[1] < out[2]
    assert np.array_equal(normalize_returns([2.0, 2.0, 2.0]), np.zeros(3))
    assert np.array_equal(normalize_returns([5.0]), np.zeros(1))
    again = normalize_returns(out)
    assert np.allclose(again, out, atol=1e-12)


def _single_step_traj(features, raw, applied, reward):
    return Trajectory(
        np.asarray([features], float), np.array([raw]), np.array([applied]), np.array([reward])
    )


def test_estimate_gradient_degenerate_and_batching():
    params = PolicyParams(np.array([0.3]), 0.1, 1.0)
    lone = _single_step_traj([1.0], 0.9, 1, -4.0)
    assert np.allclose(estimate_gradient([lone], params, 1.0), 0.0)

    slots = np.arange(3)
    traj = Trajectory(slots[:, None].astype(float), 0.5 * slots, slots, -slots.astype(float))
    one = estimate_gradient([traj], params, 1.0)
    two = estimate_gradient([traj, traj], params, 1.0)
    assert np.allclose(one, two)
    with pytest.raises(ValueError):
        estimate_gradient([], params, 1.0)
    with pytest.raises(ValueError):
        estimate_gradient([traj], params, 1.0, normalization="other")


def test_estimate_gradient_sign_matches_exact_expectation():
    """One-state toy problem with a binary applied action: the batch-normalized
    estimator's sign must track the exact gradient of E[reward]."""
    rng = np.random.default_rng(2024)
    n = 4000
    for _ in range(20):
        sigma = float(rng.uniform(0.6, 1.5))
        mean = float(0.5 + rng.uniform(-1.2, 1.2) * sigma)
        weights = np.array([mean / 2.0])
        bias = mean / 2.0  # features [1.0] -> policy mean = mean
        params = PolicyParams(weights, bias, sigma)
        r0 = float(rng.uniform(-2, 2))
        delta = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.5, 2.0))
        r1 = r0 + delta

        trajectories = []
        for _ in range(n):
            raw = sample_action(params, [1.0], rng)
            applied = project_action(raw, 1, 0)
            reward = r1 if applied == 1 else r0
            trajectories.append(_single_step_traj([1.0], raw, applied, reward))
        est = estimate_gradient(trajectories, params, 1.0, normalization="batch")

        u = (mean - 0.5) / sigma
        exact = delta * math.exp(-(u**2) / 2.0) / math.sqrt(2 * math.pi) / sigma
        assert math.copysign(1, est[0]) == math.copysign(1, exact)
        assert math.copysign(1, est[1]) == math.copysign(1, exact)


def test_estimate_gradient_episode_peer_baseline_is_unbiased():
    """Two slots with features [2] and [0], each costing 3 plus its own raw
    action: E[return] = -6 - 2w - 2b, so the exact gradient points along
    (-1, -1).  Self-normalizing each trajectory cancels almost all of it;
    normalizing on same-day peers keeps its direction."""
    rng = np.random.default_rng(11)
    params = PolicyParams(np.array([0.0]), 0.0, 1.0)
    features = np.array([[2.0], [0.0]])
    n = 4000
    trajectories = [
        Trajectory(features, raw, np.zeros(2, dtype=int), -(3.0 + raw))
        for raw in (rng.standard_normal(2) for _ in range(n))
    ]
    days = [i % 4 for i in range(n)]

    peer = estimate_gradient(trajectories, params, 1.0, days=days)
    assert np.all(peer < 0)
    assert abs(peer[0] - peer[1]) <= 0.1 * np.abs(peer).max()

    # without days (or with every day seen once) each trajectory is
    # normalized on its own, exactly as before days existed
    alone = estimate_gradient(trajectories, params, 1.0)
    expected = np.zeros(2)
    for traj in trajectories:
        q = normalize_returns(estimate_returns(traj.rewards, 1.0))
        feats = traj.features
        raws = traj.raw
        weighted = q * (raws - (feats @ params.weights + params.bias)) / params.sigma**2
        expected[:-1] += feats.T @ weighted
        expected[-1] += weighted.sum()
    assert np.array_equal(alone, expected / n)
    assert np.array_equal(
        estimate_gradient(trajectories, params, 1.0, days=range(n)), alone
    )
    assert np.all(np.abs(alone) < 0.1 * np.abs(peer).min())

    with pytest.raises(ValueError):
        estimate_gradient(trajectories, params, 1.0, days=days[:-1])


def test_pg_update():
    params = PolicyParams(np.array([1.0, 2.0]), 3.0, 0.5)
    same = pg_update(params, np.zeros(3), 1.0)
    assert np.array_equal(same.weights, params.weights) and same.bias == params.bias

    plus = pg_update(params, np.ones(3), 1.0)
    assert np.array_equal(plus.weights, [2.0, 3.0]) and plus.bias == 4.0

    g = np.array([0.2, -0.4, 1.0])
    half = pg_update(params, g, 0.5)
    assert np.array_equal(half.weights, params.weights + 0.5 * g[:2])
    assert half.bias == 3.5
    assert half.sigma == params.sigma

    with pytest.raises(ValueError):
        pg_update(params, np.array([np.nan, 0, 0]), 0.1)
    with pytest.raises(ValueError):
        pg_update(params, np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        pg_update(params, np.zeros(4), 0.1)


def test_scaler_fit_floors_std_at_one():
    rows = [[10.0, 0.0], [30.0, 1.0], [20.0, 0.0]]
    scaler = FeatureScaler.fit(rows)
    assert scaler.std[0] > 1.0
    assert scaler.std[1] == 1.0  # floored


def _toy_day() -> EpisodeConfig:
    return EpisodeConfig(
        4, (1.0, 10.0, 1.0, 10.0, 1.0), (ArrivalEvent(0, 2, 4),)
    )


def test_rollout_respects_feasible_bounds():
    cfg = _toy_day()
    params = PolicyParams(np.zeros(4), 0.0, 3.0)
    scaler = fit_scaler([cfg], max_laxity=2)
    traj = run_policy_episode(cfg, params, scaler, 2, rng=np.random.default_rng(5))
    sim = AggSimulator(cfg, 2)
    state = sim.reset()
    for applied, step_reward in zip(traj.applied, traj.rewards):
        assert state.counts[0] <= applied <= state.total
        state, reward = sim.step(applied)
        assert reward == step_reward


def _assert_same_trajectory(got, want):
    for field in ("features", "raw", "applied", "rewards"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([None, 1, 2, 4, 9]))
def test_rollout_batch_rows_equal_single_day_rollouts(seed, level_cap):
    """One batch of random days with mixed horizons, an empty day and a
    repeated day: each row equals the B=1 rollout of its day under the same
    generator, sampled and at the mean.  level_cap spans below and above
    max_laxity."""
    rng = np.random.default_rng(seed)
    max_laxity = 7  # random_instance parks at most 8 slots
    days = [random_instance(rng, max_evs=6, horizon=8) for _ in range(4)]
    days += [EpisodeConfig(5, (3.0, 1.0, 4.0, 1.0, 5.0, 9.0)), days[0], days[1]]
    dim = feature_dim(max_laxity, level_cap)
    scaler = fit_scaler(days, max_laxity, level_cap)
    params = PolicyParams(rng.normal(size=dim), float(rng.normal()), float(rng.uniform(0.3, 3.0)))
    children = np.random.SeedSequence(seed).spawn(len(days))

    sampled = rollout_batch(
        days, params, scaler, max_laxity, level_cap, [np.random.default_rng(c) for c in children]
    )
    mean = rollout_batch(days, params, scaler, max_laxity, level_cap)
    for day, child, got, got_mean in zip(days, children, sampled, mean):
        want = run_policy_episode(
            day, params, scaler, max_laxity, level_cap, rng=np.random.default_rng(child)
        )
        _assert_same_trajectory(got, want)
        _assert_same_trajectory(
            got_mean, run_policy_episode(day, params, scaler, max_laxity, level_cap)
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([None, 1, 2, 4, 9]))
def test_fit_scaler_equals_urgent_only_reference_loop(seed, level_cap):
    """fit_scaler rolls the days on the batch engine at a = n_0; urgent-only
    dispatch stepped day by day on AggSimulator gives the same rows, so the
    same scaler bytes (mixed horizons, an empty day, a horizon-0 day)."""
    rng = np.random.default_rng(seed)
    max_laxity = 7
    days = [random_instance(rng, max_evs=6, horizon=8) for _ in range(4)]
    days += [EpisodeConfig(5, (3.0, 1.0, 4.0, 1.0, 5.0, 9.0)), EpisodeConfig(0, (2.0,))]
    w = feature_dim(max_laxity, level_cap) - 2
    rows = []
    for day in days:
        sim = AggSimulator(day, max_laxity)
        state = sim.reset()
        for _ in range(day.horizon):
            rows.append([state.price, *state.counts[:w], sum(state.counts[w:])])
            state, _ = sim.step(sim.urgent)
    want = FeatureScaler.fit(rows)
    got = fit_scaler(days, max_laxity, level_cap)
    assert got.mean.tobytes() == want.mean.tobytes()
    assert got.std.tobytes() == want.std.tobytes()
    for no_rows in ([], days[-1:]):
        empty = fit_scaler(no_rows, max_laxity, level_cap)
        assert np.array_equal(empty.mean, np.zeros(w + 2)) and np.array_equal(empty.std, np.ones(w + 2))


def test_rollout_batch_validation():
    cfg = _toy_day()
    scaler = fit_scaler([cfg], max_laxity=2)
    params = PolicyParams(np.zeros(4), 0.0, 1.0)
    assert rollout_batch([], params, scaler, 2) == []
    with pytest.raises(ValueError):
        rollout_batch([cfg], params, scaler, 2, rngs=[])
    with pytest.raises(ValueError):
        rollout_batch([cfg], PolicyParams(np.zeros(3), 0.0, 1.0), scaler, 2)
    with pytest.raises(ValueError):
        rollout_batch([cfg], params, scaler, 1)  # the day's laxity 2 does not fit
    with pytest.raises(ValueError):
        rollout_batch([cfg], PolicyParams(np.zeros(2), 0.0, 1.0), scaler, 2, level_cap=0)


def test_train_equals_per_rollout_reference_loop():
    """train's batched rollouts change nothing: the per-rollout loop below,
    run_policy_episode per rollout, then estimate_gradient with days and
    pg_update, gives the same parameters, curve and trace bit for bit."""
    rng = np.random.default_rng(8)
    days = [random_instance(rng, max_evs=6, horizon=10) for _ in range(3)]
    max_laxity, level_cap = 6, 2
    scaler = fit_scaler(days, max_laxity, level_cap)
    initial = PolicyParams(np.full(feature_dim(max_laxity, level_cap), 0.3), 0.5, 1.5)
    config = TrainConfig(
        step_size=0.05, iterations=6, batch=2 * len(days), seed=4,
        sigma_decay=0.97, step_decay=0.9, convergence_window=10**9,
    )
    result = train(days, initial, config, max_laxity, level_cap, scaler=scaler)

    seed_root = np.random.SeedSequence(config.seed)
    params, step_size, curve, trace = initial, config.step_size, [], []
    for iteration in range(config.iterations):
        day_idx = [(iteration * config.batch + j) % len(days) for j in range(config.batch)]
        trajectories = [
            run_policy_episode(
                days[i], params, scaler, max_laxity, level_cap, rng=np.random.default_rng(child)
            )
            for i, child in zip(day_idx, seed_root.spawn(len(day_idx)))
        ]
        gradient = estimate_gradient(trajectories, params, config.discount, days=day_idx)
        params = pg_update(params, gradient, step_size)
        step_size *= config.step_decay
        params = PolicyParams(params.weights, params.bias, params.sigma * config.sigma_decay)
        curve.append(float(np.mean([t.episode_reward for t in trajectories])))
        trace.append(np.append(params.as_vector(), params.sigma))

    assert np.array_equal(result.params.as_vector(), params.as_vector())
    assert result.params.sigma == params.sigma
    assert np.array_equal(result.curve, curve)
    assert np.array_equal(result.param_trace, trace)


def test_train_zero_step_size_keeps_params_flat():
    cfg = _toy_day()
    initial = PolicyParams(np.array([0.1, -0.2, 0.3, 0.0]), 0.05, 1.0)
    result = train(
        [cfg],
        initial,
        TrainConfig(step_size=0.0, iterations=8, seed=1, convergence_window=100),
        max_laxity=2,
    )
    assert np.array_equal(result.params.weights, initial.weights)
    assert result.params.bias == initial.bias
    assert len(result.curve) == 8


def test_train_seeded_determinism():
    cfg = _toy_day()
    initial = PolicyParams(np.zeros(4), 0.0, 1.5)
    config = TrainConfig(step_size=0.02, iterations=25, seed=11)
    a = train([cfg], initial, config, max_laxity=2)
    b = train([cfg], initial, config, max_laxity=2)
    assert np.array_equal(a.param_trace, b.param_trace)
    assert np.array_equal(a.curve, b.curve)


def test_train_sigma_decay_and_floor():
    cfg = _toy_day()
    initial = PolicyParams(np.zeros(4), 0.0, 1.0)
    config = TrainConfig(
        step_size=0.0, iterations=30, seed=0, sigma_decay=0.5, sigma_min=0.05
    )
    result = train([cfg], initial, config, max_laxity=2)
    assert result.params.sigma == pytest.approx(0.05)


def test_train_divergence_guard():
    cfg = _toy_day()
    initial = PolicyParams(np.zeros(4), 0.0, 1.0)
    config = TrainConfig(step_size=5.0, iterations=50, seed=3, divergence_bound=1e-6)
    with pytest.raises(DivergenceError):
        train([cfg], initial, config, max_laxity=2)


def test_train_convergence_stops_early():
    cfg = _toy_day()
    initial = PolicyParams(np.zeros(4), 0.0, 1.0)
    config = TrainConfig(
        step_size=0.0,
        iterations=500,
        seed=0,
        convergence_tol=1e-4,
        convergence_window=5,
    )
    result = train([cfg], initial, config, max_laxity=2)
    assert result.converged
    assert result.iterations_run == 5


def test_train_requires_days():
    with pytest.raises(ValueError):
        train([], PolicyParams(np.zeros(2), 0.0, 1.0), TrainConfig(0.1, 5), 1)


def test_model_round_trip(tmp_path):
    params = PolicyParams(np.array([-1.973512345, 1.8628, 0.5772]), 0.123456789, 0.75)
    scaler = FeatureScaler(mean=np.array([20.0, 3.0, 1.0]), std=np.array([7.5, 2.0, 1.0]))
    model = pg_model_dict(params, scaler, max_laxity=1, level_cap=None, config_hash="abc")
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded == model
    params2, scaler2, max_laxity, level_cap = pg_from_model(loaded)
    assert np.array_equal(params2.weights, params.weights)
    assert params2.bias == params.bias and params2.sigma == params.sigma
    assert np.array_equal(scaler2.mean, scaler.mean)
    assert max_laxity == 1 and level_cap is None


def test_feature_dim_with_cap():
    assert feature_dim(12) == 14
    assert feature_dim(12, 6) == 8
    assert feature_dim(2, 6) == 4


def _slot0_features(counts, level_cap, price=2.0):
    """Slot-0 policy state of a day whose t=0 arrivals have the given laxity
    counts, at an identity scaler; both rollout engines must agree on it."""
    arrivals = tuple(
        ArrivalEvent(0, 1, 1 + level) for level, n in enumerate(counts) for _ in range(n)
    )
    day = EpisodeConfig(1, (price, price), arrivals)
    max_laxity = len(counts) - 1
    dim = feature_dim(max_laxity, level_cap)
    params, scaler = PolicyParams(np.zeros(dim), 0.0, 1.0), FeatureScaler.identity(dim)
    one = run_policy_episode(day, params, scaler, max_laxity, level_cap).features[0]
    batched = rollout_batch([day], params, scaler, max_laxity, level_cap)[0].features[0]
    assert np.array_equal(one, batched)
    return one.tolist()


def test_features_pool_high_levels():
    counts = (1, 2, 0, 3, 4)
    assert _slot0_features(counts, 2) == [2.0, 1, 2, 7]
    for cap in (None, 4, 9):
        assert _slot0_features(counts, cap) == [2.0, 1, 2, 0, 3, 4]
    assert _slot0_features((3, 0, 0), 1) == [2.0, 3, 0]
    with pytest.raises(ValueError, match="level_cap"):
        _slot0_features(counts, 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=2, max_size=14), st.integers(1, 15))
def test_features_pooling_preserves_total(counts, cap):
    features = _slot0_features(counts, cap)
    assert sum(features[1:]) == sum(counts)
    keep = min(cap, len(counts) - 1)
    assert features[1 : 1 + keep] == counts[:keep]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_unseen_high_laxity_pools_into_top_feature(seed):
    """A model of laxity <= 3 evaluates a day with laxity up to 9 as a
    laxity-9 model capped at 3 does, and the QE greedy ignores the range."""
    rng = np.random.default_rng(seed)
    day = random_instance(rng, max_evs=6, horizon=10)
    day = EpisodeConfig(day.horizon, day.prices, day.arrivals + (ArrivalEvent(0, 1, 10),))
    scaler = fit_scaler([day], 9, 3)
    params = PolicyParams(rng.normal(size=feature_dim(3)), float(rng.normal()), 1.0)
    assert evaluate_policy(day, params, scaler, 3) == evaluate_policy(day, params, scaler, 9, level_cap=3)
    theta, feature_config = QeParams(rng.normal(size=4)), QeFeatureConfig(congestion_count=2)
    assert evaluate_qe(day, theta, feature_config, 3) == evaluate_qe(day, theta, feature_config, 9)
