"""Independent brute-force oracles used across the test suite.

Everything here stays deliberately dumb: exhaustive enumeration and direct
recursion, no reuse of the dispatch logic under test beyond the public data
types.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from evcs.agg import AggSimulator, agg_transition, group_allocate
from evcs.env import ArrivalEvent, ChargingEnv, EpisodeConfig, arrival_schedule
from evcs.llf import laxity, llf_allocate


def best_feasible_reward(config: EpisodeConfig) -> float:
    """Max total reward over ALL per-EV binary schedules that charge everyone.

    Pure depth-first enumeration over per-slot action subsets; only suitable
    for desk-scale instances.
    """
    env = ChargingEnv(config)

    best = [-float("inf")]

    def rec(state, acc: float) -> None:
        if state.t == config.horizon:
            if not any(ev.demand > 0 for ev in state.evs):
                best[0] = max(best[0], acc)
            return
        ids = [ev.id for ev in state.evs]
        for bits in itertools.product((0, 1), repeat=len(ids)):
            actions = dict(zip(ids, bits))
            if any(b and ev.demand == 0 for b, ev in zip(bits, state.evs)):
                continue
            nxt, reward, gone = env.apply_actions(state, actions)
            if any(ev.demand > 0 for ev in gone):
                continue
            rec(nxt, acc + reward)

    rec(env.reset(), 0.0)
    return best[0]


def random_instance(
    rng: np.random.Generator, max_evs: int = 4, horizon: int = 6
) -> EpisodeConfig:
    """Small random day whose parking windows all close inside the horizon."""
    n = int(rng.integers(1, max_evs + 1))
    t_max = int(rng.integers(3, horizon + 1))
    arrivals = []
    for _ in range(n):
        t0 = int(rng.integers(0, t_max - 1))
        parking = int(rng.integers(1, t_max - t0 + 1))
        demand = int(rng.integers(1, parking + 1))
        arrivals.append(ArrivalEvent(t0, demand, parking))
    prices = tuple(float(p) for p in rng.uniform(1.0, 10.0, size=t_max + 1))
    return EpisodeConfig(t_max, prices, tuple(arrivals))


def llf_rollout_totals(
    config: EpisodeConfig, rng: np.random.Generator
) -> tuple[tuple[int, ...], bool]:
    """Roll the day under LLF with random per-slot budgets within [0, chargeable].

    Returns the realized totals and whether every EV left fully charged;
    by construction the totals are executable under LLF.
    """
    env = ChargingEnv(config)
    state = env.reset()
    totals = []
    failed = False
    for _ in range(config.horizon):
        a = int(rng.integers(0, state.chargeable + 1))
        actions = llf_allocate(a, state.evs)
        state, _, gone = env.apply_actions(state, actions)
        totals.append(a)
        failed = failed or any(ev.demand > 0 for ev in gone)
    failed = failed or any(ev.demand > 0 for ev in state.evs)
    return tuple(totals), not failed


# --- exact DP over original vs aggregated state spaces -----------------------
#
# Prices follow a small Markov chain so the DP has genuine expectations to
# take; arrivals stay deterministic.  The policy maps (t, price index,
# laxity counts) to a total action, so both DPs feed it identical inputs.


class PriceChain:
    def __init__(self, levels: Sequence[float], transition: Sequence[Sequence[float]]):
        self.levels = tuple(float(v) for v in levels)
        self.transition = [tuple(float(p) for p in row) for row in transition]
        for row in self.transition:
            assert abs(sum(row) - 1.0) < 1e-12

    def __len__(self) -> int:
        return len(self.levels)


Policy = Callable[[int, int, tuple[int, ...]], int]


def _counts_of(evs: Sequence[tuple[int, int, int]], max_laxity: int) -> tuple[int, ...]:
    counts = [0] * (max_laxity + 1)
    for _, d, p in evs:
        counts[laxity(d, p)] += 1
    return tuple(counts)


def dp_value_original(
    config: EpisodeConfig,
    chain: PriceChain,
    start_price_idx: int,
    pi: Policy,
    gamma: float,
    max_laxity: int,
) -> float:
    """Expected return in the per-EV state space under the counts policy."""
    arrivals = {
        t: tuple((ev_id, e.demand, e.parking) for ev_id, e in items)
        for t, items in arrival_schedule(config).items()
    }
    memo: dict = {}

    def value(t: int, price_idx: int, evs: tuple[tuple[int, int, int]]) -> float:
        if t == config.horizon:
            return 0.0
        key = (t, price_idx, evs)
        if key in memo:
            return memo[key]
        counts = _counts_of(evs, max_laxity)
        a = pi(t, price_idx, counts)
        from evcs.env import EvRecord

        records = [EvRecord(i, d, p) for i, d, p in evs]
        action_map = llf_allocate(a, records)
        nxt = []
        for i, d, p in evs:
            d2, p2 = d - action_map[i], p - 1
            assert not (p2 == 0 and d2 > 0), "policy produced an infeasible rollout"
            if d2 > 0 and p2 > 0:
                nxt.append((i, d2, p2))
        nxt.extend(arrivals.get(t + 1, ()))
        nxt = tuple(sorted(nxt))
        reward = -chain.levels[price_idx] * a
        cont = sum(
            prob * value(t + 1, j, nxt)
            for j, prob in enumerate(chain.transition[price_idx])
            if prob
        )
        out = reward + gamma * cont
        memo[key] = out
        return out

    start = tuple(sorted(arrivals.get(0, ())))
    return value(0, start_price_idx, start)


def dp_value_aggregated(
    config: EpisodeConfig,
    chain: PriceChain,
    start_price_idx: int,
    pi: Policy,
    gamma: float,
    max_laxity: int,
) -> float:
    """Expected return in the laxity-group state space under the same policy.

    Counts move through group_allocate/agg_transition; per-level (id, demand)
    lists are the environment-side bookkeeping that emits departures.
    """
    arrivals_by_t: dict[int, list[tuple[int, int, int]]] = {}
    for t, items in arrival_schedule(config).items():
        arrivals_by_t[t] = [
            (ev_id, e.demand, laxity(e.demand, e.parking)) for ev_id, e in items
        ]
    memo: dict = {}

    def value(t: int, price_idx: int, levels) -> float:
        if t == config.horizon:
            return 0.0
        key = (t, price_idx, levels)
        if key in memo:
            return memo[key]
        counts = tuple(len(level) for level in levels)
        a = pi(t, price_idx, counts)
        charged = group_allocate(a, counts)
        assert charged[0] == counts[0], "policy produced an infeasible rollout"
        departed = [0] * (max_laxity + 1)
        new_levels = [list() for _ in range(max_laxity + 1)]
        for lv in range(max_laxity + 1):
            members = levels[lv]
            k = charged[lv]
            for ev_id, demand in members[:k]:
                if demand - 1 == 0:
                    departed[lv] += 1
                else:
                    new_levels[lv].append((ev_id, demand - 1))
            for ev_id, demand in members[k:]:
                new_levels[lv - 1].append((ev_id, demand))
        arrived = [0] * (max_laxity + 1)
        for ev_id, demand, lv in arrivals_by_t.get(t + 1, ()):
            new_levels[lv].append((ev_id, demand))
            arrived[lv] += 1
        new_levels = tuple(tuple(sorted(level)) for level in new_levels)

        # the published counts must follow the group transition exactly
        from evcs.agg import AggState

        predicted = agg_transition(
            AggState(chain.levels[price_idx], counts), a, arrived, departed, 0.0
        )
        assert predicted.counts == tuple(len(level) for level in new_levels)

        reward = -chain.levels[price_idx] * a
        cont = sum(
            prob * value(t + 1, j, new_levels)
            for j, prob in enumerate(chain.transition[price_idx])
            if prob
        )
        out = reward + gamma * cont
        memo[key] = out
        return out

    start_levels = [list() for _ in range(max_laxity + 1)]
    for ev_id, demand, lv in arrivals_by_t.get(0, ()):
        start_levels[lv].append((ev_id, demand))
    start = tuple(tuple(sorted(level)) for level in start_levels)
    return value(0, start_price_idx, start)


def qe_train_numpy(day_configs, config, feature_config, max_laxity):
    """``baseline.qe_train`` as a numpy loop: (theta, param_trace, curve).

    Features are float64 vectors, values ``theta @ features``, the update
    ``theta + step_size * delta * features``, and the greedy action a scan
    of every feasible action.  The counts come from ``AggSimulator``, so
    this pins the learner's arithmetic, not the rollout engine.
    """
    congestion_count = feature_config.congestion_count

    def features(price, total, action, urgent, chargeable, threshold):
        return np.array([
            1.0 if (price > threshold and action > 0) else 0.0,
            1.0 if action < urgent else 0.0,
            1.0 if (chargeable > 0 and action == chargeable) else 0.0,
            1.0 if total > congestion_count else 0.0,
        ])

    def greedy(theta, sim, threshold):
        state, urgent, chargeable = sim.state, sim.urgent, sim.chargeable
        best = None
        for action in range(urgent, chargeable + 1):
            phi = features(state.price, state.total, action, urgent, chargeable, threshold)
            value = float(theta @ phi)
            if best is None or value > best[1]:
                best = (action, value)
        return best

    rng = np.random.default_rng(config.seed)
    theta = np.zeros(4)
    curve, trace = [], []
    half = max(1, config.iterations // 2)
    for episode in range(config.iterations):
        day = day_configs[episode % len(day_configs)]
        threshold = feature_config.price_threshold
        if threshold is None:
            threshold = float(np.median(day.prices[: day.horizon]))
        epsilon = max(0.05, 1.0 + (0.05 - 1.0) * episode / half)
        sim = AggSimulator(day, max_laxity)
        state = sim.reset()
        episode_reward = 0.0
        for _ in range(day.horizon):
            urgent, chargeable = sim.urgent, sim.chargeable
            if rng.random() < epsilon:
                action = int(rng.integers(urgent, chargeable + 1))
            else:
                action = greedy(theta, sim, threshold)[0]
            phi = features(state.price, state.total, action, urgent, chargeable, threshold)
            state, reward = sim.step(action)
            episode_reward += reward
            next_best = 0.0 if sim.t >= day.horizon else greedy(theta, sim, threshold)[1]
            delta = reward + config.discount * next_best - float(theta @ phi)
            theta = theta + config.step_size * delta * phi
        curve.append(episode_reward)
        trace.append(theta.copy())
    return theta, np.array(trace), np.array(curve)
