"""Independent brute-force oracles and reference implementations used across
the test suite.

Everything here stays deliberately dumb: exhaustive enumeration and direct
recursion, no reuse of the dispatch logic under test beyond the public data
types.  The library does not import this module: the feasibility oracle,
the group-count transition, the score-function gradient and the QE features
live here because only the proofs of the library's claims need them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from evcs.agg import AggSimulator, AggState
from evcs.env import ArrivalEvent, ChargingEnv, EpisodeConfig, EvRecord, arrival_schedule
from evcs.llf import laxity, llf_allocate
from evcs.policy import PolicyParams, policy_mean


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


def exists_feasible_individual_schedule(
    config: EpisodeConfig,
    totals: Sequence[int],
    max_decision_points: int = 24,
) -> bool:
    """Exhaustively decide whether the total-action sequence is feasible.

    True iff some assignment of per-EV binary actions, summing to
    ``totals[t]`` in every slot, charges every EV fully before it leaves
    (and before the horizon ends).  Pure enumeration with memoisation on the
    (slot, parked-EV multiset) pair; independent of the LLF rule so it can
    act as its oracle.

    ``max_decision_points`` guards against exponential blow-ups: the sum of
    presence slots over all EVs must stay at or below it.
    """
    totals = tuple(int(a) for a in totals)
    if len(totals) != config.horizon:
        raise ValueError(
            f"need {config.horizon} totals for horizon {config.horizon}, "
            f"got {len(totals)}"
        )
    if any(a < 0 for a in totals):
        raise ValueError("totals must be non-negative")

    points = sum(
        min(event.parking, config.horizon - event.t) for event in config.arrivals
    )
    if points > max_decision_points:
        raise ValueError(
            f"instance too large for exhaustive search: {points} EV-slot "
            f"decision points exceed the guard ({max_decision_points})"
        )

    arrivals_by_t: dict[int, tuple[tuple[int, int], ...]] = {}
    for t, items in arrival_schedule(config).items():
        arrivals_by_t[t] = tuple((event.demand, event.parking) for _, event in items)

    memo: dict[tuple[int, tuple[tuple[int, int], ...]], bool] = {}

    def feasible(t: int, pool: tuple[tuple[int, int], ...]) -> bool:
        # pool: sorted (demand, parking) pairs of parked EVs, all with demand > 0
        if t == config.horizon:
            return not pool
        key = (t, pool)
        cached = memo.get(key)
        if cached is not None:
            return cached

        budget = totals[t]
        result = False
        if budget <= len(pool):
            # Group identical (d, p) pairs and enumerate how many of each
            # group receive a charge this slot.
            groups: list[tuple[tuple[int, int], int]] = []
            for pair in pool:
                if groups and groups[-1][0] == pair:
                    groups[-1] = (pair, groups[-1][1] + 1)
                else:
                    groups.append((pair, 1))

            def expand(idx: int, remaining: int, survivors: list[tuple[int, int]]) -> bool:
                if idx == len(groups):
                    if remaining:
                        return False
                    nxt = sorted(survivors + list(arrivals_by_t.get(t + 1, ())))
                    return feasible(t + 1, tuple(nxt))
                (d, p), count = groups[idx]
                lo = max(0, remaining - sum(c for _, c in groups[idx + 1 :]))
                for charged in range(min(count, remaining), lo - 1, -1):
                    nxt_survivors = list(survivors)
                    ok = True
                    # charged EVs: demand and parking both tick down
                    if charged:
                        if d - 1 == 0:
                            pass  # fully charged, leaves
                        elif p - 1 == 0:
                            ok = False  # would overstay with demand left
                        else:
                            nxt_survivors.extend([(d - 1, p - 1)] * charged)
                    # idle EVs: only parking ticks down
                    idle = count - charged
                    if ok and idle:
                        if p - 1 == 0:
                            ok = False  # overstays uncharged (demand > 0)
                        else:
                            nxt_survivors.extend([(d, p - 1)] * idle)
                    if ok and expand(idx + 1, remaining - charged, nxt_survivors):
                        return True
                return False

            result = expand(0, budget, [])

        memo[key] = result
        return result

    start = tuple(sorted(arrivals_by_t.get(0, ())))
    return feasible(0, start)


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


# --- laxity-group counts -----------------------------------------------------


def group_allocate(total: int, counts: Sequence[int]) -> tuple[int, ...]:
    """Split a total charging budget greedily from laxity level 0 upward.

    Fills each level completely before touching the next, so the cumulative
    allocation up to level l is min(total, cumulative count up to l).
    """
    if total < 0:
        raise ValueError(f"total charging budget must be >= 0, got {total}")
    available = sum(counts)
    if total > available:
        raise ValueError(f"budget {total} exceeds the {available} parked EVs")
    charged = []
    remaining = total
    for n in counts:
        x = min(int(n), remaining)
        charged.append(x)
        remaining -= x
    return tuple(charged)


def agg_transition(
    state: AggState,
    total: int,
    arrivals: Sequence[int],
    departures: Sequence[int],
    next_price: float,
) -> AggState:
    """Advance the count vector one slot.

    Level l at t+1 collects: the level-l EVs charged at t (laxity kept), the
    level-(l+1) EVs left idle (laxity dropped), plus level-l arrivals, minus
    level-l departures.  Only defined on feasible flows: leaving a
    zero-laxity EV idle has no representation in the counts and raises.
    """
    counts = state.counts
    charged = group_allocate(total, counts)
    top = len(counts) - 1
    if len(arrivals) != len(counts) or len(departures) != len(counts):
        raise ValueError(f"arrival/departure vectors must have length {len(counts)}")
    if charged[0] < counts[0]:
        raise ValueError(
            f"budget {total} leaves {counts[0] - charged[0]} zero-laxity "
            f"EVs idle; their laxity would go negative"
        )
    new_counts = []
    for level in range(top + 1):
        dropped_in = (counts[level + 1] - charged[level + 1]) if level < top else 0
        n = charged[level] + dropped_in + int(arrivals[level]) - int(departures[level])
        if n < 0:
            raise ValueError(
                f"negative count at laxity {level}: inconsistent arrival/"
                f"departure flows"
            )
        new_counts.append(n)
    return AggState(next_price, tuple(new_counts))


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


# --- learners ----------------------------------------------------------------


def log_prob_grad(
    params: PolicyParams, features: Sequence[float], action: float
) -> np.ndarray:
    """Gradient of ln N(action | mean, sigma^2) in [weights..., bias] order."""
    f = np.asarray(features, dtype=float)
    z = (action - policy_mean(params, f)) / params.sigma**2
    return np.append(z * f, z)


def qe_features(
    state: AggState,
    action: int,
    urgent: int,
    chargeable: int,
    price_threshold: float,
    congestion_count: int = 12,
) -> np.ndarray:
    """The four binary QE features of one (state, action) pair, as float64.

    f0: charging while the price is above the threshold
    f1: action below the zero-laxity count (deadline-violation risk)
    f2: every parked EV charged (saturation; inactive on an empty station)
    f3: more EVs parked than the congestion threshold
    """
    return np.array([
        1.0 if (state.price > price_threshold and action > 0) else 0.0,
        1.0 if action < urgent else 0.0,
        1.0 if (chargeable > 0 and action == chargeable) else 0.0,
        1.0 if state.total > congestion_count else 0.0,
    ])


def qe_train_numpy(day_configs, config, feature_config, max_laxity):
    """``baseline.qe_train`` as a numpy loop: (theta, param_trace, curve).

    Features are ``qe_features`` vectors, values ``theta @ features``, the
    update ``theta + step_size * delta * features``, and the greedy action a
    scan of every feasible action.  The counts come from ``AggSimulator``, so
    this pins the learner's arithmetic, not the rollout engine.
    """
    congestion_count = feature_config.congestion_count

    def greedy(theta, state, sim, threshold):
        urgent, chargeable = sim.urgent, sim.chargeable
        best = None
        for action in range(urgent, chargeable + 1):
            phi = qe_features(state, action, urgent, chargeable, threshold, congestion_count)
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
                action = greedy(theta, state, sim, threshold)[0]
            phi = qe_features(state, action, urgent, chargeable, threshold, congestion_count)
            state, reward = sim.step(action)
            episode_reward += reward
            next_best = 0.0 if sim.t >= day.horizon else greedy(theta, state, sim, threshold)[1]
            delta = reward + config.discount * next_best - float(theta @ phi)
            theta = theta + config.step_size * delta * phi
        curve.append(episode_reward)
        trace.append(theta.copy())
    return theta, np.array(trace), np.array(curve)
