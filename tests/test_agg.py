import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcs.agg import AggSimulator, AggState, BatchSimulator, aggregate
from evcs.env import ArrivalEvent, ChargingEnv, EpisodeConfig, EvRecord, StationState, arrival_schedule
from evcs.llf import llf_allocate

from oracles import (
    PriceChain,
    agg_transition,
    dp_value_aggregated,
    dp_value_original,
    group_allocate,
    random_instance,
)


def test_aggregate_table1_initial():
    state = StationState(0, 10.0, (EvRecord(0, 3, 4), EvRecord(1, 2, 4)))
    agg = aggregate(state, max_laxity=2)
    assert agg.price == 10.0
    assert agg.counts == (0, 1, 1)


def test_aggregate_empty_and_uniform():
    assert aggregate(StationState(0, 1.0, ()), 3).counts == (0, 0, 0, 0)
    state = StationState(0, 1.0, tuple(EvRecord(i, 2, 2) for i in range(3)))
    assert aggregate(state, 2).counts == (3, 0, 0)


def test_aggregate_rejects_out_of_range_laxity():
    with pytest.raises(ValueError, match="outside"):
        aggregate(StationState(0, 1.0, (EvRecord(0, 1, 5),)), max_laxity=2)
    with pytest.raises(ValueError, match="outside"):
        aggregate(StationState(0, 1.0, (EvRecord(0, 2, 1),)), max_laxity=2)


def test_group_allocate_examples():
    assert group_allocate(1, (0, 1, 1)) == (0, 1, 0)
    assert group_allocate(0, (2, 3)) == (0, 0)
    assert group_allocate(4, (2, 1, 3)) == (2, 1, 1)


def test_group_allocate_errors():
    with pytest.raises(ValueError):
        group_allocate(4, (1, 2))
    with pytest.raises(ValueError):
        group_allocate(-1, (1,))


@settings(max_examples=250)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=14), st.data())
def test_group_allocate_prefix_greedy_identity(counts, data):
    total = data.draw(st.integers(0, sum(counts)))
    charged = group_allocate(total, counts)
    assert sum(charged) == total
    assert all(0 <= c <= n for c, n in zip(charged, counts))
    cum_charged = 0
    cum_counts = 0
    for c, n in zip(charged, counts):
        cum_charged += c
        cum_counts += n
        assert cum_charged == min(total, cum_counts)


@settings(max_examples=100)
@given(st.data())
def test_group_allocate_matches_per_ev_llf_tallies(data):
    pairs = data.draw(
        st.lists(st.tuples(st.integers(1, 4), st.integers(0, 5)), min_size=1, max_size=8)
    )
    evs = tuple(EvRecord(i, d, d + slack) for i, (d, slack) in enumerate(pairs))
    total = data.draw(st.integers(0, len(evs)))
    max_lax = max(slack for _, slack in pairs)
    counts = aggregate(StationState(0, 1.0, evs), max_lax).counts
    actions = llf_allocate(total, evs)
    tallies = [0] * (max_lax + 1)
    for ev in evs:
        if actions[ev.id]:
            tallies[ev.parking - ev.demand] += 1
    assert tuple(tallies) == group_allocate(total, counts)


def test_agg_state_coerces_counts_and_rejects_negatives():
    state = AggState(2.0, [np.int64(3), 0, 1.0])
    assert state.counts == (3, 0, 1) and all(type(n) is int for n in state.counts)
    assert state.total == 4
    assert AggState(2.0, ()).total == 0
    with pytest.raises(ValueError, match="laxity counts must be >= 0"):
        AggState(2.0, (1, -1, 0))


def test_transition_full_charge_preserves_levels():
    state = AggState(5.0, (0, 1, 1))
    nxt = agg_transition(state, 2, (0, 0, 0), (0, 0, 0), 6.0)
    assert nxt.counts == (0, 1, 1) and nxt.price == 6.0


def test_transition_idle_shifts_down():
    state = AggState(5.0, (0, 1, 1))
    nxt = agg_transition(state, 0, (0, 0, 0), (0, 0, 0), 5.0)
    assert nxt.counts == (1, 1, 0)


def test_transition_table1_middle_step():
    state = AggState(3.0, (0, 1, 1))
    nxt = agg_transition(state, 1, (0, 0, 0), (0, 0, 0), 5.0)
    assert nxt.counts == (0, 2, 0)


def test_transition_arrivals_and_departures():
    state = AggState(1.0, (1, 2, 0))
    nxt = agg_transition(state, 3, (0, 0, 2), (1, 0, 0), 1.0)
    assert nxt.counts == (0, 2, 2)


def test_transition_errors():
    state = AggState(1.0, (1, 1))
    with pytest.raises(ValueError, match="zero-laxity"):
        agg_transition(state, 0, (0, 0), (0, 0), 1.0)
    with pytest.raises(ValueError, match="negative count"):
        agg_transition(state, 2, (0, 0), (0, 2), 1.0)
    with pytest.raises(ValueError, match="length"):
        agg_transition(state, 2, (0,), (0, 0), 1.0)


def _urgent_respecting_controller(seed):
    rng = np.random.default_rng(seed)

    def pick(urgent, chargeable):
        return int(rng.integers(urgent, chargeable + 1))

    return pick


def _paired_rollout(cfg, max_laxity, seed):
    """Run the per-EV env (LLF dispatch) and the group simulator side by side
    with identical total actions; return both trajectories."""
    pick = _urgent_respecting_controller(seed)
    env = ChargingEnv(cfg)
    state = env.reset()
    sim = AggSimulator(cfg, max_laxity)
    agg_state = sim.reset()
    rows = []
    for _ in range(cfg.horizon):
        assert aggregate(state, max_laxity) == agg_state
        urgent = agg_state.counts[0]
        a = pick(urgent, agg_state.total)
        state, env_reward, _ = env.apply_actions(state, llf_allocate(a, state.evs))
        agg_state, agg_reward = sim.step(a)
        rows.append((a, env_reward, agg_reward))
    assert aggregate(state, max_laxity) == agg_state
    return rows


def test_trajectory_equivalence_table1(table1_config):
    rows = _paired_rollout(table1_config, max_laxity=2, seed=5)
    assert all(er == ar for _, er, ar in rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_trajectory_equivalence_random(seed):
    rng = np.random.default_rng(seed)
    cfg = random_instance(rng, max_evs=5, horizon=7)
    max_laxity = max(
        (e.parking - e.demand for e in cfg.arrivals), default=0
    )
    rows = _paired_rollout(cfg, max(max_laxity, 1), seed)
    for _, env_reward, agg_reward in rows:
        assert env_reward == agg_reward


def _padded_day(rng, horizon):
    """A random_instance day stretched to ``horizon`` slots."""
    cfg = random_instance(rng, max_evs=6, horizon=horizon)
    return EpisodeConfig(horizon, cfg.prices + (1.0,) * (horizon - cfg.horizon), cfg.arrivals)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_batch_simulator_rows_match_agg_simulator(seed):
    """Each row of the batch engine, driven by its own random total actions,
    publishes the counts and rewards of a B=1 AggSimulator run of its day;
    ``take`` repeats and reorders rows."""
    rng = np.random.default_rng(seed)
    max_laxity = 7
    days = [_padded_day(rng, 8) for _ in range(4)] + [EpisodeConfig(8, (2.0,) * 9)]
    rows = [4, 0, 2, 0, 1, 3, 3]
    batch = BatchSimulator(days, max_laxity).take(rows)
    sims = [AggSimulator(days[r], max_laxity) for r in rows]
    states = [sim.reset() for sim in sims]
    counts = batch.counts
    for _ in range(8):
        assert [tuple(c) for c in counts.tolist()] == [s.counts for s in states]
        assert batch.price.tolist() == [s.price for s in states]
        action = [int(rng.integers(s.counts[0], s.total + 1)) for s in states]
        counts, rewards = batch.step(action)
        stepped = [sim.step(a) for sim, a in zip(sims, action)]
        states = [state for state, _ in stepped]
        assert rewards.tolist() == [reward for _, reward in stepped]
    assert [tuple(c) for c in counts.tolist()] == [s.counts for s in states]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_batch_simulator_rows_match_per_ev_llf(seed):
    """c04a's trajectory equivalence for the batch engine: each row, stepped
    with random totals in [urgent, chargeable], aggregates the per-EV env
    under LLF dispatch of the same totals at every slot and earns exactly
    its rewards."""
    rng = np.random.default_rng(seed)
    horizon, max_laxity = 8, 7
    days = [_padded_day(rng, horizon) for _ in range(5)]
    batch = BatchSimulator(days, max_laxity)
    envs = [ChargingEnv(day) for day in days]
    states = [env.reset() for env in envs]
    for _ in range(horizon):
        published = [AggState(p, tuple(c)) for p, c in zip(batch.price.tolist(), batch.counts.tolist())]
        assert published == [aggregate(state, max_laxity) for state in states]
        totals = [int(rng.integers(agg.counts[0], agg.total + 1)) for agg in published]
        _, rewards = batch.step(totals)
        stepped = [
            env.apply_actions(state, llf_allocate(total, state.evs))
            for env, state, total in zip(envs, states, totals)
        ]
        states = [state for state, _, _ in stepped]
        assert rewards.tolist() == [reward for _, reward, _ in stepped]  # exact
    assert [tuple(c) for c in batch.counts.tolist()] == [
        aggregate(state, max_laxity).counts for state in states
    ]


def test_batch_simulator_raises_where_agg_simulator_does():
    cfg = EpisodeConfig(3, (1.0, 2.0, 3.0, 4.0), (ArrivalEvent(0, 1, 1), ArrivalEvent(0, 1, 3)))
    for bad_laxity in (0, 1):  # the second EV has laxity 2
        with pytest.raises(ValueError, match="laxity"):
            AggSimulator(cfg, bad_laxity)
        with pytest.raises(ValueError, match="laxity"):
            BatchSimulator([cfg], bad_laxity)
    for action in (-1, 0, 3):  # urgent 1, chargeable 2
        with pytest.raises(ValueError):
            AggSimulator(cfg, 2).step(action)
        with pytest.raises(ValueError):
            BatchSimulator([cfg, cfg], 2).step([1, action])
    batch, sim = BatchSimulator([cfg], 2), AggSimulator(cfg, 2)
    for _ in range(3):
        batch.step([batch.urgent[0]])
        sim.step(sim.urgent)
    with pytest.raises(ValueError, match="horizon"):
        sim.step(0)
    with pytest.raises(ValueError, match="horizon"):
        batch.step([0])
    with pytest.raises(ValueError):
        BatchSimulator([], 2)
    with pytest.raises(ValueError, match="horizon"):
        BatchSimulator([cfg, EpisodeConfig(2, (1.0, 1.0, 1.0))], 2)
    with pytest.raises(ValueError):
        BatchSimulator([cfg], 2).step([1, 1])


def test_dynamic_homogeneity_under_relabeling():
    """Two stations whose per-level contents match (up to EV identity) move to
    the same counts under the same total action and flows."""
    a = StationState(0, 1.0, (EvRecord(0, 2, 3), EvRecord(1, 1, 1), EvRecord(2, 3, 5)))
    b = StationState(0, 1.0, (EvRecord(5, 2, 3), EvRecord(9, 1, 1), EvRecord(7, 3, 5)))
    assert aggregate(a, 2) == aggregate(b, 2)
    for total in (1, 2, 3):
        outcomes = []
        for state in (a, b):
            env = ChargingEnv(EpisodeConfig(1, (1.0, 1.0)))
            evs = state.evs
            nxt, _, _ = env.apply_actions(
                StationState(0, 1.0, evs), llf_allocate(total, evs)
            )
            outcomes.append(aggregate(nxt, 2).counts)
        assert outcomes[0] == outcomes[1]


def test_count_conservation():
    """Parked EVs change by arrivals minus departures, and an EV departs only
    in a slot that charges its last unit of demand."""
    rng = np.random.default_rng(21)
    for _ in range(30):
        cfg = random_instance(rng, max_evs=4, horizon=6)
        max_laxity = max((e.parking - e.demand for e in cfg.arrivals), default=1)
        arrivals = arrival_schedule(cfg)
        sim = AggSimulator(cfg, max(max_laxity, 1))
        state = sim.reset()
        pick = _urgent_respecting_controller(int(rng.integers(1 << 30)))
        for t in range(cfg.horizon):
            before = state.total
            action = pick(state.counts[0], state.total)
            state, _ = sim.step(action)
            departed = before + len(arrivals.get(t + 1, [])) - state.total
            assert 0 <= departed <= action


def _price_chain():
    return PriceChain(
        levels=(1.0, 4.0, 9.0),
        transition=(
            (0.6, 0.3, 0.1),
            (0.2, 0.5, 0.3),
            (0.1, 0.4, 0.5),
        ),
    )


def test_dp_value_equality_every_policy_tiny():
    """Exhaustive over every urgent-respecting counts policy on a one-EV day."""
    cfg = EpisodeConfig(3, (0.0,) * 4, (ArrivalEvent(0, 2, 3),))
    chain = _price_chain()
    max_laxity = 1

    # reachable policy inputs: (t, price_idx, counts); enumerate all of them
    keys = set()
    for t in range(3):
        for price_idx in range(3):
            for counts in [(0, 0), (1, 0), (0, 1), (1, 1)]:
                keys.add((t, price_idx, counts))
    keys = sorted(keys)

    def feasible_actions(counts):
        return list(range(counts[0], sum(counts) + 1))

    import itertools

    tables = itertools.product(*[feasible_actions(c) for _, _, c in keys])
    checked = 0
    for table in itertools.islice(tables, 750):
        mapping = dict(zip(keys, table))

        def pi(t, price_idx, counts):
            return mapping[(t, price_idx, counts)]

        for start in range(3):
            v_orig = dp_value_original(cfg, chain, start, pi, 1.0, max_laxity)
            v_agg = dp_value_aggregated(cfg, chain, start, pi, 1.0, max_laxity)
            assert abs(v_orig - v_agg) < 1e-12
        checked += 1
    assert checked > 100


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_dp_value_equality_random_policies(seed):
    rng = np.random.default_rng(seed)
    cfg = random_instance(rng, max_evs=3, horizon=5)
    max_laxity = max((e.parking - e.demand for e in cfg.arrivals), default=0)
    max_laxity = max(max_laxity, 1)
    chain = _price_chain()
    salt = int(rng.integers(1 << 30))

    def pi(t, price_idx, counts):
        urgent, total = counts[0], sum(counts)
        if total == urgent:
            return urgent
        h = hash((salt, t, price_idx, counts))
        return urgent + h % (total - urgent + 1)

    gamma = float(rng.choice([1.0, 0.9]))
    for start in range(3):
        v_orig = dp_value_original(cfg, chain, start, pi, gamma, max_laxity)
        v_agg = dp_value_aggregated(cfg, chain, start, pi, gamma, max_laxity)
        assert abs(v_orig - v_agg) < 1e-12
