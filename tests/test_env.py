import numpy as np
import pytest

from evcs.env import (
    ArrivalEvent,
    ChargingEnv,
    EpisodeConfig,
    EvRecord,
    StationState,
    run_episode,
)
from evcs.llf import llf_controller

from conftest import TABLE1_TOTALS


def test_record_validation():
    with pytest.raises(ValueError):
        EvRecord(0, -1, 3)
    with pytest.raises(ValueError):
        EvRecord(0, 1, -1)
    # demand may exceed parking: infeasible states are representable
    EvRecord(0, 2, 1)


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        StationState(0, 1.0, (EvRecord(1, 1, 2), EvRecord(1, 1, 3)))


def test_arrival_validation():
    with pytest.raises(ValueError):
        ArrivalEvent(0, 3, 2)  # not chargeable
    with pytest.raises(ValueError):
        ArrivalEvent(0, 0, 2)
    with pytest.raises(ValueError):
        ArrivalEvent(-1, 1, 2)


def test_config_validation():
    with pytest.raises(ValueError):
        EpisodeConfig(2, (1.0, 2.0))  # needs horizon+1 prices
    with pytest.raises(ValueError):
        EpisodeConfig(2, (1.0, 2.0, 3.0), (ArrivalEvent(3, 1, 1),))


def test_step_table1_first_transition(table1_config):
    env = ChargingEnv(table1_config)
    state = env.reset()
    assert [(ev.demand, ev.parking) for ev in state.evs] == [(3, 4), (2, 4)]
    nxt, reward = env.step(state, {0: 1, 1: 1})
    assert [(ev.demand, ev.parking) for ev in nxt.evs] == [(2, 3), (1, 3)]
    assert reward == -2.0 * 2


def test_step_empty_station():
    env = ChargingEnv(EpisodeConfig(1, (4.0, 5.0)))
    state = env.reset()
    nxt, reward = env.step(state, {})
    assert nxt.evs == () and reward == 0.0


def test_departure_at_demand_zero():
    cfg = EpisodeConfig(2, (1.0, 1.0, 1.0), (ArrivalEvent(0, 1, 1),))
    env = ChargingEnv(cfg)
    nxt, _, gone = env.apply_actions(env.reset(), {0: 1})
    assert nxt.evs == ()
    assert [(ev.demand, ev.parking) for ev in gone] == [(0, 0)]


def test_step_errors():
    cfg = EpisodeConfig(1, (1.0, 1.0), (ArrivalEvent(0, 1, 2),))
    env = ChargingEnv(cfg)
    state = env.reset()
    with pytest.raises(ValueError, match="unknown EV ids"):
        env.step(state, {0: 0, 5: 1})
    with pytest.raises(ValueError, match="missing"):
        env.step(state, {})
    with pytest.raises(ValueError, match="0 or 1"):
        env.step(state, {0: 2})
    # charging an EV with no demand left is rejected
    full = StationState(0, 1.0, (EvRecord(0, 0, 2),))
    with pytest.raises(ValueError, match="zero demand"):
        env.step(full, {0: 1})
    # stepping past the horizon
    done, _ = env.step(state, {0: 1})
    with pytest.raises(ValueError, match="horizon"):
        env.step(done, {})


def test_arrivals_join_at_their_slot_and_are_chargeable():
    cfg = EpisodeConfig(
        3, (1.0,) * 4, (ArrivalEvent(0, 1, 3), ArrivalEvent(1, 2, 2))
    )
    env = ChargingEnv(cfg)
    state = env.reset()
    assert len(state.evs) == 1
    state, _ = env.step(state, {0: 0})
    assert {ev.id for ev in state.evs} == {0, 1}
    # the t=1 arrival can be charged in its arrival slot
    state, _ = env.step(state, {0: 1, 1: 1})
    assert {(ev.id, ev.demand) for ev in state.evs} == {(1, 1)}


def test_run_episode_table1(table1_config):
    result = run_episode(table1_config, llf_controller(TABLE1_TOTALS))
    assert result.total_actions == TABLE1_TOTALS
    assert result.fully_charged
    assert sum(result.rewards) == sum(
        -p * a for p, a in zip(table1_config.prices, TABLE1_TOTALS)
    )


def test_run_episode_zero_horizon():
    result = run_episode(EpisodeConfig(0, (3.0,)), lambda s: {})
    assert result.rewards == () and result.total_actions == ()
    assert sum(result.rewards) == 0.0


def test_run_episode_charge_everything_matches_direct_sum():
    rng = np.random.default_rng(3)
    arrivals = (
        ArrivalEvent(0, 2, 5),
        ArrivalEvent(1, 3, 4),
        ArrivalEvent(2, 1, 3),
    )
    prices = tuple(float(p) for p in rng.uniform(1, 9, size=7))
    cfg = EpisodeConfig(6, prices, arrivals)
    result = run_episode(cfg, lambda s: {ev.id: 1 for ev in s.evs})
    expected = -sum(
        prices[t] * len(result.states[t].evs) for t in range(cfg.horizon)
    )
    assert sum(result.rewards) == pytest.approx(expected, abs=1e-12)


def test_conservation_and_parking_monotone():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        arrivals = []
        for _ in range(n):
            t0 = int(rng.integers(0, 4))
            p = int(rng.integers(1, 5))
            arrivals.append(ArrivalEvent(t0, int(rng.integers(1, p + 1)), p))
        cfg = EpisodeConfig(6, (1.0,) * 7, tuple(arrivals))
        result = run_episode(cfg, lambda s: {ev.id: 1 for ev in s.evs})
        departed_by_t = {}
        for t, _ in result.departures:
            departed_by_t[t] = departed_by_t.get(t, 0) + 1
        for t in range(cfg.horizon):
            cur, nxt = result.states[t], result.states[t + 1]
            arrived = sum(1 for e in cfg.arrivals if e.t == t + 1)
            assert len(nxt.evs) == len(cur.evs) + arrived - departed_by_t.get(t + 1, 0)
            prev = {ev.id: ev.parking for ev in cur.evs}
            for ev in nxt.evs:
                if ev.id in prev:
                    assert ev.parking == prev[ev.id] - 1
        assert all(r <= 0 for r in result.rewards)


def test_departure_rule_iff():
    cfg = EpisodeConfig(
        3, (1.0,) * 4, (ArrivalEvent(0, 1, 3), ArrivalEvent(0, 2, 2), ArrivalEvent(0, 3, 3))
    )
    result = run_episode(cfg, lambda s: {ev.id: 1 for ev in s.evs})
    for t in range(cfg.horizon):
        before = {ev.id: ev for ev in result.states[t].evs}
        after = {ev.id for ev in result.states[t + 1].evs}
        for ev_id, ev in before.items():
            a = result.action_maps[t][ev_id]
            should_leave = (ev.demand - a == 0) or (ev.parking - 1 == 0)
            assert (ev_id not in after) == should_leave


def test_overstay_is_flagged_infeasible():
    # park 2 slots, need 2 charges, never charge: leaves with demand
    cfg = EpisodeConfig(3, (1.0,) * 4, (ArrivalEvent(0, 2, 2),))
    result = run_episode(cfg, lambda s: {ev.id: 0 for ev in s.evs})
    assert result.infeasible
    assert result.uncharged_departures[0][1].demand == 2


def test_negative_prices_pass_through():
    cfg = EpisodeConfig(1, (-2.0, 0.0), (ArrivalEvent(0, 1, 1),))
    result = run_episode(cfg, lambda s: {ev.id: 1 for ev in s.evs})
    assert result.rewards == (2.0,)
