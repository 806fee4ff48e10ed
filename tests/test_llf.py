import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcs.env import ArrivalEvent, EpisodeConfig, EvRecord, StationState, run_episode
from evcs.llf import laxity, llf_allocate, llf_controller

from conftest import TABLE1_TOTALS
from oracles import exists_feasible_individual_schedule, llf_rollout_totals, random_instance


def test_laxity_values():
    assert laxity(3, 4) == 1
    assert laxity(2, 4) == 2
    assert laxity(5, 5) == 0


def test_allocate_prefers_least_laxity(table1_config):
    # t=1 of the worked two-EV example: budget 1 goes to the laxity-1 EV
    evs = (EvRecord(0, 2, 3), EvRecord(1, 1, 3))
    assert llf_allocate(1, evs) == {0: 1, 1: 0}


def test_allocate_extremes():
    evs = (EvRecord(0, 1, 2), EvRecord(1, 2, 5), EvRecord(2, 1, 1))
    assert llf_allocate(0, evs) == {0: 0, 1: 0, 2: 0}
    assert llf_allocate(3, evs) == {0: 1, 1: 1, 2: 1}


def test_allocate_errors():
    evs = (EvRecord(0, 1, 2),)
    with pytest.raises(ValueError):
        llf_allocate(-1, evs)
    with pytest.raises(ValueError):
        llf_allocate(2, evs)


def test_allocate_skips_fully_charged():
    evs = (EvRecord(0, 0, 3), EvRecord(1, 2, 5))
    assert llf_allocate(1, evs) == {0: 0, 1: 1}
    with pytest.raises(ValueError):
        llf_allocate(2, evs)  # only one EV still needs charge


ev_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 8)),
    min_size=1,
    max_size=8,
).map(
    lambda pairs: tuple(
        EvRecord(i, d, d + slack) for i, (d, slack) in enumerate(pairs)
    )
)


@given(ev_lists, st.data())
def test_allocate_deterministic_and_dominant(evs, data):
    chargeable = sum(1 for ev in evs if ev.demand > 0)
    total = data.draw(st.integers(0, chargeable))
    first = llf_allocate(total, evs)
    assert first == llf_allocate(total, evs)
    assert sum(first.values()) == total
    assert all(first[ev.id] == 0 for ev in evs if ev.demand == 0)
    charged = [laxity(ev.demand, ev.parking) for ev in evs if first[ev.id] == 1]
    idle = [
        laxity(ev.demand, ev.parking)
        for ev in evs
        if first[ev.id] == 0 and ev.demand > 0
    ]
    if charged and idle:
        assert max(charged) <= min(idle)


def test_tie_break_injectable_and_reward_invariant(table1_config):
    # Reversing the tie order flips which EV is picked inside a level but
    # cannot change any total (hence any reward).
    evs = (EvRecord(0, 2, 3), EvRecord(1, 2, 3))
    by_id = llf_allocate(1, evs)
    reversed_order = llf_allocate(1, evs, tie_break=lambda ev: -ev.id)
    assert by_id == {0: 1, 1: 0}
    assert reversed_order == {0: 0, 1: 1}

    default = run_episode(table1_config, llf_controller(TABLE1_TOTALS))
    flipped = run_episode(
        table1_config, llf_controller(TABLE1_TOTALS, tie_break=lambda ev: -ev.id)
    )
    assert default.rewards == flipped.rewards
    assert default.fully_charged and flipped.fully_charged


def test_table2_non_llf_run(table1_config):
    """Forcing the wrong EV at t=1 reproduces the published failure rows."""
    forced = {
        0: {0: 1, 1: 1},
        1: {0: 0, 1: 1},  # laxity-2 EV charged instead of laxity-1
        2: {0: 0},        # EV2 already left, fully charged
        3: {0: 1},        # only EV1 left; the budget-2 slot cannot be filled
        4: {},
    }
    result = run_episode(table1_config, lambda s: forced[s.t])

    ev1 = {t: None for t in range(5)}
    for t, state in enumerate(result.states[:5]):
        for ev in state.evs:
            if ev.id == 0:
                ev1[t] = (ev.demand, ev.parking)
    assert ev1[0] == (3, 4)
    assert ev1[1] == (2, 3)
    assert ev1[2] == (2, 2)
    assert ev1[3] == (2, 1)
    assert laxity(*ev1[3]) == -1
    # EV1 leaves at t=4 with one slot of demand unmet
    uncharged = dict(result.uncharged_departures)
    assert uncharged[4].id == 0 and uncharged[4].demand == 1
    assert result.infeasible
    # EV2 is fully charged by t=2 and gone
    assert dict(result.departures)[2] == EvRecord(1, 0, 2)
    # its realized totals: the published t=3 budget of 2 is not spendable
    assert result.total_actions == (2, 1, 0, 1, 0)


def test_oracle_accepts_table1(table1_config):
    assert exists_feasible_individual_schedule(table1_config, TABLE1_TOTALS)


def test_oracle_rejects_unfinishable():
    cfg = EpisodeConfig(2, (1.0,) * 3, (ArrivalEvent(0, 2, 2),))
    assert not exists_feasible_individual_schedule(cfg, (0, 1))
    assert exists_feasible_individual_schedule(cfg, (1, 1))


def test_oracle_validates_inputs(table1_config):
    with pytest.raises(ValueError):
        exists_feasible_individual_schedule(table1_config, (1, 1))  # wrong length
    with pytest.raises(ValueError):
        exists_feasible_individual_schedule(table1_config, (1, -1, 0, 0, 0))


def test_oracle_enumeration_guard():
    arrivals = tuple(ArrivalEvent(0, 2, 6) for _ in range(5))
    cfg = EpisodeConfig(
        6, (1.0,) * 7, tuple(ArrivalEvent(a.t, a.demand, a.parking) for a in arrivals)
    )
    with pytest.raises(ValueError, match="too large"):
        exists_feasible_individual_schedule(cfg, (0,) * 6, max_decision_points=20)
    # the bound is configurable
    assert isinstance(
        exists_feasible_individual_schedule(cfg, (0,) * 6, max_decision_points=40),
        bool,
    )


def test_feasible_totals_can_be_unexecutable_under_llf():
    """Pinned counterexample: a totals sequence the oracle certifies feasible
    that LLF cannot even execute, because charging the lower-laxity EV first
    makes it leave early and strands the larger later budget.  This is why
    the dispatch property suite quantifies over budgets within [0, chargeable]
    along the LLF path (the allocator's own precondition)."""
    cfg = EpisodeConfig(
        4, (1.0,) * 5, (ArrivalEvent(0, 1, 2), ArrivalEvent(0, 2, 3))
    )
    totals = (1, 2, 0, 0)
    assert exists_feasible_individual_schedule(cfg, totals)
    with pytest.raises(ValueError, match="exceeds"):
        run_episode(cfg, llf_controller(totals))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_llf_matches_oracle_on_executable_totals(seed):
    """On budgets executable under LLF, the exhaustive oracle and the LLF
    rollout agree exactly: feasible <=> every EV fully charged."""
    rng = np.random.default_rng(seed)
    cfg = random_instance(rng, max_evs=4, horizon=6)
    totals, llf_ok = llf_rollout_totals(cfg, rng)
    feasible = exists_feasible_individual_schedule(cfg, totals, max_decision_points=30)
    assert feasible == llf_ok
