"""Discrete-time simulator of one charging-station day.

Each parked EV is tracked by its remaining charging demand and remaining
parking time, both counted in whole slots.  Charging an EV for one slot
lowers its demand by one; parking time falls by one every slot regardless.
An EV leaves the station as soon as either quantity hits zero, so under
feasible operation every EV reaches zero demand no later than the end of
its parking window.  The operator pays the current market price for every
EV charged in a slot, which enters the rollout as a negative reward.

EVs that run out of parking time with demand left are removed and recorded
as uncharged departures (the episode is then flagged infeasible) instead of
aborting the rollout, so badly-ordered dispatch can be simulated and tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence


class Category(Enum):
    """Arrival mix buckets used by the synthetic-day generator."""

    EMERGENT = "emergent"
    NORMAL = "normal"
    RESIDENTIAL = "residential"


@dataclass(frozen=True)
class EvRecord:
    """One parked EV: remaining demand and parking time, in slots."""

    id: int
    demand: int
    parking: int

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError(f"EV {self.id}: demand must be >= 0, got {self.demand}")
        if self.parking < 0:
            raise ValueError(f"EV {self.id}: parking must be >= 0, got {self.parking}")


@dataclass(frozen=True)
class StationState:
    """Market price plus the set of parked EVs at one time step."""

    t: int
    price: float
    evs: tuple[EvRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "evs", tuple(self.evs))
        ids = [ev.id for ev in self.evs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate EV ids in station state")

    @property
    def chargeable(self) -> int:
        """Number of parked EVs that still need charge."""
        return sum(1 for ev in self.evs if ev.demand > 0)


@dataclass(frozen=True, slots=True)
class ArrivalEvent:
    """An EV arrival: when it shows up and what it asks for."""

    t: int
    demand: int
    parking: int
    category: Category = Category.NORMAL

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"arrival time must be >= 0, got {self.t}")
        if self.demand < 1:
            raise ValueError(f"arrival demand must be >= 1, got {self.demand}")
        if self.parking < 1:
            raise ValueError(f"arrival parking must be >= 1, got {self.parking}")
        if self.demand > self.parking:
            raise ValueError(
                f"arrival at t={self.t} is not chargeable: demand {self.demand} "
                f"exceeds parking {self.parking}"
            )


@dataclass(frozen=True)
class EpisodeConfig:
    """One day's worth of inputs: horizon, slot prices and the arrival list.

    Decisions are taken at t = 0 .. horizon-1; prices carry one extra entry
    for the terminal state.  The discount applies to the episode objective
    only (per-step rewards are undiscounted).
    """

    horizon: int
    prices: tuple[float, ...]
    arrivals: tuple[ArrivalEvent, ...] = ()
    discount: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "prices", tuple(float(p) for p in self.prices))
        object.__setattr__(self, "arrivals", tuple(self.arrivals))
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if len(self.prices) != self.horizon + 1:
            raise ValueError(
                f"need {self.horizon + 1} prices for horizon {self.horizon}, "
                f"got {len(self.prices)}"
            )
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")
        for event in self.arrivals:
            if event.t > self.horizon:
                raise ValueError(
                    f"arrival at t={event.t} is outside the horizon {self.horizon}"
                )


def arrival_schedule(
    config: EpisodeConfig,
) -> dict[int, list[tuple[int, ArrivalEvent]]]:
    """Assign stable integer ids to arrivals and bucket them by slot.

    Ids follow (arrival time, position in the config list), so any two
    simulators built from the same config agree on which EV is which.
    """
    order = sorted(
        range(len(config.arrivals)), key=lambda k: (config.arrivals[k].t, k)
    )
    by_t: dict[int, list[tuple[int, ArrivalEvent]]] = {}
    for ev_id, k in enumerate(order):
        event = config.arrivals[k]
        by_t.setdefault(event.t, []).append((ev_id, event))
    return by_t


class ChargingEnv:
    """Stepper for one configured day.

    ``step`` is a pure function of (state, actions) given the config: the
    environment object holds no mutable rollout state, so independent
    rollouts can share one instance.
    """

    def __init__(self, config: EpisodeConfig):
        self.config = config
        self._arrivals = arrival_schedule(config)

    def reset(self) -> StationState:
        """Initial state at t=0, with the t=0 arrivals already parked."""
        evs = tuple(
            EvRecord(ev_id, event.demand, event.parking)
            for ev_id, event in self._arrivals.get(0, [])
        )
        return StationState(0, self.config.prices[0], evs)

    def step(
        self, state: StationState, actions: Mapping[int, int]
    ) -> tuple[StationState, float]:
        """Advance one slot under per-EV binary actions; reward = -price * total."""
        next_state, reward, _ = self.apply_actions(state, actions)
        return next_state, reward

    def apply_actions(
        self, state: StationState, actions: Mapping[int, int]
    ) -> tuple[StationState, float, list[EvRecord]]:
        """Like ``step`` but also reports the EVs removed this transition
        (records carry their post-update demand/parking)."""
        if state.t >= self.config.horizon:
            raise ValueError(
                f"cannot step past the episode horizon (t={state.t}, "
                f"horizon={self.config.horizon})"
            )
        ids = {ev.id for ev in state.evs}
        unknown = set(actions) - ids
        if unknown:
            raise ValueError(f"actions reference unknown EV ids: {sorted(unknown)}")
        missing = ids - set(actions)
        if missing:
            raise ValueError(f"actions missing for EV ids: {sorted(missing)}")

        staying: list[EvRecord] = []
        departed: list[EvRecord] = []
        total = 0
        for ev in state.evs:
            a = actions[ev.id]
            if a not in (0, 1):
                raise ValueError(f"EV {ev.id}: action must be 0 or 1, got {a!r}")
            if a == 1 and ev.demand == 0:
                raise ValueError(f"EV {ev.id}: cannot charge with zero demand left")
            total += a
            updated = EvRecord(ev.id, ev.demand - a, ev.parking - 1)
            if updated.demand == 0 or updated.parking == 0:
                departed.append(updated)
            else:
                staying.append(updated)

        t_next = state.t + 1
        staying.extend(
            EvRecord(ev_id, event.demand, event.parking)
            for ev_id, event in self._arrivals.get(t_next, [])
        )
        reward = -state.price * total
        next_state = StationState(t_next, self.config.prices[t_next], tuple(staying))
        return next_state, reward, departed


@dataclass(frozen=True)
class EpisodeResult:
    """Full record of one rollout: per-slot states, actions and rewards.

    ``departures`` holds (removal time, record after the final update), so a
    fully-charged exit shows demand 0 and an overstayed exit shows demand > 0.
    """

    config: EpisodeConfig
    states: tuple[StationState, ...]
    action_maps: tuple[dict[int, int], ...]
    total_actions: tuple[int, ...]
    rewards: tuple[float, ...]
    departures: tuple[tuple[int, EvRecord], ...]

    @property
    def uncharged_departures(self) -> list[tuple[int, EvRecord]]:
        """EVs that ran out of parking time with demand left."""
        return [(t, ev) for t, ev in self.departures if ev.demand > 0]

    @property
    def unfinished(self) -> list[EvRecord]:
        """EVs still parked at the horizon with demand left."""
        return [ev for ev in self.states[-1].evs if ev.demand > 0]

    @property
    def infeasible(self) -> bool:
        """True if any EV ended the day with unmet demand."""
        return bool(self.uncharged_departures) or bool(self.unfinished)

    @property
    def fully_charged(self) -> bool:
        return not self.infeasible

    def discounted_return(self, gamma: float | None = None) -> float:
        g = self.config.discount if gamma is None else gamma
        return sum(r * g**t for t, r in enumerate(self.rewards))


def run_episode(
    config: EpisodeConfig,
    controller: Callable[[StationState], Mapping[int, int]],
) -> EpisodeResult:
    """Roll one episode, asking ``controller`` for per-EV actions each slot."""
    env = ChargingEnv(config)
    state = env.reset()
    states = [state]
    action_maps: list[dict[int, int]] = []
    totals: list[int] = []
    rewards: list[float] = []
    departures: list[tuple[int, EvRecord]] = []
    for _ in range(config.horizon):
        actions = dict(controller(state))
        state, reward, gone = env.apply_actions(state, actions)
        states.append(state)
        action_maps.append(actions)
        totals.append(sum(actions.values()))
        rewards.append(reward)
        departures.extend((state.t, ev) for ev in gone)
    return EpisodeResult(
        config=config,
        states=tuple(states),
        action_maps=tuple(action_maps),
        total_actions=tuple(totals),
        rewards=tuple(rewards),
        departures=tuple(departures),
    )


def feasibility_invariant(state: StationState) -> bool:
    """True iff every parked EV can still be fully charged in time."""
    return all(ev.parking >= ev.demand for ev in state.evs)
