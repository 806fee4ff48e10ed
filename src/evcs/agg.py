"""Grouping parked EVs by laxity level: counts-based state, greedy group
allocation of the total budget, and the group-count transition.

A station state collapses to (price, n_0, ..., n_L) where n_l counts the
parked EVs with laxity l.  Charged EVs keep their laxity, idle EVs drop one
level, so the counts evolve by a simple shift-and-add rule once the total
budget is split greedily from level 0 upward --- the same split the per-EV
least-laxity-first dispatch induces.

The count vector alone cannot predict departures (those depend on remaining
demands inside each level), so `AggSimulator` keeps per-level demand lists as
private bookkeeping.  Controllers only ever see the (price, counts) state.
`BatchSimulator` steps many days at once on padded per-EV arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .env import EpisodeConfig, StationState, arrival_schedule
from .llf import laxity


@dataclass(frozen=True)
class AggState:
    """Price plus the number of parked EVs at each laxity level."""

    price: float
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        if any(n < 0 for n in self.counts):
            raise ValueError(f"laxity counts must be >= 0, got {self.counts}")

    @property
    def total(self) -> int:
        """Number of parked EVs."""
        return sum(self.counts)

    @property
    def max_level(self) -> int:
        return len(self.counts) - 1


@dataclass(frozen=True)
class GroupFlow:
    """Per-level flows over one transition: charged, arrived, departed."""

    charged: tuple[int, ...]
    arrived: tuple[int, ...]
    departed: tuple[int, ...]


def aggregate(state: StationState, max_laxity: int) -> AggState:
    """Collapse a station state to per-laxity-level counts."""
    counts = [0] * (max_laxity + 1)
    for ev in state.evs:
        level = laxity(ev.demand, ev.parking)
        if not 0 <= level <= max_laxity:
            raise ValueError(
                f"EV {ev.id} has laxity {level} outside [0, {max_laxity}]; "
                f"raise max_laxity or check state feasibility"
            )
        counts[level] += 1
    return AggState(state.price, tuple(counts))


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


def _shift_counts(
    counts: Sequence[int],
    charged: Sequence[int],
    arrivals: Sequence[int],
    departures: Sequence[int],
) -> list[int]:
    """Count bookkeeping shared by agg_transition and the simulator."""
    top = len(counts) - 1
    if len(arrivals) != len(counts) or len(departures) != len(counts):
        raise ValueError(f"arrival/departure vectors must have length {len(counts)}")
    if charged[0] < counts[0]:
        raise ValueError(
            f"budget {sum(charged)} leaves {counts[0] - charged[0]} zero-laxity "
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
    return new_counts


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
    charged = group_allocate(total, state.counts)
    new_counts = _shift_counts(state.counts, charged, arrivals, departures)
    return AggState(next_price, tuple(new_counts))


def cap_merge(state: AggState, cap: int) -> AggState:
    """Pool all laxity levels >= cap into one trailing count."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if cap >= state.max_level:
        return state
    merged = state.counts[:cap] + (sum(state.counts[cap:]),)
    return AggState(state.price, merged)


def _arrival_levels(
    config: EpisodeConfig, max_laxity: int
) -> dict[int, list[tuple[int, int, int]]]:
    """Per arrival slot: (id, demand, laxity level) of each arriving EV, with
    the ids of ``arrival_schedule``; a level outside [0, max_laxity] raises."""
    out: dict[int, list[tuple[int, int, int]]] = {}
    for t, items in arrival_schedule(config).items():
        entries = []
        for ev_id, event in items:
            level = laxity(event.demand, event.parking)
            if not 0 <= level <= max_laxity:
                raise ValueError(
                    f"arrival at t={t} has laxity {level} outside "
                    f"[0, {max_laxity}]"
                )
            entries.append((ev_id, event.demand, level))
        out[t] = entries
    return out


class AggSimulator:
    """Rollout engine for one day over laxity-group counts.

    Published counts are driven purely by `group_allocate` + `agg_transition`.
    Internally each level keeps its members' (id, remaining demand) in id
    order, which is exactly what the per-EV least-laxity-first dispatch with
    ascending-id tie-break induces; this bookkeeping only serves to emit
    departures and never reaches the controller.
    """

    def __init__(self, config: EpisodeConfig, max_laxity: int):
        self.config = config
        self.max_laxity = max_laxity
        self._arrivals = _arrival_levels(config, max_laxity)
        self.reset()

    def reset(self) -> AggState:
        self._t = 0
        # per level: [id, demand] pairs in ascending id order
        self._levels: list[list[list[int]]] = [
            [] for _ in range(self.max_laxity + 1)
        ]
        self._insert_arrivals(0)
        self._state = AggState(
            self.config.prices[0], tuple(len(lv) for lv in self._levels)
        )
        self.last_flow: GroupFlow | None = None
        return self._state

    def _insert_arrivals(self, t: int) -> tuple[int, ...]:
        arrived = [0] * (self.max_laxity + 1)
        touched = set()
        for ev_id, demand, level in self._arrivals.get(t, []):
            self._levels[level].append([ev_id, demand])
            touched.add(level)
            arrived[level] += 1
        for level in touched:
            self._levels[level].sort(key=lambda entry: entry[0])
        return tuple(arrived)

    @property
    def t(self) -> int:
        return self._t

    @property
    def state(self) -> AggState:
        return self._state

    @property
    def urgent(self) -> int:
        """EVs that must be charged this slot (laxity 0)."""
        return self._state.counts[0]

    @property
    def chargeable(self) -> int:
        """EVs that can be charged this slot (all parked EVs still need charge)."""
        return self._state.total

    def step(self, total_action: int) -> tuple[AggState, float]:
        """Charge ``total_action`` EVs, lowest laxity levels first."""
        if self._t >= self.config.horizon:
            raise ValueError(
                f"cannot step past the episode horizon (t={self._t}, "
                f"horizon={self.config.horizon})"
            )
        total_action = int(total_action)
        counts = self._state.counts
        charged_vec = group_allocate(total_action, counts)
        if charged_vec[0] < counts[0]:
            raise ValueError(
                f"slot {self._t}: budget {total_action} leaves zero-laxity "
                f"EVs idle; the rollout would become infeasible"
            )
        reward = -self._state.price * total_action

        departed = [0] * (self.max_laxity + 1)
        new_levels: list[list[list[int]]] = [[] for _ in range(self.max_laxity + 1)]
        for level in range(self.max_laxity + 1):
            members = self._levels[level]
            k = charged_vec[level]
            for entry in members[:k]:  # lowest ids first, as per-EV LLF does
                if entry[1] - 1 == 0:
                    departed[level] += 1
                else:
                    new_levels[level].append([entry[0], entry[1] - 1])
            if k < len(members):
                # idle EVs drop one laxity level; level 0 was guarded above
                moved = [[e[0], e[1]] for e in members[k:]]
                new_levels[level - 1] = _merge_by_id(new_levels[level - 1], moved)

        self._levels = new_levels
        self._t += 1
        arrived = self._insert_arrivals(self._t)
        new_counts = tuple(_shift_counts(counts, charged_vec, arrived, departed))
        if new_counts != tuple(len(lv) for lv in self._levels):
            raise RuntimeError(
                "count transition diverged from per-level bookkeeping"
            )
        next_state = _agg_state_unchecked(self.config.prices[self._t], new_counts)
        self.last_flow = GroupFlow(charged_vec, arrived, tuple(departed))
        self._state = next_state
        return next_state, reward


class BatchSimulator:
    """Rollout engine for a batch of days of one horizon, stepped together.

    Row b holds one day as per-EV arrays of shape (B, E), padded to the
    longest arrival list: arrival slot, remaining demand and laxity, with
    column j the EV that ``arrival_schedule`` gives id j.  An EV is parked
    from its arrival slot until its demand reaches zero.  A step charges,
    in each row, the ``action`` parked EVs of lowest (laxity, id), which is
    the EV set `AggSimulator` charges, so every row's counts and rewards
    match a B=1 rollout of its day.
    """

    def __init__(self, configs: Sequence[EpisodeConfig], max_laxity: int):
        if not configs:
            raise ValueError("need at least one day")
        horizons = {config.horizon for config in configs}
        if len(horizons) != 1:
            raise ValueError(f"days of one batch must share a horizon, got {sorted(horizons)}")
        self.horizon = horizons.pop()
        self.max_laxity = max_laxity
        width = max(len(config.arrivals) for config in configs)
        shape = (len(configs), width)
        # padding columns arrive after the horizon, so they are never parked
        self._arrival0 = np.full(shape, self.horizon + 1, dtype=np.int64)
        self._demand0 = np.zeros(shape, dtype=np.int64)
        self._laxity0 = np.zeros(shape, dtype=np.int64)
        for b, config in enumerate(configs):
            for t, entries in _arrival_levels(config, max_laxity).items():
                for ev_id, demand, level in entries:
                    self._arrival0[b, ev_id] = t
                    self._demand0[b, ev_id] = demand
                    self._laxity0[b, ev_id] = level
        self._prices = np.array([config.prices for config in configs], dtype=float)
        self.reset()

    def take(self, rows: Sequence[int]) -> "BatchSimulator":
        """A reset simulator whose row i is this one's day ``rows[i]``."""
        rows = np.asarray(rows, dtype=np.intp)
        sub = object.__new__(BatchSimulator)
        sub.horizon, sub.max_laxity = self.horizon, self.max_laxity
        sub._arrival0 = self._arrival0[rows]
        sub._demand0 = self._demand0[rows]
        sub._laxity0 = self._laxity0[rows]
        sub._prices = self._prices[rows]
        sub.reset()
        return sub

    def reset(self) -> np.ndarray:
        self._t = 0
        self._demand = self._demand0.copy()
        self._laxity = self._laxity0.copy()
        self._tally()
        return self.counts

    def _tally(self) -> None:
        self._parked = (self._arrival0 <= self._t) & (self._demand > 0)
        rows, levels = self._laxity.shape[0], self.max_laxity + 1
        slot = np.arange(rows)[:, None] * levels + self._laxity
        self.counts = np.bincount(
            slot[self._parked], minlength=rows * levels
        ).reshape(rows, levels)

    @property
    def batch(self) -> int:
        return self._prices.shape[0]

    @property
    def price(self) -> np.ndarray:
        """Each row's price at the current slot."""
        return self._prices[:, self._t]

    @property
    def urgent(self) -> np.ndarray:
        """Per row: EVs that must be charged this slot (laxity 0)."""
        return self.counts[:, 0]

    @property
    def chargeable(self) -> np.ndarray:
        """Per row: EVs that can be charged this slot."""
        return self.counts.sum(axis=1)

    def step(self, total_action: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Charge ``total_action[b]`` EVs of row b, lowest laxity first.

        Returns the next counts (B, max_laxity+1) and the rewards (B,).
        """
        if self._t >= self.horizon:
            raise ValueError(
                f"cannot step past the episode horizon (t={self._t}, "
                f"horizon={self.horizon})"
            )
        action = np.asarray(total_action, dtype=np.int64)
        if action.shape != (self.batch,):
            raise ValueError(f"need one action per row ({self.batch}), got shape {action.shape}")
        urgent, chargeable = self.urgent, self.chargeable
        bad = np.flatnonzero((action < urgent) | (action > chargeable))
        if bad.size:
            b = bad[0]
            raise ValueError(
                f"row {b}, slot {self._t}: action {action[b]} outside "
                f"[{urgent[b]}, {chargeable[b]}] (zero-laxity EVs left idle or "
                f"more EVs charged than parked)"
            )
        width = self._laxity.shape[1]
        # rank parked EVs by (laxity, id); column 0 holds -1 so that the
        # sorted row's entry at position action is the last key charged
        keys = np.full((self.batch, width + 1), -1, dtype=np.int64)
        keys[:, 1:] = np.where(
            self._parked, self._laxity * width + np.arange(width), (self.max_laxity + 1) * width
        )
        cut = np.sort(keys, axis=1)[np.arange(self.batch), action]
        charged = self._parked & (keys[:, 1:] <= cut[:, None])
        self._demand -= charged
        self._laxity -= self._parked & ~charged
        reward = -self._prices[:, self._t] * action
        self._t += 1
        self._tally()
        return self.counts, reward


def _agg_state_unchecked(price: float, counts: tuple[int, ...]) -> AggState:
    """AggState constructor bypassing validation; counts must already be
    non-negative ints (the simulator's shift arithmetic guarantees it)."""
    state = object.__new__(AggState)
    object.__setattr__(state, "price", price)
    object.__setattr__(state, "counts", counts)
    return state


def _merge_by_id(
    left: list[list[int]], right: list[list[int]]
) -> list[list[int]]:
    """Merge two id-sorted entry lists, keeping ascending id order."""
    out: list[list[int]] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i][0] <= right[j][0]:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return out
