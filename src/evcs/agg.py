"""Grouping parked EVs by laxity level: the counts-based state and the two
rollout engines that publish it.

A station state collapses to (price, n_0, ..., n_L) where n_l counts the
parked EVs with laxity l.  Charged EVs keep their laxity, idle EVs drop one
level, so the counts evolve by a simple shift-and-add rule once the total
budget is split greedily from level 0 upward --- the same split the per-EV
least-laxity-first dispatch induces.  That greedy group allocation and the
group-count transition are written out in ``tests/oracles.py``
(``group_allocate``, ``agg_transition``), where the exact dynamic programme
over counts uses them to check this module against the per-EV simulator.

The count vector alone cannot predict departures (those depend on remaining
demands inside each level), so `AggSimulator` keeps the parked EVs as one
list sorted by (laxity, id), the order least-laxity-first dispatch charges
them in.  Controllers only ever see the (price, counts) state.
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
        counts = tuple(map(int, self.counts))
        object.__setattr__(self, "counts", counts)
        if min(counts, default=0) < 0:
            raise ValueError(f"laxity counts must be >= 0, got {counts}")

    @property
    def total(self) -> int:
        """Number of parked EVs."""
        return sum(self.counts)


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


def max_arrival_laxity(config: EpisodeConfig) -> int:
    """Highest laxity among a day's arrivals (0 for a day without arrivals)."""
    return max((laxity(e.demand, e.parking) for e in config.arrivals), default=0)


def _arrival_levels(
    config: EpisodeConfig, max_laxity: int
) -> dict[int, list[tuple[int, int, int]]]:
    """Per arrival slot: (laxity level, id, demand) of each arriving EV, with
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
            entries.append((level, ev_id, event.demand))
        out[t] = entries
    return out


class AggSimulator:
    """Rollout engine for one day over laxity-group counts.

    The parked EVs form one list of (laxity, id, remaining demand), kept
    sorted, so a step charges its first ``total_action`` entries: the EVs
    that per-EV least-laxity-first dispatch with ascending-id tie-break
    charges.  Charged EVs keep their laxity and leave once their demand is
    met; idle EVs drop one level.  Only the per-level counts of that list,
    with the price, reach the controller.
    """

    def __init__(self, config: EpisodeConfig, max_laxity: int):
        self.config = config
        self.max_laxity = max_laxity
        self._arrivals = _arrival_levels(config, max_laxity)
        self.reset()

    def reset(self) -> AggState:
        self._t = 0
        self._parked: list[tuple[int, int, int]] = []
        self._admit()
        return self._state

    def _admit(self) -> None:
        """Park slot t's arrivals and publish the counts of slot t."""
        # ids are unique, so sorting never compares demands
        self._parked = sorted(self._parked + self._arrivals.get(self._t, []))
        counts = [0] * (self.max_laxity + 1)
        for level, _, _ in self._parked:
            counts[level] += 1
        self._state = AggState(self.config.prices[self._t], tuple(counts))

    @property
    def t(self) -> int:
        return self._t

    @property
    def urgent(self) -> int:
        """EVs that must be charged this slot (laxity 0)."""
        return self._state.counts[0]

    @property
    def chargeable(self) -> int:
        """EVs that can be charged this slot (all parked EVs still need charge)."""
        return len(self._parked)

    def step(self, total_action: int) -> tuple[AggState, float]:
        """Charge ``total_action`` EVs, lowest (laxity, id) first."""
        if self._t >= self.config.horizon:
            raise ValueError(
                f"cannot step past the episode horizon (t={self._t}, "
                f"horizon={self.config.horizon})"
            )
        k = int(total_action)
        if not self.urgent <= k <= self.chargeable:
            raise ValueError(
                f"slot {self._t}: action {k} outside [{self.urgent}, "
                f"{self.chargeable}] (zero-laxity EVs left idle or more EVs "
                f"charged than parked)"
            )
        reward = -self._state.price * k
        charged = [
            (level, ev_id, demand - 1)
            for level, ev_id, demand in self._parked[:k]
            if demand > 1
        ]
        idle = [(level - 1, ev_id, demand) for level, ev_id, demand in self._parked[k:]]
        self._parked = charged + idle
        self._t += 1
        self._admit()
        return self._state, reward


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
                for level, ev_id, demand in entries:
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
