"""Laxity accounting and least-laxity-first dispatch of a total charging budget.

An EV's laxity is the number of parked slots it can afford to sit idle:
parking time minus remaining demand.  Dispatching the station-wide budget to
the lowest-laxity EVs first keeps every laxity non-negative whenever that is
possible at all, which is what makes the scalar total action a sufficient
control for the station.

The independent brute-force check of that claim,
``exists_feasible_individual_schedule``, enumerates every way of spending
the budget; it lives in ``tests/oracles.py``, beside the other proofs.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .env import EvRecord, StationState


def laxity(demand: int, parking: int) -> int:
    """Slots the EV can skip and still finish: parking - demand."""
    return parking - demand


def llf_allocate(
    total: int,
    evs: Sequence[EvRecord],
    tie_break: Callable[[EvRecord], object] | None = None,
) -> dict[int, int]:
    """Spend a total charging budget on the lowest-laxity EVs first.

    Exactly ``total`` EVs receive action 1; EVs with no demand left are never
    selected.  Ties within a laxity level go to the smallest ``tie_break``
    key (EV id when not supplied), so the result is deterministic.
    """
    if total < 0:
        raise ValueError(f"total charging budget must be >= 0, got {total}")
    chargeable = [ev for ev in evs if ev.demand > 0]
    if total > len(chargeable):
        raise ValueError(
            f"budget {total} exceeds the {len(chargeable)} chargeable EVs"
        )
    key = tie_break if tie_break is not None else (lambda ev: ev.id)
    ranked = sorted(chargeable, key=lambda ev: (laxity(ev.demand, ev.parking), key(ev)))
    chosen = {ev.id for ev in ranked[:total]}
    return {ev.id: (1 if ev.id in chosen else 0) for ev in evs}


def llf_controller(
    totals: Sequence[int],
    tie_break: Callable[[EvRecord], object] | None = None,
) -> Callable[[StationState], Mapping[int, int]]:
    """Episode controller that dispatches a fixed total-action sequence via LLF."""

    def controller(state: StationState) -> Mapping[int, int]:
        return llf_allocate(totals[state.t], state.evs, tie_break)

    return controller
