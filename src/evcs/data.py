"""Input files: price/arrival IO, synthetic-day generation, and `field`, the
one reader of every field of a JSON experiment config or model file.

File formats (delimited text with headers):
  prices:   ``timestamp,price``   -- consecutive hourly rows
  arrivals: ``slot,demand,parking,category``

Hourly prices are resampled to slot resolution by step-hold (each hour's
value repeated for its slots).  Synthetic days draw hourly Poisson arrival
counts per EV category and integer-triangular demand/parking pairs, rejected
until the implied laxity lands in [0, max_laxity]; parking is clamped to the
end of the day so every generated day is fully schedulable.

Draw contract: each try takes one uniform per triangle with more than one
value (demand first, then parking), read through a cdf precomputed once per
triangle; an arrival that no pair of support values can fit consumes its
1000 tries' uniforms in one bulk draw and is dropped.  This is exactly the
stream of one ``Generator.choice`` call per value, so a seed gives the same
days, byte for byte, as earlier versions that called ``choice``.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .env import ArrivalEvent, Category


class DataError(ValueError):
    """Malformed or inconsistent input data."""


def checked_number(value, kind: type, where: str):
    """``value`` as an int (``kind`` int) or a finite float (``kind`` float).
    An int takes a JSON integer, a float any finite number, neither a
    boolean or a string; anything else raises DataError naming ``where``."""
    allowed = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        wanted = "an integer" if kind is int else "a number"
        raise DataError(f"{where} must be {wanted}, got {value!r}")
    try:
        if math.isfinite(value):
            return kind(value)
    except OverflowError:
        pass
    raise DataError(f"{where} must be finite, got {value!r}")


_REQUIRED = object()
_KIND_NAMES = {str: "a string", list: "a list", dict: "an object"}


def field(document, name: str, kind: type, where: str, default=_REQUIRED, length=None):
    """Field ``name`` of the JSON object ``document`` as ``kind``; DataError
    names ``where`` and the field.  An absent field takes ``default`` (and
    is an error without one); a null reads as absent only where ``default``
    is None.  Numbers (``kind`` int or float) go through `checked_number`,
    str, list and dict values need only their type; with ``length`` the
    field is a list of that many numbers, returned as a tuple."""
    if not isinstance(document, dict):
        raise DataError(f"{where}: expected an object, got {document!r}")
    value = document.get(name)
    if name not in document or (value is None and default is None):
        if default is _REQUIRED:
            raise DataError(f"{where}: missing field '{name}'")
        return default
    label = f"{where}: field '{name}'"
    if length is not None:
        if not isinstance(value, list) or len(value) != length:
            size = f"{len(value)} entries" if isinstance(value, list) else repr(value)
            raise DataError(f"{label} must be a list of {length}, got {size}")
        return tuple(checked_number(v, kind, label) for v in value)
    if kind in _KIND_NAMES:
        if not isinstance(value, kind):
            raise DataError(f"{label} must be {_KIND_NAMES[kind]}, got {value!r}")
        return value
    return checked_number(value, kind, label)


@dataclass(frozen=True)
class CategoryProfile:
    """Arrival behaviour of one EV category.

    ``demand`` and ``parking`` are (min, mode, max) triples in slots for an
    integer triangular distribution; ``hourly_rates`` are Poisson means for
    each of the 24 hours.
    """

    category: Category
    hourly_rates: tuple[float, ...]
    demand: tuple[int, int, int]
    parking: tuple[int, int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hourly_rates", tuple(float(r) for r in self.hourly_rates))
        if len(self.hourly_rates) != 24:
            raise DataError(
                f"{self.category.value}: need 24 hourly rates, got {len(self.hourly_rates)}"
            )
        if any(r < 0 for r in self.hourly_rates):
            raise DataError(f"{self.category.value}: arrival rates must be >= 0")
        for name, (lo, mode, hi) in (("demand", self.demand), ("parking", self.parking)):
            if not (1 <= lo <= mode <= hi):
                raise DataError(
                    f"{self.category.value}: {name} triple must satisfy "
                    f"1 <= min <= mode <= max, got {(lo, mode, hi)}"
                )


def _hour_curve(peaks: Sequence[tuple[float, float, float]], base: float) -> tuple[float, ...]:
    hours = np.arange(24)
    rate = np.full(24, base)
    for center, width, height in peaks:
        rate = rate + height * np.exp(-(((hours - center) / width) ** 2))
    return tuple(float(r) for r in rate)


# Versioned defaults: emergent arrivals cluster midday with tight parking,
# normal ones follow the morning commute, residential ones the evening.
DEFAULT_PROFILES_VERSION = 1
DEFAULT_PROFILES = (
    CategoryProfile(
        category=Category.EMERGENT,
        hourly_rates=_hour_curve([(12.0, 2.5, 1.6)], base=0.08),
        demand=(4, 8, 14),
        parking=(6, 12, 20),
    ),
    CategoryProfile(
        category=Category.NORMAL,
        hourly_rates=_hour_curve([(8.5, 2.0, 2.0)], base=0.08),
        demand=(6, 12, 20),
        parking=(12, 22, 30),
    ),
    CategoryProfile(
        category=Category.RESIDENTIAL,
        hourly_rates=_hour_curve([(18.5, 2.0, 2.2)], base=0.08),
        demand=(6, 14, 24),
        parking=(12, 24, 34),
    ),
)


def load_prices(path: str | Path) -> tuple[float, ...]:
    """Read hourly ``timestamp,price`` rows and step-hold them to 15-minute
    slots: each hour's price repeated four times."""
    path = Path(path)
    rows: list[tuple[datetime, float]] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["timestamp", "price"]:
            raise DataError(f"{path}: expected header 'timestamp,price', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise DataError(f"{path}:{lineno}: expected 'timestamp,price'")
            try:
                stamp = datetime.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad timestamp {row[0]!r}: {exc}") from None
            try:
                price = float(row[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad price {row[1]!r}") from None
            if not np.isfinite(price):
                raise DataError(f"{path}:{lineno}: non-finite price")
            rows.append((stamp, price))
    if not rows:
        raise DataError(f"{path}: no price rows")
    for (prev, _), (cur, _) in zip(rows, rows[1:]):
        expected = prev + timedelta(hours=1)
        if cur != expected:
            raise DataError(
                f"{path}: gap in hourly series after {prev.isoformat()}, "
                f"missing {expected.isoformat()}"
            )
    return tuple(price for _, price in rows for _ in range(4))


def gen_prices(
    rng: np.random.Generator,
    base: float = 12.0,
    morning_peak: float = 6.0,
    evening_peak: float = 18.0,
    noise: float = 1.5,
    hours: int = 24,
) -> tuple[float, ...]:
    """Synthetic hourly prices: flat base, two gaussian peaks, seeded noise."""
    grid = np.arange(hours) % 24
    prices = (
        base
        + morning_peak * np.exp(-(((grid - 8.0) / 2.0) ** 2))
        + evening_peak * np.exp(-(((grid - 17.5) / 2.5) ** 2))
        + noise * rng.uniform(-1.0, 1.0, size=hours)
    )
    return tuple(float(max(p, 0.5)) for p in prices)


# tries per arrival before it is dropped as unable to fit
_TRIES = 1000


@lru_cache(maxsize=256)
def _triangle(lo: int, mode: int, hi: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Support and cdf of the integer triangle on ``lo..hi``.

    The cdf is built exactly as ``Generator.choice(values, p=w)`` builds it
    (``p = w / w.sum(); cdf = p.cumsum(); cdf /= cdf[-1]``), so
    ``values[bisect_right(cdf, rng.random())]`` is the value ``choice`` draws
    from the same uniform.  A one-value triangle has an empty cdf: it draws
    no uniform.
    """
    values = np.arange(lo, hi + 1)
    if len(values) == 1:
        return (lo,), ()
    left = np.where(values <= mode, values - lo + 1, 0.0)
    right = np.where(values > mode, hi - values, 0.0)
    weights = left + right
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return tuple(values.tolist()), tuple(cdf.tolist())


@lru_cache(maxsize=256)
def _fits(
    demand: tuple[int, int, int],
    parking: tuple[int, int, int],
    horizon: int,
    max_laxity: int,
) -> tuple[bool, ...]:
    """``fits[s]``: whether any pair of support values fits ``s`` slots left.

    A pair fits when ``d <= min(q, s)`` and ``min(q, s) - d <= max_laxity``.
    Every drawable pair is a support pair, so where this is False no try can
    succeed.
    """
    d = np.arange(demand[0], demand[2] + 1)[None, :, None]
    slots_left = np.arange(horizon + 1)[:, None, None]
    q = np.minimum(np.arange(parking[0], parking[2] + 1)[None, None, :], slots_left)
    ok = (d <= q) & (q - d <= max_laxity)
    return tuple(ok.any(axis=(1, 2)).tolist())


def gen_day(
    profiles: Sequence[CategoryProfile],
    seed: int | np.random.Generator,
    horizon: int = 96,
    slots_per_hour: int = 4,
    max_laxity: int = 12,
) -> list[ArrivalEvent]:
    """Draw one synthetic day of arrivals, deterministic for a given seed.

    Per profile and hour: one Poisson count, then per arrival one integer
    slot within the hour and up to 1000 (demand, parking) tries.  A try
    takes one uniform for demand, then one for parking, except from a
    one-value triangle, which takes none; parking is clamped to the slots
    left, and the first try with ``demand <= parking`` and laxity at most
    ``max_laxity`` is kept.  An arrival that no pair of support values can
    fit is dropped at once, consuming its 1000 tries' uniforms in one bulk
    draw; one that fails all its tries is dropped too.  Days are
    byte-identical to those of earlier versions for the same seed.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    random = rng.random
    hours = horizon // slots_per_hour
    events: list[ArrivalEvent] = []
    for profile in profiles:
        d_values, d_cdf = _triangle(*profile.demand)
        p_values, p_cdf = _triangle(*profile.parking)
        fits = _fits(profile.demand, profile.parking, horizon, max_laxity)
        hopeless_draws = _TRIES * (bool(d_cdf) + bool(p_cdf))
        for hour in range(hours):
            rate = profile.hourly_rates[hour % 24]
            for _ in range(int(rng.poisson(rate))):
                slot = hour * slots_per_hour + int(rng.integers(slots_per_hour))
                slots_left = horizon - slot
                if not fits[slots_left]:
                    random(hopeless_draws)  # the uniforms its tries would draw
                    continue
                for _ in range(_TRIES):
                    demand = d_values[bisect_right(d_cdf, random())] if d_cdf else d_values[0]
                    parking = p_values[bisect_right(p_cdf, random())] if p_cdf else p_values[0]
                    parking = min(parking, slots_left)
                    if demand <= parking and parking - demand <= max_laxity:
                        events.append(ArrivalEvent(slot, demand, parking, profile.category))
                        break
    events.sort(key=lambda e: e.t)
    return events


def save_arrivals(path: str | Path, events: Sequence[ArrivalEvent]) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["slot", "demand", "parking", "category"])
        for event in events:
            writer.writerow([event.t, event.demand, event.parking, event.category.value])


def load_arrivals(path: str | Path, horizon: int) -> list[ArrivalEvent]:
    """Read and validate the arrivals file of a day of ``horizon`` slots.

    Row errors carry their line number.  A row must arrive inside the day
    (slot < horizon) and leave by its end (slot + parking <= horizon), as
    every generated day does.
    """
    path = Path(path)
    events: list[ArrivalEvent] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        expected = ["slot", "demand", "parking", "category"]
        if header is None or [h.strip() for h in header] != expected:
            raise DataError(f"{path}: expected header {','.join(expected)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                slot, demand, parking = int(row[0]), int(row[1]), int(row[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer slot/demand/parking") from None
            try:
                category = Category(row[3].strip())
            except ValueError:
                raise DataError(f"{path}:{lineno}: unknown category {row[3]!r}") from None
            try:
                events.append(ArrivalEvent(slot, demand, parking, category))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if slot >= horizon:
                raise DataError(f"{path}:{lineno}: field 'slot' {slot} outside horizon {horizon}")
            if slot + parking > horizon:
                raise DataError(
                    f"{path}:{lineno}: field 'parking' {parking} runs past the end "
                    f"of the day (slot {slot} + parking > horizon {horizon})"
                )
    return events


def save_prices(
    path: str | Path, hourly: Sequence[float], start: str = "2026-01-01T00:00"
) -> None:
    begin = datetime.fromisoformat(start)
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "price"])
        for hour, price in enumerate(hourly):
            stamp = begin + timedelta(hours=hour)
            writer.writerow([stamp.isoformat(timespec="minutes"), repr(float(price))])
