import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcs.data import (
    DEFAULT_PROFILES,
    CategoryProfile,
    DataError,
    PriceSeries,
    episode_prices,
    gen_day,
    gen_prices,
    load_arrivals,
    load_prices,
    save_arrivals,
    save_prices,
)
from evcs.env import ArrivalEvent, Category
from evcs.llf import laxity


def _write(path, text):
    path.write_text(text)
    return path


def test_load_prices_step_hold(tmp_path):
    rows = ["timestamp,price"]
    for hour in range(24):
        rows.append(f"2026-01-01T{hour:02d}:00,{hour + 0.5}")
    path = _write(tmp_path / "p.csv", "\n".join(rows) + "\n")
    series = load_prices(path, slots_per_hour=4)
    assert len(series.values) == 96
    assert series.resolution_minutes == 15
    for hour in range(24):
        assert series.values[4 * hour : 4 * hour + 4] == (hour + 0.5,) * 4


def test_load_prices_constant(tmp_path):
    rows = ["timestamp,price"] + [f"2026-01-01T{h:02d}:00,3.0" for h in range(3)]
    series = load_prices(_write(tmp_path / "p.csv", "\n".join(rows)), 2)
    assert series.values == (3.0,) * 6


def test_load_prices_gap_names_missing_hour(tmp_path):
    rows = [
        "timestamp,price",
        "2026-01-01T00:00,1.0",
        "2026-01-01T01:00,2.0",
        "2026-01-01T03:00,3.0",
    ]
    with pytest.raises(DataError, match="2026-01-01T02:00"):
        load_prices(_write(tmp_path / "p.csv", "\n".join(rows)))


def test_load_prices_bad_rows(tmp_path):
    with pytest.raises(DataError, match="header"):
        load_prices(_write(tmp_path / "a.csv", "time,cost\n"))
    with pytest.raises(DataError, match=":2:"):
        load_prices(_write(tmp_path / "b.csv", "timestamp,price\nnot-a-time,1.0\n"))
    with pytest.raises(DataError, match=":3:"):
        load_prices(
            _write(tmp_path / "c.csv", "timestamp,price\n2026-01-01T00:00,1.0\n2026-01-01T01:00,abc\n")
        )
    with pytest.raises(DataError, match="no price rows"):
        load_prices(_write(tmp_path / "d.csv", "timestamp,price\n"))


def test_episode_prices_padding():
    series = PriceSeries(15, tuple(float(v) for v in range(8)))
    padded = episode_prices(series, 8)
    assert len(padded) == 9 and padded[-1] == padded[-2] == 7.0
    exact = episode_prices(series, 7)
    assert exact == tuple(float(v) for v in range(8))
    with pytest.raises(DataError):
        episode_prices(series, 9)


def test_profile_validation():
    with pytest.raises(DataError, match="24 hourly rates"):
        CategoryProfile(Category.NORMAL, (1.0,) * 23, (1, 2, 3), (2, 3, 4))
    with pytest.raises(DataError, match="demand"):
        CategoryProfile(Category.NORMAL, (1.0,) * 24, (3, 2, 3), (2, 3, 4))


def test_gen_day_zero_rates_empty():
    silent = CategoryProfile(Category.NORMAL, (0.0,) * 24, (1, 2, 3), (2, 3, 4))
    assert gen_day([silent], seed=4) == []


def test_gen_day_seeded_reproducibility():
    one = gen_day(DEFAULT_PROFILES, seed=9)
    two = gen_day(DEFAULT_PROFILES, seed=9)
    other = gen_day(DEFAULT_PROFILES, seed=10)
    assert one == two
    assert one != other
    assert len(one) > 0


def test_gen_day_respects_laxity_and_horizon_bounds():
    total = 0
    seed = 0
    while total < 10_000:
        for event in gen_day(DEFAULT_PROFILES, seed=seed):
            total += 1
            lax = laxity(event.demand, event.parking)
            assert 0 <= lax <= 12
            assert event.demand <= event.parking
            assert event.t + event.parking <= 96
        seed += 1
        assert seed < 2000, "default profiles generate too few arrivals"
    assert total >= 10_000


def test_gen_day_point_mass_distributions():
    spike = CategoryProfile(
        Category.EMERGENT,
        tuple(2.0 if h == 5 else 0.0 for h in range(24)),
        demand=(3, 3, 3),
        parking=(4, 4, 4),
    )
    events = gen_day([spike], seed=3)
    assert all(e.demand == 3 and e.parking == 4 for e in events)
    assert all(20 <= e.t < 24 for e in events)


def _choice_triangular_int(rng, lo, mode, hi):
    """Reference draw: one ``Generator.choice`` call over freshly built weights."""
    values = np.arange(lo, hi + 1)
    if len(values) == 1:
        return int(values[0])
    left = np.where(values <= mode, values - lo + 1, 0.0)
    right = np.where(values > mode, hi - values, 0.0)
    weights = left + right
    weights = weights / weights.sum()
    return int(rng.choice(values, p=weights))


def _choice_gen_day(profiles, rng, horizon, slots_per_hour, max_laxity):
    """Reference ``gen_day``: 1000 plain rejection tries per arrival.

    Returns the events and the number of arrivals drawn, kept or not."""
    hours = horizon // slots_per_hour
    events, drawn = [], 0
    for profile in profiles:
        for hour in range(hours):
            rate = profile.hourly_rates[hour % 24]
            for _ in range(int(rng.poisson(rate))):
                drawn += 1
                slot = hour * slots_per_hour + int(rng.integers(slots_per_hour))
                slots_left = horizon - slot
                for _ in range(1000):
                    demand = _choice_triangular_int(rng, *profile.demand)
                    parking = min(_choice_triangular_int(rng, *profile.parking), slots_left)
                    if demand <= parking and 0 <= parking - demand <= max_laxity:
                        events.append(ArrivalEvent(slot, demand, parking, profile.category))
                        break
    events.sort(key=lambda e: e.t)
    return events, drawn


def _assert_same_stream(profiles, seed, horizon, slots_per_hour, max_laxity):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    events = gen_day(profiles, ours, horizon, slots_per_hour, max_laxity)
    reference, drawn = _choice_gen_day(profiles, theirs, horizon, slots_per_hour, max_laxity)
    assert events == reference
    assert ours.random() == theirs.random()
    return events, drawn


@st.composite
def _triangles(draw):
    lo = draw(st.integers(1, 8))
    hi = lo + draw(st.sampled_from([0, 0, 1, 2, 5, 12]))
    mode = draw(st.sampled_from([lo, hi, draw(st.integers(lo, hi))]))
    return (lo, mode, hi)


@st.composite
def _profiles(draw):
    profiles = []
    for category in draw(st.lists(st.sampled_from(list(Category)), min_size=1, max_size=3)):
        rates = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.6]), min_size=24, max_size=24))
        profiles.append(CategoryProfile(category, tuple(rates), draw(_triangles()), draw(_triangles())))
    return profiles


@settings(max_examples=60, deadline=None)
@given(
    _profiles(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 32),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([0, 0, 1, 3, 12]),
)
def test_gen_day_matches_choice_reference(profiles, seed, horizon, slots_per_hour, max_laxity):
    """Same events and the same random stream afterwards as drawing every
    value with ``Generator.choice``, over point masses, ``mode`` at either
    end, wide triangles and laxity 0."""
    _assert_same_stream(profiles, seed, horizon, slots_per_hour, max_laxity)


def test_gen_day_drops_hopeless_late_arrivals_like_choice_reference():
    """Arrivals in the last hours have fewer slots left than the least demand:
    each is dropped after consuming its tries' uniforms, as the reference does."""
    late = CategoryProfile(
        Category.RESIDENTIAL,
        tuple(1.0 if 3 <= h < 6 else 0.0 for h in range(24)),
        demand=(10, 11, 14),
        parking=(10, 13, 16),
    )
    dropped = 0
    for seed in range(4):
        events, drawn = _assert_same_stream([late], seed, 24, 4, 6)
        assert all(e.t + 10 <= 24 for e in events)
        dropped += drawn - len(events)
    assert dropped > 0


def test_arrivals_round_trip(tmp_path):
    events = [
        ArrivalEvent(3, 2, 5, Category.EMERGENT),
        ArrivalEvent(10, 4, 9, Category.RESIDENTIAL),
    ]
    path = tmp_path / "arrivals.csv"
    save_arrivals(path, events)
    assert load_arrivals(path) == events


def test_load_arrivals_validation(tmp_path):
    header = "slot,demand,parking,category\n"
    assert load_arrivals(_write(tmp_path / "empty.csv", header)) == []
    with pytest.raises(DataError, match=":2:"):
        load_arrivals(_write(tmp_path / "bad.csv", header + "0,3,2,normal\n"))
    with pytest.raises(DataError, match=":3:"):
        load_arrivals(
            _write(tmp_path / "bad2.csv", header + "0,1,2,normal\n1,1,2,unknown\n")
        )
    with pytest.raises(DataError, match="header"):
        load_arrivals(_write(tmp_path / "bad3.csv", "slot,demand\n"))


def test_gen_prices_positive_and_seeded():
    rng = np.random.default_rng(0)
    prices = gen_prices(rng)
    assert len(prices) == 24
    assert all(p > 0 for p in prices)
    again = gen_prices(np.random.default_rng(0))
    assert prices == again
    # evening peak dominates the small hours
    assert max(prices[16:20]) > max(prices[0:5])


def test_save_prices_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    hourly = gen_prices(rng)
    path = tmp_path / "prices.csv"
    save_prices(path, hourly)
    series = load_prices(path, slots_per_hour=4)
    assert len(series.values) == 96
    assert series.values[::4] == hourly  # exact float round-trip via repr
