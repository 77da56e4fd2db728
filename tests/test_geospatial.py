"""Geodesic distances, POI handling, location contexts and station norms."""

import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, columns_of, km_to_lon_degrees, make_event, make_stations, mutated_rows, reference_location_context
from evrac import geospatial as geo
from evrac.errors import ConfigError, DataFormatError, DomainError, EvracError, UnknownStationError
from evrac.reward import build_wait_series

_lat = st.floats(-90, 90)
_lon = st.floats(-180, 180)


# ---------------------------------------------------------------------------
# Haversine
# ---------------------------------------------------------------------------

def test_haversine_identical_points():
    assert geo.haversine(0, 0, 0, 0) == 0.0
    assert geo.haversine(56.46, -2.97, 56.46, -2.97) == 0.0


def test_haversine_quarter_great_circle():
    assert geo.haversine(0, 0, 0, 90) == pytest.approx(math.pi / 2 * 6371.0, abs=1e-3)


def test_haversine_against_law_of_cosines_oracle():
    # Independent spherical law-of-cosines implementation as reference.
    lat1, lon1, lat2, lon2 = 56.4620, -2.9707, 56.4770, -3.0360
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    expected = 6371.0 * math.acos(
        math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    )
    got = geo.haversine(lat1, lon1, lat2, lon2)
    assert abs(got - expected) / expected < 1e-6


@settings(max_examples=60)
@given(_lat, _lon, _lat, _lon)
def test_haversine_symmetric_nonnegative(lat1, lon1, lat2, lon2):
    d = geo.haversine(lat1, lon1, lat2, lon2)
    assert d >= 0
    assert d == pytest.approx(geo.haversine(lat2, lon2, lat1, lon1), abs=1e-12)


@settings(max_examples=40)
@given(_lat, _lon, _lat, _lon, _lat, _lon)
def test_haversine_triangle_inequality(lat1, lon1, lat2, lon2, lat3, lon3):
    ab = geo.haversine(lat1, lon1, lat2, lon2)
    bc = geo.haversine(lat2, lon2, lat3, lon3)
    ac = geo.haversine(lat1, lon1, lat3, lon3)
    assert ac <= ab + bc + 1e-9


def test_haversine_rejects_bad_coordinates():
    with pytest.raises(DomainError):
        geo.haversine(91, 0, 0, 0)
    with pytest.raises(DomainError):
        geo.haversine(0, 0, 0, 181)


# ---------------------------------------------------------------------------
# POI loading and normalization
# ---------------------------------------------------------------------------

def _poi_csv(tmp_path, rows):
    header = "station_id," + ",".join(f"c{i}" for i in range(76))
    path = tmp_path / "poi.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def test_load_poi_basic(tmp_path):
    counts = ["0"] * 76
    counts[13] = "3"
    path = _poi_csv(tmp_path, ["cs7," + ",".join(counts)])
    out = geo.load_poi(path, ["cs7"])
    assert out["cs7"].shape == (76,)
    assert out["cs7"][13] == 3
    assert out["cs7"].sum() == 3


def test_load_poi_missing_station_gets_zeros(tmp_path, caplog):
    path = _poi_csv(tmp_path, ["cs1," + ",".join(["1"] * 76)])
    with caplog.at_level("WARNING"):
        out = geo.load_poi(path, ["cs1", "cs2"])
    assert np.array_equal(out["cs2"], np.zeros(76))
    assert any("cs2" in r.message for r in caplog.records)


def test_load_poi_malformed_column_count(tmp_path):
    path = _poi_csv(tmp_path, ["cs1,1,2"])
    with pytest.raises(DataFormatError, match=":2"):
        geo.load_poi(path, ["cs1"])


def test_load_poi_44_stations(tmp_path):
    rows = [f"cs{i}," + ",".join(["1"] * 76) for i in range(44)]
    out = geo.load_poi(_poi_csv(tmp_path, rows), [f"cs{i}" for i in range(44)])
    assert len(out) == 44
    assert all(v.shape == (76,) for v in out.values())


def test_normalize_poi():
    counts = np.zeros(76)
    assert np.array_equal(geo.normalize_poi(counts), np.zeros(76))
    counts[3], counts[10] = 1, 3
    dist = geo.normalize_poi(counts)
    assert dist.sum() == pytest.approx(1.0, abs=1e-15)
    assert dist[10] == pytest.approx(0.75)


def test_station_validation():
    with pytest.raises(DomainError):
        geo.Station("x", 95.0, 0.0, np.zeros(76))
    with pytest.raises(DomainError):
        geo.Station("x", 0.0, 0.0, np.zeros(10))


def _stations_csv(tmp_path, rows):
    path = tmp_path / "stations.csv"
    path.write_text("\n".join(["station_id,latitude,longitude"] + rows) + "\n", encoding="utf-8")
    return path


def test_load_stations_basic(tmp_path):
    out = geo.load_stations(_stations_csv(tmp_path, ["cs1,56.5,-2.9", " cs0 ,0,0"]))
    assert sorted(out) == ["cs0", "cs1"]
    assert (out["cs1"].latitude, out["cs1"].longitude) == (56.5, -2.9)


@pytest.mark.parametrize("row, why", [
    ("cs9,1.0", ":3: expected 3 fields"),           # short row
    ("cs9,1.0,2.0,3.0", ":3: expected 3 fields"),   # extra field
    ("cs0,10.0,10.0", ":3: duplicate station_id 'cs0'"),
    ("cs9,x,2.0", ":3: could not convert"),
    ("cs9,91.0,2.0", ":3: coordinates out of range"),
])
def test_load_stations_rejects_bad_row(tmp_path, row, why):
    with pytest.raises(DataFormatError, match=why):
        geo.load_stations(_stations_csv(tmp_path, ["cs0,0,0", row]))


def test_load_stations_line_numbers_count_blank_lines(tmp_path):
    with pytest.raises(DataFormatError, match=r"stations\.csv:4: could not convert"):
        geo.load_stations(_stations_csv(tmp_path, ["cs0,0,0", "", "cs9,x,2.0"]))


def test_load_poi_skips_blank_lines_and_counts_them(tmp_path):
    good = "cs0," + ",".join(["1"] * 76)
    assert list(geo.load_poi(_poi_csv(tmp_path, [good, "", ""]), ["cs0"])) == ["cs0"]
    with pytest.raises(DataFormatError, match=r"poi\.csv:4: expected 77 columns"):
        geo.load_poi(_poi_csv(tmp_path, [good, "", "cs1,1,2"]), ["cs0", "cs1"])
    with pytest.raises(DataFormatError, match=r"poi\.csv:4: negative POI count"):
        geo.load_poi(_poi_csv(tmp_path, [good, "", "cs1," + ",".join(["-1"] * 76)]), ["cs0", "cs1"])


def test_load_stations_rejects_a_field_over_the_csv_limit(tmp_path):
    path = _stations_csv(tmp_path, ['"cs9,' + "9" * 200_000])
    with pytest.raises(DataFormatError, match="field larger than field limit"):
        geo.load_stations(path)


def test_load_poi_rejects_repeated_station(tmp_path):
    path = _poi_csv(tmp_path, ["cs1," + ",".join(["1"] * 76), "cs1," + ",".join(["2"] * 76)])
    with pytest.raises(DataFormatError, match=":3: duplicate station_id 'cs1'"):
        geo.load_poi(path, ["cs1"])


_STATION_LINES = [b"station_id,latitude,longitude", b"cs0,56.46,-2.97", b"cs1,0,0", b"cs2,-10.5,170"]
_POI_LINES = [("station_id," + ",".join(f"c{i}" for i in range(76))).encode()] + [
    (f"cs{s}," + ",".join(str((s * i) % 5) for i in range(76))).encode() for s in range(3)
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_stations_hostile_rows_raise_only_evrac_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-stations.csv"
    path.write_bytes(mutated_rows(_STATION_LINES, data))
    try:
        out = geo.load_stations(path)
    except EvracError:
        return
    assert all(isinstance(st_, geo.Station) for st_ in out.values())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_poi_hostile_rows_raise_only_evrac_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-poi.csv"
    path.write_bytes(mutated_rows(_POI_LINES, data))
    try:
        out = geo.load_poi(path, ["cs0", "cs1", "cs2"])
    except EvracError:
        return
    assert all(v.shape == (76,) and np.all(v >= 0) for v in out.values())


# ---------------------------------------------------------------------------
# Location contexts
# ---------------------------------------------------------------------------

def test_onehot_coding():
    index = make_stations([f"cs{i}" for i in range(8)])
    vec = index.context([index.index_of("cs2")], [-1])[0, 1:9]
    expected = np.zeros(8)
    expected[2] = 1.0
    assert np.array_equal(vec, expected)
    with pytest.raises(UnknownStationError):
        index.index_of("cs99")


def test_location_context_no_previous():
    index = make_stations(["cs0", "cs1"], spacing_km=5.0)
    ctx = index.context([1], [-1])[0]
    assert ctx[0] == 0.0                      # distance from the previous station
    onehot = ctx[1:3]
    assert onehot.sum() == 1.0 and onehot[1] == 1.0


def test_location_context_same_station():
    index = make_stations(["cs0", "cs1"], spacing_km=5.0)
    ctx = index.context([0], [0])[0]
    assert ctx[0] == 0.0


def test_location_context_distance():
    index = make_stations(["cs0", "cs1"], spacing_km=5.0)
    ctx = index.context([1], [0])
    assert ctx[0, 0] == pytest.approx(5.0, abs=1e-9)
    assert ctx.shape == (1, index.context_width()) == (1, 1 + 2 + 76)


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(0, 2**16), st.data())
def test_context_matches_per_event_oracle(m, seed, data):
    rng = np.random.default_rng(seed)
    index = geo.StationIndex({
        f"s{i}": geo.Station(f"s{i}", rng.uniform(-80, 80), rng.uniform(-170, 170),
                             rng.integers(0, 4, geo.NUM_POI_TYPES))
        for i in range(m)
    })
    pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(-1, m - 1)), max_size=8))
    cols = np.array([c for c, _ in pairs], dtype=np.int64)
    prev_cols = np.array([p for _, p in pairs], dtype=np.int64)
    want = [reference_location_context(index, index.order[c], None if p < 0 else index.order[p]) for c, p in pairs]
    got = index.context(cols, prev_cols)
    assert got.shape == (len(pairs), index.context_width())
    assert got.tobytes() == np.array(want).reshape(got.shape).tobytes()


def test_station_contexts_are_built_once_and_shared_with_norm_copies():
    index = make_stations(["cs0", "cs1", "cs2"], spacing_km=2.0)
    want = index.context(np.arange(3), np.full(3, -1))
    assert index.contexts.tobytes() == want.tobytes()
    assert not index.contexts.flags.writeable
    normed = index.with_norms(np.ones(3), np.ones(3))
    assert normed.contexts is index.contexts


@settings(max_examples=30)
@given(st.lists(st.tuples(_lat, _lon), min_size=1, max_size=6))
def test_distance_table_is_haversine_bitwise(coords):
    stations = {
        f"s{i}": geo.Station(f"s{i}", lat, lon, np.zeros(geo.NUM_POI_TYPES))
        for i, (lat, lon) in enumerate(coords)
    }
    index = geo.StationIndex(stations)
    for a in stations.values():
        for b in stations.values():
            expected = geo.haversine(a.latitude, a.longitude, b.latitude, b.longitude)
            assert index.distance(a.station_id, b.station_id) == expected
    with pytest.raises(UnknownStationError):
        index.distance("s0", "nope")
    with pytest.raises(UnknownStationError):
        index.distance("nope", "s0")


def test_with_norms_sets_norms_and_keeps_the_rest():
    bare = geo.StationIndex({s: geo.Station(s, 0.0, 0.0, np.zeros(geo.NUM_POI_TYPES)) for s in ("cs0", "cs1")})
    assert np.isnan(bare.mean_wait).all() and np.isnan(bare.mean_dist).all()
    index = make_stations(["cs0", "cs1", "cs2"], spacing_km=3.0)
    mean_wait, mean_dist = np.array([1.0, 3.0, 5.0]), np.array([2.0, 4.0, 6.0])
    normed = index.with_norms(mean_wait, mean_dist)
    assert normed.mean_wait is mean_wait and normed.mean_dist is mean_dist
    assert index.mean_wait.tolist() == [10.0] * 3  # the original is unchanged
    assert normed.order == index.order and len(normed) == 3
    assert normed.distances is index.distances and normed.stations is index.stations
    for a in index.order:
        assert np.array_equal(normed.context([index.index_of(a)], [0]), index.context([index.index_of(a)], [0]))
        for b in index.order:
            assert normed.distance(a, b) == index.distance(a, b)


def test_unknown_station_lookup():
    index = make_stations(["cs0"])
    with pytest.raises(UnknownStationError):
        index.index_of("nope")


# ---------------------------------------------------------------------------
# Station norms
# ---------------------------------------------------------------------------

def test_station_norms_mean_wait():
    # three sessions in separate hours: 10, 20, 30 occupied minutes
    index = make_stations(["cs0"])
    events = columns_of([
        make_event("e1", "d1", "cs0", T0, duration=10.0),
        make_event("e2", "d1", "cs0", T0 + timedelta(hours=1), duration=20.0),
        make_event("e3", "d1", "cs0", T0 + timedelta(hours=2), duration=30.0),
    ])
    mean_wait, _ = geo.station_norms(events, index, build_wait_series(events))
    assert mean_wait == pytest.approx([20.0])


def test_station_norms_two_station_toy_distance():
    index = make_stations(["cs0", "cs1"], spacing_km=4.0)
    events = []
    for i in range(6):
        events.append(
            make_event(f"e{i}", "d1", "cs0" if i % 2 == 0 else "cs1", T0 + timedelta(hours=i))
        )
    events = columns_of(events)
    _, mean_dist = geo.station_norms(events, index, build_wait_series(events))
    assert mean_dist == pytest.approx([4.0, 4.0], abs=1e-9)


def test_station_norms_distance_fallback_to_global():
    # cs2 is only ever the first event of its driver: no arrival hops
    index = make_stations(["cs0", "cs1", "cs2"], spacing_km=3.0)
    events = columns_of([
        make_event("a0", "d1", "cs0", T0),
        make_event("a1", "d1", "cs1", T0 + timedelta(hours=1)),
        make_event("b0", "d2", "cs2", T0),
    ])
    _, mean_dist = geo.station_norms(events, index, build_wait_series(events))
    assert mean_dist[index.index_of("cs2")] == pytest.approx(3.0, abs=1e-9)  # global mean of the one hop


def test_station_norms_requires_events():
    with pytest.raises(ConfigError):
        geo.station_norms(columns_of([]), make_stations(["cs0"]), {})


def test_station_norms_train_only_determinism():
    index = make_stations(["cs0", "cs1"], spacing_km=2.0)
    train = columns_of([
        make_event(f"e{i}", "d1", "cs0" if i % 2 == 0 else "cs1", T0 + timedelta(hours=i))
        for i in range(8)
    ])
    a = geo.station_norms(train, index, build_wait_series(train))
    b = geo.station_norms(columns_of(list(train)), index, build_wait_series(train))
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_km_to_lon_degrees_roundtrip():
    deg = km_to_lon_degrees(4.0)
    assert geo.haversine(0, 0, 0, deg) == pytest.approx(4.0, abs=1e-12)
