"""Wait series, forecaster, familiarity coefficient and the reward formula."""

import dataclasses
import struct
from datetime import datetime, timedelta, timezone
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    T0,
    TableWaitForecaster,
    columns_of,
    dense_forecast_inputs,
    make_event,
    make_stations,
    random_forecast_rows,
    reference_location_context,
    reference_time_features,
    split_population,
)
from evrac import reward as rw
from evrac.checkpoint import save_reward_net
from evrac.errors import ConfigError, DomainError, ShapeError, UnknownStationError
from evrac.evaluation import evaluate
from evrac.geospatial import NUM_POI_TYPES, Station, StationIndex
from evrac.gradcheck import PATHS, TOLERANCE
from evrac.seeding import rng_for


# ---------------------------------------------------------------------------
# Wait series construction
# ---------------------------------------------------------------------------

def test_wait_series_single_hour_session():
    series = rw.build_wait_series(columns_of([make_event("e1", "d", "cs0", T0, duration=60.0)]))
    buckets = series["cs0"].buckets
    assert buckets == {rw.epoch_hour(T0): 60.0}


def test_wait_series_first_hour_is_its_earliest_bucket():
    events = [make_event("e1", "d", "cs0", T0 + timedelta(hours=5)), make_event("e2", "d", "cs0", T0)]
    s = rw.build_wait_series(columns_of(events))["cs0"]
    assert s.first_hour == min(s.buckets) == rw.epoch_hour(T0)
    assert rw.WaitSeries("cs9").first_hour is None


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 72), st.floats(1, 200)), max_size=10),
       st.lists(st.tuples(st.integers(0, 2), st.integers(-20, 100)), max_size=12), st.integers(1, 6))
def test_dense_series_view_matches_bucket_lookups(sessions, queries, k):
    """The dense view gives `buckets.get`'s values before the first bucket,
    inside the series and after the last, and for a series without buckets;
    `forecast_inputs` reads its lags from it, for the rows it keeps, over
    three stations' views (cs2 has no series)."""
    events = [make_event(f"e{i}", "d", f"cs{i % 2}", T0 + timedelta(hours=h), duration=dur)
              for i, (h, dur) in enumerate(sessions)]
    series = rw.build_wait_series(columns_of(events))
    base = rw.epoch_hour(T0)
    hours = np.array([base + h for _, h in queries], dtype=np.int64)
    for sid in ("cs0", "cs1", "cs2"):
        s = series.get(sid, rw.WaitSeries(sid))
        assert s.values(hours).tobytes() == np.array([s.buckets.get(int(eh), 0.0) for eh in hours]).tobytes()
    index = make_stations(["cs0", "cs1", "cs2"], mean_wait=3.0)
    cols = np.array([c for c, _ in queries], dtype=np.int64)
    rows, keep = rw.forecast_inputs(series, index, cols, hours, k)
    first = [series[sid].first_hour if sid in series else None for sid in index.order]
    assert keep.tolist() == [i for i, (c, eh) in enumerate(zip(cols.tolist(), hours.tolist()))
                             if first[c] is not None and eh - k >= first[c]]
    want = np.array([[series[index.order[c]].buckets.get(int(eh) - k + t, 0.0) for t in range(k)]
                     for c, eh in zip(cols[keep].tolist(), hours[keep].tolist())]).reshape(-1, k) / 3.0
    assert rows.lags.tobytes() == want.tobytes()


def test_wait_series_split_across_hours():
    start = T0.replace(minute=30)  # 08:30, 90 minutes -> 30 + 60
    series = rw.build_wait_series(columns_of([make_event("e1", "d", "cs0", start, duration=90.0)]))
    buckets = series["cs0"].buckets
    eh = rw.epoch_hour(start)
    assert buckets[eh] == pytest.approx(30.0)
    assert buckets[eh + 1] == pytest.approx(60.0)
    assert len(buckets) == 2


def test_wait_series_additive_within_hour():
    t1 = T0.replace(hour=10, minute=0)
    t2 = T0.replace(hour=10, minute=30)
    series = rw.build_wait_series(columns_of([
        make_event("e1", "d", "cs0", t1, duration=30.0),
        make_event("e2", "d2", "cs0", t2, duration=30.0),
    ]))
    assert series["cs0"].buckets[rw.epoch_hour(t1)] == pytest.approx(60.0)


@settings(max_examples=30)
@given(st.lists(st.tuples(st.integers(0, 72), st.floats(1, 200)), min_size=1, max_size=15),
       st.integers(0, 80))
def test_wait_series_time_causal(sessions, horizon):
    events = [
        make_event(f"e{i}", "d", "cs0", T0 + timedelta(hours=h), duration=round(d, 2))
        for i, (h, d) in enumerate(sessions)
    ]
    cutoff = rw.epoch_hour(T0) + horizon
    full = rw.build_wait_series(columns_of(events))["cs0"].buckets
    truncated_events = [e for e in events if rw.epoch_hour(e.start_time) <= cutoff]
    part = rw.build_wait_series(columns_of(truncated_events)) if truncated_events else {}
    part_buckets = part["cs0"].buckets if "cs0" in part else {}
    for eh, v in full.items():
        if eh <= cutoff:
            assert part_buckets.get(eh, 0.0) == pytest.approx(v)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["cs0", "cs1", "cs2"]),
                          st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)),
                          st.one_of(st.floats(0, 10_080), st.sampled_from([0.0, 60.0, 120.0, 10_080.0]))),
                max_size=20),
       st.randoms(use_true_random=False))
# A session ending exactly on an hour, a zero-length one on an hour, a one-week
# one, and one starting 1 us before an hour.
@example([("cs0", datetime(2018, 6, 6, 6, 30), 30.0), ("cs0", datetime(2018, 6, 6, 6, 45), 75.0)], Random(0))
@example([("cs1", datetime(2018, 6, 6, 7), 0.0), ("cs0", datetime(2018, 6, 6, 6, 50), 10.0),
          ("cs0", datetime(2018, 6, 6, 7), 0.0)], Random(0))
@example([("cs2", datetime(2018, 6, 6, 6, 15), 10_080.0), ("cs2", datetime(2018, 6, 12, 23, 59), 30.0)], Random(0))
@example([("cs0", datetime(2018, 6, 6, 5, 59, 59, 999_999), 1.0), ("cs1", datetime(2018, 6, 6, 6), 1.0)], Random(0))
def test_wait_series_have_the_bits_of_the_per_event_loop(sessions, random):
    """Each event's hour chunks are computed once and summed in any order;
    the series equal those of the per-event loop over the events in that
    order, bucket by bucket and bit for bit, in insertion order too."""
    events = [make_event(f"e{i}", "d", sid, start.replace(tzinfo=timezone.utc), duration=duration)
              for i, (sid, start, duration) in enumerate(sessions)]
    columns = columns_of(events)
    chunks = rw.hour_chunks(columns)
    order = list(range(len(events)))
    random.shuffle(order)
    for got, want in ((rw.build_wait_series(columns), oracles.build_wait_series(events)),
                      (rw.build_wait_series(columns, np.array(order, dtype=np.intp), chunks),
                       oracles.build_wait_series([events[i] for i in order]))):
        assert [(sid, [(h, struct.pack("<d", v)) for h, v in s.buckets.items()]) for sid, s in got.items()] == \
            [(sid, [(h, struct.pack("<d", v)) for h, v in b.items()]) for sid, b in want.items()]


def test_export_wait_series(tmp_path):
    series = rw.build_wait_series(columns_of([make_event("e1", "d", "cs0", T0, duration=90.0)]))
    path = tmp_path / "w.csv"
    rw.export_wait_series(series, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "station_id,date,hour,wait_min"
    assert len(lines) == 3  # two buckets


# ---------------------------------------------------------------------------
# Familiarity
# ---------------------------------------------------------------------------

def _visits(driver, counts):
    events = []
    i = 0
    for sid, n in counts.items():
        for _ in range(n):
            events.append(make_event(f"{driver}-{i}", driver, sid, T0 + timedelta(hours=i)))
            i += 1
    return columns_of(events)


def _zeta(driver_id, station_id, events):
    index = make_stations(["cs1", "cs2"])
    env = rw.RewardEnvironment(index, rw.MeanWaitForecaster(index), rw.most_visited(events))
    return env.breakdowns([driver_id], [-1], [index.index_of(station_id)], [0]).zeta[0]


def test_zeta_most_visited():
    events = _visits("d1", {"cs1": 5, "cs2": 2})
    assert _zeta("d1", "cs1", events) == 0.8
    assert _zeta("d1", "cs2", events) == 1.0


def test_zeta_tie_means_no_discount():
    events = _visits("d1", {"cs1": 3, "cs2": 3})
    assert _zeta("d1", "cs1", events) == 1.0
    assert _zeta("d1", "cs2", events) == 1.0


def test_zeta_unknown_driver():
    events = _visits("d1", {"cs1": 5})
    assert _zeta("new-driver", "cs1", events) == 1.0


# ---------------------------------------------------------------------------
# Reward formula
# ---------------------------------------------------------------------------

def test_reward_plugin_cases_exact():
    assert rw.compute_reward(20.0, 5.0, 20.0, 5.0, 1.0) == pytest.approx(-200.0, abs=1e-12)
    assert rw.compute_reward(20.0, 5.0, 20.0, 5.0, 0.8) == pytest.approx(-180.0, abs=1e-12)
    assert rw.compute_reward(30.0, 5.0, 20.0, 10.0, 1.0) == pytest.approx(-200.0, abs=1e-12)


def test_reward_requires_positive_norms():
    with pytest.raises(DomainError):
        rw.compute_reward(1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        rw.compute_reward(1.0, 1.0, 1.0, -2.0, 1.0)


_pos = st.floats(0.01, 1000)


@settings(max_examples=100)
@given(_pos, _pos, _pos, _pos)
def test_reward_monotone_in_wait_and_distance(z, d, mz, md):
    base = rw.compute_reward(z, d, mz, md, 1.0)
    assert rw.compute_reward(z * 1.5 + 0.1, d, mz, md, 1.0) < base
    assert rw.compute_reward(z, d * 1.5 + 0.1, mz, md, 1.0) < base


@settings(max_examples=100)
@given(_pos, st.floats(0, 1000), _pos, _pos)
def test_reward_zeta_dominance(z, d, mz, md):
    familiar = rw.compute_reward(z, d, mz, md, 0.8)
    default = rw.compute_reward(z, d, mz, md, 1.0)
    assert familiar >= default
    if d == 0:
        assert familiar == default


@settings(max_examples=50)
@given(_pos, _pos, _pos, _pos)
def test_reward_wait_term_scale_invariance(z, d, mz, md):
    a = rw.compute_reward(z, d, mz, md, 1.0)
    b = rw.compute_reward(2 * z, d, 2 * mz, md, 1.0)
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# Forecaster training and prediction
# ---------------------------------------------------------------------------

def test_forecaster_key_orders():
    """The forecaster's parameters and the gradients `mse_gradient` sums and
    `train_reward_net` clips, in their pinned orders."""
    net = rw.WaitForecastNet(3, 2, 2, np.random.default_rng(0))
    assert list(net.params) == ["lstm.l0.W", "lstm.l0.U", "lstm.l0.b", "lstm.l1.W", "lstm.l1.U", "lstm.l1.b",
                                "head.W", "head.b"]
    _, cache = net.forward(np.zeros((2, 4, 3)))
    assert list(net.backward(cache, np.ones(2))) == ["lstm.l1.W", "lstm.l1.U", "lstm.l1.b", "lstm.l0.W",
                                                     "lstm.l0.U", "lstm.l0.b", "head.W", "head.b"]


def _constant_series(index, value, hours):
    events = [
        make_event(f"e{i}", "d", "cs0", T0 + timedelta(hours=i), duration=value)
        for i in range(hours)
    ]
    return rw.build_wait_series(columns_of(events))


def test_train_reward_net_constant_series():
    index = make_stations(["cs0"], mean_wait=60.0)
    series = _constant_series(index, 60.0, 60)
    hyper = rw.RewardNetHyper(window=4, hidden=8, layers=2, alpha=0.1, epochs=200, seed=0)
    net, report = rw.train_reward_net(series, index, hyper)
    assert np.isfinite(report["train_mse"])
    eh = rw.epoch_hour(T0) + 50
    pred, flags = rw.predict_wait(net, series, index, "cs0", eh, hyper.window)
    assert flags == frozenset()
    assert abs(pred - 60.0) <= 0.05 * 60.0


@pytest.mark.parametrize("clip_norm", [0.0, 1e-3, 1e6])
def test_train_reward_net_logs_every_epoch(clip_norm):
    index = make_stations(["cs0", "cs1"], mean_wait=25.0)
    series = rw.build_wait_series(columns_of([
        make_event(f"e{i}", "d", f"cs{i % 2}", T0 + timedelta(hours=i // 2), duration=float(10 + i % 7 * 9))
        for i in range(80)
    ]))
    hyper = rw.RewardNetHyper(window=3, hidden=4, layers=1, alpha=0.1, epochs=4, clip_norm=clip_norm, seed=2)
    _, report = rw.train_reward_net(series, index, hyper)
    log = report["epoch_log"]
    assert [r["epoch"] for r in log] == [0, 1, 2, 3]
    for r in log:
        assert r.keys() == {"epoch", "train_mse", "grad_norm", "clipped"}
        assert r["grad_norm"] > 0 and np.isfinite(r["train_mse"])
        assert r["clipped"] is (0 < clip_norm < r["grad_norm"])
    assert {r["clipped"] for r in log} == {clip_norm == 1e-3}
    # An epoch's train MSE comes from the forward its step used: one more
    # epoch logs, as its first forward, the final report's train MSE.
    _, longer = rw.train_reward_net(series, index, dataclasses.replace(hyper, epochs=5))
    assert longer["epoch_log"][4]["train_mse"] == report["train_mse"]


def test_train_reward_net_sawtooth_beats_mean():
    index = make_stations(["cs0"], mean_wait=25.0)
    pattern = [10.0, 20.0, 30.0, 40.0]
    events = [
        make_event(f"e{i}", "d", "cs0", T0 + timedelta(hours=i), duration=pattern[i % 4])
        for i in range(96)
    ]
    series = rw.build_wait_series(columns_of(events))
    hyper = rw.RewardNetHyper(window=4, hidden=8, layers=2, alpha=0.1, epochs=400, seed=1)
    net, report = rw.train_reward_net(series, index, hyper)
    variance = float(np.var(pattern))
    assert report["val_mse"] < variance


def test_train_reward_net_skips_short_stations(caplog):
    index = make_stations(["cs0", "cs1"], mean_wait=30.0)
    events = [
        make_event(f"e{i}", "d", "cs0", T0 + timedelta(hours=i), duration=30.0) for i in range(40)
    ]
    events.append(make_event("x", "d", "cs1", T0, duration=30.0))
    series = rw.build_wait_series(columns_of(events))
    hyper = rw.RewardNetHyper(window=10, hidden=4, layers=1, epochs=1, seed=0)
    with caplog.at_level("WARNING"):
        net, report = rw.train_reward_net(series, index, hyper)
    assert report["skipped_stations"] == ["cs1"]


def test_train_reward_net_empty_window_errors():
    index = make_stations(["cs0"], mean_wait=30.0)
    series = _constant_series(index, 30.0, 3)
    hyper = rw.RewardNetHyper(window=10, hidden=4, layers=1, epochs=1, seed=0)
    with pytest.raises(ConfigError):
        rw.train_reward_net(series, index, hyper)


def test_predict_wait_fallback_on_short_history():
    index = make_stations(["cs0"], mean_wait=42.0)
    series = _constant_series(index, 30.0, 3)
    net = rw.WaitForecastNet(rw.reward_net_input_dim(index), 4, 1, rng_for(0, "x"))
    pred, flags = rw.predict_wait(net, series, index, "cs0", rw.epoch_hour(T0) + 2, 10)
    assert pred == 42.0
    assert "mean_fallback" in flags


def test_predict_wait_clamps_negative():
    index = make_stations(["cs0"], mean_wait=10.0)
    series = _constant_series(index, 10.0, 20)
    net = rw.WaitForecastNet(rw.reward_net_input_dim(index), 4, 1, rng_for(0, "x"))
    net.head.b[:] = -100.0  # force a negative raw output
    pred, flags = rw.predict_wait(net, series, index, "cs0", rw.epoch_hour(T0) + 15, 5)
    assert pred == 0.0
    assert "clamped" in flags


# ---------------------------------------------------------------------------
# Environment facade
# ---------------------------------------------------------------------------

def test_environment_breakdown_and_zeta():
    index = make_stations(["cs0", "cs1"], spacing_km=5.0, mean_wait=20.0, mean_dist=5.0)
    env = rw.RewardEnvironment(
        index, TableWaitForecaster(index, {"cs0": 20.0, "cs1": 20.0}), {"d1": "cs1"}
    )
    b = env.breakdowns(["d1"], [0], [1], [rw.epoch_hour(T0)])
    assert b.zeta.tolist() == [0.8]
    assert b.dist_km[0] == pytest.approx(5.0, abs=1e-9)
    assert b.reward[0] == pytest.approx(-180.0, abs=1e-9)
    b2 = env.breakdowns(["other"], [0], [1], [rw.epoch_hour(T0)])
    assert b2.zeta.tolist() == [1.0]
    assert b2.reward[0] == pytest.approx(-200.0, abs=1e-9)


def test_mean_wait_forecaster_flags():
    index = make_stations(["cs0"], mean_wait=33.0)
    fc = rw.MeanWaitForecaster(index)
    values, fallback, clamped = fc.forecast_batch(np.array([0]), [0])
    assert values.tolist() == [33.0]
    assert fallback.tolist() == [True] and clamped.tolist() == [False]


# ---------------------------------------------------------------------------
# Batched pricing
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(st.lists(st.integers(-(10**7), 10**7), min_size=1, max_size=8))
def test_time_features_for_hours_match_calendar(hours):
    got = rw.time_features(np.array(hours))
    want = np.stack([reference_time_features(rw.hour_to_datetime(h)) for h in hours])
    assert np.array_equal(got, want)
    assert rw.time_features(np.array(hours).reshape(-1, 1)).shape == (len(hours), 1, rw.TIME_FEATURE_WIDTH)


def _pricing_city():
    """Three stations with distinct norms and POI mixes; cs0 and cs1 have
    hourly sessions over 30 hours, cs2 has none."""
    rng = np.random.default_rng(5)
    stations = {sid: Station(sid, 0.0, 0.01 * i, rng.integers(0, 4, NUM_POI_TYPES))
                for i, sid in enumerate(["cs0", "cs1", "cs2"])}
    index = StationIndex(stations).with_norms(np.array([20.0, 7.0, 13.0]), np.array([2.0, 3.0, 1.5]))
    events = [
        make_event(f"e{i}", "d", f"cs{i % 2}", T0 + timedelta(hours=i // 2, minutes=7 * (i % 3)),
                   duration=float(5 + (i * 37) % 80))
        for i in range(60)
    ]
    return index, rw.build_wait_series(columns_of(events))


def _reference_inputs(series, index, station_id, eh, k):
    """Per-step construction of one forecaster input, the layout
    `forecast_inputs` vectorises."""
    lags = series[station_id].values(np.arange(eh - k, eh)) / index.mean_wait[index.index_of(station_id)]
    ctx = reference_location_context(index, station_id, None)
    return np.stack([
        np.concatenate([[lags[j]], ctx, reference_time_features(rw.hour_to_datetime(eh - k + j))])
        for j in range(k)
    ])


def test_forecast_inputs_match_per_step_reference():
    index, series = _pricing_city()
    k = 4
    h0 = rw.epoch_hour(T0)
    pairs = [(sid, h0 + dh) for sid in ("cs1", "cs0", "cs2") for dh in range(-2, 40, 3)]
    cols = [index.index_of(sid) for sid, _ in pairs]
    rows, keep = rw.forecast_inputs(series, index, cols, [p[1] for p in pairs], k)
    eligible = [i for i, (sid, eh) in enumerate(pairs) if sid != "cs2" and eh - k >= h0]
    assert keep.tolist() == eligible
    assert rows.cols.tolist() == [cols[i] for i in eligible]
    assert rows.hours.tolist() == [pairs[i][1] for i in eligible]
    want = np.stack([_reference_inputs(series, index, *pairs[i], k) for i in eligible])
    assert rows.shape == want.shape
    assert np.array_equal(dense_forecast_inputs(rows), want)


def _assert_rel_close(actual, expected, rel=1e-12):
    # Relative to the array's scale: the factored and dense sums round
    # differently, so entries that cancel to ~0 keep no relative digits.
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= rel * scale


def _random_forecaster(rng, m, k, n, hidden, layers, first_hour=0):
    """`random_forecast_rows` and a net with random first-layer and head
    biases."""
    rows = random_forecast_rows(rng, m, k, n, first_hour)
    net = rw.WaitForecastNet(rw.reward_net_input_dim(rows.index), hidden, layers, rng)
    for b in (net.lstm.layers[0].b, net.head.b):
        b += rng.normal(size=b.shape)
    return rows, net


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 6),
    k=st.integers(1, 6),
    n=st.integers(1, 40),  # both sides of the 168-row hour-of-week table
    hidden=st.integers(1, 5),
    layers=st.integers(1, 2),
    first_hour=st.sampled_from([-1_000_000, -200, 0, 424_500]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, k=6, n=40, hidden=2, layers=2, first_hour=-200, seed=0)  # 240 lag steps: whole tables
@example(m=6, k=2, n=3, hidden=2, layers=1, first_hour=0, seed=1)  # fewer rows than either table
def test_forecast_rows_match_dense_form(m, k, n, hidden, layers, first_hour, seed):
    """Forecasts and every parameter gradient of the factored first layer
    equal those of the dense input within rel 1e-12, over repeated stations,
    random POI mixes and hours on both sides of 1970."""
    rng = np.random.default_rng(seed)
    rows, net = _random_forecaster(rng, m, k, n, hidden, layers, first_hour)
    dy = rng.normal(size=n)

    y, cache = net.forward(rows)
    want_y, want_cache = net.forward(dense_forecast_inputs(rows))
    _assert_rel_close(y, want_y)
    grads, want = net.backward(cache, dy), net.backward(want_cache, dy)
    assert grads.keys() == want.keys()
    for name in want:
        _assert_rel_close(grads[name], want[name])


@settings(max_examples=40, deadline=None)
@given(
    B=st.sampled_from([1, 3, rw.INFERENCE_ROWS]),
    k=st.integers(1, 10),
    layers=st.integers(1, 3),
    m=st.integers(1, 6),
    hidden=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(B=3, k=10, layers=2, m=5, hidden=4, seed=0)  # a `recommend` call's pricing pass
def test_cache_free_forecaster_has_the_bits_of_forward(B, k, layers, m, hidden, seed):
    """The pricing pass, `predict` in `INFERENCE_ROWS` chunks with each
    chunk's cache dropped, has the bits of the `forward` that keeps its
    cache on up to one chunk of rows, and leaves that output as it was."""
    rows, net = _random_forecaster(np.random.default_rng(seed), m, k, B, hidden, layers)
    want, cache = net.forward(rows)
    assert len(cache["lstm"]["caches"]) == layers
    kept = want.copy()
    assert net.predict(rows, rw.INFERENCE_ROWS).tobytes() == kept.tobytes()
    assert net.forward(rows)[0].tobytes() == kept.tobytes()
    assert want.tobytes() == kept.tobytes()


@settings(max_examples=20, deadline=None)
@given(bad=st.sampled_from(["stations", "nan", "inf"]), B=st.sampled_from([1, 3, 129]),
       k=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_forecaster_rejects_bad_rows(bad, B, k, seed):
    """Rows of another station set (a wrong input width) raise ShapeError,
    and a non-finite lag DomainError, from `forward` and from `predict`."""
    rng = np.random.default_rng(seed)
    rows, net = _random_forecaster(rng, 3, k, B, 2, 2)
    if bad == "stations":
        other, _ = _random_forecaster(rng, 4, k, B, 2, 2)
        rows = other
    else:
        rows.lags[rng.integers(B), rng.integers(k)] = float(bad)
    error = ShapeError if bad == "stations" else DomainError
    with pytest.raises(error):
        net.forward(rows)
    with pytest.raises(error):
        net.predict(rows)


_FORECASTER_SIZES = dict(m=st.integers(1, 4), k=st.integers(1, 5), n=st.integers(1, 30),
                         hidden=st.integers(1, 4), layers=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), **_FORECASTER_SIZES)
def test_chunked_gradient_matches_one_shot(data, m, k, n, hidden, layers, seed):
    """`mse_gradient` over chunks of any length from 1 to N+1, a partial
    last chunk included, gives the forecasts and the gradient of one
    `forward`/`backward` over all N rows, within rel 1e-12."""
    chunk = data.draw(st.integers(1, n + 1), label="chunk")
    rng = np.random.default_rng(seed)
    rows, net = _random_forecaster(rng, m, k, n, hidden, layers)
    targets = rng.normal(size=n)
    pred, grads = net.mse_gradient(rows.chunks(chunk), targets)
    want_pred, cache = net.forward(rows)
    want = net.backward(cache, (want_pred - targets) / n)
    assert [c.shape[0] for c in rows.chunks(chunk)] == [min(chunk, n - i) for i in range(0, n, chunk)]
    _assert_rel_close(pred, want_pred)
    assert grads.keys() == want.keys()
    for name in want:
        _assert_rel_close(grads[name], want[name])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), **_FORECASTER_SIZES)
def test_predict_is_forward_in_chunks(data, m, k, n, hidden, layers, seed):
    """Up to one chunk, `predict` has the bits of `forward`; over several
    chunks it agrees within 1e-15 of the mean wait, the unit of the
    forecasts (or of the largest forecast, when that is larger). Forecasts
    near 0 keep no relative digits: a chunk's matmuls may round differently
    from the whole batch's."""
    chunk = data.draw(st.integers(1, n + 1), label="chunk")
    rows, net = _random_forecaster(np.random.default_rng(seed), m, k, n, hidden, layers)
    want, _ = net.forward(rows)
    got = net.predict(rows, chunk)
    if n <= chunk:
        assert got.tobytes() == want.tobytes()
    else:
        assert float(np.max(np.abs(got - want))) <= 1e-15 * max(1.0, float(np.max(np.abs(want))))
    assert net.predict(rows).tobytes() == want.tobytes()  # n < CHUNK_ROWS


def _chunked_city():
    """Two stations whose training rows fill two `CHUNK_ROWS` chunks and part
    of a third, at `window=3`."""
    index = make_stations(["cs0", "cs1"], mean_wait=25.0)
    series = rw.build_wait_series(columns_of([
        make_event(f"e{i}", "d", f"cs{i % 2}", T0 + timedelta(hours=i // 2), duration=float(5 + i * 37 % 50))
        for i in range(1300)
    ]))
    return index, series


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_chunked_fit_is_reproducible(tmp_path_factory, seed):
    """Two fits over several chunks, the last one partial, write the same
    checkpoint bytes."""
    index, series = _chunked_city()
    hyper = rw.RewardNetHyper(window=3, hidden=4, layers=2, alpha=0.1, epochs=2, seed=seed)
    paths = []
    for _ in range(2):
        net, report = rw.train_reward_net(series, index, hyper)
        n_train = report["samples"] - int(report["samples"] * hyper.val_frac)
        assert n_train > rw.CHUNK_ROWS and n_train % rw.CHUNK_ROWS
        paths.append(tmp_path_factory.mktemp("fit") / "reward.ckpt")
        save_reward_net(net, hyper, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_fit_through_a_workspace_has_the_bits_of_the_allocating_fit(monkeypatch):
    """`train_reward_net` runs its chunks, a partial last chunk included, and
    its closing predictions through one workspace. Its parameters and report
    are those of the same fit with every forward allocating."""
    index, series = _chunked_city()
    hyper = rw.RewardNetHyper(window=3, hidden=4, layers=2, alpha=0.1, epochs=3, seed=4)
    net, report = rw.train_reward_net(series, index, hyper)

    forward = rw.WaitForecastNet.forward
    works = []

    def allocating(self, rows, work=None):
        works.append(work)
        return forward(self, rows)

    monkeypatch.setattr(rw.WaitForecastNet, "forward", allocating)
    want_net, want_report = rw.train_reward_net(series, index, hyper)
    assert works and all(isinstance(w, rw.nn.Workspace) for w in works) and len({id(w) for w in works}) == 1
    assert net.params.keys() == want_net.params.keys()
    for name, p in want_net.params.items():
        assert net.params[name].tobytes() == p.tobytes()
    assert repr(report) == repr(want_report)


def test_forecasts_survive_later_calls_through_the_workspace():
    """The forecasts `predict` and `mse_gradient` return through a workspace,
    and the gradient, are their own arrays: later calls through the same
    workspace leave them as they were."""
    rng = np.random.default_rng(6)
    rows, net = _random_forecaster(rng, 4, 5, 700, 3, 2)
    targets = rng.normal(size=700)
    work = rw.nn.Workspace()
    pred = net.predict(rows, work=work)
    fit_pred, grads = net.mse_gradient(rows.chunks(), targets, work)
    kept = [pred.copy(), fit_pred.copy()] + [g.copy() for g in grads.values()]
    net.predict(rows.take(slice(100, 400)), work=work)
    net.mse_gradient(rows.take(slice(0, 600)).chunks(), targets[:600], work)
    for got, want in zip([pred, fit_pred, *grads.values()], kept):
        assert got.tobytes() == want.tobytes()
    assert pred.tobytes() == net.predict(rows).tobytes()


@pytest.mark.parametrize("n", [3, 400])  # fewer and more indices than the table's 168 rows
def test_lookup_refuses_what_it_cannot_write_in_place(n):
    """`_lookup` raises IndexError on an index out of range, on either side
    of the table's row count, and leaves `out` unwritten; a non-contiguous
    `out`, which would reshape to a copy, raises instead of leaving `out`
    unwritten."""
    rng = np.random.default_rng(n)
    W = rng.normal(size=(rw._WEEK_FEATURES.shape[1], 8))
    idx = rng.integers(0, rw.HOURS_PER_WEEK, size=(2, n))
    want = rw._lookup(rw._WEEK_FEATURES, idx, W)
    out = np.full(want.shape, np.nan)
    assert rw._lookup(rw._WEEK_FEATURES, idx, W, out) is out
    assert out.tobytes() == want.tobytes()
    for bad in (rw.HOURS_PER_WEEK, -rw.HOURS_PER_WEEK - 1):
        wrong = idx.copy()
        wrong[1, -1] = bad
        out = np.full(want.shape, np.nan)
        with pytest.raises(IndexError):
            rw._lookup(rw._WEEK_FEATURES, wrong, W, out)
        assert np.isnan(out).all()
    with pytest.raises(ValueError):
        rw._lookup(rw._WEEK_FEATURES, idx, W, np.empty((n, 2, 8)).swapaxes(0, 1))


@pytest.mark.parametrize("block", ["lag", "station", "time"])
def test_gradcheck_catches_a_wrong_first_layer_gradient(monkeypatch, block):
    true_backward = rw.ForecastRows.backward

    def wrong(self, W, dW, steps):
        out = true_backward(self, W, dW, steps)
        width = self.index.context_width()
        dW[{"lag": slice(0, 1), "station": slice(2, 1 + width), "time": slice(1 + width, None)}[block]] *= 1.01
        return out

    monkeypatch.setattr(rw.ForecastRows, "backward", wrong)
    assert max(PATHS["reward_mse"](rng_for(0, f"wrong-{i}"), 1e-6) for i in range(2)) >= TOLERANCE


def _forecaster(kind, index, series):
    if kind == "mean":
        return rw.MeanWaitForecaster(index)
    if kind == "table":
        return TableWaitForecaster(index, {sid: 3.0 + i for i, sid in enumerate(index.order)})
    net = rw.WaitForecastNet(rw.reward_net_input_dim(index), 6, 2, rng_for(3, "pricing"))
    net.head.b[:] = 0.5
    return rw.NetWaitForecaster(net, series, index, 4)


def _decisions(index, n=60):
    """(driver, previous column or -1, action column, hour) decisions."""
    rng = np.random.default_rng(9)
    h0 = rw.epoch_hour(T0)
    out = []
    for _ in range(n):
        prev = -1 if rng.random() < 0.2 else int(rng.integers(len(index)))
        out.append((f"d{int(rng.integers(3))}", prev, int(rng.integers(len(index))), h0 + int(rng.integers(-3, 40))))
    return out


_PRICED = ("reward", "wait_forecast", "dist_km", "mean_wait", "mean_dist", "zeta")


@pytest.mark.parametrize("kind", ["mean", "table", "net"])
def test_breakdowns_match_per_pair(kind):
    index, series = _pricing_city()
    env = rw.RewardEnvironment(index, _forecaster(kind, index, series), {"d1": "cs1"})
    decisions = _decisions(index)
    batched = env.breakdowns(*map(list, zip(*decisions)))
    single = [env.breakdowns([d], [p], [a], [eh]) for d, p, a, eh in decisions]
    assert all(getattr(batched, name).shape == (len(decisions),) for name in _PRICED + ("fallback", "clamped"))
    assert batched.fallback.dtype == batched.clamped.dtype == bool
    exact = _PRICED if kind != "net" else ("dist_km", "mean_wait", "mean_dist", "zeta")
    for i, s in enumerate(single):
        assert (batched.fallback[i], batched.clamped[i]) == (s.fallback[0], s.clamped[0])
        assert [getattr(batched, name)[i] for name in exact] == [getattr(s, name)[0] for name in exact]
    # The array formula against the scalar one, distances against the per-pair
    # haversine and zeta against each driver's most-visited station.
    for i, (driver, prev, station, _) in enumerate(decisions):
        sid = index.order[station]
        assert batched.dist_km[i] == (0.0 if prev < 0 else index.distance(index.order[prev], sid))
        assert batched.zeta[i] == (0.8 if (driver, sid) == ("d1", "cs1") else 1.0)
        assert batched.reward[i] == rw.compute_reward(*(float(getattr(batched, name)[i]) for name in _PRICED[1:]))
    assert batched.fallback.all() == (kind == "mean") and not batched.clamped.any()
    if kind != "net":
        return
    assert batched.fallback.any()  # some pairs fall back
    for i, s in enumerate(single):
        assert batched.wait_forecast[i] == pytest.approx(s.wait_forecast[0], rel=1e-12, abs=0.0)
        assert batched.reward[i] == pytest.approx(s.reward[0], rel=1e-12, abs=0.0)


def test_predict_waits_ignore_order_and_duplicates():
    index, series = _pricing_city()
    fc = _forecaster("net", index, series)
    fc.net.head.b[:] = -0.4  # some raw outputs clamp
    pairs = sorted({(col, eh) for _, _, col, eh in _decisions(index)})
    waits, fallback, clamped = fc.forecast_batch([p[0] for p in pairs], [p[1] for p in pairs])
    assert fallback.any() and clamped.any() and not (fallback & clamped).any()
    assert np.all(waits[clamped] == 0.0)
    shuffled = [pairs[i] for i in np.random.default_rng(1).permutation(len(pairs))] + pairs[::3]
    got = fc.forecast_batch([p[0] for p in shuffled], [p[1] for p in shuffled])
    want = dict(zip(pairs, zip(waits.tolist(), fallback.tolist(), clamped.tolist())))
    assert [want[p] for p in shuffled] == list(zip(*(a.tolist() for a in got)))


@pytest.mark.parametrize("kind", ["mean", "table", "net"])
@pytest.mark.parametrize("mean_wait", [None, 0.0])
def test_pricing_rejects_missing_or_zero_mean_wait(kind, mean_wait):
    index, series = _pricing_city()
    m = len(index)
    index = StationIndex({sid: Station(sid, 0.0, 0.0, np.zeros(NUM_POI_TYPES)) for sid in index.order}
                         ).with_norms(np.full(m, mean_wait, dtype=float), np.ones(m))
    fc = _forecaster(kind, index, series)
    env = rw.RewardEnvironment(index, fc, {})
    eh = rw.epoch_hour(T0) + 20
    with pytest.raises(DomainError):
        env.breakdowns(["d"], [-1], [0], [eh])
    if kind != "table":
        with pytest.raises(DomainError):
            fc.forecast_batch(np.array([1, 0]), [eh, eh])


class _RanksFirst:
    """Ranks `station_id` first at every cut, known or not."""

    def __init__(self, station_id):
        self.station_id = station_id

    def rank(self, requests, k):
        return [[self.station_id] for _, _, cuts in requests for _ in cuts]


@pytest.mark.parametrize("kind", ["mean", "table", "net"])
def test_pricing_rejects_unknown_station(kind):
    """Station ids become columns where they enter pricing: an unknown one is
    an UnknownStationError there, whatever the forecaster."""
    index, series = _pricing_city()
    env = rw.RewardEnvironment(index, _forecaster(kind, index, series), {})
    events = [make_event(f"e{i}", "d", "cs0", T0 + timedelta(hours=i)) for i in range(6)]
    trajectories, splits, _ = split_population(events)
    evaluate(_RanksFirst("cs0"), trajectories, splits, env)
    with pytest.raises(UnknownStationError):
        evaluate(_RanksFirst("cs9"), trajectories, splits, env)
    if kind == "net":
        with pytest.raises(UnknownStationError):
            rw.predict_wait(env.forecaster.net, series, index, "cs9", rw.epoch_hour(T0) + 20, 4)
