"""Shared fixture builders: synthetic stations, patterned trajectories and
constant-reward environments used across the suite."""

from __future__ import annotations

import copy
import json
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import strategies as st

from evrac.checkpoint import MAGIC

from evrac.dataset import ChargingEvent, EventColumns, build_trajectories, split_all
from evrac.evaluation import DriverOutcome, EvalReport
from evrac.geospatial import EARTH_RADIUS_KM, NUM_POI_TYPES, Station, StationIndex
from evrac.reward import (
    DAY_FEATURES,
    HOURS_PER_WEEK,
    TIME_FEATURE_WIDTH,
    ForecastRows,
    RewardEnvironment,
    epoch_hour,
    time_features,
)

T0 = datetime(2018, 6, 6, 8, 0, tzinfo=timezone.utc)


def km_to_lon_degrees(km: float) -> float:
    """Longitude offset on the equator whose great-circle length is `km`."""
    return math.degrees(km / EARTH_RADIUS_KM)


def make_event(
    event_id: str,
    driver: str,
    station: str,
    when: datetime,
    duration: float = 30.0,
    energy: float = 10.0,
) -> ChargingEvent:
    return ChargingEvent(
        event_id=event_id,
        driver_id=driver,
        station_id=station,
        start_time=when,
        duration_min=duration,
        energy_kwh=energy,
    )


def make_stations(
    ids: list[str],
    spacing_km: float = 0.0,
    mean_wait: float = 10.0,
    mean_dist: float = 1.0,
) -> StationIndex:
    """Stations along the equator `spacing_km` apart (0 = colocated), with
    the same reward norms at every station."""
    stations = {}
    for i, sid in enumerate(ids):
        stations[sid] = Station(
            station_id=sid,
            latitude=0.0,
            longitude=i * km_to_lon_degrees(spacing_km),
            poi_counts=np.zeros(NUM_POI_TYPES),
        )
    return StationIndex(stations).with_norms(np.full(len(ids), mean_wait), np.full(len(ids), mean_dist))


def pattern_events(
    driver: str,
    station_pattern: list[str],
    count: int,
    start: datetime = T0,
    gap_hours: float = 24.0,
    duration: float = 30.0,
) -> list[ChargingEvent]:
    """`count` events cycling through `station_pattern` at a fixed cadence."""
    out = []
    for i in range(count):
        out.append(
            make_event(
                f"{driver}-e{i:04d}",
                driver,
                station_pattern[i % len(station_pattern)],
                start + timedelta(hours=i * gap_hours),
                duration=duration,
            )
        )
    return out


# Per-event forms of the feature blocks, as observations were built one event
# at a time: the oracles the array builders must match bitwise.

def reference_location_context(index: StationIndex, current: str, previous: str | None) -> np.ndarray:
    """[distance from `previous` (0 without one) || one-hot of `current` ||
    its normalized POI distribution]."""
    onehot = np.zeros(len(index))
    onehot[index.index_of(current)] = 1.0
    dist = 0.0 if previous is None else index.distance(previous, current)
    return np.concatenate([[dist], onehot, index.poi_matrix[index.index_of(current)]])


def reference_time_features(dt: datetime) -> np.ndarray:
    """Day-of-week (7) and hour-of-day (24) one-hots of a UTC datetime."""
    vec = np.zeros(TIME_FEATURE_WIDTH)
    vec[dt.weekday()] = 1.0
    vec[DAY_FEATURES + dt.hour] = 1.0
    return vec


def reference_observation(space, event: ChargingEvent, prev_station: str | None) -> np.ndarray:
    """[location || SOC proxy, energy || time] of one event of `space`."""
    loc = reference_location_context(space.index, event.station_id, prev_station)
    soc = min(event.duration_min / space.max_duration, 1.0)
    energy = event.energy_kwh / space.max_energy if space.max_energy > 0 else 0.0
    return np.concatenate([loc, [soc, energy], reference_time_features(event.start_time)])


def reference_rows(space, events: list[ChargingEvent], prev_station: str | None) -> np.ndarray:
    """`reference_observation` of consecutive events, each linked to the one before."""
    rows = []
    for e in events:
        rows.append(reference_observation(space, e, prev_station))
        prev_station = e.station_id
    return np.array(rows).reshape(len(events), space.obs_dim)


def random_forecast_rows(rng: np.random.Generator, m: int, k: int, n: int, first_hour: int = 0) -> ForecastRows:
    """n random `ForecastRows` with k lags over m stations with random POI
    mixes; the first half of the rows repeat one station."""
    index = StationIndex({
        f"s{i}": Station(f"s{i}", float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180)),
                         rng.integers(0, 4, NUM_POI_TYPES).astype(float))
        for i in range(m)
    })
    cols = rng.integers(0, m, size=n)
    cols[: n // 2] = cols[0]  # repeats
    hours = first_hour + rng.integers(0, 2 * HOURS_PER_WEEK, size=n)
    return ForecastRows(index, 2.0 * rng.random((n, k)), cols, hours)


def dense_forecast_inputs(rows: ForecastRows) -> np.ndarray:
    """The (N, k, input_dim) array that `rows` stand for, built as the
    forecaster's input was before its first layer was factored: step t of row
    i is [lags[i, t] || the station's location context without a previous
    station || time_features(hours[i] - k + t)]."""
    n, k, width = rows.shape
    ctx = rows.index.context_width()
    xs = np.empty((n, k, width))
    xs[:, :, 0] = rows.lags
    xs[:, :, 1 : 1 + ctx] = rows.index.context(rows.cols, np.full(n, -1))[:, None, :]
    xs[:, :, 1 + ctx :] = time_features(rows.hours[:, None] - k + np.arange(k))
    return xs


def reference_evaluate(recommender, trajectories, splits, env, ks=(1, 3, 5), config=None, models=None):
    """`evaluation.evaluate` as it ran before every driver was scored in one
    pass: one `rank` request and one `breakdowns` call per driver, and the
    metrics by scanning ranking lists. The oracle the one-pass harness must
    match."""
    from oracles import precision_at_k, recall_at_k  # oracles imports this module

    ks = sorted(set(int(k) for k in ks))
    per_driver, preds_by_driver, truths_by_driver = {}, {}, {}
    all_rank, all_truth, mar_values = [], [], []
    fallback_events = clamped_events = 0
    for driver_id in sorted(splits):
        events = trajectories[driver_id].events
        pos = {e.event_id: i for i, e in enumerate(events)}
        scored = [e for e in splits[driver_id].test if pos[e.event_id] > 0]
        if not scored:
            continue
        cuts = [pos[e.event_id] for e in scored]
        rec = models[driver_id] if models is not None else recommender
        rankings = rec.rank([(driver_id, events, cuts)], max(ks))
        truths = [e.station_id for e in scored]
        preds_by_driver[driver_id], truths_by_driver[driver_id] = rankings, truths
        all_rank.extend(rankings)
        all_truth.extend(truths)
        driver_mar = norm_wait = norm_dist = float("nan")
        if env is not None:
            col = env.index.index_of
            priced = env.breakdowns([driver_id] * len(rankings), [col(events[j - 1].station_id) for j in cuts],
                                    [col(ranked[0]) for ranked in rankings], [epoch_hour(e.start_time) for e in scored])
            driver_mar = float(np.mean(priced.reward))
            norm_wait = float(np.mean(priced.wait_forecast / priced.mean_wait))
            norm_dist = float(np.mean(priced.dist_km / priced.mean_dist))
            fallback_events += int(priced.fallback.sum())
            clamped_events += int(priced.clamped.sum())
            mar_values.extend(priced.reward.tolist())
        per_driver[driver_id] = DriverOutcome(
            events=len(truths),
            p_at={k: precision_at_k(rankings, truths, k) for k in ks},
            r_at={k: recall_at_k({driver_id: rankings}, {driver_id: truths}, k) for k in ks},
            mar=driver_mar, mean_norm_wait=norm_wait, mean_norm_dist=norm_dist,
        )
    return EvalReport(
        ks=list(ks),
        per_driver=per_driver,
        precision={k: precision_at_k(all_rank, all_truth, k) for k in ks},
        recall={k: recall_at_k(preds_by_driver, truths_by_driver, k) for k in ks},
        mar=float(np.mean(mar_values)) if mar_values else float("nan"),
        events=len(all_truth),
        drivers=len(per_driver),
        fallback_events=fallback_events,
        clamped_events=clamped_events,
        config=dict(config or {}),
    )


class TableWaitForecaster:
    """Fixed per-station forecasts, one for each station of `index`."""

    def __init__(self, index: StationIndex, table: dict[str, float]):
        self.waits = np.array([table[sid] for sid in index.order], dtype=float)

    def forecast_batch(self, cols, hours):
        n = len(cols)
        return self.waits[cols], np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)


def constant_reward_env(
    index: StationIndex,
    waits: dict[str, float],
    familiarity: dict[str, str | None] | None = None,
) -> RewardEnvironment:
    """Environment whose forecasts are fixed per station, so rewards are exact
    and time-independent."""
    return RewardEnvironment(index, TableWaitForecaster(index, waits), familiarity or {})


def split_population(events: list[ChargingEvent]):
    trajectories = build_trajectories(EventColumns.of(events))
    splits, excluded = split_all(trajectories)
    return trajectories, splits, excluded


@pytest.fixture
def two_station_index() -> StationIndex:
    return make_stations(["cs0", "cs1"])


@pytest.fixture
def bandit_fixture():
    """Two colocated stations with constant rewards -100 (cs0) vs -300 (cs1);
    logged behavior alternates between them."""
    index = make_stations(["cs0", "cs1"], spacing_km=0.0, mean_wait=10.0, mean_dist=1.0)
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 30.0})
    events = []
    for d in range(4):
        events += pattern_events(f"driver-{d}", ["cs0", "cs1"], 30)
    trajectories, splits, _ = split_population(events)
    return index, env, trajectories, splits


# ---------------------------------------------------------------------------
# Hostile inputs: CSV rows, JSON values and checkpoints
# ---------------------------------------------------------------------------

def mutated_rows(lines: list[bytes], data) -> bytes:
    """`lines` after a few random edits: a row cut short, an extra field, a
    stray quote, a repeated row, raw bytes (not always UTF-8) or a random row."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = data.draw(st.integers(0, len(line)))
        kind = data.draw(st.sampled_from(["short", "extra", "quote", "repeat", "bytes", "row"]))
        if kind == "short":
            lines[i] = line.rsplit(b",", 1)[0]
        elif kind == "extra":
            lines[i] = line + b"," + data.draw(st.binary(max_size=6))
        elif kind == "quote":
            lines[i] = line[:at] + b'"' + line[at:]
        elif kind == "repeat":
            lines.insert(at % (len(lines) + 1), line)
        elif kind == "bytes":
            lines[i] = line[:at] + data.draw(st.binary(min_size=1, max_size=4)) + line[at:]
        else:
            lines[i] = data.draw(st.text(max_size=60)).encode("utf-8")
    return b"\n".join(lines) + b"\n"


_INTS = st.one_of(st.integers(-2, 10), st.sampled_from([2**31, 2**62, 2**70, -(2**63)]))
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), _INTS,
    st.floats(allow_nan=True, allow_infinity=True),
)
JSON_VALUES = st.recursive(
    _JSON_LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _json_nodes(node, prefix=()):
    """(path, value) of every node of a JSON value, the root first."""
    yield prefix, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_nodes(child, prefix + (key,))


@st.composite
def json_mutations(draw, value, leaves=JSON_VALUES):
    """`value`, a JSON value, with one node deleted or replaced by a draw of
    `leaves` (the root can only be replaced). `value` is not changed."""
    value = copy.deepcopy(value)
    path = draw(st.sampled_from([p for p, _ in _json_nodes(value)]))
    return _set_node(value, path, draw(st.booleans()), draw(leaves))


def _set_node(value, path, delete: bool, new):
    """`value` with the node at `path` deleted or set to `new`, in place;
    the root is replaced."""
    if not path:
        return new
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return value


@st.composite
def checkpoint_mutations(draw, raw: bytes) -> bytes:
    """A saved checkpoint's bytes, damaged one of four ways: cut short, with
    a few bits flipped anywhere, with one header value (the meta and the
    array manifest included) deleted or replaced by another JSON value, or
    with one integer of the meta (a size, a count or a seed) replaced by
    another integer, small, negative or huge. Header edits keep a correct
    header length."""
    how = draw(st.sampled_from(["truncate", "flip", "header", "meta-int"]))
    if how == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if how == "flip":
        out = bytearray(raw)
        for bit in draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=4)):
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    nl = raw.index(b"\n", len(MAGIC))
    end = nl + 1 + int(raw[len(MAGIC) : nl])
    header = json.loads(raw[nl + 1 : end])
    meta_ints = [path for path, value in _json_nodes(header) if path[:1] == ("meta",) and type(value) is int]
    if how == "meta-int" and meta_ints:
        header = _set_node(header, draw(st.sampled_from(meta_ints)), False, draw(_INTS))
    else:
        header = draw(json_mutations(header))
    encoded = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
    return MAGIC + f"{len(encoded)}\n".encode("ascii") + encoded + raw[end:]
