"""The set-up path one event object at a time, as it ran before events were
carried as columns, and the metrics one ranking list at a time, as they ran
before evaluation scored from hit positions: the oracles the array code must
match, field by field and bit for bit."""

from __future__ import annotations

import csv
import math

import numpy as np

from conftest import reference_rows
from evrac import dataset
from evrac.dataset import ChargingEvent, RejectedRow, _session_row
from evrac.errors import ConfigError, DataFormatError, DomainError, UsageError
from evrac.reward import epoch_hour


def canonical_row(row: dict) -> ChargingEvent:
    """A `csv.DictReader` row of the canonical header as one event."""
    return ChargingEvent(
        event_id=row["event_id"].strip(),
        driver_id=row["driver_id"].strip(),
        station_id=row["station_id"].strip(),
        start_time=dataset._parse_timestamp(row["start_time"]),
        duration_min=float(row["duration_min"]),
        energy_kwh=float(row["energy_kwh"]),
    )


def adapt(row: dict, line_no: int, adapter: str, width: int) -> ChargingEvent:
    """A `csv.DictReader` row of a `width`-field header as one event. The one
    change since the per-row parser: a long row, whose extra fields
    DictReader lists under None, is rejected instead of read, in every
    layout."""
    if None in row:
        raise ValueError(f"row has {width + len(row[None])} fields, header has {width}")
    if adapter == "canonical":
        return canonical_row(row)
    return _session_row(row, line_no, adapter)


def parse_events(path, adapter: str = "canonical") -> tuple[list[ChargingEvent], list[RejectedRow]]:
    """`dataset.parse_events` as a `csv.DictReader` loop that builds one
    `ChargingEvent` per row."""
    events, rejects, seen = [], [], set()
    with dataset.open_csv(path) as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None:
            raise DataFormatError(f"{path}: empty file")
        if adapter == "canonical":
            missing = [c for c in dataset.CANONICAL_HEADER if c not in reader.fieldnames]
            if missing:
                raise DataFormatError(f"{path}: missing canonical columns {missing}")
        for row in reader:
            line_no = reader.line_num
            try:
                event = adapt(row, line_no, adapter, len(reader.fieldnames))
                if event.event_id in seen:
                    raise ValueError("duplicate event_id")
            except (ValueError, KeyError, DomainError) as exc:
                rejects.append(RejectedRow(line_no, ",".join(str(v) for v in row.values()), str(exc)))
                continue
            seen.add(event.event_id)
            events.append(event)
    total = len(events) + len(rejects)
    if total > 0 and len(rejects) > total / 2:
        raise DataFormatError(f"{path}: {len(rejects)}/{total} rows rejected; wrong adapter or corrupt file")
    return events, rejects


def build_trajectories(events) -> dict[str, list[ChargingEvent]]:
    by_driver: dict[str, list[ChargingEvent]] = {}
    for e in events:
        by_driver.setdefault(e.driver_id, []).append(e)
    return {d: sorted(by_driver[d], key=lambda e: (e.start_time, e.event_id)) for d in sorted(by_driver)}


def build_wait_series(events) -> dict[str, dict[int, float]]:
    out: dict[str, dict[int, float]] = {}
    for e in events:
        buckets = out.setdefault(e.station_id, {})
        start_s = e.start_time.timestamp()
        end_s = start_s + e.duration_min * 60.0
        cursor = start_s
        while cursor < end_s:
            bucket = int(cursor // 3600)
            chunk_end = min((bucket + 1) * 3600.0, end_s)
            buckets[bucket] = buckets.get(bucket, 0.0) + (chunk_end - cursor) / 60.0
            cursor = chunk_end
    return out


def station_norms(events, index, series: dict[str, dict[int, float]]):
    events = list(events)
    if not events:
        raise ConfigError("station norms need at least one training event")
    m = len(index)
    mean_wait = np.zeros(m)
    all_positive: list[float] = []
    for col, sid in enumerate(index.order):
        positive = [v for v in series.get(sid, {}).values() if v > 0]
        all_positive.extend(positive)
        if positive:
            mean_wait[col] = np.mean(positive)
    global_wait = float(np.mean(all_positive)) if all_positive else 1.0
    prev, cur = [], []
    for evs in build_trajectories(events).values():
        cols = [index.index_of(e.station_id) for e in evs]
        prev += cols[:-1]
        cur += cols[1:]
    cur = np.array(cur, dtype=np.intp)
    hops = index.distances[np.array(prev, dtype=np.intp), cur]
    positive_hops = hops[hops > 0]
    global_dist = float(np.mean(positive_hops)) if positive_hops.size else 1.0
    counts = np.bincount(cur, minlength=m)
    hop_sums = np.bincount(cur, weights=hops, minlength=m)
    mean_dist = np.divide(hop_sums, counts, out=np.zeros(m), where=counts > 0)
    return np.where(mean_wait > 0, mean_wait, global_wait), np.where(mean_dist > 0, mean_dist, global_dist)


def most_visited(train_events) -> dict[str, str | None]:
    counts: dict[str, dict[str, int]] = {}
    for e in train_events:
        counts.setdefault(e.driver_id, {}).setdefault(e.station_id, 0)
        counts[e.driver_id][e.station_id] += 1
    out = {}
    for driver, per_station in counts.items():
        best = max(per_station.values())
        top = [sid for sid, c in per_station.items() if c == best]
        out[driver] = top[0] if len(top) == 1 else None
    return out


def bundle_parts(config, index) -> dict:
    """What `pipeline.load_data_bundle` derives from the events, built the
    old way from event lists on the stations of `index`: trajectories,
    series, norms, scalers, familiarity and the training window's end."""
    events, _ = parse_events(config.events)
    trajectories = build_trajectories(events)
    if config.warmup:
        cuts = {d: max(1, math.floor(dataset.WARMUP_FRAC * len(t))) if len(t) > dataset.WARMUP_MIN_EVENTS else 0
                for d, t in trajectories.items()}
        trajectories = {d: t[cuts[d]:] for d, t in trajectories.items() if len(t) > cuts[d]}
    train_by_driver, train_events = {}, []
    for d, evs in trajectories.items():
        n = len(evs)
        if n < 3:
            train_events += evs
            continue
        n_train, n_val = math.floor(dataset.TRAIN_FRAC * n), max(1, math.floor(dataset.VAL_FRAC * n))
        if n_train + n_val >= n:
            n_train = n - n_val - 1
        train_by_driver[d] = evs[:n_train]
        train_events += evs[:n_train]
    train_events.sort(key=lambda e: (e.start_time, e.event_id))
    train_series = build_wait_series(train_events)
    return {
        "trajectories": trajectories,
        "train_series": train_series,
        "full_series": build_wait_series(events),
        "norms": station_norms(train_events, index, train_series),
        "max_duration": max(e.duration_min for e in train_events),
        "max_energy": max(e.energy_kwh for e in train_events),
        "familiarity": most_visited([e for d in sorted(train_by_driver) for e in train_by_driver[d]]),
        "train_end_hour": epoch_hour(train_events[-1].start_time),
    }


def windows(space, events: list[ChargingEvent], cuts) -> np.ndarray:
    """`ObservationSpace.windows` from per-event observations."""
    obs = np.concatenate([np.zeros((space.history, space.obs_dim)), reference_rows(space, events, None)])
    return np.stack([obs[j : j + space.history] for j in cuts])


def precision_at_k(predictions, truths, k: int) -> float:
    """Fraction of events whose truth appears in the event's top-k."""
    if k < 1:
        raise UsageError("k must be >= 1")
    if len(predictions) != len(truths):
        raise UsageError("predictions and truths differ in length")
    if not truths:
        return 0.0
    hits = sum(1 for ranked, truth in zip(predictions, truths) if truth in list(ranked)[:k])
    return hits / len(truths)


def recall_at_k(predictions_by_driver: dict, truths_by_driver: dict, k: int) -> float:
    """Distinct-station coverage within top-k, macro-averaged over drivers."""
    if k < 1:
        raise UsageError("k must be >= 1")
    per_driver = []
    for driver, truths in truths_by_driver.items():
        if not truths:
            continue
        preds = predictions_by_driver[driver]
        distinct = set(truths)
        hit = {t for ranked, t in zip(preds, truths) if t in list(ranked)[:k]}
        per_driver.append(len(hit) / len(distinct))
    return float(np.mean(per_driver)) if per_driver else 0.0
