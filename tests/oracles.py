"""The set-up path and the event writer one event object at a time, as they
ran before events were carried as columns, the metrics one ranking list at a
time, as they ran before evaluation scored from hit positions, and
per-driver fine-tuning with validation windows rebuilt on every call: the
oracles the array code must match, field by field and bit for bit."""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import replace
from datetime import timezone

import numpy as np

from conftest import reference_rows
from evrac import agent, dataset
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
    """A `csv.DictReader` row of a `width`-field header as one event, whose
    `__post_init__` runs the value checks one by one. The session layouts'
    fields come from `_session_row`, which builds no event. The one change
    since the per-row parser: a long row, whose extra fields DictReader lists
    under None, is rejected instead of read, in every layout."""
    if None in row:
        raise ValueError(f"row has {width + len(row[None])} fields, header has {width}")
    if adapter == "canonical":
        return canonical_row(row)
    return ChargingEvent(**dict(zip(dataset.CANONICAL_HEADER, _session_row(row, line_no, adapter))))


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


def write_events(events: list[ChargingEvent], path) -> None:
    """`dataset.write_events` as a loop over `ChargingEvent`s."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(dataset.CANONICAL_HEADER)
        for e in events:
            writer.writerow(
                [
                    e.event_id,
                    e.driver_id,
                    e.station_id,
                    e.start_time.astimezone(timezone.utc).replace(tzinfo=None).isoformat() + "Z",
                    dataset._float_text(e.duration_min),
                    dataset._float_text(e.energy_kwh),
                ]
            )


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


def cut_points(traj, events) -> list[int]:
    """The cuts of `events`, a subset of the driver's, that have a previous
    event, in the order given: a lookup in a dict over every event id of the
    trajectory, built on each call. The reference for `Split.val_cuts` and
    `Split.test_cuts`."""
    pos = dict(zip(traj.events.event_id.tolist(), range(len(traj))))
    return [j for j in map(pos.__getitem__, events.event_id.tolist()) if j > 0]


def val_p1(model, obs_space, traj, val_events) -> float:
    """Validation precision@1 as one `RacRecommender.rank` request, which
    builds the driver's validation windows on every call."""
    cuts = cut_points(traj, val_events)
    if not cuts:
        return 0.0
    rankings = agent.RacRecommender(model, obs_space).rank([(traj.driver_id, traj.events, cuts)], 1)
    return sum(ranked[0] == sid for ranked, sid in zip(rankings, traj.events.station_id[cuts].tolist())) / len(cuts)


def finetune_driver(shared, obs_space, env, traj, split, hyper, epochs, patience, log=None):
    """`agent.finetune_driver` scoring each epoch with `val_p1`. With `log`,
    appends (driver id, [validation P@1 of epoch 0, 1, ...], epochs run)."""
    model = shared.clone()
    n_train = len(split.train) if split is not None else len(traj)
    buffer = agent.ReplayBuffer(hyper.history, hyper.horizon)
    buffer.add_trajectory(obs_space, traj, n_train)
    if len(buffer) == 0:
        return model
    if hyper.reward_update == "td_coupled" and isinstance(env.forecaster, agent.NetWaitForecaster):
        env = copy.copy(env)
        env.forecaster = copy.copy(env.forecaster)
        env.forecaster.net = copy.deepcopy(env.forecaster.net)
    per_driver = replace(hyper, epochs=1, samples_per_epoch=min(hyper.samples_per_epoch, len(buffer)))
    val_events = split.val if split is not None else []
    best_params, best_p1, stale, scores, ran = None, -1.0, 0, [], 0
    if len(val_events):
        best_p1 = val_p1(model, obs_space, traj, val_events)
        scores.append(best_p1)
        best_params = {k: v.copy() for k, v in model.all_params().items()}
    for epoch in range(epochs):
        seed = agent.derive_seed(hyper.seed, f"finetune:{traj.driver_id}:{epoch}")
        agent.train_rac(buffer, model, env, replace(per_driver, seed=seed))
        ran += 1
        if not len(val_events):
            continue
        p1 = val_p1(model, obs_space, traj, val_events)
        scores.append(p1)
        if p1 > best_p1:
            best_p1 = p1
            best_params = {k: v.copy() for k, v in model.all_params().items()}
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    if best_params is not None:
        params = model.all_params()
        for k, v in best_params.items():
            np.copyto(params[k], v)
    if log is not None:
        log.append((traj.driver_id, scores, ran))
    return model


def warmup_then_finetune(obs_space, env, trajectories, splits, hyper, warmup_trajectories=None, *,
                         finetune_epochs, patience, log=None):
    """`agent.warmup_then_finetune` run serially, each driver through the
    per-call `finetune_driver` above."""
    shared = agent.RacModel(obs_space.obs_dim, len(obs_space.index), hyper)
    if warmup_trajectories:
        pool_buffer = agent.build_buffer(obs_space, warmup_trajectories, None, hyper)
        if len(pool_buffer) > 0:
            agent.train_rac(pool_buffer, shared, env, hyper)
    models = {d: finetune_driver(shared, obs_space, env, trajectories[d], splits.get(d), hyper,
                                 finetune_epochs, patience, log)
              for d in sorted(trajectories)}
    return shared, models
