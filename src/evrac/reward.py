"""External reward environment.

Per-station hourly wait-time series (an occupied-minutes congestion proxy),
an LSTM forecaster for the next-hour wait, the familiarity coefficient, and
the timely reward  r = -scale * (wait/mean_wait + zeta * dist/mean_dist).
"""

from __future__ import annotations

import csv
import functools
import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from . import nn
from .config import RewardNetHyper
from .dataset import EventColumns
from .errors import ConfigError, DomainError
from .geospatial import StationIndex
from .seeding import rng_for

logger = logging.getLogger(__name__)

DAY_FEATURES = 7
HOUR_FEATURES = 24
TIME_FEATURE_WIDTH = DAY_FEATURES + HOUR_FEATURES


def epoch_hour(dt: datetime) -> int:
    return int(dt.timestamp() // 3600)


def hour_to_datetime(eh: int) -> datetime:
    return datetime.fromtimestamp(eh * 3600, tz=timezone.utc)


def time_features(hours: np.ndarray) -> np.ndarray:
    """Day-of-week (7) and hour-of-day (24) one-hots of each epoch hour h,
    shape `hours.shape + (31,)`, set at `hour_to_datetime(h).weekday()` and
    `.hour`. Epoch hour 0 (1970-01-01 00:00 UTC) is a Thursday, weekday 3;
    floor division keeps negative hours on the same calendar."""
    hours = np.asarray(hours, dtype=np.int64)
    flat = hours.ravel()
    out = np.zeros((flat.size, TIME_FEATURE_WIDTH))
    out[np.arange(flat.size), (flat // 24 + 3) % 7] = 1.0
    out[np.arange(flat.size), DAY_FEATURES + flat % 24] = 1.0
    return out.reshape(hours.shape + (TIME_FEATURE_WIDTH,))


# Weekday and hour of day are functions of the epoch hour mod 168, negative
# hours included, so these rows are the time features of every epoch hour.
HOURS_PER_WEEK = 7 * 24
_WEEK_FEATURES = time_features(np.arange(HOURS_PER_WEEK))
_WEEK_FEATURES.setflags(write=False)


# ---------------------------------------------------------------------------
# Wait-time series
# ---------------------------------------------------------------------------

@dataclass
class WaitSeries:
    """Hourly wait proxy for one station: occupied charging minutes per clock
    hour, keyed by epoch hour. Hours without sessions are implicitly 0.
    `buckets` is complete once `build_wait_series` returns: `first_hour` and
    the dense view `hourly` are computed on first use and then kept."""

    station_id: str
    buckets: dict[int, float] = field(default_factory=dict)

    @functools.cached_property
    def first_hour(self) -> int | None:
        return min(self.buckets) if self.buckets else None

    @functools.cached_property
    def hourly(self) -> np.ndarray:
        """The value of every hour from `first_hour` through the last bucket,
        then one 0.0 that stands for every hour outside that span."""
        if not self.buckets:
            return np.zeros(1)
        out = np.zeros(max(self.buckets) - self.first_hour + 2)
        out[np.fromiter(self.buckets, dtype=np.int64, count=len(self.buckets)) - self.first_hour] = \
            np.fromiter(self.buckets.values(), dtype=float, count=len(self.buckets))
        return out

    def values(self, hours: np.ndarray) -> np.ndarray:
        """The bucket of each of `hours` (any shape), 0.0 for an hour
        without one, gathered from `hourly`: an hour outside its span reads
        the last entry, directly or as -1."""
        hourly = self.hourly
        return hourly[np.clip(np.asarray(hours, dtype=np.int64) - (self.first_hour or 0), -1, hourly.size - 1)]


class HourChunks(NamedTuple):
    """Every event's occupied minutes per clock hour, flat: event i's chunks
    are entries `offsets[i]` to `offsets[i + 1]` of `bucket` (epoch hours,
    from its start hour on) and `minutes`."""

    offsets: np.ndarray
    bucket: np.ndarray
    minutes: np.ndarray


def hour_chunks(events: EventColumns) -> HourChunks:
    """Each event's session split across clock-hour boundaries, with array
    operations that repeat the per-event loop's float operations: a session
    of `end_s = start_s + duration * 60.0` has one chunk per hour from
    `start_s // 3600` through the last whose start is before `end_s` (none
    when `end_s` is not after `start_s`), and each chunk holds `(min(hour end,
    end_s) - chunk start) / 60.0` minutes, a chunk starting at its hour's
    start except the first, which starts at `start_s`. Hour boundaries are
    `hour * 3600.0`, exact below 2**53, so every hour after the first holds
    60.0 minutes unless the session ends in it."""
    start_s = events.start_s
    end_s = start_s + events.duration_min * 60.0
    first = np.floor_divide(start_s, 3600.0).astype(np.int64)
    # One past the last chunk's hour: the least h with h * 3600.0 >= end_s.
    # The exact comparisons put right the rounding of the quotient.
    last = np.ceil(end_s / 3600.0).astype(np.int64)
    last -= (last - 1) * 3600.0 >= end_s
    last += last * 3600.0 < end_s
    counts = np.where(start_s < end_s, last - first, 0)
    offsets = np.zeros(len(events) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    owner = np.repeat(np.arange(len(events)), counts)
    bucket = np.arange(offsets[-1]) - np.repeat(offsets[:-1] - first, counts)
    lo = np.where(bucket == first[owner], start_s[owner], bucket * 3600.0)
    minutes = (np.minimum((bucket + 1) * 3600.0, end_s[owner]) - lo) / 60.0
    return HourChunks(offsets, bucket, minutes)


def build_wait_series(events: EventColumns, order: np.ndarray | None = None,
                      chunks: HourChunks | None = None) -> dict[str, WaitSeries]:
    """Occupied minutes per (station, clock hour) of the events at positions
    `order` of `events` (all, in order, by default), added in that order.
    `chunks` is `hour_chunks(events)`, computed here when not given, so one
    table's chunks can feed several series. The chunks of the events in
    `order` are gathered into flat arrays and summed in one loop, so each
    bucket adds its minutes, and each series gains its buckets and the result
    its series (one per station of those events), in the per-event order.

    Time-causal by construction: an event only contributes to buckets at or
    after its start hour.
    """
    if chunks is None:
        chunks = hour_chunks(events)
    offsets, bucket, minutes = chunks
    if order is None:
        order = np.arange(len(events))
    codes = events.station[order]
    counts = offsets[1:][order] - offsets[:-1][order]
    at = np.arange(counts.sum()) + np.repeat(offsets[:-1][order] - (np.cumsum(counts) - counts), counts)
    first_use = np.unique(codes, return_index=True)[1]
    by_code: list[dict | None] = [None] * len(events.stations)
    out: dict[str, WaitSeries] = {}
    for code in codes[np.sort(first_use)].tolist():
        sid = events.stations[code]
        out[sid] = WaitSeries(sid)
        by_code[code] = out[sid].buckets
    for code, hour, value in zip(np.repeat(codes, counts).tolist(), bucket[at].tolist(), minutes[at].tolist()):
        buckets = by_code[code]
        buckets[hour] = buckets.get(hour, 0.0) + value
    return out


def export_wait_series(series: dict[str, WaitSeries], path: str | Path) -> None:
    """CSV `station_id,date,hour,wait_min` for inspection and plotting."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["station_id", "date", "hour", "wait_min"])
        for sid in sorted(series):
            for eh in sorted(series[sid].buckets):
                dt = hour_to_datetime(eh)
                writer.writerow([sid, dt.strftime("%Y-%m-%d"), dt.hour, format(series[sid].buckets[eh], "g")])


# ---------------------------------------------------------------------------
# Familiarity and the reward formula
# ---------------------------------------------------------------------------

REWARD_SCALE = 100.0
ZETA_FAMILIAR = 0.8  # distance weight at the driver's most-visited station
ZETA_DEFAULT = 1.0


def most_visited(events: EventColumns) -> dict[str, str | None]:
    """Each driver's strictly most-visited station in the training split.

    Ties (or no events) map to None: no station gets the familiarity discount.
    """
    m = len(events.stations)
    pairs, counts = np.unique(events.driver.astype(np.int64) * m + events.station, return_counts=True)
    best: dict[int, tuple[int, int | None]] = {}  # driver code -> (top count, its only station or None)
    for pair, count in zip(pairs.tolist(), counts.tolist()):
        driver, station = divmod(pair, m)
        top = best.get(driver)
        if top is None or count > top[0]:
            best[driver] = (count, station)
        elif count == top[0]:
            best[driver] = (count, None)
    drivers, first = np.unique(events.driver, return_index=True)
    return {events.drivers[d]: None if best[d][1] is None else events.stations[best[d][1]]
            for d in drivers[np.argsort(first)].tolist()}


def compute_reward(
    wait_forecast: float | np.ndarray,
    dist_km: float | np.ndarray,
    mean_wait: float | np.ndarray,
    mean_dist: float | np.ndarray,
    zeta_coef: float | np.ndarray,
    scale: float = 100.0,
) -> float | np.ndarray:
    """-scale * (wait/mean_wait + zeta * dist/mean_dist), elementwise; <= 0 always."""
    if not (np.all(mean_wait > 0) and np.all(mean_dist > 0)):
        raise DomainError("reward norms must be positive")
    if np.any(wait_forecast < 0) or np.any(dist_km < 0):
        raise DomainError("wait forecast and distance must be non-negative")
    return -scale * (wait_forecast / mean_wait + zeta_coef * dist_km / mean_dist)


# ---------------------------------------------------------------------------
# Wait forecaster network
# ---------------------------------------------------------------------------

# Rows per forecaster pass in fitting and in `WaitForecastNet.predict`. A
# pass holds the BPTT cache of its own rows only, so this, not the number of
# lag windows, bounds the forecaster's memory.
CHUNK_ROWS = 512

# Rows per inference pass: the forecaster's forward when it prices and the
# actor's forward when it ranks. Such a pass runs no backward, so it gains
# nothing from the fit's longer chunks: on the 50-station benchmark city,
# one-pass evaluation ranked and priced all 1,739 test events as fast in
# 128-row passes as in 512-row ones (74 against 82 ms, one BLAS thread) with
# under a third of the transient memory (4.5 against 14.9 MiB).
INFERENCE_ROWS = 128


class WaitForecastNet:
    """Stacked LSTM over the k previous hourly waits + linear scalar head.

    Per-step input: [scaled lag wait, station location context, lag-hour time
    features], given as `ForecastRows` (or as the dense (N, k, input_dim)
    array those rows stand for). Waits are scaled by the station's mean wait
    on the way in and out so targets sit near 1 regardless of units.

    `forward` and `backward` run on all their rows at once. `predict` and
    `mse_gradient` run over chunks of at most `CHUNK_ROWS` rows and drop each
    chunk's cache before the next, so their memory does not grow with N.
    `forward`, `predict` and `mse_gradient` take an optional `nn.Workspace`
    from a caller that loops over them, which then holds the LSTM layers'
    gates and step state; forecasts and gradients are always new arrays.
    """

    def __init__(self, input_dim: int, hidden_dim: int, num_layers: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.lstm = nn.StackedLstm(input_dim, hidden_dim, num_layers, rng)
        self.head = nn.Dense(hidden_dim, 1, rng)

    @property
    def params(self) -> dict[str, np.ndarray]:
        return nn.named({"lstm": self.lstm.params, "head": self.head.params})

    def forward(self, rows: "ForecastRows | np.ndarray", work: nn.Workspace | None = None
                ) -> tuple[np.ndarray, dict]:
        h, lstm_cache = self.lstm.final_hidden(rows, work)
        y, head_cache = self.head.forward(h)
        return y[:, 0], {"lstm": lstm_cache, "head": head_cache}

    def backward(self, cache: dict, dy: np.ndarray) -> dict[str, np.ndarray]:
        dh, head_grads = self.head.backward(cache["head"], dy[:, None])
        _, lstm_grads = self.lstm.backward_last(cache["lstm"], dh)
        return nn.named({"lstm": lstm_grads, "head": head_grads})

    def predict(self, rows: "ForecastRows", chunk_rows: int = CHUNK_ROWS,
                work: nn.Workspace | None = None) -> np.ndarray:
        """`forward(rows)`'s forecasts, one chunk of rows at a time; each
        chunk's cache is dropped. Up to one chunk this has the bits of
        `forward`. Pricing passes `INFERENCE_ROWS`."""
        return np.concatenate([self.forward(chunk, work)[0] for chunk in rows.chunks(chunk_rows)])

    def mse_gradient(self, chunks: Sequence["ForecastRows"], targets: np.ndarray,
                     work: nn.Workspace | None = None) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Forecasts for the rows of `chunks`, in order, and the gradient of
        the loss ½·mean((forecast − target)²) over all N of them. Each chunk
        runs forward and backward on its own, with its residuals over N, and
        its gradient is added to a running sum."""
        n = targets.shape[0]
        preds, total, start = [], {}, 0
        for chunk in chunks:
            pred, cache = self.forward(chunk, work)
            stop = start + pred.shape[0]
            grads = self.backward(cache, (pred - targets[start:stop]) / n)
            del cache  # before the next chunk's forward allocates its own or reuses its arrays
            if not total:
                total = grads
            else:
                for name, g in grads.items():
                    total[name] += g
            preds.append(pred)
            start = stop
        return np.concatenate(preds), total


def _lookup(table: np.ndarray, idx: np.ndarray, W: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`table[idx] @ W`, written into `out` (a new array when None).
    Projecting the whole table and then gathering is cheaper once `idx` has
    as many entries as the table has rows; pricing a few pairs projects only
    their own rows. An index out of range raises IndexError before anything
    is written. The gather clips once the indices are checked, because
    `np.take` into `out` with its default `mode="raise"` would first gather
    into a temporary as large as `out`."""
    if out is None:
        out = np.empty(idx.shape + W.shape[1:])
    rows = out.reshape(idx.size, W.shape[1], copy=False)
    if idx.size < table.shape[0]:
        np.matmul(table[idx.ravel()], W, out=rows)
    elif idx.min() < 0 or idx.max() >= table.shape[0]:
        raise IndexError(f"lookup index out of range for a table of {table.shape[0]} rows")
    else:
        np.take(table @ W, idx.ravel(), axis=0, out=rows, mode="clip")
    return out


@dataclass(frozen=True)
class ForecastRows:
    """Forecaster inputs in factored form, the input side of the first LSTM
    layer (see `nn.DenseInput`).

    Row i forecasts station column `cols[i]` at epoch hour `hours[i]` from
    `lags[i]`, its k previous hourly waits over the station's mean wait. Its
    step t stands for the dense input [lags[i, t] || the station's location
    context without a previous station || time_features(hours[i] - k + t)],
    which is never built: a one-hot row times W is a row of W, so the location
    block is a row of an (M, 4h) station table and the time block a row of a
    (168, 4h) hour-of-week table.
    """

    index: StationIndex
    lags: np.ndarray
    cols: np.ndarray
    hours: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        n, k = self.lags.shape
        return n, k, reward_net_input_dim(self.index)

    def take(self, idx: np.ndarray) -> "ForecastRows":
        return ForecastRows(self.index, self.lags[idx], self.cols[idx], self.hours[idx])

    def chunks(self, size: int = CHUNK_ROWS) -> list["ForecastRows"]:
        """Consecutive runs of `size` rows, the last one possibly shorter, as
        views of these rows. The edges depend on row positions only."""
        return [self.take(slice(i, i + size)) for i in range(0, self.lags.shape[0], size)]

    def _week_slots(self) -> np.ndarray:
        """Hour of the week of every row's lag steps, (N, k)."""
        k = self.lags.shape[1]
        return (self.hours[:, None] - k + np.arange(k)) % HOURS_PER_WEEK

    def project(self, W: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Every step's input pre-activations, time-major (k, N, 4h), written
        into `out`. The lag term is added a block of whole steps at a time,
        through a temporary of at most `CHUNK_ROWS` rows: all k steps at once
        for a few pricing rows, one step at a time for a full fit chunk."""
        nn._require_finite("lstm input", self.lags)
        width = self.index.context_width()
        gates = _lookup(_WEEK_FEATURES, self._week_slots().T, W[1 + width :], out)
        gates += _lookup(self.index.contexts, self.cols, W[1 : 1 + width])
        n, k = self.lags.shape
        steps = max(1, min(k, CHUNK_ROWS // max(n, 1)))
        term = np.empty((steps, n, W.shape[1]))
        for lo in range(0, k, steps):
            block = gates[lo : lo + steps]
            block += np.multiply(self.lags.T[lo : lo + steps, :, None], W[0], out=term[: len(block)])
        return gates

    def backward(self, W: np.ndarray, dW: np.ndarray, steps) -> None:
        """Lag and time rows of `dW` take each step's share; the location
        rows take the step-summed gradient once, through the station table.
        Returns no input gradient: the forecaster has no use for one."""
        width = self.index.context_width()
        slots = self._week_slots()
        dz_sum = np.zeros((self.lags.shape[0], W.shape[1]))
        for t, dz in steps:
            dW[0] += self.lags[:, t] @ dz
            dW[1 + width :] += _WEEK_FEATURES[slots[:, t]].T @ dz
            dz_sum += dz
        per_station = np.zeros((len(self.index), W.shape[1]))
        np.add.at(per_station, self.cols, dz_sum)
        dW[1 : 1 + width] += self.index.contexts.T @ per_station


def forecast_inputs(
    series: dict[str, WaitSeries],
    index: StationIndex,
    cols: Sequence[int],
    hours: Sequence[int],
    k: int,
) -> tuple[ForecastRows, np.ndarray]:
    """Forecaster rows for the (station column, hour) pairs that have k
    observable lag hours, and those pairs' positions. Stations must have a
    positive mean wait."""
    cols = np.asarray(cols, dtype=np.int64)
    hours = np.asarray(hours, dtype=np.int64)
    # Each station of the call with a series: its first observable hour (one
    # without a series never has lags) and where its dense view starts and
    # ends when the views are laid end to end, so every lag is one gather.
    m = len(index)
    first = np.full(m, np.iinfo(np.int64).max)
    origin, last = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    views, size = [np.zeros(0)], 0
    for c in set(cols.tolist()):
        s = series.get(index.order[c])
        if s is not None and s.buckets:
            first[c], origin[c] = s.first_hour, size - s.first_hour
            views.append(s.hourly)
            size += s.hourly.size
            last[c] = size - 1  # the view's trailing 0.0, read for every hour past its span
    keep = np.flatnonzero(hours - k >= first[cols])
    cols, hours = cols[keep], hours[keep]
    at = (origin[cols] + hours)[:, None] + (np.arange(k) - k)
    lags = np.concatenate(views)[np.minimum(at, last[cols][:, None])] / index.mean_wait[cols][:, None]
    return ForecastRows(index, lags, cols, hours), keep


def reward_net_input_dim(index: StationIndex) -> int:
    return 1 + index.context_width() + TIME_FEATURE_WIDTH


def train_reward_net(
    series: dict[str, WaitSeries],
    index: StationIndex,
    hyper: RewardNetHyper = RewardNetHyper(),
    train_end_hour: int | None = None,
) -> tuple[WaitForecastNet, dict]:
    """Fit one-step-ahead wait prediction by full-batch gradient descent on
    MSE. Each epoch's gradient is summed over the `CHUNK_ROWS`-row chunks of
    the training rows (`WaitForecastNet.mse_gradient`), then clipped and
    applied in one step. Every forward of the fit, the closing predictions
    included, runs through one `nn.Workspace`, so the LSTM arrays are
    allocated once per fit, not once per chunk.

    Uses hours up to train_end_hour (inclusive); stations without at least
    window+1 observable hours are skipped with a warning. Returns the net and
    a report with train/val MSE in minutes^2 and, under "epoch_log", one
    record per epoch: the train MSE (minutes^2) of the forward pass the
    epoch's step came from, the pre-clip gradient norm and whether clipping
    fired.
    """
    k = hyper.window
    sample_cols: list[int] = []
    sample_hours: list[int] = []
    targets_scaled: list[np.ndarray] = []
    scales: list[float] = []
    skipped: list[str] = []
    for col, sid in enumerate(index.order):
        mean_wait = float(index.mean_wait[col])
        if not mean_wait > 0:
            raise ConfigError(f"station {sid} has no positive mean wait; compute norms first")
        s = series.get(sid)
        first = s.first_hour if s is not None else None
        if first is None:
            skipped.append(sid)
            continue
        end = train_end_hour if train_end_hour is not None else max(s.buckets)
        if first + k > end:
            skipped.append(sid)
            continue
        hours = range(first + k, end + 1)
        sample_cols += [col] * len(hours)
        sample_hours += hours
        targets_scaled.append(s.values(np.arange(first + k, end + 1)) / mean_wait)
        scales += [mean_wait] * len(hours)
    if skipped:
        logger.warning("reward net: skipped %d stations with <%d hours of history", len(skipped), k + 1)
    if not sample_cols:
        raise ConfigError("no training samples for the reward net")

    rows, _ = forecast_inputs(series, index, sample_cols, sample_hours, k)
    ys = np.concatenate(targets_scaled)
    sc = np.array(scales)
    n_val = int(len(ys) * hyper.val_frac)
    # Chronology is per station; a seeded permutation keeps val representative.
    perm = rng_for(hyper.seed, "reward-val-split").permutation(len(ys))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise ConfigError("empty reward-net training window")

    # Gather each split once; the full rows are not needed after this.
    rows_train, rows_val = rows.take(train_idx), rows.take(val_idx)
    del rows
    ys_train, sc_train = ys[train_idx], sc[train_idx]
    net = WaitForecastNet(rows_train.shape[2], hyper.hidden, hyper.layers, rng_for(hyper.seed, "reward-init"))
    params = net.params
    chunks = rows_train.chunks()
    work = nn.Workspace()
    records = []
    for epoch in range(hyper.epochs):
        pred, grads = net.mse_gradient(chunks, ys_train, work)
        norm = nn.clip_global_norm(grads, hyper.clip_norm)
        nn.sgd_step(params, grads, hyper.alpha)
        records.append(
            {
                "epoch": epoch,
                "train_mse": float(np.mean(((pred - ys_train) * sc_train) ** 2)),
                "grad_norm": norm,
                "clipped": bool(0 < hyper.clip_norm < norm),
            }
        )

    def _mse(split: ForecastRows, idx: np.ndarray) -> float:
        if idx.size == 0:
            return float("nan")
        pred = net.predict(split, work=work)
        return float(np.mean(((pred - ys[idx]) * sc[idx]) ** 2))

    report = {
        "train_mse": _mse(rows_train, train_idx),
        "val_mse": _mse(rows_val, val_idx),
        "samples": int(len(ys)),
        "skipped_stations": skipped,
        "epoch_log": records,
    }
    return net, report


def _mean_waits(index: StationIndex, cols: np.ndarray) -> np.ndarray:
    """The mean wait of each station column; every one must be positive."""
    means = index.mean_wait[cols]
    bad = ~(means > 0)
    if bad.any():
        raise DomainError(f"station {index.order[cols[bad][0]]} has no positive mean wait")
    return means


def predict_waits(
    net: WaitForecastNet,
    series: dict[str, WaitSeries],
    index: StationIndex,
    cols: Sequence[int],
    hours: Sequence[int],
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forecast the wait in minutes for each (station column, hour) pair, with
    one `WaitForecastNet.predict` call over the distinct pairs, and mark the
    pairs that fell back and those clamped.

    A pair falls back to the station's mean wait when fewer than k observable
    lag hours exist; a negative raw output is clamped to 0. The distinct
    pairs are forecast in sorted order, so a pair's value does not depend on
    the order or repeats of the input.
    """
    pairs = list(zip(np.asarray(cols).tolist(), np.asarray(hours).tolist()))
    distinct = sorted(set(pairs))
    at = {p: i for i, p in enumerate(distinct)}
    d_cols = np.array([c for c, _ in distinct], dtype=np.int64)
    waits = _mean_waits(index, d_cols)
    fallback = np.ones(len(distinct), dtype=bool)
    clamped = np.zeros(len(distinct), dtype=bool)
    rows, keep = forecast_inputs(series, index, d_cols, [eh for _, eh in distinct], k)
    if keep.size:
        raw = net.predict(rows, INFERENCE_ROWS) * waits[keep]
        fallback[keep] = False
        clamped[keep] = raw < 0
        waits[keep] = np.where(raw < 0, 0.0, raw)
    pos = np.array([at[p] for p in pairs], dtype=np.int64)
    return waits[pos], fallback[pos], clamped[pos]


def predict_wait(
    net: WaitForecastNet,
    series: dict[str, WaitSeries],
    index: StationIndex,
    station_id: str,
    eh: int,
    k: int,
) -> tuple[float, frozenset[str]]:
    """`predict_waits` for one (station, hour) pair, with its flags as a set
    of "mean_fallback" and "clamped"."""
    waits, fallback, clamped = predict_waits(net, series, index, [index.index_of(station_id)], [eh], k)
    flags = {"mean_fallback"} if fallback[0] else {"clamped"} if clamped[0] else set()
    return float(waits[0]), frozenset(flags)


# ---------------------------------------------------------------------------
# Forecaster plug points and the environment facade
# ---------------------------------------------------------------------------

class WaitForecaster(Protocol):
    def forecast_batch(
        self, cols: np.ndarray, hours: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Wait in minutes for each (station column, epoch hour) pair, and
        boolean arrays marking the pairs that fell back to the station's mean
        wait and those clamped to 0."""
        ...


class MeanWaitForecaster:
    """Always returns the station's mean wait (the no-model fallback)."""

    def __init__(self, index: StationIndex):
        self.index = index

    def forecast_batch(self, cols, hours) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        waits = _mean_waits(self.index, cols)
        return waits, np.ones(waits.size, dtype=bool), np.zeros(waits.size, dtype=bool)


class NetWaitForecaster:
    """Forecasts from a trained WaitForecastNet over the historical series."""

    def __init__(self, net: WaitForecastNet, series: dict[str, WaitSeries], index: StationIndex, k: int):
        self.net = net
        self.series = series
        self.index = index
        self.k = k

    def forecast_batch(self, cols, hours) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return predict_waits(self.net, self.series, self.index, cols, hours, self.k)


@dataclass(frozen=True)
class RewardBreakdown:
    """Priced decisions: entry i of every field belongs to decision i.
    `fallback` marks waits that are the station's mean wait, `clamped` those
    raised from a negative forecast to 0."""

    reward: np.ndarray
    wait_forecast: np.ndarray
    dist_km: np.ndarray
    mean_wait: np.ndarray
    mean_dist: np.ndarray
    zeta: np.ndarray
    fallback: np.ndarray
    clamped: np.ndarray


class RewardEnvironment:
    """Everything needed to price (driver, previous station, action, hour)."""

    def __init__(
        self,
        index: StationIndex,
        forecaster: WaitForecaster,
        familiarity: dict[str, str | None],
    ):
        self.index = index
        self.forecaster = forecaster
        # Each driver's strictly most-visited station as a column; -1 for none.
        self.familiar = {d: -1 if sid is None else index.index.get(sid, -1) for d, sid in familiarity.items()}

    def breakdowns(
        self,
        drivers: Sequence[str],
        prev_cols: Sequence[int],
        cols: Sequence[int],
        hours: Sequence[int],
    ) -> RewardBreakdown:
        """Price every (driver, previous station column, action column, hour)
        decision, with one forecaster call for the whole batch. A previous
        column of -1 means no previous station, 0 km. zeta is 0.8 at the
        driver's most-visited station, else 1.0."""
        cols = np.asarray(cols, dtype=np.int64)
        prev_cols = np.asarray(prev_cols, dtype=np.int64)
        waits, fallback, clamped = self.forecaster.forecast_batch(cols, hours)
        dists = np.where(prev_cols >= 0, self.index.distances[prev_cols, cols], 0.0)
        mean_wait, mean_dist = self.index.mean_wait[cols], self.index.mean_dist[cols]
        familiar = np.array([self.familiar.get(d, -1) for d in drivers], dtype=np.int64)
        zeta = np.where(cols == familiar, ZETA_FAMILIAR, ZETA_DEFAULT)
        rewards = compute_reward(waits, dists, mean_wait, mean_dist, zeta, REWARD_SCALE)
        return RewardBreakdown(rewards, waits, dists, mean_wait, mean_dist, zeta, fallback, clamped)
