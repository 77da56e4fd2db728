"""Charging-event ingestion, per-driver trajectories, chronological splits
and the anonymized warm-up pool.

Events travel as columns. `parse_events` reads every layout (canonical,
Dundee, Glasgow) with one `csv.reader` pass, a block of rows at a time, into
an `EventColumns` table. The canonical layout converts a block column by
column, each distinct start string parsed once per file. A block that does
not convert, and every session-layout block, is converted row by row by a
per-layout mapper to its `CANONICAL_HEADER` fields. The values are checked
with array masks: a block is accepted whole when they pass and its ids are
new, and checked row by row otherwise. Trajectories, splits and the
warm-up pool are views or takes of that table, and every reader of events
takes them as columns, as `write_events` does. Only an int index or an
iteration of a table builds `ChargingEvent`s, for the tests and for the
benchmark harness's reads of single events; no code path here does either.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataFormatError, DomainError, UnknownStationError, UsageError, require_regular_file

logger = logging.getLogger(__name__)

CANONICAL_HEADER = ["event_id", "driver_id", "station_id", "start_time", "duration_min", "energy_kwh"]

ADAPTERS = ("canonical", "dundee", "glasgow")

# Longest accepted session, one week in minutes. Wait-series building walks
# every clock hour a session covers, so an unbounded duration is unbounded work.
MAX_DURATION_MIN = 7 * 24 * 60

# The value checks of an event, in the order a reject names the first that
# fails: `ChargingEvent` raises them one by one, `parse_events` as masks.
NON_FINITE = "non-finite duration or energy for event {}"
NEGATIVE_DURATION = "negative duration for event {}"
OVER_ONE_WEEK = f"duration over one week ({MAX_DURATION_MIN} min) for event {{}}"
NEGATIVE_ENERGY = "negative energy for event {}"

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _instant(t: datetime) -> tuple[int, float]:
    """An aware time as exact microseconds since the epoch and as its
    `timestamp()` seconds."""
    return (t - EPOCH) // _MICROSECOND, t.timestamp()


@dataclass(frozen=True, order=True)
class ChargingEvent:
    """One canonical charging transaction."""

    start_time: datetime
    event_id: str
    driver_id: str = field(compare=False)
    station_id: str = field(compare=False)
    duration_min: float = field(compare=False)
    energy_kwh: float = field(compare=False)

    def __post_init__(self):
        if not math.isfinite(self.duration_min) or not math.isfinite(self.energy_kwh):
            raise DomainError(NON_FINITE.format(self.event_id))
        if self.duration_min < 0:
            raise DomainError(NEGATIVE_DURATION.format(self.event_id))
        if self.duration_min > MAX_DURATION_MIN:
            raise DomainError(OVER_ONE_WEEK.format(self.event_id))
        if self.energy_kwh < 0:
            raise DomainError(NEGATIVE_ENERGY.format(self.event_id))


# The per-event arrays of `EventColumns`, in field order.
_PER_EVENT = ("event_id", "driver", "station", "start_us", "start_s", "duration_min", "energy_kwh", "id_rank", "row")


@dataclass(eq=False)
class EventColumns:
    """Charging events as columns, one array entry per event.

    A driver and a station are codes into the `drivers` and `stations` name
    tuples; a table that `build` makes names exactly the drivers and stations
    its events use, in order of first use. `start_us` is the start in exact
    microseconds since the epoch, the key that orders events, and `start_s`
    is the same instant as `datetime.timestamp()` gives it, the float that
    hours and wait minutes are computed from. `id_rank` orders the event ids
    as Python orders strings (a numpy string array would drop a trailing
    NUL), and `row` is each event's position in the table `build` made, so
    every table taken from that one can index its per-event work.

    Only indexing with an int, or iterating, builds `ChargingEvent`s, for the
    tests and the benchmark harness; a slice or `take` gives columns again,
    which share the name tuples.
    """

    event_id: np.ndarray      # object array of str
    driver: np.ndarray        # codes into `drivers`
    station: np.ndarray       # codes into `stations`
    start_us: np.ndarray      # int64
    start_s: np.ndarray
    duration_min: np.ndarray
    energy_kwh: np.ndarray
    id_rank: np.ndarray
    row: np.ndarray
    drivers: tuple[str, ...]
    stations: tuple[str, ...]

    @classmethod
    def build(cls, event_id: Sequence[str], driver_id: Sequence[str], station_id: Sequence[str],
              start_us, start_s, duration_min, energy_kwh) -> "EventColumns":
        """A table of one sequence per field, in event order; each start is
        given as its exact microseconds and its `timestamp()` seconds, as
        `_instant` gives them."""
        n = len(event_id)
        drivers, stations = tuple(dict.fromkeys(driver_id)), tuple(dict.fromkeys(station_id))
        id_rank = np.empty(n, dtype=np.intp)
        id_rank[sorted(range(n), key=event_id.__getitem__)] = np.arange(n)
        ids = np.empty(n, dtype=object)
        ids[:] = event_id
        return cls(
            ids,
            np.array(list(map({d: i for i, d in enumerate(drivers)}.__getitem__, driver_id)), dtype=np.intp),
            np.array(list(map({s: i for i, s in enumerate(stations)}.__getitem__, station_id)), dtype=np.intp),
            np.array(start_us, dtype=np.int64),
            np.array(start_s, dtype=float),
            np.array(duration_min, dtype=float),
            np.array(energy_kwh, dtype=float),
            id_rank,
            np.arange(n),
            drivers,
            stations,
        )

    @classmethod
    def concat(cls, parts: Sequence["EventColumns"]) -> "EventColumns":
        """The events of `parts`, in order. One part is returned as it is.
        Parts taken from one table are joined column by column, keeping its
        name tuples and rows; others, and no parts, go through `build`, which
        codes the names again and numbers the rows from 0."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.build([], [], [], [], [], [], [])
        if all(p.drivers is parts[0].drivers and p.stations is parts[0].stations for p in parts):
            return cls(*(np.concatenate([getattr(p, name) for p in parts]) for name in _PER_EVENT),
                       parts[0].drivers, parts[0].stations)
        columns = zip(*((p.event_id, np.array(p.drivers, dtype=object)[p.driver], p.station_id, p.start_us,
                         p.start_s, p.duration_min, p.energy_kwh) for p in parts))
        return cls.build(*map(np.concatenate, columns))

    def __len__(self) -> int:
        return self.event_id.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(key)
        i = range(len(self))[key]
        return ChargingEvent(EPOCH + timedelta(microseconds=int(self.start_us[i])), self.event_id[i],
                             self.drivers[self.driver[i]], self.stations[self.station[i]],
                             float(self.duration_min[i]), float(self.energy_kwh[i]))

    def __iter__(self) -> Iterator[ChargingEvent]:
        drivers, stations = self.drivers, self.stations
        for us, event_id, d, s, duration, energy in zip(
            self.start_us.tolist(), self.event_id.tolist(), self.driver.tolist(), self.station.tolist(),
            self.duration_min.tolist(), self.energy_kwh.tolist(),
        ):
            yield ChargingEvent(EPOCH + timedelta(microseconds=us), event_id, drivers[d], stations[s],
                                duration, energy)

    def take(self, rows) -> "EventColumns":
        """The events at `rows` (an index array, or a slice for views)."""
        return EventColumns(*(getattr(self, name)[rows] for name in _PER_EVENT), self.drivers, self.stations)

    def time_order(self) -> np.ndarray:
        """Positions by (start_time, event_id); a stable sort."""
        return np.lexsort((self.id_rank, self.start_us))

    def trajectory_order(self) -> np.ndarray:
        """Positions by (driver_id, start_time, event_id): every driver's
        trajectory in turn, drivers in id order."""
        rank = np.empty(len(self.drivers), dtype=np.intp)
        rank[sorted(range(len(self.drivers)), key=self.drivers.__getitem__)] = np.arange(len(self.drivers))
        return np.lexsort((self.id_rank, self.start_us, rank[self.driver]))

    @property
    def hours(self) -> np.ndarray:
        """The epoch hour of each start, as `reward.epoch_hour` gives it."""
        return np.floor_divide(self.start_s, 3600.0).astype(np.int64)

    @property
    def station_id(self) -> np.ndarray:
        """Each event's station id, an object array."""
        return np.array(self.stations, dtype=object)[self.station]

    def station_cols(self, index) -> np.ndarray:
        """Each event's station column in the `geospatial.StationIndex`
        `index`; a station it does not list is an UnknownStationError."""
        lookup = map(index.index.get, self.stations, repeat(-1))
        cols = np.fromiter(lookup, dtype=np.int64, count=len(self.stations))[self.station]
        if cols.size and cols.min() < 0:
            raise UnknownStationError(f"unknown station {self.stations[self.station[np.argmin(cols)]]!r}")
        return cols


@dataclass(frozen=True)
class RejectedRow:
    line_no: int
    raw: str
    reason: str


@dataclass(eq=False)
class DriverTrajectory:
    """A driver's charging events as columns, ascending by (start_time,
    event_id)."""

    driver_id: str
    events: EventColumns

    def __len__(self) -> int:
        return len(self.events)


# Chronological split: the first 80% of a driver's events train, the next 10%
# validate and the rest test.
TRAIN_FRAC = 0.8
VAL_FRAC = 0.1


@dataclass(eq=False)
class Split:
    """A driver's train, validation and test segments, column views of their
    trajectory."""

    train: EventColumns
    val: EventColumns
    test: EventColumns


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

@contextmanager
def open_csv(path: str | Path) -> Iterator[TextIO]:
    """Open a UTF-8 CSV file to read; a path that is not a regular file, or a
    byte that is not UTF-8 or a field over the csv module's size limit, met in
    the block, is a DataFormatError."""
    require_regular_file(path, DataFormatError)
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataFormatError(f"{path}: {exc}") from exc


def _parse_timestamp(value: str) -> datetime:
    v = value.strip()
    if v.endswith("Z"):
        v = v[:-1] + "+00:00"
    dt = datetime.fromisoformat(v)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError as exc:
        raise ValueError(f"timestamp {value!r} is out of range in UTC") from exc


def _parse_uk_datetime(date_s: str, time_s: str) -> datetime:
    """dd/mm/yyyy plus HH:MM[:SS], assumed UTC (ISO dates accepted too)."""
    date_s, time_s = date_s.strip(), time_s.strip()
    for fmt in ("%d/%m/%Y", "%Y-%m-%d"):
        try:
            d = datetime.strptime(date_s, fmt)
            break
        except ValueError:
            continue
    else:
        raise ValueError(f"unrecognized date {date_s!r}")
    parts = time_s.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"unrecognized time {time_s!r}")
    h, m = int(parts[0]), int(parts[1])
    s = int(parts[2]) if len(parts) == 3 else 0
    return d.replace(hour=h, minute=m, second=s, tzinfo=timezone.utc)


def _row_dict(header: list[str], row: list[str]) -> dict:
    """`row` keyed by `header` as `csv.DictReader` keys it: a repeated name
    reads its last field, a short row's missing fields read as empty ones
    and a long row's extra fields are listed under None."""
    out: dict = dict(zip(header, row + [""] * (len(header) - len(row))))
    if len(row) > len(header):
        out[None] = row[len(header):]
    return out


def _raw_text(header: list[str], row: list[str]) -> str:
    """A rejected row's text: its `_row_dict` values joined by commas."""
    return ",".join(str(v) for v in _row_dict(header, row).values())


def _lookup(row: dict[str, str], aliases: Sequence[str], what: str) -> str:
    for key in aliases:
        if key in row and row[key] is not None and row[key].strip() != "":
            return row[key]
    raise ValueError(f"missing {what} column (tried {', '.join(aliases)})")


def _session_row(row: dict[str, str], line_no: int, prefix: str) -> tuple:
    """Shared mapper for the Dundee/Glasgow session layouts: a row's
    `CANONICAL_HEADER` fields, whose values `parse_events` checks as it
    checks the canonical layout's. It builds no `ChargingEvent`; the
    reference parser of the tests wraps its fields into one.

    Expects per-transaction rows with a charge-point id, user id, start/end
    date+time and consumed energy; headers are matched case-insensitively
    against a small alias set because the two portals label them differently.
    """
    low = {k.strip().lower(): v for k, v in row.items() if k is not None}
    station = _lookup(low, ("cp id", "cp_id", "cpid", "station_id", "charging station id"), "station id")
    driver = _lookup(low, ("user id", "user_id", "userid", "driver_id"), "user id")
    energy = float(_lookup(low, ("total kwh", "total_kwh", "consumed_kwh", "consumed kwh", "kwh", "energy_kwh"), "energy"))
    try:
        event_id = _lookup(low, ("charging event id", "event_id", "charging event", "session id"), "event id").strip()
    except ValueError:
        event_id = f"{prefix}-{line_no:06d}"

    start_dt_combined = low.get("start_datetime") or low.get("start")
    if start_dt_combined:
        start = _parse_timestamp(start_dt_combined)
        end_combined = low.get("end_datetime") or low.get("end")
        end = _parse_timestamp(end_combined) if end_combined else None
    else:
        start = _parse_uk_datetime(
            _lookup(low, ("start date", "start_date"), "start date"),
            _lookup(low, ("start time", "start_time"), "start time"),
        )
        end = None
        if ("end date" in low or "end_date" in low) and (low.get("end date") or low.get("end_date")):
            end = _parse_uk_datetime(
                _lookup(low, ("end date", "end_date"), "end date"),
                _lookup(low, ("end time", "end_time"), "end time"),
            )

    if "duration_min" in low or "duration" in low:
        duration = float(_lookup(low, ("duration_min", "duration"), "duration"))
    elif end is not None:
        duration = (end - start).total_seconds() / 60.0
    else:
        raise ValueError("no duration or end time")

    return event_id, driver.strip(), station.strip(), start, duration, energy


class _StartCodes:
    """The start instants of one parse, each under an integer code, as
    `_instant` gives them. `of_text` parses each distinct start string once
    and keeps only the strings that parse, so a string that fails raises
    again on every row that holds it."""

    def __init__(self):
        self.instants: list[tuple[int, float]] = []
        self._code_of: dict[str, int] = {}

    def of_time(self, start: datetime) -> int:
        self.instants.append(_instant(start))
        return len(self.instants) - 1

    def of_text(self, text: str) -> int:
        code = self._code_of.get(text)
        if code is None:
            code = self._code_of[text] = self.of_time(_parse_timestamp(text))
        return code


def _canonical_layout(header: list[str], path: Path, starts: _StartCodes):
    """The canonical layout's two converters, both reading fields by header
    position (a repeated name reads its last field) and giving each start
    as its code in `starts`: `fields(row, line_no)` gives one row's
    `CANONICAL_HEADER` fields, converted in that order, and `columns(rows)` a
    block's, one list per field."""
    missing = [c for c in CANONICAL_HEADER if c not in header]
    if missing:
        raise DataFormatError(f"{path}: missing canonical columns {missing}")
    at = {name: i for i, name in enumerate(header)}
    i_id, i_driver, i_station, i_start, i_duration, i_energy = (at[c] for c in CANONICAL_HEADER)

    def fields(row: list[str], line_no: int) -> tuple:
        return (row[i_id].strip(), row[i_driver].strip(), row[i_station].strip(),
                starts.of_text(row[i_start]), float(row[i_duration]), float(row[i_energy]))

    def columns(rows: list[list[str]]) -> tuple:
        cols = list(zip(*rows))
        return (list(map(str.strip, cols[i_id])), list(map(str.strip, cols[i_driver])),
                list(map(str.strip, cols[i_station])), list(map(starts.of_text, cols[i_start])),
                list(map(float, cols[i_duration])), list(map(float, cols[i_energy])))
    return fields, columns


# Rows read before they are converted and checked together; the parse holds
# no more raw rows than this, so its memory does not grow with the file.
_BLOCK_ROWS = 1024


def _failed_checks(duration: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """The number (1-4, 0 for none) of the first value check each event fails,
    with array masks: NON_FINITE, NEGATIVE_DURATION, OVER_ONE_WEEK or
    NEGATIVE_ENERGY, in the order `ChargingEvent` raises them."""
    masks = (~(np.isfinite(duration) & np.isfinite(energy)), duration < 0, duration > MAX_DURATION_MIN, energy < 0)
    failed = np.zeros(duration.shape, dtype=np.intp)
    for k in range(len(masks), 0, -1):
        failed[masks[k - 1]] = k
    return failed


_CHECK_REASONS = (None, NON_FINITE, NEGATIVE_DURATION, OVER_ONE_WEEK, NEGATIVE_ENERGY)


def _parse_rows(reader, header: list[str], to_fields, to_columns,
                starts: _StartCodes) -> tuple[EventColumns, list[RejectedRow]]:
    """Every layout in one pass, a block of up to `_BLOCK_ROWS` rows at a time.

    `to_columns(rows)`, which only the canonical layout has (None for the
    others), converts a block column by column. A block it cannot convert,
    and every block of the other layouts, is converted row by row instead:
    `to_fields(row, line_no)` gives a row's `CANONICAL_HEADER` fields or
    raises ValueError, which rejects the row. Both give each start as its
    code in `starts`; the canonical layout's parse each distinct start string
    once per call, in either path. The converted rows' values are then
    checked at once with array masks: a block whose values pass and whose
    ids are new is accepted whole, any other is checked row by row, in
    order. So every reject keeps its line, its text and its first reason."""
    width = len(header)
    accepted: list[list] = [[] for _ in CANONICAL_HEADER]  # per field; starts as codes
    rejects: list[RejectedRow] = []
    seen: set[str] = set()
    rows: list[list[str]] = []  # the rows of the block, and their line numbers
    lines: list[int] = []

    def check(line_nos: Sequence[int], raw_rows: Sequence[list[str]], columns: Sequence[Sequence]) -> None:
        ids = columns[0]
        failed = _failed_checks(np.array(columns[4]), np.array(columns[5]))
        fresh = set(ids)
        if len(fresh) == len(ids) and seen.isdisjoint(fresh) and not failed.any():
            seen.update(fresh)
            for column, values in zip(accepted, columns):
                column.extend(values)
            return
        for i, (line_no, row, event_id, k) in enumerate(zip(line_nos, raw_rows, ids, failed.tolist())):
            if k or event_id in seen:
                reason = _CHECK_REASONS[k].format(event_id) if k else "duplicate event_id"
                rejects.append(RejectedRow(line_no, _raw_text(header, row), reason))
                continue
            seen.add(event_id)
            for column, values in zip(accepted, columns):
                column.append(values[i])

    def check_block() -> None:
        if to_columns is not None:
            try:
                columns = to_columns(rows)
            except ValueError:
                pass
            else:
                check(lines, rows, columns)
                return
        converted = []  # (line number, row, fields) of the rows that convert
        for line_no, row in zip(lines, rows):
            try:
                converted.append((line_no, row, to_fields(row, line_no)))
            except ValueError as exc:
                rejects.append(RejectedRow(line_no, _raw_text(header, row), str(exc)))
        if converted:
            kept_lines, kept_rows, fields = zip(*converted)
            check(kept_lines, kept_rows, tuple(zip(*fields)))

    for row in reader:
        if not row:
            continue  # a blank line, which csv.DictReader skips too
        line_no = reader.line_num  # physical lines read, so blank lines and quoted newlines count
        if len(row) != width:
            if len(row) > width:
                rejects.append(RejectedRow(line_no, _raw_text(header, row),
                                           f"row has {len(row)} fields, header has {width}"))
                continue
            # A short row's missing fields read as empty ones, which are
            # rejected as an empty field in the file is.
            row = row + [""] * (width - len(row))
        rows.append(row)
        lines.append(line_no)
        if len(rows) == _BLOCK_ROWS:
            check_block()
            rows.clear()
            lines.clear()
    if rows:
        check_block()
    rejects.sort(key=lambda r: r.line_no)
    ids, drivers, stations, codes, durations, energies = accepted
    instants = np.array(starts.instants, dtype=[("us", np.int64), ("s", float)])[np.array(codes, dtype=np.intp)]
    return EventColumns.build(ids, drivers, stations, instants["us"], instants["s"], durations, energies), rejects


def parse_events(source: str | Path, adapter: str = "canonical") -> tuple[EventColumns, list[RejectedRow]]:
    """Parse a raw event file into event columns, in file order, plus a
    rejects report.

    Malformed rows are collected, never silently dropped: a row with more
    fields than the header, a value that does not convert or fails a check,
    or an event_id that repeats an earlier accepted row's. Each reject gives
    its line number, its text and the first reason. Raises DataFormatError
    when more than half of the data rows are rejected.
    """
    if adapter not in ADAPTERS:
        raise UsageError(f"unknown adapter {adapter!r}; expected one of {ADAPTERS}")
    path = Path(source)
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        starts = _StartCodes()
        if adapter == "canonical":
            to_fields, to_columns = _canonical_layout(header, path, starts)
        else:
            to_columns = None

            def to_fields(row: list[str], line_no: int) -> tuple:
                fields = _session_row(_row_dict(header, row), line_no, adapter)
                return fields[:3] + (starts.of_time(fields[3]),) + fields[4:]
        events, rejects = _parse_rows(reader, header, to_fields, to_columns, starts)
    total = len(events) + len(rejects)
    if total > 0 and len(rejects) > total / 2:
        raise DataFormatError(
            f"{path}: {len(rejects)}/{total} rows rejected; wrong adapter or corrupt file"
        )
    if rejects:
        logger.warning("%s: rejected %d of %d rows", path, len(rejects), total)
    return events, rejects


def _float_text(x: float) -> str:
    """`repr(x)`, the shortest text that reads back to `x`, without a
    trailing `.0`, so a whole number of up to six digits keeps the text
    `format(x, "g")` gave it."""
    text = repr(x)
    return text[:-2] if text.endswith(".0") else text


def _start_text(start_us: int) -> str:
    """A start in microseconds since the epoch as ISO-8601 UTC with a `Z`,
    the year in four digits and microseconds only when there are any."""
    return (datetime(1970, 1, 1) + timedelta(microseconds=start_us)).isoformat() + "Z"


def write_events(events: EventColumns, path: str | Path) -> None:
    """Serialize event columns as canonical CSV (LF line endings), each row
    read from the columns, in table order, with no `ChargingEvent` between.
    It reads back to the same events bit for bit: starts as `_start_text`,
    durations and energies as `_float_text`."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CANONICAL_HEADER)
        writer.writerows(zip(events.event_id.tolist(), map(events.drivers.__getitem__, events.driver.tolist()),
                             map(events.stations.__getitem__, events.station.tolist()),
                             map(_start_text, events.start_us.tolist()), map(_float_text, events.duration_min.tolist()),
                             map(_float_text, events.energy_kwh.tolist())))


def write_rejects(rejects: Iterable[RejectedRow], path: str | Path) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["line_no", "raw", "reason"])
        for r in rejects:
            writer.writerow([r.line_no, r.raw, r.reason])


# ---------------------------------------------------------------------------
# Trajectories and splits
# ---------------------------------------------------------------------------

def build_trajectories(events: EventColumns) -> dict[str, DriverTrajectory]:
    """Group by driver and sort by (start_time, event_id): the events are
    taken once in `trajectory_order`, and each driver's trajectory is a view
    of that table."""
    table = events.take(events.trajectory_order())
    drivers = table.driver
    cuts = [0, *(np.flatnonzero(drivers[1:] != drivers[:-1]) + 1).tolist(), len(table)]
    out = {}
    for lo, hi in zip(cuts, cuts[1:]):
        if hi > lo:
            driver_id = table.drivers[drivers[lo]]
            out[driver_id] = DriverTrajectory(driver_id, table[lo:hi])
    return out


def chronological_split(traj: DriverTrajectory) -> Split:
    """Order-preserving train/val/test segments.

    train = first floor(TRAIN_FRAC*n), val = next max(1, floor(VAL_FRAC*n)),
    test = remainder; train is reduced when the floors would leave the test
    segment empty, so all three segments are non-empty for n >= 3.
    """
    n = len(traj)
    if n < 3:
        raise DomainError(f"driver {traj.driver_id}: {n} events is too few to split")
    n_train = math.floor(TRAIN_FRAC * n)
    n_val = max(1, math.floor(VAL_FRAC * n))
    if n_train + n_val >= n:
        n_train = n - n_val - 1
    ev = traj.events
    return Split(ev[:n_train], ev[n_train : n_train + n_val], ev[n_train + n_val :])


def split_all(trajectories: dict[str, DriverTrajectory]) -> tuple[dict[str, Split], list[str]]:
    """Split every driver; returns (splits, excluded driver ids)."""
    splits: dict[str, Split] = {}
    excluded: list[str] = []
    for driver_id, traj in trajectories.items():
        try:
            splits[driver_id] = chronological_split(traj)
        except DomainError:
            excluded.append(driver_id)
    if excluded:
        logger.info("excluded %d drivers with fewer than 3 events from evaluation", len(excluded))
    return splits, excluded


# ---------------------------------------------------------------------------
# Warm-up pool
# ---------------------------------------------------------------------------

# A driver with more than WARMUP_MIN_EVENTS events gives their earliest
# max(1, floor(WARMUP_FRAC * n)) events to the pool.
WARMUP_FRAC = 0.05
WARMUP_MIN_EVENTS = 10
WARMUP_SALT = "warmup"


def anonymize_driver(driver_id: str, salt: str) -> str:
    return "anon-" + hashlib.sha256(f"{salt}:{driver_id}".encode("utf-8")).hexdigest()[:12]


def warmup_cut_counts(trajectories: dict[str, DriverTrajectory]) -> dict[str, int]:
    """How many leading events each driver gives to the warm-up pool."""
    return {
        driver_id: max(1, math.floor(WARMUP_FRAC * len(traj))) if len(traj) > WARMUP_MIN_EVENTS else 0
        for driver_id, traj in trajectories.items()
    }


def warmup_pool(trajectories: dict[str, DriverTrajectory]) -> EventColumns:
    """Each driver's `warmup_cut_counts` leading events, in driver-id order.

    Driver identity is replaced by a salted-hash token so the pool can be
    shared without user information.
    """
    cuts = warmup_cut_counts(trajectories)
    pool = EventColumns.concat([trajectories[d].events[: cuts[d]] for d in sorted(trajectories)])
    return replace(pool, drivers=tuple(anonymize_driver(d, WARMUP_SALT) for d in pool.drivers))
