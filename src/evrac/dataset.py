"""Charging-event ingestion, per-driver trajectories, chronological splits
and the anonymized warm-up pool."""

from __future__ import annotations

import csv
import hashlib
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import DataFormatError, DomainError, UsageError, require_regular_file

logger = logging.getLogger(__name__)

CANONICAL_HEADER = ["event_id", "driver_id", "station_id", "start_time", "duration_min", "energy_kwh"]

ADAPTERS = ("canonical", "dundee", "glasgow")

# Longest accepted session, one week in minutes. Wait-series building walks
# every clock hour a session covers, so an unbounded duration is unbounded work.
MAX_DURATION_MIN = 7 * 24 * 60


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
            raise DomainError(f"non-finite duration or energy for event {self.event_id}")
        if self.duration_min < 0:
            raise DomainError(f"negative duration for event {self.event_id}")
        if self.duration_min > MAX_DURATION_MIN:
            raise DomainError(
                f"duration over one week ({MAX_DURATION_MIN} min) for event {self.event_id}"
            )
        if self.energy_kwh < 0:
            raise DomainError(f"negative energy for event {self.event_id}")


@dataclass(frozen=True)
class RejectedRow:
    line_no: int
    raw: str
    reason: str


@dataclass
class DriverTrajectory:
    """A driver's charging events, ascending by (start_time, event_id)."""

    driver_id: str
    events: list[ChargingEvent]

    def __len__(self) -> int:
        return len(self.events)


# Chronological split: the first 80% of a driver's events train, the next 10%
# validate and the rest test.
TRAIN_FRAC = 0.8
VAL_FRAC = 0.1


@dataclass
class Split:
    train: list[ChargingEvent]
    val: list[ChargingEvent]
    test: list[ChargingEvent]


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


def _canonical_row(row: dict[str, str], line_no: int) -> ChargingEvent:
    return ChargingEvent(
        event_id=row["event_id"].strip(),
        driver_id=row["driver_id"].strip(),
        station_id=row["station_id"].strip(),
        start_time=_parse_timestamp(row["start_time"]),
        duration_min=float(row["duration_min"]),
        energy_kwh=float(row["energy_kwh"]),
    )


def _lookup(row: dict[str, str], aliases: Sequence[str], what: str) -> str:
    for key in aliases:
        if key in row and row[key] is not None and row[key].strip() != "":
            return row[key]
    raise ValueError(f"missing {what} column (tried {', '.join(aliases)})")


def _session_row(row: dict[str, str], line_no: int, prefix: str) -> ChargingEvent:
    """Shared mapper for the Dundee/Glasgow session layouts.

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

    return ChargingEvent(
        event_id=event_id,
        driver_id=driver.strip(),
        station_id=station.strip(),
        start_time=start,
        duration_min=duration,
        energy_kwh=energy,
    )


def parse_events(
    source: str | Path, adapter: str = "canonical"
) -> tuple[list[ChargingEvent], list[RejectedRow]]:
    """Parse a raw event file into canonical events plus a rejects report.

    Malformed rows are collected, never silently dropped; so is a row whose
    event_id repeats an earlier row's. Raises DataFormatError when more than
    half of the data rows are rejected.
    """
    if adapter not in ADAPTERS:
        raise UsageError(f"unknown adapter {adapter!r}; expected one of {ADAPTERS}")
    path = Path(source)
    events: list[ChargingEvent] = []
    rejects: list[RejectedRow] = []
    seen: set[str] = set()
    with open_csv(path) as fh:
        # A short row's missing fields read as empty ones, which the adapters
        # reject as they would an empty field in the file.
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None:
            raise DataFormatError(f"{path}: empty file")
        if adapter == "canonical":
            missing = [c for c in CANONICAL_HEADER if c not in reader.fieldnames]
            if missing:
                raise DataFormatError(f"{path}: missing canonical columns {missing}")
        for row in reader:
            line_no = reader.line_num  # physical lines read, so blank lines and quoted newlines count
            try:
                if adapter == "canonical":
                    event = _canonical_row(row, line_no)
                else:
                    event = _session_row(row, line_no, adapter)
                if event.event_id in seen:
                    raise ValueError("duplicate event_id")
            except (ValueError, KeyError, DomainError) as exc:
                # The adapters never change `row`, so its text can wait for a reject.
                raw = ",".join(str(v) for v in row.values())
                rejects.append(RejectedRow(line_no, raw, str(exc)))
                continue
            seen.add(event.event_id)
            events.append(event)
    total = len(events) + len(rejects)
    if total > 0 and len(rejects) > total / 2:
        raise DataFormatError(
            f"{path}: {len(rejects)}/{total} rows rejected; wrong adapter or corrupt file"
        )
    if rejects:
        logger.warning("%s: rejected %d of %d rows", path, len(rejects), total)
    return events, rejects


def write_events(events: Iterable[ChargingEvent], path: str | Path) -> None:
    """Serialize events as canonical CSV (ISO-8601 UTC, LF line endings)."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CANONICAL_HEADER)
        for e in events:
            writer.writerow(
                [
                    e.event_id,
                    e.driver_id,
                    e.station_id,
                    e.start_time.strftime("%Y-%m-%dT%H:%M:%SZ"),
                    format(e.duration_min, "g"),
                    format(e.energy_kwh, "g"),
                ]
            )


def write_rejects(rejects: Iterable[RejectedRow], path: str | Path) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["line_no", "raw", "reason"])
        for r in rejects:
            writer.writerow([r.line_no, r.raw, r.reason])


# ---------------------------------------------------------------------------
# Trajectories and splits
# ---------------------------------------------------------------------------

def build_trajectories(events: Iterable[ChargingEvent]) -> dict[str, DriverTrajectory]:
    """Group by driver and sort by (start_time, event_id)."""
    by_driver: dict[str, list[ChargingEvent]] = {}
    for e in events:
        by_driver.setdefault(e.driver_id, []).append(e)
    out = {}
    for driver_id in sorted(by_driver):
        evs = sorted(by_driver[driver_id], key=lambda e: (e.start_time, e.event_id))
        out[driver_id] = DriverTrajectory(driver_id, evs)
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


def warmup_pool(trajectories: dict[str, DriverTrajectory]) -> list[ChargingEvent]:
    """Each driver's `warmup_cut_counts` leading events, in driver-id order.

    Driver identity is replaced by a salted-hash token so the pool can be
    shared without user information.
    """
    cuts = warmup_cut_counts(trajectories)
    return [
        replace(e, driver_id=anonymize_driver(driver_id, WARMUP_SALT))
        for driver_id in sorted(trajectories)
        for e in trajectories[driver_id].events[: cuts[driver_id]]
    ]
