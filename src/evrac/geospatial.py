"""Station location context: geodesic distances, one-hot station coding and
the 76-type POI neighborhood distribution."""

from __future__ import annotations

import copy
import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import EventColumns, open_csv
from .errors import ConfigError, DataFormatError, DomainError, UnknownStationError

logger = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0

# Fixed neighborhood taxonomy: 76 place types, index = position in this tuple.
POI_TYPES = (
    "accounting", "airport", "amusement_park", "aquarium", "art_gallery", "atm",
    "bakery", "bank", "bar", "beauty_salon", "bicycle_store", "book_store",
    "bowling_alley", "bus_station", "cafe", "campground", "car_dealer",
    "car_rental", "car_repair", "car_wash", "casino", "cemetery", "church",
    "city_hall", "clothing_store", "convenience_store", "courthouse", "dentist",
    "department_store", "doctor", "electrician", "electronics_store", "embassy",
    "fire_station", "florist", "funeral_home", "furniture_store", "gas_station",
    "gym", "hair_care", "hardware_store", "hospital", "insurance_agency",
    "jewelry_store", "laundry", "lawyer", "library", "liquor_store",
    "local_government_office", "locksmith", "lodging", "meal_delivery",
    "meal_takeaway", "mosque", "movie_rental", "movie_theater", "moving_company",
    "museum", "night_club", "painter", "park", "parking", "pet_store",
    "pharmacy", "physiotherapist", "plumber", "police", "post_office",
    "real_estate_agency", "restaurant", "roofing_contractor", "school",
    "shoe_store", "shopping_mall", "spa", "stadium",
)
NUM_POI_TYPES = len(POI_TYPES)
assert NUM_POI_TYPES == 76


@dataclass(frozen=True)
class Station:
    """A charging station as the input files give it: id, coordinates and
    POI counts. Values derived from training data, such as the reward norms,
    are `StationIndex` column arrays."""

    station_id: str
    latitude: float
    longitude: float
    poi_counts: np.ndarray  # 76 non-negative ints

    def __post_init__(self):
        _check_coords(self.latitude, self.longitude)
        counts = np.asarray(self.poi_counts, dtype=float)
        if counts.shape != (NUM_POI_TYPES,) or np.any(counts < 0):
            raise DomainError(
                f"station {self.station_id}: POI vector must be {NUM_POI_TYPES} non-negative counts"
            )
        object.__setattr__(self, "poi_counts", counts)


def _check_coords(lat: float, lon: float) -> None:
    if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
        raise DomainError(f"coordinates out of range: ({lat}, {lon})")


def haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km on a sphere of radius 6371.0 km."""
    _check_coords(lat1, lon1)
    _check_coords(lat2, lon2)
    return _haversine(lat1, lon1, lat2, lon2)


def _haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """`haversine` on coordinates already checked to be in range."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def normalize_poi(counts: np.ndarray) -> np.ndarray:
    """Counts -> distribution summing to 1, or all-zero when there are no POIs."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        return np.zeros_like(counts)
    return counts / total


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------

def load_stations(path: str | Path) -> dict[str, Station]:
    """Read `station_id,latitude,longitude` CSV, one full row per station."""
    out: dict[str, Station] = {}
    with open_csv(path) as fh:
        reader = csv.DictReader(fh)
        required = {"station_id", "latitude", "longitude"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataFormatError(f"{path}: expected columns {sorted(required)}")
        for row in reader:
            line_no = reader.line_num  # physical lines read, so blank lines and quoted newlines count
            # DictReader pads a short row with None and keys a long row's extras by None.
            if None in row or None in row.values():
                raise DataFormatError(f"{path}:{line_no}: expected {len(reader.fieldnames)} fields")
            sid = row["station_id"].strip()
            if sid in out:
                raise DataFormatError(f"{path}:{line_no}: duplicate station_id {sid!r}")
            try:
                out[sid] = Station(
                    station_id=sid,
                    latitude=float(row["latitude"]),
                    longitude=float(row["longitude"]),
                    poi_counts=np.zeros(NUM_POI_TYPES),
                )
            except (ValueError, DomainError) as exc:
                raise DataFormatError(f"{path}:{line_no}: {exc}") from exc
    return out


def load_poi(path: str | Path, station_ids: Sequence[str]) -> dict[str, np.ndarray]:
    """Read `station_id,c0,...,c75` CSV, one row per station; absent stations get zeros."""
    parsed: dict[str, np.ndarray] = {}
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "station_id" or len(header) != 1 + NUM_POI_TYPES:
            raise DataFormatError(
                f"{path}: expected header station_id,c0..c{NUM_POI_TYPES - 1}"
            )
        for row in reader:
            if not row:
                continue  # a blank line, skipped as DictReader skips it in the other loaders
            line_no = reader.line_num  # physical lines read, so blank lines and quoted newlines count
            if len(row) != 1 + NUM_POI_TYPES:
                raise DataFormatError(f"{path}:{line_no}: expected {1 + NUM_POI_TYPES} columns")
            sid = row[0].strip()
            if sid in parsed:
                raise DataFormatError(f"{path}:{line_no}: duplicate station_id {sid!r}")
            try:
                vec = np.array([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{line_no}: {exc}") from exc
            if not np.all(np.isfinite(vec)):
                raise DataFormatError(f"{path}:{line_no}: non-finite POI count")
            if np.any(vec < 0):
                raise DataFormatError(f"{path}:{line_no}: negative POI count")
            parsed[sid] = vec
    out = {}
    for sid in station_ids:
        if sid in parsed:
            out[sid] = parsed[sid]
        else:
            logger.warning("station %s missing from POI file; using zero vector", sid)
            out[sid] = np.zeros(NUM_POI_TYPES)
    return out


# ---------------------------------------------------------------------------
# Station index and location contexts
# ---------------------------------------------------------------------------

class StationIndex:
    """Ordered station set with a distance table, POI features, reward norms
    and the location context of an observation.

    Station order is the sorted id list, so indices are deterministic. Array
    code names a station by its column, its position in `order`. Every
    per-station value derived from training data is an array with one entry
    per column: `mean_wait` and `mean_dist` hold the reward norms, NaN until
    `with_norms` sets them.
    """

    def __init__(self, stations: dict[str, Station]):
        if not stations:
            raise ConfigError("empty station set")
        self.order: list[str] = sorted(stations)
        self.stations: dict[str, Station] = {sid: stations[sid] for sid in self.order}
        self.index: dict[str, int] = {sid: i for i, sid in enumerate(self.order)}
        self.poi_matrix = np.stack(
            [normalize_poi(self.stations[sid].poi_counts) for sid in self.order]
        )
        # All pairwise distances in km, built once: rows and columns follow
        # `order`, and each entry is the haversine of that pair. The scalar
        # formula is bitwise symmetric and 0 on the diagonal, so only the
        # pairs above the diagonal are computed; `Station` checked the coordinates.
        coords = [(st.latitude, st.longitude) for st in self.stations.values()]
        self.distances = np.zeros((len(coords), len(coords)))
        for i, a in enumerate(coords):
            for j in range(i + 1, len(coords)):
                self.distances[i, j] = self.distances[j, i] = _haversine(*a, *coords[j])
        self.mean_wait = np.full(len(coords), np.nan)
        self.mean_dist = np.full(len(coords), np.nan)
        # Each station's location context with no previous station, one row
        # per column: the station table of the forecaster's first layer.
        self.contexts = self.context(np.arange(len(coords)), np.full(len(coords), -1))
        self.contexts.setflags(write=False)

    def __len__(self) -> int:
        return len(self.order)

    def index_of(self, station_id: str) -> int:
        if station_id not in self.index:
            raise UnknownStationError(f"unknown station {station_id!r}")
        return self.index[station_id]

    def distance(self, from_id: str, to_id: str) -> float:
        return float(self.distances[self.index_of(from_id), self.index_of(to_id)])

    def context(self, cols: np.ndarray, prev_cols: np.ndarray) -> np.ndarray:
        """Location features of one observation per row, `(len(cols),
        context_width())`: [distance from station column `prev_cols[i]` ||
        one-hot of station column `cols[i]` || its normalized POI
        distribution]. A previous column of -1 means no previous station
        (distance 0), as at the start of a history."""
        cols = np.asarray(cols, dtype=np.int64)
        prev_cols = np.asarray(prev_cols, dtype=np.int64)
        out = np.zeros((cols.size, self.context_width()))
        out[:, 0] = np.where(prev_cols >= 0, self.distances[prev_cols, cols], 0.0)
        out[np.arange(cols.size), 1 + cols] = 1.0
        out[:, 1 + len(self.order) :] = self.poi_matrix[cols]
        return out

    def context_width(self) -> int:
        return 1 + len(self.order) + NUM_POI_TYPES

    def with_norms(self, mean_wait: np.ndarray, mean_dist: np.ndarray) -> "StationIndex":
        """A copy that holds the reward norms `mean_wait` and `mean_dist`, one
        entry per column, and shares everything else with this index."""
        out = copy.copy(self)
        out.mean_wait, out.mean_dist = mean_wait, mean_dist
        return out


def station_norms(
    events: EventColumns,
    index: StationIndex,
    series: dict,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (mean wait, mean arrival distance) arrays from training
    events and their wait series (`reward.build_wait_series(events)`).

    Mean wait averages the occupied (positive) hourly wait-proxy buckets; mean
    distance averages the geodesic hop previous->current over observed
    arrivals. Degenerate stations (no occupancy / no arrivals with a previous
    station) fall back to the global means so both norms stay positive.
    """
    if not len(events):
        raise ConfigError("station norms need at least one training event")
    m = len(index)
    mean_wait = np.zeros(m)
    all_positive: list[float] = []
    for col, sid in enumerate(index.order):
        buckets = series[sid].buckets if sid in series else {}
        positive = [v for v in buckets.values() if v > 0]
        all_positive.extend(positive)
        if positive:
            mean_wait[col] = np.mean(positive)
    global_wait = float(np.mean(all_positive)) if all_positive else 1.0

    # Every hop previous -> current of each driver's trajectory, drivers in id
    # order, in one table lookup. bincount adds each column's hops one by one
    # in hop order, as a running sum would.
    order = events.trajectory_order()
    cols, drivers = events.station_cols(index)[order], events.driver[order]
    same = drivers[1:] == drivers[:-1]
    cur = cols[1:][same]
    hops = index.distances[cols[:-1][same], cur]
    positive_hops = hops[hops > 0]
    global_dist = float(np.mean(positive_hops)) if positive_hops.size else 1.0

    counts = np.bincount(cur, minlength=m)
    hop_sums = np.bincount(cur, weights=hops, minlength=m)
    mean_dist = np.divide(hop_sums, counts, out=np.zeros(m), where=counts > 0)
    return (np.where(mean_wait > 0, mean_wait, global_wait),
            np.where(mean_dist > 0, mean_dist, global_dist))
