"""Ingestion, trajectories, splits, warm-up pool and SOC proxy."""

import copy
import csv
import io
import math
import struct
from datetime import datetime, timedelta, timezone
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import T0, make_event, make_stations, mutated_rows
from evrac import dataset
from evrac.agent import ObservationSpace
from evrac.cli import main
from evrac.dataset import EventColumns
from evrac.errors import ConfigError, DataFormatError, DomainError, EvracError, UsageError


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Canonical parsing
# ---------------------------------------------------------------------------

def test_parse_canonical_row(tmp_path):
    path = _write(
        tmp_path,
        "ev.csv",
        "event_id,driver_id,station_id,start_time,duration_min,energy_kwh\n"
        "e1,d1,cs7,2018-06-06T08:30:00Z,45,11.2\n",
    )
    events, rejects = dataset.parse_events(path)
    assert rejects == []
    (e,) = events
    assert (e.event_id, e.driver_id, e.station_id) == ("e1", "d1", "cs7")
    assert e.duration_min == 45.0
    assert e.energy_kwh == 11.2
    assert e.start_time.tzinfo == timezone.utc
    assert (e.start_time.hour, e.start_time.minute) == (8, 30)


def test_negative_duration_goes_to_rejects(tmp_path):
    path = _write(
        tmp_path,
        "ev.csv",
        "event_id,driver_id,station_id,start_time,duration_min,energy_kwh\n"
        "e1,d1,cs7,2018-06-06T08:30:00Z,45,11.2\n"
        "e2,d1,cs7,2018-06-06T09:30:00Z,-5,1.0\n",
    )
    events, rejects = dataset.parse_events(path)
    assert len(events) == 1
    assert len(rejects) == 1
    assert rejects[0].line_no == 3
    assert "duration" in rejects[0].reason


def test_reject_line_numbers_count_blank_lines_and_quoted_newlines(tmp_path):
    path = _write(
        tmp_path,
        "ev.csv",
        "event_id,driver_id,station_id,start_time,duration_min,energy_kwh\n"
        "e1,d1,cs7,2018-06-06T08:30:00Z,45,11.2\n"
        "\n"
        "e2,d1,cs7,2018-06-06T09:30:00Z,-5,1.0\n"
        'e3,"d\n1",cs7,2018-06-06T10:30:00Z,30,4.0\n'
        "e4,d1,cs7,2018-06-06T11:30:00Z,-5,1.0\n",
    )
    events, rejects = dataset.parse_events(path)
    assert [e.event_id for e in events] == ["e1", "e3"]
    assert [r.line_no for r in rejects] == [4, 7]
    dataset.write_rejects(rejects, tmp_path / "rejects.csv")
    lines = (tmp_path / "rejects.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "7"]


@pytest.mark.parametrize("field", ["duration_min", "energy_kwh"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_event_values_are_rejected(field, value):
    values = {"duration_min": 30.0, "energy_kwh": 10.0, field: value}
    with pytest.raises(DomainError, match="non-finite"):
        dataset.ChargingEvent(start_time=T0, event_id="e1", driver_id="d1", station_id="cs0", **values)


@pytest.mark.parametrize("value", [1e7, 1e300])
def test_durations_over_one_week_are_rejected(value):
    with pytest.raises(DomainError, match="over one week"):
        dataset.ChargingEvent(
            start_time=T0, event_id="e1", driver_id="d1", station_id="cs0",
            duration_min=value, energy_kwh=10.0,
        )


def test_duration_of_exactly_one_week_is_accepted():
    assert dataset.MAX_DURATION_MIN == 10_080
    event = dataset.ChargingEvent(
        start_time=T0, event_id="e1", driver_id="d1", station_id="cs0",
        duration_min=10_080.0, energy_kwh=10.0,
    )
    assert event.duration_min == 10_080.0


def test_unknown_adapter():
    with pytest.raises(UsageError):
        dataset.parse_events("whatever.csv", "paris")


def test_missing_file_is_io_error():
    with pytest.raises(OSError):
        dataset.parse_events("/nonexistent/file.csv")


def test_majority_rejected_is_format_error(tmp_path):
    rows = ["event_id,driver_id,station_id,start_time,duration_min,energy_kwh"]
    rows += [f"e{i},d1,cs1,not-a-time,10,1" for i in range(8)]
    rows += ["ok1,d1,cs1,2018-06-06T08:30:00Z,10,1"]
    path = _write(tmp_path, "bad.csv", "\n".join(rows) + "\n")
    with pytest.raises(DataFormatError):
        dataset.parse_events(path)


def test_dundee_adapter_layout(tmp_path):
    path = _write(
        tmp_path,
        "dundee.csv",
        "CP ID,Connector,Start Date,Start Time,End Date,End Time,Total kWh,Site,Model,User ID\n"
        "50911,1,06/06/2018,08:30,06/06/2018,09:15,11.2,Somewhere,EVO,driver-9\n",
    )
    events, rejects = dataset.parse_events(path, "dundee")
    assert rejects == []
    (e,) = events
    assert e.event_id == "dundee-000002"  # no id column: the adapter and line number
    assert e.station_id == "50911"
    assert e.driver_id == "driver-9"
    assert e.duration_min == 45.0
    assert e.energy_kwh == 11.2
    assert e.start_time.day == 6 and e.start_time.month == 6


def test_glasgow_adapter_layout(tmp_path):
    path = _write(
        tmp_path,
        "glasgow.csv",
        "USER_ID,CP_ID,START_DATE,START_TIME,END_DATE,END_TIME,CONSUMED_KWH\n"
        "u7,G12,01/09/2013,22:10,02/09/2013,00:10,7.5\n",
    )
    events, rejects = dataset.parse_events(path, "glasgow")
    assert rejects == []
    (e,) = events
    assert e.station_id == "G12"
    assert e.driver_id == "u7"
    assert e.duration_min == 120.0


@pytest.mark.parametrize("adapter,header,rows", [
    ("canonical", "event_id,driver_id,station_id,start_time,duration_min,energy_kwh",
     ["e1,d1,cs0,2018-06-06T08:00:00Z,30,10",
      "e2,d1,cs1,2018-06-06T09:00:00Z,30,10",
      "e1,d2,cs2,2018-06-06T10:00:00Z,30,10"]),
    ("glasgow", "CHARGING EVENT ID,USER_ID,CP_ID,START_DATE,START_TIME,END_DATE,END_TIME,CONSUMED_KWH",
     ["s1,u1,G0,01/09/2013,08:00,01/09/2013,08:30,7.5",
      "s2,u1,G1,01/09/2013,09:00,01/09/2013,09:30,7.5",
      "s1,u2,G2,01/09/2013,10:00,01/09/2013,10:30,7.5"]),
])
def test_repeated_event_id_goes_to_rejects(tmp_path, adapter, header, rows):
    # Evaluation keys test events by id, so a repeated id would give two
    # events the same history cut.
    path = _write(tmp_path, "ev.csv", "\n".join([header] + rows) + "\n")
    events, rejects = dataset.parse_events(path, adapter)
    assert [(e.event_id, e.driver_id) for e in events] == [tuple(r.split(",")[:2]) for r in rows[:2]]
    assert [(r.line_no, r.reason) for r in rejects] == [(4, "duplicate event_id")]


# Good rows, a row with an extra field (accepted by the session adapters,
# rejected in the canonical layout), and then a repeated id (not in the
# Dundee layout, which has no id column), a short row and a rejected row with
# extra fields.
_REJECT_TEXT_CASES = [
    ("canonical", "event_id,driver_id,station_id,start_time,duration_min,energy_kwh",
     ["e1,d1,cs0,2018-06-06T08:00:00Z,30,10",
      "e2,d1,cs1,2018-06-06T09:00:00Z,30,10,extra",
      "e3,d2,cs0,2018-06-06T10:00:00Z,30,10",
      "e4,d2,cs2,2018-06-06T11:00:00Z,30,10",
      "e5,d2,cs1,2018-06-06T12:00:00Z,30,10",
      "e1,d3,cs2,2018-06-06T13:00:00Z,30,10",
      "e6,d1,cs2",
      'e7,d1,cs2,not-a-time,30,10,x,"y,z"']),
    ("glasgow", "CHARGING EVENT ID,USER_ID,CP_ID,START_DATE,START_TIME,END_DATE,END_TIME,CONSUMED_KWH",
     ["s1,u1,G0,01/09/2013,08:00,01/09/2013,08:30,7.5",
      "s2,u1,G1,01/09/2013,09:00,01/09/2013,09:30,7.5,extra",
      "s3,u2,G0,01/09/2013,10:00,01/09/2013,10:30,7.5",
      "s4,u2,G2,01/09/2013,11:00,01/09/2013,11:30,7.5",
      "s5,u2,G1,01/09/2013,12:00,01/09/2013,12:30,7.5",
      "s1,u3,G2,01/09/2013,13:00,01/09/2013,13:30,7.5",
      "s6,u1,G2,01/09/2013",
      "s7,u1,G2,99/99/2013,14:00,01/09/2013,14:30,7.5,x"]),
    ("dundee", "CP ID,Connector,Start Date,Start Time,End Date,End Time,Total kWh,Site,Model,User ID",
     ["50911,1,06/06/2018,08:30,06/06/2018,09:15,11.2,Somewhere,EVO,driver-9",
      "50912,1,06/06/2018,10:30,06/06/2018,11:15,11.2,Somewhere,EVO,driver-9,extra",
      "50911,2,07/06/2018,08:30,07/06/2018,09:15,8.0,Somewhere,EVO,driver-8",
      "50913,1,08/06/2018,08:30,08/06/2018,09:00,5.5,Elsewhere,EVO,driver-8",
      "50912,1,06/06/2018,08:30",
      "50913,1,06/06/2018,xx:30,06/06/2018,09:15,11.2,S,EVO,driver-9,extra"]),
]


def _eager_parse(path, adapter):
    """`parse_events` as it was when it built every row's reject text before
    parsing the row, verbatim but for the header and majority checks, the
    reader, which pads short rows with empty fields as `parse_events` does,
    and the reject of a long row in every layout (`oracles.adapt`)."""
    events, rejects, seen = [], [], set()
    with dataset.open_csv(path) as fh:
        reader = csv.DictReader(fh, restval="")
        for row in reader:
            line_no = reader.line_num
            raw = ",".join("" if v is None else str(v) for v in row.values())
            try:
                event = oracles.adapt(row, line_no, adapter, len(reader.fieldnames))
                if event.event_id in seen:
                    raise ValueError("duplicate event_id")
            except (ValueError, KeyError, DomainError) as exc:
                rejects.append(dataset.RejectedRow(line_no, raw, str(exc)))
                continue
            seen.add(event.event_id)
            events.append(event)
    return events, rejects


@pytest.mark.parametrize("adapter,header,rows", _REJECT_TEXT_CASES, ids=[c[0] for c in _REJECT_TEXT_CASES])
def test_row_adapters_never_mutate_row(tmp_path, adapter, header, rows):
    path = _write(tmp_path, "ev.csv", "\n".join([header] + rows) + "\n")
    with dataset.open_csv(path) as fh:
        reader = csv.DictReader(fh, restval="")
        for row in reader:
            before = copy.deepcopy(row)
            try:
                oracles.adapt(row, reader.line_num, adapter, len(reader.fieldnames))
            except (ValueError, KeyError, DomainError):
                pass
            assert row == before


@pytest.mark.parametrize("adapter,header,rows", _REJECT_TEXT_CASES, ids=[c[0] for c in _REJECT_TEXT_CASES])
def test_reject_text_built_on_reject_matches_eager_text(tmp_path, adapter, header, rows):
    path = _write(tmp_path, "ev.csv", "\n".join([header] + rows) + "\n")
    events, rejects = dataset.parse_events(path, adapter)
    assert (list(events), rejects) == _eager_parse(path, adapter)
    assert len(rejects) == {"canonical": 4, "glasgow": 4, "dundee": 3}[adapter]
    short = rows[-2]  # rejected, not a crash, with the text it had when short fields read None
    assert short + "," * (header.count(",") - short.count(",")) in [r.raw for r in rejects]
    assert any(r.raw.endswith("]") for r in rejects)  # the extra fields' list


_ids = st.text(alphabet="abcdefghij0123456789-", min_size=1, max_size=8)


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(_ids, _ids, st.integers(0, 10_000), st.floats(0, 500), st.floats(0, 90)),
        min_size=1,
        max_size=20,
    )
)
def test_roundtrip_write_parse_identity(tmp_path_factory, rows):
    events = [
        make_event(f"e{i:03d}", driver, station, T0 + timedelta(minutes=offset),
                   duration=round(duration, 3), energy=round(energy, 3))
        for i, (driver, station, offset, duration, energy) in enumerate(rows)
    ]
    path = tmp_path_factory.mktemp("rt") / "events.csv"
    dataset.write_events(events, path)
    parsed, rejects = dataset.parse_events(path)
    assert rejects == []
    assert list(parsed) == events


_ADAPTER_FILES = {adapter: [header, *rows] for adapter, header, rows in _REJECT_TEXT_CASES}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_events_hostile_rows_raise_only_evrac_errors(tmp_path_factory, data):
    """Random rows, or an adapter's own file after a few random edits: each
    adapter returns finite events or raises an `EvracError`, nothing else."""
    adapter = data.draw(st.sampled_from(sorted(_ADAPTER_FILES)), label="adapter")
    lines = [line.encode() for line in _ADAPTER_FILES[adapter]]
    if data.draw(st.booleans(), label="random rows"):
        lines = lines[:1] + [row.encode() for row in data.draw(st.lists(st.text(max_size=80)))]
    path = tmp_path_factory.getbasetemp() / "fuzz-events.csv"
    path.write_bytes(mutated_rows(lines, data))
    try:
        events, rejects = dataset.parse_events(path, adapter)
    except EvracError:
        return
    assert all(math.isfinite(e.duration_min) and math.isfinite(e.energy_kwh) for e in events)
    assert len({e.event_id for e in events}) == len(events)


def test_long_canonical_row_is_rejected(tmp_path):
    # csv.DictReader listed the extra fields under None, and the row was read
    # as event "a".
    path = _write(
        tmp_path,
        "ev.csv",
        "event_id,driver_id,station_id,start_time,duration_min,energy_kwh\n"
        "a,d1,cs1,2018-06-06T06:00:00Z,120,42,EXTRA,MORE\n"
        "b,d1,cs1,2018-06-06T07:00:00Z,120,42\n"
        "c,d1,cs1,2018-06-06T08:00:00Z,120,42\n",
    )
    events, rejects = dataset.parse_events(path)
    assert [e.event_id for e in events] == ["b", "c"]
    assert rejects == [dataset.RejectedRow(2, "a,d1,cs1,2018-06-06T06:00:00Z,120,42,['EXTRA', 'MORE']",
                                           "row has 8 fields, header has 6")]


@pytest.mark.parametrize("adapter,header,rows", _REJECT_TEXT_CASES[1:], ids=[c[0] for c in _REJECT_TEXT_CASES[1:]])
def test_long_session_row_is_rejected(tmp_path, adapter, header, rows):
    # The session layouts read such a row and dropped its extra fields.
    path = _write(tmp_path, "ev.csv", "\n".join([header, rows[0], rows[1]]) + "\n")
    events, rejects = dataset.parse_events(path, adapter)
    width = header.count(",") + 1
    assert len(events) == 1
    assert [(r.line_no, r.reason) for r in rejects] == [(3, f"row has {width + 1} fields, header has {width}")]


def _mostly(valid, hostile, one_in: int = 12):
    """Draws of `valid`, but one in `one_in` (on average) of `hostile`."""
    return st.integers(1, one_in).flatmap(lambda i: hostile if i == 1 else valid)


# Well-formed values per canonical column, and hostile ones.
_OFFSETS = st.integers(-23 * 60 - 59, 23 * 60 + 59).map(lambda m: timezone(timedelta(minutes=m)))
_TEXT_COLUMNS = {
    "event_id": _mostly(st.integers(0, 40).map(lambda i: f"e{i}"),
                        st.sampled_from(["e1", " e1", "e1\x00", "e1\x00\x00", "e\n2", "", "a,b", 'q"t'])),
    "driver_id": _mostly(st.sampled_from(["d1", "d2", "d3"]), st.sampled_from([" d1 ", "d\n3", ""])),
    "station_id": _mostly(st.sampled_from(["cs0", "cs1"]), st.sampled_from(["cs1 ", "cs\x00", ""])),
    "start_time": _mostly(
        st.one_of(  # one instant three ways, so that starts tie and event ids order them
            st.sampled_from(["2018-06-06T06:00:00Z", "2018-06-06T08:00:00+02:00", "2018-06-06T06:00:00"]),
            st.datetimes(timezones=st.one_of(st.none(), st.just(timezone.utc), _OFFSETS))
            .map(lambda t: t.isoformat().replace("+00:00", "Z")),
        ),
        st.sampled_from(["2018-06-06T06:00:00Z", " 2018-06-06 07:59:59.999999-01:00 ", "0001-01-01T00:30:00+01:00",
                         "9999-12-31T23:30:00-01:00", "not-a-time", ""]),
    ),
    "duration_min": _mostly(st.floats(0, 10_080).map(repr),
                            st.sampled_from(["-0", "-5", "nan", "-inf", "1e400", "12_0", " 12 ", "", "10080",
                                             "10080.000001", "5e-324", "abc"])),
    "energy_kwh": _mostly(st.floats(0, 100).map(repr), st.sampled_from(["-0", "-1e-9", "nan", "1e400", "12_0", " 12 ", ""])),
}


@st.composite
def canonical_texts(draw) -> str:
    """A canonical events file, maybe with an extra or a repeated header
    column, whose rows may be blank, short, long, or hold quoted newlines."""
    header = list(dataset.CANONICAL_HEADER)
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(["note", "event_id", "duration_min"])))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["row"] * 12 + ["blank", "short", "long"]))
        if shape == "blank":
            out.write("\n")
            continue
        row = [draw(_TEXT_COLUMNS.get(name, st.sampled_from(["x", ""]))) for name in header]
        if shape == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == "long":
            row += draw(st.lists(st.sampled_from(["EXTRA", "", "y,z", "w\nv"]), min_size=1, max_size=3))
        writer.writerow(row)
    return out.getvalue()


def _parse_outcome(parse, group, path):
    """Events field by field (floats as their bits, times with their zone),
    rejects, and each trajectory's event ids as `group` orders them; or the
    error."""
    try:
        events, rejects = parse(path)
    except EvracError as exc:
        return type(exc), str(exc)
    fields = [(e.event_id, e.driver_id, e.station_id, e.start_time, e.start_time.tzinfo,
               struct.pack("<d", e.duration_min), struct.pack("<d", e.energy_kwh)) for e in events]
    return fields, rejects, {d: [e.event_id for e in t] for d, t in group(events).items()}


def _columnar_trajectories(events):
    return {d: t.events for d, t in dataset.build_trajectories(events).items()}


_HEADER = ",".join(dataset.CANONICAL_HEADER) + "\n"


@settings(max_examples=300, deadline=None)
@given(canonical_texts())
# Ids that differ by a trailing NUL (a numpy string array drops it), at one
# instant written three ways.
@example(_HEADER + "e1\x00,d1,cs0,2018-06-06T06:00:00Z,30,10\n"
                   "e1,d1,cs1,2018-06-06T08:00:00+02:00,30,10\n"
                   "e0,d1,cs1,2018-06-06T06:00:00,30,10\n")
# Starts 1 us apart whose float seconds are equal: only the microseconds order them.
@example(_HEADER + "e2,d1,cs0,9000-01-01T00:00:00.000001Z,30,10\n"
                   "e1,d1,cs1,9000-01-01T00:00:00.000002Z,30,10\n")
def test_columnar_parse_matches_per_row_parser(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "oracle-events.csv"
    path.write_text(text, encoding="utf-8")
    columnar = _parse_outcome(dataset.parse_events, _columnar_trajectories, path)
    assert columnar == _parse_outcome(oracles.parse_events, oracles.build_trajectories, path)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_layout_matches_per_row_parser_across_block_edges(tmp_path_factory, data):
    """Each adapter's own file after a few random edits, as the hostile-rows
    test makes them, parsed with blocks of 1, 2 or 3 rows so that block edges
    fall inside the file: events and rejects are the per-row parser's."""
    adapter = data.draw(st.sampled_from(sorted(_ADAPTER_FILES)), label="adapter")
    path = tmp_path_factory.getbasetemp() / "layout-events.csv"
    path.write_bytes(mutated_rows([line.encode() for line in _ADAPTER_FILES[adapter]], data))
    with patch.object(dataset, "_BLOCK_ROWS", data.draw(st.sampled_from([1, 2, 3, 1024]), label="block rows")):
        columnar = _parse_outcome(lambda p: dataset.parse_events(p, adapter), _columnar_trajectories, path)
    assert columnar == _parse_outcome(lambda p: oracles.parse_events(p, adapter), oracles.build_trajectories, path)


# One instant written three ways, each also with surrounding spaces, and two
# starts that do not parse.
_START_POOL = ["2018-06-06T06:00:00Z", "2018-06-06T08:00:00+02:00", "2018-06-06T06:00:00"]
_START_POOL += [f" {start} " for start in _START_POOL] + ["not-a-time", ""]


@st.composite
def pooled_start_texts(draw) -> str:
    """A canonical events file whose starts repeat, drawn from `_START_POOL`."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(dataset.CANONICAL_HEADER)
    for _ in range(draw(st.integers(0, 24))):
        writer.writerow([draw(st.sampled_from(_START_POOL) if name == "start_time" else _TEXT_COLUMNS[name])
                         for name in dataset.CANONICAL_HEADER])
    return out.getvalue()


@pytest.mark.parametrize("block_rows", [1, 2, 3, 1024])
@settings(max_examples=100, deadline=None)
@given(text=pooled_start_texts())
def test_start_cache_matches_per_row_parser_across_block_edges(tmp_path_factory, block_rows, text):
    """Each distinct start string is parsed once per file, whichever block
    it first appears in; a string that does not parse sends every block it
    appears in row by row. Events and rejects are the per-row parser's."""
    path = tmp_path_factory.getbasetemp() / "pooled-events.csv"
    path.write_text(text, encoding="utf-8")
    with patch.object(dataset, "_BLOCK_ROWS", block_rows):
        columnar = _parse_outcome(dataset.parse_events, _columnar_trajectories, path)
    assert columnar == _parse_outcome(oracles.parse_events, oracles.build_trajectories, path)


def _column_bits(events: EventColumns) -> tuple:
    """Every column of `events`, names for codes and floats as their bytes."""
    return (events.event_id.tolist(), [events.drivers[d] for d in events.driver.tolist()],
            [events.stations[s] for s in events.station.tolist()], events.start_us.tolist(),
            events.start_s.tobytes(), events.duration_min.tobytes(), events.energy_kwh.tobytes())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
                                       timezones=st.one_of(st.none(), st.just(timezone.utc), _OFFSETS)),
                          st.floats(0, dataset.MAX_DURATION_MIN), st.floats(0, allow_infinity=False)),
                max_size=12))
@example([(datetime(2018, 6, 6, 6, 0, 0, 750000, tzinfo=timezone.utc), 123.456789, 12.3456789),
          (datetime(999, 1, 2, 3, 4, 5), 30.0, 1234567.5)])
def test_ingest_writes_what_it_read(tmp_path_factory, rows):
    """Ingest wrote floats to 6 significant digits (123.456789 as 123.457,
    1234567.5 as 1.23457e+06), dropped microseconds and wrote the year 999
    unpadded, which the next ingest rejected. Every column of the ingested
    file now parses to the bits of the input's, and a second ingest writes
    the same bytes as the first."""
    tmp = tmp_path_factory.mktemp("ingest")
    source, once, twice = tmp / "source.csv", tmp / "once.csv", tmp / "twice.csv"
    with open(source, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(dataset.CANONICAL_HEADER)
        for i, (start, duration, energy) in enumerate(rows):
            writer.writerow([f"e{i}", f"d{i % 3}", f"cs{i % 2}", start.isoformat(), repr(duration), repr(energy)])
    assert main(["ingest", "--input", str(source), "--adapter", "canonical", "--output", str(once)]) == 0
    assert main(["ingest", "--input", str(once), "--adapter", "canonical", "--output", str(twice)]) == 0
    (read, rejects), (again, again_rejects) = dataset.parse_events(source), dataset.parse_events(once)
    assert rejects == again_rejects == []
    assert _column_bits(again) == _column_bits(read)
    assert twice.read_bytes() == once.read_bytes()


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def test_build_trajectories_sorts_by_time():
    events = [
        make_event("e3", "d1", "cs1", T0 + timedelta(hours=2)),
        make_event("e1", "d1", "cs2", T0),
        make_event("e2", "d1", "cs3", T0 + timedelta(hours=1)),
    ]
    trajs = dataset.build_trajectories(EventColumns.of(events))
    assert [e.event_id for e in trajs["d1"].events] == ["e1", "e2", "e3"]


def test_build_trajectories_two_drivers():
    events = [
        make_event("a1", "d1", "cs1", T0),
        make_event("b1", "d2", "cs1", T0),
        make_event("a2", "d1", "cs2", T0 + timedelta(hours=1)),
        make_event("b2", "d2", "cs2", T0 + timedelta(hours=1)),
    ]
    trajs = dataset.build_trajectories(EventColumns.of(events))
    assert len(trajs) == 2
    assert all(len(t.events) == 2 for t in trajs.values())
    assert sum(len(t.events) for t in trajs.values()) == len(events)


def test_simultaneous_events_tie_break_on_event_id():
    events = [
        make_event("z", "d1", "cs1", T0),
        make_event("a", "d1", "cs2", T0),
    ]
    trajs = dataset.build_trajectories(EventColumns.of(events))
    assert [e.event_id for e in trajs["d1"].events] == ["a", "z"]


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def _traj(n):
    return dataset.DriverTrajectory(
        "d", EventColumns.of([make_event(f"e{i:03d}", "d", "cs1", T0 + timedelta(hours=i)) for i in range(n)])
    )


@pytest.mark.parametrize("n,expected", [(20, (16, 2, 2)), (10, (8, 1, 1)), (7, (5, 1, 1)), (3, (1, 1, 1))])
def test_split_sizes(n, expected):
    s = dataset.chronological_split(_traj(n))
    assert (len(s.train), len(s.val), len(s.test)) == expected


def test_split_too_small():
    with pytest.raises(DomainError):
        dataset.chronological_split(_traj(2))


@settings(max_examples=60)
@given(st.integers(3, 200))
def test_split_partitions_trajectory(n):
    traj = _traj(n)
    s = dataset.chronological_split(traj)
    assert len(s.train) + len(s.val) + len(s.test) == n
    assert len(s.test) >= 1 and len(s.val) >= 1 and len(s.train) >= 1
    assert list(s.train) + list(s.val) + list(s.test) == list(traj.events)  # order preserved, disjoint
    # floors hold whenever they leave room for a non-empty test
    if math.floor(0.8 * n) + max(1, math.floor(0.1 * n)) < n:
        assert len(s.train) == math.floor(0.8 * n)
        assert len(s.val) == max(1, math.floor(0.1 * n))


@settings(max_examples=30)
@given(st.integers(3, 100))
def test_no_test_event_precedes_train(n):
    s = dataset.chronological_split(_traj(n))
    last_train = max(e.start_time for e in s.train)
    assert all(e.start_time >= last_train for e in s.test)


def test_split_all_excludes_small_drivers():
    trajs = {
        "big": _traj(10),
        "small": dataset.DriverTrajectory("small", EventColumns.of([make_event("x", "small", "cs1", T0)])),
    }
    splits, excluded = dataset.split_all(trajs)
    assert set(splits) == {"big"}
    assert excluded == ["small"]


# ---------------------------------------------------------------------------
# Warm-up pool
# ---------------------------------------------------------------------------

def _pool_trajs(sizes):
    return {
        f"d{j}": dataset.DriverTrajectory(
            f"d{j}",
            EventColumns.of([make_event(f"d{j}-e{i:03d}", f"d{j}", "cs1", T0 + timedelta(hours=i)) for i in range(n)]),
        )
        for j, n in enumerate(sizes)
    }


@pytest.mark.parametrize("n,contributed", [(10, 0), (11, 1), (40, 2)])
def test_warmup_pool_boundaries(n, contributed):
    pool = dataset.warmup_pool(_pool_trajs([n]))
    assert len(pool) == contributed


@settings(max_examples=30)
@given(st.lists(st.integers(1, 120), min_size=1, max_size=10))
def test_warmup_pool_size_formula(sizes):
    pool = dataset.warmup_pool(_pool_trajs(sizes))
    expected = sum(max(1, math.floor(0.05 * n)) for n in sizes if n > 10)
    assert len(pool) == expected


def test_warmup_pool_anonymizes_and_keeps_earliest():
    trajs = _pool_trajs([20])
    pool = dataset.warmup_pool(trajs)
    assert len(pool) == 1
    assert pool[0].driver_id.startswith("anon-")
    assert pool[0].driver_id != "d0"
    assert pool[0].event_id == trajs["d0"].events[0].event_id
    # same salt -> same token; different salt -> different token
    assert dataset.anonymize_driver("d0", "s") == dataset.anonymize_driver("d0", "s")
    assert dataset.anonymize_driver("d0", "s") != dataset.anonymize_driver("d0", "t")


# ---------------------------------------------------------------------------
# SOC proxy
# ---------------------------------------------------------------------------

def _soc(duration: float, max_duration: float = 30.0) -> float:
    """The SOC column of one observation: duration / train max, clipped to 1."""
    space = ObservationSpace(make_stations(["cs1"]), max_duration, 10.0, 5)
    events = EventColumns.of([make_event("e", "d", "cs1", T0, duration=duration)])
    return space.rows(events, None)[0, space.index.context_width()]


def test_soc_proxy_values():
    assert _soc(30.0) == 1.0
    assert _soc(0.0) == 0.0
    assert _soc(7.5) == 0.25
    assert _soc(60.0) == 1.0


def test_soc_proxy_requires_positive_max():
    for max_duration in (0.0, -1.0):
        with pytest.raises(ConfigError):
            _soc(30.0, max_duration)
