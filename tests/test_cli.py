"""CLI surface: subcommands, exit codes, artifacts and pipeline determinism."""

import csv
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import JSON_VALUES, checkpoint_mutations, columns_of, json_mutations, km_to_lon_degrees, pattern_events
import evrac
from evrac.agent import RacModel
from evrac.baselines import MarkovRecommender, PopularityRecommender
from evrac.checkpoint import MAGIC, load_reward_net, save_baseline, save_rac_model
from evrac.cli import main
from evrac.config import load_config
from evrac.dataset import write_events
from evrac.errors import EvracError
from evrac.pipeline import load_data_bundle


@pytest.fixture
def synth(tmp_path):
    """Small on-disk dataset plus a fast config file."""
    events = []
    for d in range(4):
        events += pattern_events(f"driver-{d}", ["cs0", "cs1", "cs2"], 14, gap_hours=6.0)
    events.sort(key=lambda e: (e.start_time, e.event_id))
    events_path = tmp_path / "events.csv"
    write_events(columns_of(events), events_path)

    stations_path = tmp_path / "stations.csv"
    rows = ["station_id,latitude,longitude"]
    for i, sid in enumerate(["cs0", "cs1", "cs2"]):
        rows.append(f"{sid},0.0,{i * km_to_lon_degrees(1.0)}")
    stations_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    poi_path = tmp_path / "poi.csv"
    header = "station_id," + ",".join(f"c{i}" for i in range(76))
    lines = [header]
    for i, sid in enumerate(["cs0", "cs1", "cs2"]):
        counts = ["0"] * 76
        counts[i] = "4"
        lines.append(f"{sid}," + ",".join(counts))
    poi_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        f"[data]\nevents = {events_path}\nstations = {stations_path}\npoi = {poi_path}\n\n"
        "[model]\nhidden = 8\nembed = 8\ncritic_hidden = 8\nk_actor = 3\nk_reward = 4\n\n"
        "[training]\nepochs = 3\nsamples_per_epoch = 4\nreward_epochs = 5\nseed = 3\n"
        "finetune_epochs = 2\npatience = 1\n\n"
        "[mode]\nwarmup = false\n",
        encoding="utf-8",
    )
    return tmp_path, config_path


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "evrac" in capsys.readouterr().out


def test_ingest_dundee(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "CP ID,Connector,Start Date,Start Time,End Date,End Time,Total kWh,Site,Model,User ID\n"
        "cp1,1,06/06/2018,08:00,06/06/2018,08:45,9.0,X,Y,u1\n"
        "cp1,1,06/06/2018,10:00,06/06/2018,09:00,9.0,X,Y,u1\n",  # negative duration
        encoding="utf-8",
    )
    out = tmp_path / "canonical.csv"
    rc = main(["ingest", "--input", str(raw), "--adapter", "dundee", "--output", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["events"] == 1
    assert summary["rejected"] == 1
    assert out.exists()
    rejects = tmp_path / "canonical.csv.rejects.csv"
    assert rejects.exists()
    assert "duration" in rejects.read_text()


def test_ingest_sends_non_finite_rows_to_rejects(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "event_id,driver_id,station_id,start_time,duration_min,energy_kwh\n"
        "e1,d1,cs0,2018-06-06T08:00:00Z,30,10\n"
        "e2,d1,cs0,2018-06-06T09:00:00Z,inf,10\n"
        "e3,d1,cs0,2018-06-06T10:00:00Z,30,nan\n"
        "e4,d1,cs0,2018-06-06T11:00:00Z,30,10\n"
        "e5,d1,cs0,2018-06-06T12:00:00Z,30,10\n",
        encoding="utf-8",
    )
    out = tmp_path / "canonical.csv"
    rc = main(["ingest", "--input", str(raw), "--adapter", "canonical", "--output", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["events"], summary["rejected"]) == (3, 2)
    rejects = (tmp_path / "canonical.csv.rejects.csv").read_text()
    assert rejects.count("non-finite") == 2
    assert "e2" not in out.read_text() and "e3" not in out.read_text()


def test_ingest_sends_over_one_week_rows_to_rejects(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "event_id,driver_id,station_id,start_time,duration_min,energy_kwh\n"
        "e1,d1,cs0,2018-06-06T08:00:00Z,10080,10\n"
        "e2,d1,cs0,2018-06-06T09:00:00Z,1e10,10\n"
        "e3,d1,cs0,2018-06-06T10:00:00Z,10080.5,10\n"
        "e4,d1,cs0,2018-06-06T11:00:00Z,30,10\n",
        encoding="utf-8",
    )
    out = tmp_path / "canonical.csv"
    rc = main(["ingest", "--input", str(raw), "--adapter", "canonical", "--output", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["events"], summary["rejected"]) == (2, 2)
    rejects = (tmp_path / "canonical.csv.rejects.csv").read_text()
    assert rejects.count("over one week") == 2
    kept = out.read_text()
    assert "e1" in kept and "e2" not in kept and "e3" not in kept


def test_ingest_sends_duplicate_event_ids_to_rejects(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "event_id,driver_id,station_id,start_time,duration_min,energy_kwh\n"
        "e1,d1,cs0,2018-06-06T08:00:00Z,30,10\n"
        "e2,d1,cs1,2018-06-06T09:00:00Z,30,10\n"
        "e1,d2,cs2,2018-06-06T10:00:00Z,30,10\n"
        "e3,d1,cs0,2018-06-06T11:00:00Z,30,10\n",
        encoding="utf-8",
    )
    out = tmp_path / "canonical.csv"
    rc = main(["ingest", "--input", str(raw), "--adapter", "canonical", "--output", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["events"], summary["rejected"], summary["drivers"]) == (3, 1, 1)
    rejects = (tmp_path / "canonical.csv.rejects.csv").read_text().splitlines()
    assert rejects[1:] == ["4,\"e1,d2,cs2,2018-06-06T10:00:00Z,30,10\",duplicate event_id"]
    assert "cs2" not in out.read_text()


def test_ingest_sends_out_of_range_timestamps_to_rejects(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "event_id,driver_id,station_id,start_time,duration_min,energy_kwh\n"
        "e1,d1,cs0,2018-06-06T08:00:00Z,30,10\n"
        "e2,d1,cs0,9999-12-31T23:59:59-01:00,30,10\n"
        "e3,d1,cs0,2018-06-06T11:00:00Z,30,10\n",
        encoding="utf-8",
    )
    out = tmp_path / "canonical.csv"
    rc = main(["ingest", "--input", str(raw), "--adapter", "canonical", "--output", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["events"], summary["rejected"]) == (2, 1)
    assert "out of range" in (tmp_path / "canonical.csv.rejects.csv").read_text()


def test_ingest_unknown_adapter_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--input", "x.csv", "--adapter", "berlin", "--output", "y.csv"])
    assert exc.value.code == 2


def test_missing_events_file_is_io_error(tmp_path, capsys):
    rc = main(["features", "--events", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "f")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "error" in err


def test_bad_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[training]\nepsilon = 3.0\n", encoding="utf-8")
    rc = main(["features", "--config", str(cfg), "--out-dir", str(tmp_path / "f")])
    assert rc == 4


def test_features_outputs(synth, capsys):
    tmp_path, config = synth
    out_dir = tmp_path / "features"
    rc = main(["features", "--config", str(config), "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "wait_series.csv").exists()
    assert (out_dir / "station_norms.csv").exists()
    meta = json.loads((out_dir / "features.json").read_text())
    assert meta["stations"] == 3
    norms = (out_dir / "station_norms.csv").read_text().strip().splitlines()
    assert norms[0] == "station_id,mean_wait_min,mean_dist_km"
    assert len(norms) == 4


def test_features_quotes_station_ids_with_commas(tmp_path, capsys):
    ids = ["a,b", "cs0"]
    events = pattern_events("d1", ids, 12) + pattern_events("d2", ids[::-1], 12)
    write_events(columns_of(events), tmp_path / "events.csv")
    with open(tmp_path / "stations.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "latitude", "longitude"])
        writer.writerows([sid, 0.0, i * km_to_lon_degrees(1.0)] for i, sid in enumerate(ids))
    out_dir = tmp_path / "features"
    rc = main(["features", "--events", str(tmp_path / "events.csv"), "--stations", str(tmp_path / "stations.csv"),
               "--no-warmup", "--out-dir", str(out_dir)])
    assert rc == 0
    with open(out_dir / "station_norms.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["station_id", "mean_wait_min", "mean_dist_km"]
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows[1:]] == ids
    assert all(0 < float(v) < float("inf") for row in rows[1:] for v in row[1:])


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_features_rejects_non_finite_poi_count(synth, capsys, bad):
    tmp_path, config = synth
    poi = tmp_path / "poi.csv"
    lines = poi.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[5] = bad
    lines[2] = ",".join(cells)
    poi.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["features", "--config", str(config), "--out-dir", str(tmp_path / "f")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert len(errors) == 1 and errors[0]["error"] == "DataFormatError"
    assert f"{poi}:3: non-finite POI count" in errors[0]["message"]


@pytest.mark.parametrize("row, why", [("cs9,1.0", "expected 3 fields"), ("cs0,10.0,10.0", "duplicate station_id")])
def test_features_rejects_bad_station_row(synth, capsys, row, why):
    tmp_path, config = synth
    stations = tmp_path / "stations.csv"
    stations.write_text(stations.read_text(encoding="utf-8") + row + "\n", encoding="utf-8")
    rc = main(["features", "--config", str(config), "--out-dir", str(tmp_path / "f")])
    assert rc == 4
    assert f"{stations}:5: {why}" in _assert_one_json_error(capsys, "DataFormatError")["message"]


def test_features_rejects_events_at_a_station_not_listed(synth, capsys):
    # Each of the fixture's 4 drivers charges at cs2 on 4 of its 14 events.
    tmp_path, config = synth
    stations = tmp_path / "stations.csv"
    stations.write_text("".join(stations.read_text(encoding="utf-8").splitlines(True)[:3]), encoding="utf-8")
    rc = main(["features", "--config", str(config), "--out-dir", str(tmp_path / "f")])
    assert rc == 4
    message = _assert_one_json_error(capsys, "DataFormatError")["message"]
    assert message == f"{stations}: no station 'cs2', which 16 events name"


@pytest.mark.parametrize("reader", ["ingest", "events", "stations", "poi", "config"])
def test_non_utf8_input_is_format_error(synth, capsys, reader):
    tmp_path, config = synth
    path = config if reader == "config" else tmp_path / f"{'events' if reader == 'ingest' else reader}.csv"
    text = path.read_bytes()
    cut = text.index(b"\n") + 3  # inside the first line after the header
    path.write_bytes(text[:cut] + b"\xff" + text[cut:])
    if reader == "ingest":
        argv = ["ingest", "--input", str(path), "--adapter", "canonical", "--output", str(tmp_path / "out.csv")]
    else:
        argv = ["features", "--config", str(config), "--out-dir", str(tmp_path / "f")]
    assert main(argv) == 4
    error = _assert_one_json_error(capsys, "ConfigError" if reader == "config" else "DataFormatError")
    assert str(path) in error["message"] and "utf-8" in error["message"]


def test_full_pipeline_and_determinism(synth, capsys):
    tmp_path, config = synth

    reward_ckpt = tmp_path / "reward.ckpt"
    assert main(["train-reward", "--config", str(config), "--out", str(reward_ckpt)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.isfinite(report["train_mse"])

    model_a = tmp_path / "a.ckpt"
    model_b = tmp_path / "b.ckpt"
    assert main(["train-rac", "--config", str(config), "--out", str(model_a),
                 "--reward", str(reward_ckpt)]) == 0
    capsys.readouterr()
    assert main(["train-rac", "--config", str(config), "--out", str(model_b),
                 "--reward", str(reward_ckpt)]) == 0
    capsys.readouterr()
    assert model_a.read_bytes() == model_b.read_bytes()

    log_lines = (tmp_path / "a.ckpt.log.jsonl").read_text().strip().splitlines()
    assert len(log_lines) == 3
    rec = json.loads(log_lines[0])
    assert set(rec) == {"epoch", "critic_mse", "critic_explained_var", "ce_loss", "policy_entropy",
                        "mean_reward", "wallclock_ms",
                        "critic_grad_norm", "critic_clipped", "actor_grad_norm", "actor_clipped"}
    assert rec["critic_explained_var"] is None or rec["critic_explained_var"] <= 1.0
    assert rec["policy_entropy"] >= 0.0

    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    assert main(["eval", "--config", str(config), "--model", str(model_a),
                 "--reward", str(reward_ckpt), "--k", "1,3",
                 "--out", str(report_path), "--csv", str(csv_path)]) == 0
    aggregate = json.loads(capsys.readouterr().out)
    assert set(aggregate["precision"]) == {"1", "3"}
    assert report_path.exists() and csv_path.exists()

    assert main(["recommend", "--config", str(config), "--model", str(model_a),
                 "--driver", "driver-0", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["driver_id"] == "driver-0"
    assert len(payload["items"]) == 2
    for item in payload["items"]:
        assert {"station_id", "prob", "est_wait_min", "est_dist_km", "est_reward"} <= set(item)


def test_eval_baseline_model(synth, capsys):
    tmp_path, config = synth
    ckpt = tmp_path / "mc.ckpt"
    assert main(["train-baseline", "--config", str(config), "--model", "mc", "--out", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(config), "--model", str(ckpt), "--k", "1"]) == 0
    aggregate = json.loads(capsys.readouterr().out)
    assert 0.0 <= aggregate["precision"]["1"] <= 1.0


@pytest.mark.parametrize("models", [[], ["--model", "mc.ckpt", "--model-dir", "per-driver"]],
                         ids=["neither", "both"])
def test_eval_needs_exactly_one_model_flag(synth, capsys, monkeypatch, models):
    """Without a model flag eval printed a TypeError traceback after loading
    the bundle; with both it ignored --model."""
    tmp_path, config = synth

    def load(*args):
        raise AssertionError("the bundle was loaded")

    monkeypatch.setattr("evrac.cli.load_data_bundle", load)
    assert main(["eval", "--config", str(config), *models]) == 2
    assert "--model-dir" in _assert_one_json_error(capsys, "UsageError")["message"]


def test_recommend_baseline_and_unknown_driver(synth, capsys):
    tmp_path, config = synth
    ckpt = tmp_path / "pop.ckpt"
    assert main(["train-baseline", "--config", str(config), "--model", "popularity",
                 "--out", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["recommend", "--config", str(config), "--model", str(ckpt),
                 "--driver", "driver-1", "--k", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["items"][0]["prob"] > 0
    rc = main(["recommend", "--config", str(config), "--model", str(ckpt),
               "--driver", "ghost", "--k", "1"])
    assert rc == 2


def test_recommend_fpmc_checkpoint_and_k_bounds(synth, capsys):
    tmp_path, config = synth
    ckpt = tmp_path / "fpmc.ckpt"
    assert main(["train-baseline", "--config", str(config), "--model", "fpmc", "--out", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["recommend", "--config", str(config), "--model", str(ckpt),
                 "--driver", "driver-2", "--k", "3"]) == 0
    items = json.loads(capsys.readouterr().out)["items"]
    assert sorted(it["station_id"] for it in items) == ["cs0", "cs1", "cs2"]
    probs = [it["prob"] for it in items]
    assert probs == sorted(probs, reverse=True) and sum(probs) == pytest.approx(1.0)
    for k in ("0", "4"):
        assert main(["recommend", "--config", str(config), "--model", str(ckpt),
                     "--driver", "driver-2", "--k", k]) == 2
    capsys.readouterr()


def test_recommend_prints_reward_flags(synth, capsys):
    """Each item carries its pricing's fallback and clamp flags as JSON
    booleans: without a forecaster every wait is the mean-wait fallback."""
    tmp_path, config = synth
    ckpt, reward = tmp_path / "pop.ckpt", tmp_path / "reward.ckpt"
    assert main(["train-baseline", "--config", str(config), "--model", "popularity", "--out", str(ckpt)]) == 0
    assert main(["train-reward", "--config", str(config), "--out", str(reward)]) == 0
    capsys.readouterr()
    argv = ["recommend", "--config", str(config), "--model", str(ckpt), "--driver", "driver-1", "--k", "3"]
    for extra, fallback in (([], [True] * 3), (["--reward", str(reward)], [False] * 3)):
        assert main(argv + extra) == 0
        items = json.loads(capsys.readouterr().out)["items"]
        assert all(type(it["fallback"]) is bool and type(it["clamped"]) is bool for it in items)
        assert [it["fallback"] for it in items] == fallback


def test_recommend_at_sees_only_earlier_sessions(synth, capsys):
    from evrac.agent import recommend
    from evrac.checkpoint import load_rac_model
    from evrac.config import load_config
    from evrac.pipeline import evaluation_environment, load_data_bundle

    tmp_path, config = synth
    ckpt = tmp_path / "rac.ckpt"
    assert main(["train-rac", "--config", str(config), "--out", str(ckpt)]) == 0
    capsys.readouterr()
    bundle = load_data_bundle(load_config(config))
    model, _ = load_rac_model(ckpt)
    env = evaluation_environment(bundle, None)
    events = bundle.trajectories["driver-1"].events
    # At an event's exact start the history ends before that event; one
    # microsecond later it includes it.
    for j in (1, 5, len(events) - 1):
        start = events[j].start_time
        later = start + timedelta(microseconds=1)
        assert j + 1 == len(events) or events[j + 1].start_time >= later
        for when, at, seen in ((start, start.strftime("%Y-%m-%dT%H:%M:%SZ"), j),
                               (later, later.strftime("%Y-%m-%dT%H:%M:%S.%fZ"), j + 1)):
            assert main(["recommend", "--config", str(config), "--model", str(ckpt),
                         "--driver", "driver-1", "--k", "2", "--at", at]) == 0
            payload = json.loads(capsys.readouterr().out)
            expected = recommend(model, bundle.obs_space, env, "driver-1", events[:seen], 2, when)
            assert payload["timestamp"] == start.strftime("%Y-%m-%dT%H:%M:%SZ")
            assert payload["items"] == [
                {"station_id": it.station_id, "prob": it.prob, "est_wait_min": it.est_wait_min,
                 "est_dist_km": it.est_dist_km, "est_reward": it.est_reward, "fallback": it.fallback,
                 "clamped": it.clamped}
                for it in expected
            ]
    first = events[0].start_time.strftime("%Y-%m-%dT%H:%M:%SZ")
    for k, at in (("2", first), ("0", None)):
        argv = ["recommend", "--config", str(config), "--model", str(ckpt), "--driver", "driver-1", "--k", k]
        assert main(argv + (["--at", at] if at else [])) == 2
    capsys.readouterr()


def test_recommend_timestamp_has_a_four_digit_year(synth, capsys):
    """`strftime("%Y")` wrote the year 999 as "999", which `--at` rejects.
    The timestamp is now the events writer's start text, in whole seconds,
    and reads back as `--at`."""
    tmp_path, config = synth
    start = datetime(999, 6, 6, 8, 0, tzinfo=timezone.utc)
    events = [e for d in range(4) for e in pattern_events(f"driver-{d}", ["cs0", "cs1", "cs2"], 14, start, 6.0)]
    write_events(columns_of(sorted(events)), tmp_path / "events.csv")
    ckpt = tmp_path / "pop.ckpt"
    assert main(["train-baseline", "--config", str(config), "--model", "popularity", "--out", str(ckpt)]) == 0
    capsys.readouterr()
    argv = ["recommend", "--config", str(config), "--model", str(ckpt), "--driver", "driver-1", "--k", "1"]
    for at, timestamp in ((None, "0999-06-09T14:00:00Z"), ("0999-06-08T11:30:00.250000Z", "0999-06-08T11:30:00Z"),
                          ("0999-06-09T14:00:00Z", "0999-06-09T14:00:00Z")):
        assert main(argv + (["--at", at] if at else [])) == 0
        assert json.loads(capsys.readouterr().out)["timestamp"] == timestamp


@pytest.mark.parametrize("at", ["notatime", "9999-12-31T23:59:59-01:00"])
def test_recommend_bad_at_is_usage_error(synth, capsys, at):
    tmp_path, config = synth
    ckpt = tmp_path / "pop.ckpt"
    assert main(["train-baseline", "--config", str(config), "--model", "popularity",
                 "--out", str(ckpt)]) == 0
    capsys.readouterr()
    rc = main(["recommend", "--config", str(config), "--model", str(ckpt),
               "--driver", "driver-1", "--k", "1", "--at", at])
    assert rc == 2
    _assert_one_json_error(capsys, "UsageError")


def test_corrupt_checkpoint_exit_code(synth, capsys):
    tmp_path, config = synth
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"RACCKPT1\n12\nnot json here")
    rc = main(["eval", "--config", str(config), "--model", str(bad), "--k", "1"])
    assert rc == 4


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_eval_rejects_a_damaged_reward_checkpoint(synth, capsys, data):
    """A forecaster checkpoint the loader rejects makes `eval --reward` exit
    4 with one JSON error and no traceback."""
    tmp_path, config = synth
    reward = tmp_path / "reward.ckpt"
    model = tmp_path / "pop.ckpt"
    if not model.exists():
        assert main(["train-reward", "--config", str(config), "--out", str(reward)]) == 0
        assert main(["train-baseline", "--config", str(config), "--model", "popularity", "--out", str(model)]) == 0
        reward.with_suffix(".good").write_bytes(reward.read_bytes())
    capsys.readouterr()
    damaged = tmp_path / "damaged.ckpt"
    damaged.write_bytes(data.draw(checkpoint_mutations(reward.with_suffix(".good").read_bytes())))
    try:
        load_reward_net(damaged)
        rejected = False
    except EvracError:
        rejected = True
    assume(rejected)
    assert main(["eval", "--config", str(config), "--model", str(model), "--reward", str(damaged), "--k", "1"]) == 4
    error = json.loads(capsys.readouterr().err.strip())
    assert error["error"] in ("DataFormatError", "ConfigError") and str(damaged) in error["message"]


def test_sweep_and_case_study(synth, capsys):
    tmp_path, config = synth
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--grid", "0,1", "--out", str(sweep_csv)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["rows"]) == 2
    lines = sweep_csv.read_text().strip().splitlines()
    assert lines[0] == "eps,p1,r1,mar"
    assert len(lines) == 3

    case_csv = tmp_path / "case.csv"
    assert main(["case-study", "--config", str(config), "--drivers", "driver-0,driver-1",
                 "--epsilons", "0.2,0.8", "--out", str(case_csv)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 4


def _fails_before_training(monkeypatch):
    def train(*args):
        raise AssertionError("a model was trained")

    monkeypatch.setattr("evrac.pipeline.train_shared_model", train)


@pytest.mark.parametrize("drivers, epsilons", [
    ("driver-0", "0.5,1.5"), ("driver-0", "nan"), ("driver-0,ghost", "0.5"), ("", "0.5"),
], ids=["epsilon-over-one", "epsilon-nan", "unknown-driver", "no-driver"])
def test_case_study_checks_its_arguments_before_training(synth, capsys, monkeypatch, drivers, epsilons):
    tmp_path, config = synth
    _fails_before_training(monkeypatch)
    rc = main(["case-study", "--config", str(config), "--drivers", drivers, "--epsilons", epsilons,
               "--out", str(tmp_path / "case.csv")])
    assert rc == 2
    _assert_one_json_error(capsys, "UsageError")
    assert not (tmp_path / "case.csv").exists()


def test_case_study_rejects_a_driver_with_no_test_cut(synth, capsys, monkeypatch):
    """A driver too small to split has events but no evaluated test cut."""
    tmp_path, config = synth
    events = tmp_path / "events.csv"
    rows = [f"small-e{i},small,cs0,2018-06-0{i + 1}T08:00:00Z,30,10" for i in range(2)]
    events.write_text(events.read_text() + "\n".join(rows) + "\n")
    _fails_before_training(monkeypatch)
    rc = main(["case-study", "--config", str(config), "--drivers", "small", "--epsilons", "0.5",
               "--out", str(tmp_path / "case.csv")])
    assert rc == 2
    assert "'small'" in _assert_one_json_error(capsys, "UsageError")["message"]


def test_sweep_checks_its_grid_before_training(synth, capsys, monkeypatch):
    tmp_path, config = synth
    _fails_before_training(monkeypatch)
    assert main(["sweep", "--config", str(config), "--grid", "0.5,1.5", "--out", str(tmp_path / "s.csv")]) == 2
    _assert_one_json_error(capsys, "UsageError")


def _rac_checkpoint(config, path, num_stations, obs_dim_offset=0):
    """A RAC checkpoint for `num_stations` stations, with the synth city's
    observation width plus `obs_dim_offset`."""
    bundle = load_data_bundle(load_config(config))
    model = RacModel(bundle.obs_space.obs_dim + obs_dim_offset, num_stations, bundle.config.rac_hyper())
    save_rac_model(model, path)
    return path


@pytest.mark.parametrize("num_stations, obs_dim_offset", [(2, 0), (5, 0), (3, 1)],
                         ids=["fewer-stations", "more-stations", "other-obs-dim"])
def test_eval_and_recommend_reject_a_rac_checkpoint_of_another_city(synth, capsys, num_stations, obs_dim_offset):
    """The synth city has 3 stations. A checkpoint for another station count
    or observation width is refused by name, where it ranked the wrong
    stations or raised an IndexError before."""
    tmp_path, config = synth
    ckpt = _rac_checkpoint(config, tmp_path / "other.ckpt", num_stations, obs_dim_offset)
    assert main(["eval", "--config", str(config), "--model", str(ckpt), "--k", "1,3"]) == 4
    assert str(ckpt) in _assert_one_json_error(capsys, "DataFormatError")["message"]
    assert main(["recommend", "--config", str(config), "--model", str(ckpt), "--driver", "driver-0",
                 "--k", "2"]) == 4
    assert str(ckpt) in _assert_one_json_error(capsys, "DataFormatError")["message"]


@pytest.mark.parametrize("which", ["shared", "driver"])
def test_eval_model_dir_rejects_a_checkpoint_of_another_city(synth, capsys, which):
    tmp_path, config = synth
    out_dir = tmp_path / "per-driver"
    assert main(["train-rac", "--config", str(config), "--per-driver", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    index = json.loads((out_dir / "index.json").read_text())
    ckpt = out_dir / (index["shared"] if which == "shared" else index["files"]["driver-2"])
    _rac_checkpoint(config, ckpt, 2)
    assert main(["eval", "--config", str(config), "--model-dir", str(out_dir), "--k", "1"]) == 4
    assert str(ckpt) in _assert_one_json_error(capsys, "DataFormatError")["message"]


@pytest.mark.parametrize("stations", [["cs0", "cs1"], ["cs0", "cs1", "cs2", "cs3"], ["cs0", "cs1", "cs9"]],
                         ids=["fewer", "more", "other-ids"])
@pytest.mark.parametrize("kind", [MarkovRecommender, PopularityRecommender])
def test_eval_and_recommend_reject_a_baseline_of_another_city(synth, capsys, stations, kind):
    tmp_path, config = synth
    ckpt = tmp_path / "other.ckpt"
    save_baseline(kind(stations).fit({}), ckpt)
    assert main(["eval", "--config", str(config), "--model", str(ckpt), "--k", "1"]) == 4
    assert str(ckpt) in _assert_one_json_error(capsys, "DataFormatError")["message"]
    assert main(["recommend", "--config", str(config), "--model", str(ckpt), "--driver", "driver-0",
                 "--k", "1"]) == 4
    assert str(ckpt) in _assert_one_json_error(capsys, "DataFormatError")["message"]


def test_per_driver_training_and_eval(synth, capsys):
    tmp_path, config = synth
    out_dir = tmp_path / "per-driver"
    assert main(["train-rac", "--config", str(config), "--per-driver",
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    index = json.loads((out_dir / "index.json").read_text())
    assert (out_dir / index["shared"]).exists()
    assert len(index["files"]) == 4
    assert main(["eval", "--config", str(config), "--model-dir", str(out_dir), "--k", "1"]) == 0
    aggregate = json.loads(capsys.readouterr().out)
    assert aggregate["drivers"] == 4


def test_per_driver_training_rejects_log(synth, capsys):
    tmp_path, config = synth
    out_dir = tmp_path / "per-driver"
    rc = main(["train-rac", "--config", str(config), "--per-driver", "--out-dir", str(out_dir),
               "--log", str(tmp_path / "pd.log.jsonl")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "UsageError" and "--log" in err["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("flags,message", [
    (["--per-driver", "--out", "x.ckpt", "--out-dir", "pd"], "--out is not used with --per-driver"),
    (["--per-driver"], "--per-driver training needs --out-dir"),
    ([], "shared training needs --out"),
    (["--out", "x.ckpt", "--out-dir", "pd"], "--out-dir is used only with --per-driver"),
], ids=["per-driver-with-out", "per-driver-without-out-dir", "shared-without-out", "shared-with-out-dir"])
def test_train_rac_refuses_flags_it_would_ignore(synth, capsys, flags, message):
    """--per-driver ignored --out, and shared training --out-dir; a missing
    output flag was an error only after the bundle and the forecaster were
    loaded. The events file and the forecaster here do not exist, so the
    refusal must come before either is read (exit 2, not 3)."""
    tmp_path, config = synth
    cfg = tmp_path / "missing-events.cfg"
    cfg.write_text(config.read_text(encoding="utf-8").replace(str(tmp_path / "events.csv"),
                                                              str(tmp_path / "missing.csv")), encoding="utf-8")
    paths = [str(tmp_path / flag) if flag in ("x.ckpt", "pd") else flag for flag in flags]
    rc = main(["train-rac", "--config", str(cfg), "--reward", str(tmp_path / "missing.ckpt"), *paths])
    assert rc == 2
    assert message in _assert_one_json_error(capsys, "UsageError")["message"]
    assert not (tmp_path / "x.ckpt").exists() and not (tmp_path / "pd").exists()


@pytest.mark.parametrize("per_driver", [False, True])
def test_train_rac_writes_its_divergence_dump(synth, capsys, monkeypatch, per_driver):
    # A NaN wait makes the first epoch's losses non-finite. The run exits 1
    # with one JSON error that names the dump, and the dump on disk holds
    # the epoch, the losses and the diverged batch's windows.
    tmp_path, config = synth

    def nan_waits(self, cols, hours):
        return np.full(len(cols), np.nan), np.ones(len(cols), dtype=bool), np.zeros(len(cols), dtype=bool)

    monkeypatch.setattr("evrac.reward.MeanWaitForecaster.forecast_batch", nan_waits)
    if per_driver:
        args, dump = ["--per-driver", "--out-dir", str(tmp_path / "pd")], tmp_path / "pd" / "diverged.json"
    else:
        args, dump = ["--out", str(tmp_path / "rac.ckpt")], tmp_path / "rac.ckpt.diverged.json"
    assert main(["train-rac", "--config", str(config), *args]) == 1
    error = _assert_one_json_error(capsys, "TrainingDiverged")
    assert "non-finite losses at epoch 0" in error["message"] and str(dump) in error["message"]
    record = json.loads(dump.read_text(encoding="utf-8"))
    assert record["epoch"] == 0
    assert not np.isfinite(record["losses"]["mean_reward"])
    assert record["windows"] and all(len(w) == 3 for w in record["windows"])
    assert not list(tmp_path.glob("**/*.ckpt"))


def test_memory_error_is_one_json_error(synth, capsys, monkeypatch):
    tmp_path, config = synth

    def exhausted(bundle):
        raise MemoryError("Unable to allocate 983. MiB for an array")

    monkeypatch.setattr("evrac.cli.train_reward_model", exhausted)
    rc = main(["train-reward", "--config", str(config), "--out", str(tmp_path / "r.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert json.loads(err[-1]) == {"error": "MemoryError", "message": "Unable to allocate 983. MiB for an array"}
    assert not any("Traceback" in line for line in err)


def test_train_reward_writes_epoch_log(synth, capsys):
    tmp_path, config = synth
    out = tmp_path / "reward.ckpt"
    assert main(["train-reward", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"out", "train_mse", "val_mse", "samples", "skipped_stations"}
    log = (tmp_path / "reward.ckpt.log.jsonl").read_bytes()
    records = [json.loads(line) for line in log.decode().splitlines()]
    assert [r["epoch"] for r in records] == list(range(5))  # reward_epochs = 5
    assert all(r["grad_norm"] > 0 and isinstance(r["clipped"], bool) and r["train_mse"] >= 0
               for r in records)
    again = tmp_path / "again.ckpt"
    assert main(["train-reward", "--config", str(config), "--out", str(again)]) == 0
    assert (tmp_path / "again.ckpt.log.jsonl").read_bytes() == log


def test_td_coupled_training_saves_its_forecaster(synth, capsys):
    """Shared td-coupled training writes the forecaster it updated to
    `<out>.reward.ckpt` and names it in its JSON line; the input checkpoint
    is left as it was."""
    tmp_path, config = synth
    reward_ckpt = tmp_path / "reward.ckpt"
    assert main(["train-reward", "--config", str(config), "--out", str(reward_ckpt)]) == 0
    capsys.readouterr()
    before = reward_ckpt.read_bytes()
    config.write_text(config.read_text().replace("[mode]\n", "[mode]\nreward_update = td_coupled\n"))
    out = tmp_path / "td.ckpt"
    assert main(["train-rac", "--config", str(config), "--out", str(out), "--reward", str(reward_ckpt)]) == 0
    summary = json.loads(capsys.readouterr().out)
    saved = tmp_path / "td.ckpt.reward.ckpt"
    assert summary["reward"] == str(saved)
    assert summary["log"] == str(tmp_path / "td.ckpt.log.jsonl")
    assert reward_ckpt.read_bytes() == before
    assert saved.read_bytes() != before
    updated, _, _ = load_reward_net(saved)
    original, _, _ = load_reward_net(reward_ckpt)
    assert any(not np.array_equal(updated.params[k], original.params[k]) for k in original.params)
    records = [json.loads(line) for line in (tmp_path / "td.ckpt.log.jsonl").read_text().splitlines()]
    assert any(r["forecaster_grad_norm"] > 0 for r in records)


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--instances", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6


# ---------------------------------------------------------------------------
# Malformed checkpoints and index files: one JSON error line, exit 4
# ---------------------------------------------------------------------------

def _rewrite_header(path, mutate):
    """Replace a checkpoint's JSON header by mutate(header), keeping the payload."""
    raw = path.read_bytes()
    nl = raw.index(b"\n", len(MAGIC))
    header_len = int(raw[len(MAGIC):nl])
    header = mutate(json.loads(raw[nl + 1 : nl + 1 + header_len]))
    new = (json.dumps(header, sort_keys=True) + "\n").encode()
    path.write_bytes(MAGIC + f"{len(new)}\n".encode() + new + raw[nl + 1 + header_len :])


def _assert_one_json_error(capsys, error: str) -> dict:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert len(errors) == 1 and errors[0]["error"] == error
    return errors[0]


def _with(mapping, key, value):
    mapping[key] = value
    return mapping


def _drop(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def _hyper(header, key, value):
    _with(header["meta"]["hyper"], key, value)
    return header


@pytest.mark.parametrize("mutate,error", [
    (lambda h: _hyper(h, "bogus", 1), "DataFormatError"),
    (lambda h: _hyper(h, "hidden", "x"), "DataFormatError"),
    (lambda h: _hyper(h, "hidden", 0), "ConfigError"),
    (lambda h: _with(h, "meta", _with(h["meta"], "hyper", [1, 2])), "DataFormatError"),
    (lambda h: [h], "DataFormatError"),
    (lambda h: _drop(h, "meta"), "DataFormatError"),
    (lambda h: _with(h, "meta", _drop(h["meta"], "obs_dim")), "DataFormatError"),
    (lambda h: _with(h, "arrays", [_drop(e, "shape") for e in h["arrays"]]), "DataFormatError"),
    (lambda h: _with(h, "meta", _with(h["meta"], "critic_updates", "x")), "DataFormatError"),
    (lambda h: _with(h, "meta", _with(h["meta"], "obs_dim", 2**40)), "DataFormatError"),
    (lambda h: _hyper(h, "hidden", 2**40), "DataFormatError"),
], ids=["hyper-unknown-key", "hyper-hidden-string", "hyper-hidden-zero", "hyper-list",
        "header-list", "no-meta", "no-obs-dim", "manifest-no-shape", "critic-updates-string",
        "obs-dim-huge", "hyper-hidden-huge"])
def test_eval_rejects_malformed_rac_checkpoint(synth, capsys, mutate, error):
    tmp_path, config = synth
    ckpt = tmp_path / "rac.ckpt"
    assert main(["train-rac", "--config", str(config), "--out", str(ckpt)]) == 0
    capsys.readouterr()
    _rewrite_header(ckpt, mutate)
    assert main(["eval", "--config", str(config), "--model", str(ckpt), "--k", "1"]) == 4
    _assert_one_json_error(capsys, error)


def test_reward_and_fpmc_hypers_are_checked_on_load(synth, capsys):
    tmp_path, config = synth
    reward = tmp_path / "reward.ckpt"
    fpmc = tmp_path / "fpmc.ckpt"
    assert main(["train-reward", "--config", str(config), "--out", str(reward)]) == 0
    assert main(["train-baseline", "--config", str(config), "--model", "fpmc", "--out", str(fpmc)]) == 0
    capsys.readouterr()

    _rewrite_header(reward, lambda h: _hyper(h, "window", 0))
    assert main(["eval", "--config", str(config), "--model", str(fpmc), "--reward", str(reward),
                 "--k", "1"]) == 4
    assert str(reward) in _assert_one_json_error(capsys, "ConfigError")["message"]

    _rewrite_header(fpmc, lambda h: _hyper(h, "factors", "16"))
    assert main(["eval", "--config", str(config), "--model", str(fpmc), "--k", "1"]) == 4
    _assert_one_json_error(capsys, "DataFormatError")


def _meta(header, mutate):
    header["meta"] = mutate(header["meta"])
    return header


def _array(header, array, **entry):
    """Update the manifest entry of `array`; the payload stays consistent
    because renames and reshapes keep the byte count."""
    for e in header["arrays"]:
        if e["name"] == array:
            e.update(entry)
    return header


def _shape(header, name):
    return next(e["shape"] for e in header["arrays"] if e["name"] == name)


def _first_driver(header):
    return next(e["name"] for e in header["arrays"] if e["name"].startswith("driver."))


@pytest.mark.parametrize("kind,mutate", [
    ("mc", lambda h: _meta(h, lambda m: _drop(m, "lam"))),
    ("mc", lambda h: _meta(h, lambda m: _with(m, "lam", "x"))),
    ("mc", lambda h: _meta(h, lambda m: _drop(m, "stations"))),
    ("mc", lambda h: _meta(h, lambda m: _with(m, "stations", []))),
    ("mc", lambda h: _array(h, "global", name="glob")),
    ("mc", lambda h: _array(h, _first_driver(h), shape=[_shape(h, "global")[0] ** 2])),
    ("fpmc", lambda h: _meta(h, lambda m: _drop(m, "drivers"))),
    ("fpmc", lambda h: _meta(h, lambda m: _with(m, "stations", "cs0"))),
    ("fpmc", lambda h: _array(h, "IU", name="XU")),
    ("fpmc", lambda h: _array(h, "UI", shape=_shape(h, "UI")[::-1])),
    ("popularity", lambda h: _meta(h, lambda m: _with(m, "stations", [1] * len(m["stations"])))),
    ("popularity", lambda h: _array(h, "global", shape=_shape(h, "global") + [1])),
    ("mc", lambda h: _array(h, "global", shape=[2**62, 4])),
    ("mc", lambda h: _array(h, "global", shape=[2**70, 0])),
    ("fpmc", lambda h: _hyper(h, "factors", -1)),
    ("fpmc", lambda h: _hyper(h, "factors", 2**40)),
], ids=["mc-no-lam", "mc-lam-string", "mc-no-stations", "mc-no-station", "mc-no-global",
        "mc-driver-shape", "fpmc-no-drivers", "fpmc-stations-string", "fpmc-no-IU", "fpmc-UI-shape",
        "popularity-int-stations", "popularity-global-shape", "mc-size-wraps-int64", "mc-huge-empty-shape",
        "fpmc-factors-negative", "fpmc-factors-huge"])
def test_eval_rejects_malformed_baseline_checkpoint(synth, capsys, kind, mutate):
    tmp_path, config = synth
    ckpt = tmp_path / f"{kind}.ckpt"
    assert main(["train-baseline", "--config", str(config), "--model", kind, "--out", str(ckpt)]) == 0
    capsys.readouterr()
    _rewrite_header(ckpt, mutate)
    assert main(["eval", "--config", str(config), "--model", str(ckpt), "--k", "1"]) == 4
    _assert_one_json_error(capsys, "DataFormatError")


def _with_file(index, name):
    """`index` with its first driver's checkpoint file name set to `name`."""
    first = sorted(index["files"])[0]
    return _with(index, "files", {**index["files"], first: name})


@pytest.mark.parametrize("mutate", [
    lambda index: _drop(index, "shared"),
    lambda index: _drop(index, "files"),
    lambda index: _with(index, "files", {d: 7 for d in index["files"]}),
    lambda index: [index],
    lambda index: _with_file(index, "/dev/zero"),
    lambda index: _with(index, "shared", "/dev/zero"),
    lambda index: _with_file(index, "../x.ckpt"),
    lambda index: _with_file(index, "sub/x.ckpt"),
    lambda index: _with_file(index, "."),
    lambda index: _with_file(index, "x\0.ckpt"),
    lambda index: _with_file(index, "dir.ckpt"),
], ids=["no-shared", "no-files", "non-string-file", "list", "dev-zero", "shared-dev-zero", "parent-dir",
        "separator", "dot", "nul", "directory"])
def test_eval_rejects_malformed_index(synth, capsys, mutate):
    tmp_path, config = synth
    out_dir = tmp_path / "per-driver"
    assert main(["train-rac", "--config", str(config), "--per-driver", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    (out_dir / "dir.ckpt").mkdir()
    index_path = out_dir / "index.json"
    index_path.write_text(json.dumps(mutate(json.loads(index_path.read_text()))))
    assert main(["eval", "--config", str(config), "--model-dir", str(out_dir), "--k", "1"]) == 4
    _assert_one_json_error(capsys, "DataFormatError")


# File names an index may point at: outside the directory, not a regular
# file, not a checkpoint, missing, or not a name at all.
_INDEX_NAMES = st.sampled_from(["/dev/zero", "../x.ckpt", "sub/x.ckpt", ".", "..", "", "x\0.ckpt", "dir.ckpt",
                                "index.json", "missing.ckpt", "shared.ckpt", "driver-00001.ckpt"])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_eval_survives_a_mutated_index(synth, capsys, data):
    """Whatever `index.json` holds, `evrac eval --model-dir` scores the
    models or exits 2, 3 or 4 with one JSON error line and no traceback."""
    tmp_path, config = synth
    out_dir = tmp_path / "per-driver"
    good = out_dir / "index.good"
    if not good.exists():
        assert main(["train-rac", "--config", str(config), "--per-driver", "--out-dir", str(out_dir)]) == 0
        (out_dir / "dir.ckpt").mkdir()
        (out_dir / "index.json").rename(good)
    raw = good.read_bytes()
    how = data.draw(st.sampled_from(["name", "json", "bytes"]), label="how")
    if how == "name":
        index = json.loads(raw)
        key = data.draw(st.sampled_from(["shared", *index["files"]]), label="key")
        (index if key == "shared" else index["files"])[key] = data.draw(_INDEX_NAMES, label="name")
        raw = json.dumps(index).encode()
    elif how == "json":
        raw = json.dumps(data.draw(json_mutations(json.loads(raw), _INDEX_NAMES | JSON_VALUES))).encode()
    else:
        raw = data.draw(st.binary(max_size=8), label="prefix") + raw[data.draw(st.integers(0, len(raw)), label="cut"):]
    (out_dir / "index.json").write_bytes(raw)
    capsys.readouterr()
    rc = main(["eval", "--config", str(config), "--model-dir", str(out_dir), "--k", "1"])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if rc == 0:
        assert json.loads(out)["drivers"] == 4
    else:
        assert rc in (2, 3, 4)
        errors = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert len(errors) == 1


def _eval_fails_in_subprocess(config, out_dir, error: str) -> None:
    """`evrac eval --model-dir` exits 4 with one JSON `error`. It runs in a
    subprocess with a timeout, so that a blocking open or read fails the test
    instead of hanging it."""
    src = Path(evrac.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "evrac", "eval", "--config", str(config), "--model-dir",
                           str(out_dir), "--k", "1"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    errors = [json.loads(line) for line in done.stderr.splitlines() if line.startswith("{")]
    assert len(errors) == 1 and errors[0]["error"] == error


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_eval_rejects_fifo_checkpoint(synth, capsys):
    """A FIFO in place of a per-driver checkpoint is a format error, refused
    before it is opened."""
    tmp_path, config = synth
    out_dir = tmp_path / "per-driver"
    assert main(["train-rac", "--config", str(config), "--per-driver", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    index = json.loads((out_dir / "index.json").read_text())
    ckpt = out_dir / index["files"][sorted(index["files"])[0]]
    ckpt.unlink()
    os.mkfifo(ckpt)
    _eval_fails_in_subprocess(config, out_dir, "DataFormatError")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("name, error", [
    ("per-driver/index.json", "DataFormatError"),
    ("run.cfg", "ConfigError"),
    ("events.csv", "DataFormatError"),
], ids=["index", "config", "events-csv"])
def test_eval_rejects_fifo_input(synth, name, error):
    """A FIFO in place of the per-driver index, the config file or the events
    CSV is refused by its loader before it is opened."""
    tmp_path, config = synth
    (tmp_path / "per-driver").mkdir()
    fifo = tmp_path / name
    fifo.unlink(missing_ok=True)
    os.mkfifo(fifo)
    _eval_fails_in_subprocess(config, tmp_path / "per-driver", error)
