"""Data-bundle assembly: warm-up slicing, train-only statistics, environments."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from conftest import T0, km_to_lon_degrees, make_event, pattern_events
from evrac.config import Config, apply_overrides, load_config
from evrac.dataset import write_events
from evrac.errors import ConfigError
from evrac.pipeline import (
    evaluation_environment,
    load_data_bundle,
    train_baseline_model,
    training_environment,
)


def _files(tmp_path, events, stations=("cs0", "cs1")):
    events_path = tmp_path / "events.csv"
    write_events(sorted(events, key=lambda e: (e.start_time, e.event_id)), events_path)
    stations_path = tmp_path / "stations.csv"
    rows = ["station_id,latitude,longitude"]
    for i, sid in enumerate(stations):
        rows.append(f"{sid},0.0,{i * km_to_lon_degrees(2.0)}")
    stations_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(events_path), str(stations_path)


def test_bundle_basic_shapes(tmp_path):
    events = pattern_events("d1", ["cs0", "cs1"], 12) + pattern_events("d2", ["cs1", "cs0"], 12)
    ev, st = _files(tmp_path, events)
    bundle = load_data_bundle(Config(events=ev, stations=st, warmup=False))
    assert set(bundle.splits) == {"d1", "d2"}
    assert len(bundle.index) == 2
    assert bundle.obs_space.obs_dim == (1 + 2 + 76) + 2 + 31
    col = bundle.index.index_of("cs0")
    assert bundle.index.mean_wait[col] > 0 and bundle.index.mean_dist[col] > 0


def test_bundle_warmup_removes_pool_from_private(tmp_path):
    events = pattern_events("vet", ["cs0", "cs1"], 40) + pattern_events("d2", ["cs1", "cs0"], 8)
    ev, st = _files(tmp_path, events)
    warm = load_data_bundle(Config(events=ev, stations=st, warmup=True))
    zero = load_data_bundle(Config(events=ev, stations=st, warmup=False))
    # vet has 40 events -> 2 go to the pool; d2 (8 <= 10) contributes none
    assert sum(len(t.events) for t in warm.warmup_trajectories.values()) == 2
    assert len(warm.trajectories["vet"].events) == 38
    assert len(zero.trajectories["vet"].events) == 40
    assert len(warm.trajectories["d2"].events) == 8
    pool_driver = next(iter(warm.warmup_trajectories))
    assert pool_driver.startswith("anon-")


def test_bundle_small_drivers_feed_environment_only(tmp_path):
    events = pattern_events("big", ["cs0", "cs1"], 12)
    events += [make_event("tiny-0", "tiny", "cs1", T0, duration=45.0)]
    ev, st = _files(tmp_path, events)
    bundle = load_data_bundle(Config(events=ev, stations=st, warmup=False))
    assert bundle.excluded == ["tiny"]
    assert "tiny" not in bundle.splits
    # the excluded driver's occupancy is still in the training wait series
    from evrac.reward import epoch_hour

    assert bundle.train_series["cs1"].buckets.get(epoch_hour(T0), 0.0) >= 45.0


def test_bundle_norms_use_training_split_only(tmp_path):
    # identical train segments, different test events -> identical norms
    base = pattern_events("d1", ["cs0", "cs1"], 12)
    variant = base[:10] + [
        make_event("alt-a", "d1", "cs0", base[10].start_time, duration=300.0),
        make_event("alt-b", "d1", "cs0", base[11].start_time, duration=300.0),
    ]
    ev1, st = _files(tmp_path, base)
    bundle1 = load_data_bundle(Config(events=ev1, stations=st, warmup=False))
    tmp2 = tmp_path / "v2"
    tmp2.mkdir()
    ev2, st2 = _files(tmp2, variant)
    bundle2 = load_data_bundle(Config(events=ev2, stations=st2, warmup=False))
    assert bundle1.index.order == bundle2.index.order == ["cs0", "cs1"]
    assert bundle1.index.mean_wait.tobytes() == bundle2.index.mean_wait.tobytes()
    assert bundle1.index.mean_dist.tobytes() == bundle2.index.mean_dist.tobytes()


def test_bundle_requires_events(tmp_path):
    with pytest.raises(ConfigError):
        load_data_bundle(Config(events=None))


def test_environments_split_series(tmp_path):
    events = pattern_events("d1", ["cs0", "cs1"], 20, gap_hours=1.0)
    ev, st = _files(tmp_path, events)
    bundle = load_data_bundle(Config(events=ev, stations=st, warmup=False))
    train_env = training_environment(bundle, None)
    eval_env = evaluation_environment(bundle, None)
    # both price a decision; the mean-wait fallback flags it
    b = eval_env.breakdowns(["d1"], [0], [1], [0])
    assert b.fallback.tolist() == [True]
    assert train_env.breakdowns(["d1"], [0], [1], [0]).reward.tolist() == b.reward.tolist()


def test_train_baseline_kinds(tmp_path):
    events = pattern_events("d1", ["cs0", "cs1"], 12)
    ev, st = _files(tmp_path, events)
    bundle = load_data_bundle(Config(events=ev, stations=st, warmup=False))
    for kind in ("mc", "fpmc", "popularity"):
        model = train_baseline_model(bundle, kind)
        [ranked] = model.rank([("d1", bundle.trajectories["d1"].events, [4])], 2)
        assert len(ranked) == 2
    with pytest.raises(Exception):
        train_baseline_model(bundle, "lstm")


# ---------------------------------------------------------------------------
# The columnar bundle against the per-event set-up path
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module", params=["demo-seed1", "small-city"])
def generated_city(request, tmp_path_factory):
    """The seed-1 demo city, or a 9-station city with a driver too small to
    split, as scripts/generate_synthetic.py writes them."""
    out = tmp_path_factory.mktemp(request.param)
    size = [] if request.param == "demo-seed1" else ["--drivers", "15", "--events-per-driver", "24",
                                                       "--stations", "9"]
    seed = "1" if request.param == "demo-seed1" else "4"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "generate_synthetic.py"), "--out-dir", str(out),
                    "--seed", seed, *size], check=True, stdout=subprocess.DEVNULL,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    if request.param == "small-city":
        with open(out / "events.csv", "a", encoding="utf-8") as fh:
            fh.write("tiny-0,tiny,cs3,2018-06-07T09:30:00Z,50,17.5\ntiny-1,tiny,cs8,2018-06-08T23:40:00Z,300,80\n")
    return load_config(out / "config.cfg")


def _bits(series: dict) -> list:
    """Stations and buckets in insertion order, values as their bits."""
    buckets = {sid: s.buckets if hasattr(s, "buckets") else s for sid, s in series.items()}
    return [(sid, [(h, struct.pack("<d", v)) for h, v in b.items()]) for sid, b in buckets.items()]


@pytest.mark.parametrize("warmup", [True, False])
def test_bundle_bits_match_per_event_setup(generated_city, warmup):
    config = apply_overrides(generated_city, warmup=warmup)
    bundle = load_data_bundle(config)
    want = oracles.bundle_parts(config, bundle.index)
    assert {d: [e.event_id for e in t.events] for d, t in bundle.trajectories.items()} == \
        {d: [e.event_id for e in evs] for d, evs in want["trajectories"].items()}
    assert _bits(bundle.train_series) == _bits(want["train_series"])
    assert _bits(bundle.full_series) == _bits(want["full_series"])
    mean_wait, mean_dist = want["norms"]
    assert bundle.index.mean_wait.tobytes() == mean_wait.tobytes()
    assert bundle.index.mean_dist.tobytes() == mean_dist.tobytes()
    space = bundle.obs_space
    assert struct.pack("<dd", space.max_duration, space.max_energy) == \
        struct.pack("<dd", want["max_duration"], want["max_energy"])
    assert bundle.familiarity == want["familiarity"]
    assert bundle.train_end_hour == want["train_end_hour"]
    for driver_id, traj in bundle.trajectories.items():
        cuts = range(len(traj) + 1)
        assert space.windows(traj.events, cuts).tobytes() == \
            oracles.windows(space, want["trajectories"][driver_id], cuts).tobytes()
