"""Data-bundle assembly: warm-up slicing, train-only statistics, environments."""

import pytest

from conftest import T0, km_to_lon_degrees, make_event, pattern_events
from evrac.config import Config
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

    assert bundle.train_series["cs1"].value(epoch_hour(T0)) >= 45.0


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
