"""History encoding, replay buffer, training loop contracts and inference."""

import copy
import json
from dataclasses import replace
from datetime import timedelta
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    T0,
    columns_of,
    constant_reward_env,
    make_event,
    make_stations,
    pattern_events,
    reference_evaluate,
    reference_rows,
    split_population,
)
from evrac import agent, nn
from evrac import reward as rw
from evrac.dataset import build_trajectories
from evrac.evaluation import evaluate
from evrac.errors import ConfigError, TrainingDiverged, UnknownStationError, UsageError
from evrac.geospatial import NUM_POI_TYPES, Station, StationIndex
from evrac.gradcheck import TOLERANCE, run_gradcheck
from evrac.reward import TIME_FEATURE_WIDTH
from evrac.seeding import rng_for


def _small_hyper(**kw):
    defaults = dict(hidden=10, embed=8, critic_hidden=8, epochs=3, samples_per_epoch=4, seed=1)
    defaults.update(kw)
    return agent.RacHyper(**defaults)


def _obs_space(n_stations=3, history=5):
    index = make_stations([f"cs{i}" for i in range(n_stations)], spacing_km=1.0)
    return agent.ObservationSpace(index, max_duration=30.0, max_energy=10.0, history=history)


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------

def test_observation_width_invariant():
    for m in (2, 8, 44):
        space = _obs_space(m)
        assert space.obs_dim == (1 + m + NUM_POI_TYPES) + 2 + TIME_FEATURE_WIDTH


def test_observation_content():
    space = _obs_space(3)
    e = make_event("e", "d", "cs1", T0, duration=15.0, energy=5.0)
    obs = space.rows(columns_of([e]), None)[0]
    assert obs[0] == 0.0                      # no previous station
    assert obs[1 + 1] == 1.0                  # one-hot of cs1
    offset = 1 + 3 + NUM_POI_TYPES
    assert obs[offset] == pytest.approx(0.5)   # soc proxy 15/30
    assert obs[offset + 1] == pytest.approx(0.5)  # energy 5/10
    with pytest.raises(UnknownStationError):
        space.rows(columns_of([make_event("e", "d", "nope", T0)]), None)
    with pytest.raises(UnknownStationError):
        space.rows(columns_of([e]), "nope")


def test_observation_space_requires_positive_duration_scale():
    index = make_stations(["cs0"])
    with pytest.raises(ConfigError):
        agent.ObservationSpace(index, max_duration=0.0, max_energy=1.0, history=5)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 5),
    history=st.integers(1, 4),
    max_energy=st.sampled_from([0.0, 10.0]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_rows_and_windows_match_per_event_oracle(m, history, max_energy, seed, data):
    rng = np.random.default_rng(seed)
    ids = [f"cs{i}" for i in range(m)]
    index = StationIndex({
        sid: Station(sid, rng.uniform(-60, 60), rng.uniform(-170, 170), rng.integers(0, 3, NUM_POI_TYPES))
        for sid in ids
    })
    space = agent.ObservationSpace(index, max_duration=30.0, max_energy=max_energy, history=history)
    # Durations run past max_duration, and start times reach before 1970
    # (negative epoch hours) at any minute.
    specs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(-3 * 10**7, 3 * 10**7),
                                         st.floats(0.0, 120.0), st.floats(0.0, 50.0)), max_size=8))
    events = columns_of([make_event(f"e{i}", "d", ids[c], T0 + timedelta(minutes=minutes), duration=dur,
                                         energy=en) for i, (c, minutes, dur, en) in enumerate(specs)])
    prev = data.draw(st.one_of(st.none(), st.sampled_from(ids)))

    got = space.rows(events, prev)
    assert got.shape == (len(events), space.obs_dim)
    assert got.tobytes() == reference_rows(space, events, prev).tobytes()
    assert space.rows(events[:0], prev).shape == (0, space.obs_dim)

    cuts = data.draw(st.lists(st.integers(0, len(events)), min_size=1, max_size=6))
    windows = space.windows(events, cuts)
    assert windows.shape == (len(cuts), history, space.obs_dim)
    for window, j in zip(windows, cuts):
        lo = max(j - history, 0)
        want = np.zeros((history, space.obs_dim))
        want[history - (j - lo):] = reference_rows(space, events[lo:j], events[lo - 1].station_id if lo else None)
        assert window.tobytes() == want.tobytes()
    assert not space.windows(events, [0] * len(cuts)).any()


def test_windows_left_pad_with_zero_rows():
    events = columns_of(pattern_events("d", ["cs0", "cs1", "cs2"], 4))
    space = _obs_space(3, history=4)
    obs = space.rows(events, None)
    padded = space.windows(events, [2])[0]
    assert padded.shape == (4, space.obs_dim)
    assert np.array_equal(padded[:2], np.zeros((2, space.obs_dim)))
    assert np.array_equal(padded[2:], obs[:2])
    short = _obs_space(3, history=2)
    assert np.array_equal(short.windows(events, [2])[0], obs[:2])
    assert np.array_equal(short.windows(events, [4])[0], obs[2:])


@settings(max_examples=60, deadline=None)
@given(history=st.integers(1, 4), seed=st.integers(0, 2**16), data=st.data())
def test_run_windows_match_per_run_windows(history, seed, data):
    """One observation pass over several runs gives each run's `windows` bit
    for bit: cut 0 and cut 1 (no previous station), mid-trajectory cuts and
    runs over three tables (the `concat` rebuild path), in any order and
    repeated."""
    rng = np.random.default_rng(seed)
    space = agent.ObservationSpace(
        StationIndex({f"cs{i}": Station(f"cs{i}", rng.uniform(-60, 60), rng.uniform(-170, 170),
                                        rng.integers(0, 3, NUM_POI_TYPES)) for i in range(4)}),
        max_duration=30.0, max_energy=10.0, history=history)
    events = []
    for d in ("a", "b"):
        events += [make_event(f"{d}{i:02d}", d, f"cs{int(rng.integers(4))}", T0 + timedelta(hours=int(h)),
                              duration=float(rng.uniform(1, 60)), energy=float(rng.uniform(0, 20)))
                   for i, h in enumerate(np.cumsum(rng.integers(1, 40, 12)))]
    table = build_trajectories(columns_of(events))       # one table: "a" and "b" share it
    other = build_trajectories(columns_of(events[12:]))  # a second table for "b"
    histories = [table["a"].events, table["b"].events, other["b"].events,
                 columns_of(list(table["a"].events))]  # a third table for "a"
    runs = data.draw(st.lists(
        st.tuples(st.integers(0, 3), st.lists(st.sampled_from([0, 1, 2, 5, 7, 11, 12]), min_size=1, max_size=4)),
        min_size=1, max_size=4))
    runs = [(histories[h], cuts) for h, cuts in runs]
    got = space.run_windows(runs)
    want = np.concatenate([space.windows(events, cuts) for events, cuts in runs])
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == np.concatenate([oracles.windows(space, list(events), cuts)
                                            for events, cuts in runs]).tobytes()


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _pad_history(observations, k):
    """Last k rows, left-padded with zero rows when fewer are available: the
    per-history reference for the windows the ranking and training paths slice."""
    m = observations.shape[0]
    if m >= k:
        return observations[m - k :]
    out = np.zeros((k, observations.shape[1]))
    out[k - m :] = observations
    return out


def _encode(enc, observations, k):
    """The state vector of one history: pad to k rows, then encode."""
    c, _ = enc.forward(_pad_history(observations, k)[None, :, :])
    return c[0]


def test_encode_history_zero_parameters_zero_state():
    enc = agent.HistoryEncoder(4, 3, 3, 2, np.random.default_rng(0))
    for p in enc.params.values():
        p[:] = 0.0
    c = _encode(enc, np.random.default_rng(1).normal(size=(3, 4)), 5)
    assert np.array_equal(c, np.zeros(3))


def test_encode_history_padding_convention():
    # One observation vs the same observation explicitly left-padded to k:
    # identical by construction under the padding rule.
    rng = np.random.default_rng(2)
    enc = agent.HistoryEncoder(4, 3, 3, 2, rng)
    obs = rng.normal(size=(1, 4))
    explicit = np.vstack([np.zeros((4, 4)), obs])
    a = _encode(enc, obs, 5)
    b = _encode(enc, explicit, 5)
    assert np.array_equal(a, b)


def test_encode_history_order_sensitivity():
    rng = np.random.default_rng(3)
    enc = agent.HistoryEncoder(4, 3, 3, 2, rng)
    obs = rng.normal(size=(5, 4))
    a = _encode(enc, obs, 5)
    b = _encode(enc, obs[::-1].copy(), 5)
    assert not np.allclose(a, b)


# ---------------------------------------------------------------------------
# Actor forward
# ---------------------------------------------------------------------------

def test_actor_uniform_with_zero_head():
    space = _obs_space(4)
    model = agent.RacModel(space.obs_dim, 4, _small_hyper())
    model.actor_head.W[:] = 0.0
    model.actor_head.b[:] = 0.0
    e = make_event("e", "d", "cs0", T0)
    pi = agent.RacRecommender(model, space).probabilities([("d", columns_of([e]), [1])])[0]
    assert pi == pytest.approx(np.full(4, 0.25), abs=1e-15)


def test_actor_output_is_distribution():
    space = _obs_space(8)
    model = agent.RacModel(space.obs_dim, 8, _small_hyper())
    e = make_event("e", "d", "cs3", T0)
    pi = agent.RacRecommender(model, space).probabilities([("d", columns_of([e]), [1])])[0]
    assert pi.shape == (8,)
    assert np.all(pi > 0)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# TD target and regularization gradient
# ---------------------------------------------------------------------------

def test_td_target_plugin():
    y = agent.td_target(np.array([-200.0]), 0.99, np.array([-100.0]), np.array([False]))
    assert y[0] == pytest.approx(-299.0, abs=1e-12)


def test_td_target_terminal():
    y = agent.td_target(np.array([-50.0]), 0.99, np.array([123.0]), np.array([True]))
    assert y[0] == -50.0


def test_td_target_gamma_zero():
    y = agent.td_target(np.array([-50.0]), 0.0, np.array([999.0]), np.array([False]))
    assert y[0] == -50.0


def test_regularization_gradient_zero_at_match():
    pi = np.array([0.25, 0.75])
    eta = agent.regularization_gradient(pi, pi)
    assert eta == pytest.approx(np.zeros(2), abs=1e-12)


def test_regularization_gradient_single_station_view():
    eta = agent.regularization_gradient(np.array([0.9]), np.array([1.0]))
    assert eta[0] == pytest.approx((1.0 - 0.9) / (0.1 * 0.9), abs=1e-9)


def test_regularization_gradient_two_station_case():
    eta = agent.regularization_gradient(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    # raw per-element values are (2, -2); the returned form carries the 1/M scale
    assert eta == pytest.approx(np.array([1.0, -1.0]), abs=1e-12)
    assert 2 * eta == pytest.approx(np.array([2.0, -2.0]), abs=1e-12)


def test_regularization_gradient_clamps_extremes():
    eta = agent.regularization_gradient(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.all(np.isfinite(eta))


def test_gradcheck_catches_a_wrong_eta_ascent(monkeypatch):
    true_gradient = agent.regularization_gradient
    monkeypatch.setattr(agent, "regularization_gradient", lambda *a, **kw: 2.0 * true_gradient(*a, **kw))
    results = run_gradcheck(instances=2)
    assert results["actor_eta"] >= TOLERANCE
    assert all(err < TOLERANCE for name, err in results.items() if name != "actor_eta")


def test_gradcheck_catches_a_lost_repeat_gradient(monkeypatch):
    # Rows that share a history must add their gradients; a fancy assignment
    # keeps only the last row's, which every path through the encoder catches.
    def overwrite(dc, rows, count):
        out = np.zeros((count, dc.shape[1]))
        out[rows] = dc
        return out

    monkeypatch.setattr(agent, "_sum_rows", overwrite)
    results = run_gradcheck(instances=2)
    encoder_paths = {"actor_softmax_ce", "actor_eta", "critic_mse"}
    assert all(results[name] >= TOLERANCE for name in encoder_paths)
    assert all(err < TOLERANCE for name, err in results.items() if name not in encoder_paths)


# ---------------------------------------------------------------------------
# Target network schedule
# ---------------------------------------------------------------------------

def test_update_target_schedule():
    space = _obs_space(2)
    model = agent.RacModel(space.obs_dim, 2, _small_hyper())
    model.critic.params["l0.W"][:] += 1.0  # diverge live critic from target
    for step in range(1, 100):
        model.critic_updates = step
        assert not agent.update_target(model, 100)
    assert not np.array_equal(model.critic_target.params["l0.W"], model.critic.params["l0.W"])
    model.critic_updates = 100
    assert agent.update_target(model, 100)
    for name in model.critic.params:
        assert np.array_equal(model.critic_target.params[name], model.critic.params[name])


def test_update_target_interval_one():
    space = _obs_space(2)
    model = agent.RacModel(space.obs_dim, 2, _small_hyper())
    model.critic.params["l0.W"][:] -= 0.5
    model.critic_updates = 1
    assert agent.update_target(model, 1)
    assert np.array_equal(model.critic_target.params["l0.W"], model.critic.params["l0.W"])


# ---------------------------------------------------------------------------
# Replay buffer
# ---------------------------------------------------------------------------

def _trajectory(driver, n):
    return build_trajectories(columns_of(pattern_events(driver, ["cs0", "cs1", "cs2"], n)))[driver]


def test_buffer_windows_full_horizon():
    space = _obs_space(3)
    buffer = agent.ReplayBuffer(history=5, horizon=10)
    buffer.add_trajectory(space, _trajectory("d", 15))
    # decision steps 1..14 -> starts 1..5
    assert len(buffer) == 5
    assert all(w.length == 10 for w in buffer.windows)
    assert [w.start for w in buffer.windows] == [1, 2, 3, 4, 5]


def test_buffer_short_trajectory_single_window():
    space = _obs_space(3)
    buffer = agent.ReplayBuffer(history=5, horizon=10)
    buffer.add_trajectory(space, _trajectory("d", 5))
    assert len(buffer) == 1
    assert buffer.windows[0].length == 4


def test_buffer_max_step_cap():
    space = _obs_space(3)
    buffer = agent.ReplayBuffer(history=5, horizon=10)
    buffer.add_trajectory(space, _trajectory("d", 20), max_step=8)
    # steps 1..7 -> single window of 7
    assert len(buffer) == 1
    assert buffer.windows[0].length == 7


def test_buffer_sampling_reproducible():
    space = _obs_space(3)
    buffer = agent.ReplayBuffer(history=5, horizon=10)
    buffer.add_trajectory(space, _trajectory("d", 40))
    a = buffer.sample(np.random.default_rng(42), 16)
    b = buffer.sample(np.random.default_rng(42), 16)
    assert a == b


def test_buffer_empty_sample_errors():
    with pytest.raises(UsageError):
        agent.ReplayBuffer(history=5, horizon=10).sample(np.random.default_rng(0), 1)


def test_terminal_flag_at_episode_end():
    space = _obs_space(3)
    buffer = agent.ReplayBuffer(history=5, horizon=10)
    buffer.add_trajectory(space, _trajectory("d", 6))
    batch = agent._gather_batch(buffer, buffer.windows)
    assert batch.terminal.tolist() == [False, False, False, False, True]


def test_terminal_flag_at_horizon_boundary():
    # Every window is a finite-horizon episode: its last step never bootstraps
    # even when the trajectory continues past it.
    space = _obs_space(3)
    buffer = agent.ReplayBuffer(history=5, horizon=4)
    buffer.add_trajectory(space, _trajectory("d", 12))
    first = buffer.windows[0]
    batch = agent._gather_batch(buffer, [first])
    assert batch.terminal.tolist() == [False, False, False, True]


def _reference_gather(space, trajectories, windows):
    """Per-step construction of a batch from the per-event oracle, the layout
    `_gather_batch` slices."""
    obs = {d: reference_rows(space, t.events, None) for d, t in trajectories.items()}
    rows = [(trajectories[w.driver_id].events, w, j) for w in windows for j in range(w.start, w.start + w.length)]
    col = space.index.index_of
    return {
        "histories": np.stack([_pad_history(obs[w.driver_id][:j], space.history) for _, w, j in rows]),
        "actions": [col(events[j].station_id) for events, _, j in rows],
        "hours": [rw.epoch_hour(events[j].start_time) for events, _, j in rows],
        "drivers": [w.driver_id for _, w, _ in rows],
        "prev_cols": [col(events[j - 1].station_id) for events, _, j in rows],
        "terminal": [j == w.start + w.length - 1 for _, w, j in rows],
    }


def _drawn_buffer(data):
    """Two drivers' random trajectories in a buffer of random history and
    horizon, each capped at a random step (or not)."""
    k = data.draw(st.integers(1, 6), label="k")
    space = _obs_space(4, history=k)
    buffer = agent.ReplayBuffer(history=k, horizon=data.draw(st.integers(1, 12), label="horizon"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    trajectories, ends = {}, {}
    for driver in ("a", "b"):
        n = data.draw(st.integers(2, 30), label=f"n_{driver}")
        max_step = data.draw(st.none() | st.integers(2, n + 2), label=f"max_step_{driver}")
        minutes = np.cumsum(rng.integers(1, 5000, n))
        events = [make_event(f"{driver}{i}", driver, f"cs{c}", T0 + timedelta(minutes=int(t)),
                             duration=float(rng.uniform(0, 60)), energy=float(rng.uniform(0, 20)))
                  for i, (c, t) in enumerate(zip(rng.integers(0, 4, n), minutes))]
        trajectories[driver] = build_trajectories(columns_of(events))[driver]
        buffer.add_trajectory(space, trajectories[driver], max_step)
        ends[driver] = min(n if max_step is None else max_step, n) - 1
    return space, buffer, trajectories, ends


def _drawn_windows(data, buffer):
    """Windows drawn with replacement, so steps repeat within and across them."""
    return data.draw(st.lists(st.sampled_from(buffer.windows), min_size=1, max_size=8), label="windows")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gather_batch_matches_per_step_reference(data):
    space, buffer, trajectories, ends = _drawn_buffer(data)
    windows = _drawn_windows(data, buffer)
    batch = agent._gather_batch(buffer, windows)
    want = _reference_gather(space, trajectories, windows)
    assert batch.windows == windows
    histories = batch.histories[batch.rows]
    assert histories.shape == want["histories"].shape
    assert histories.tobytes() == want["histories"].tobytes()
    for name in ("actions", "hours", "drivers", "prev_cols", "terminal"):
        assert list(getattr(batch, name)) == want[name], name
    # A trajectory's (or training split's) last decision always ends a window.
    last_steps = [j == ends[w.driver_id] for w in windows for j in range(w.start, w.start + w.length)]
    assert all(batch.terminal[last_steps])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gather_batch_keeps_one_history_per_distinct_step(data):
    # Each distinct (driver, step) of the batch is stored once, in the order
    # of its first row, and every row points at its own.
    space, buffer, _, _ = _drawn_buffer(data)
    windows = _drawn_windows(data, buffer)
    batch = agent._gather_batch(buffer, windows)
    keys = [(w.driver_id, j) for w in windows for j in range(w.start, w.start + w.length)]
    distinct = list(dict.fromkeys(keys))
    assert batch.histories.shape == (len(distinct), space.history, space.obs_dim)
    assert batch.rows.tolist() == [distinct.index(key) for key in keys]
    for history, (driver, j) in zip(batch.histories, distinct, strict=True):
        assert history.tobytes() == buffer.trajectories[driver][0][j : j + space.history].tobytes()


def _assert_close(got, want, rel=1e-12):
    """Equal up to `rel` of `want`'s largest magnitude."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), histories=st.integers(1, 5), batch=st.integers(1, 12),
       steps=st.integers(1, 4), case=st.sampled_from(["drawn", "distinct", "equal"]))
def test_encoder_rows_match_a_pass_over_the_repeated_histories(seed, histories, batch, steps, case):
    # Encoding U histories and gathering B rows, then summing the rows'
    # gradients before BPTT, is a pass over the B gathered histories: the
    # encoded states and every gradient agree to rounding.
    rng = np.random.default_rng(seed)
    encoder = agent.HistoryEncoder(obs_dim=6, embed=4, hidden=3, layers=2, rng=rng)
    unique = rng.normal(size=(histories, steps, 6))
    rows = {"drawn": rng.integers(0, histories, size=batch),
            "distinct": rng.permutation(histories),
            "equal": np.full(batch, rng.integers(histories))}[case]
    dc = rng.normal(size=(rows.size, 3))
    c, cache = encoder.forward(unique, rows)
    want_c, want_cache = encoder.forward(unique[rows])
    _assert_close(c, want_c)
    grads, want = encoder.backward(cache, dc), encoder.backward(want_cache, dc)
    assert list(grads) == list(want)
    for name in want:
        _assert_close(grads[name], want[name])


# ---------------------------------------------------------------------------
# Training contracts
# ---------------------------------------------------------------------------

def _training_events(n_stations):
    events = []
    for d in range(4):
        events += pattern_events(f"driver-{d}", [f"cs{i}" for i in range(n_stations)], 12)
    return events


def _training_setup(eps, n_stations=3, seed=11, **hyper_kw):
    index = make_stations([f"cs{i}" for i in range(n_stations)])
    env = constant_reward_env(index, {f"cs{i}": 10.0 * (i + 1) for i in range(n_stations)})
    trajectories, splits, _ = split_population(_training_events(n_stations))
    space = agent.ObservationSpace(index, 30.0, 10.0, 5)
    hyper = _small_hyper(epsilon=eps, seed=seed, **hyper_kw)
    buffer = agent.build_buffer(space, trajectories, {d: len(s.train) for d, s in splits.items()}, hyper)
    model = agent.RacModel(space.obs_dim, n_stations, hyper)
    return index, env, space, buffer, model, hyper


_ENCODER = ["encoder.embed.l0.W", "encoder.embed.l0.b", "encoder.lstm.l0.W", "encoder.lstm.l0.U",
            "encoder.lstm.l0.b", "encoder.lstm.l1.W", "encoder.lstm.l1.U", "encoder.lstm.l1.b"]


def test_parameter_key_orders():
    _, _, _, _, model, _ = _training_setup(0.5)
    assert list(model.actor_params()) == _ENCODER + ["actor.W", "actor.b"]
    assert list(model.critic_params()) == ["critic.l0.W", "critic.l0.b", "critic.l1.W", "critic.l1.b"]
    assert list(model.all_params()) == _ENCODER + [
        "actor.W", "actor.b", "critic.l0.W", "critic.l0.b", "critic.l1.W", "critic.l1.b",
        "critic_target.l0.W", "critic_target.l0.b", "critic_target.l1.W", "critic_target.l1.b"]


def test_clipped_gradient_key_orders(monkeypatch):
    """The gradient dicts `train_rac` clips, in their pinned orders: the
    critic's last layer first, and the actor group head first, then the
    encoder with its top LSTM layer first. Each order is the summation order
    of the global norm, so it fixes the bits of every clipped step."""
    _, env, _, buffer, model, hyper = _training_setup(0.5, epochs=1)
    clipped, clip = [], nn.clip_global_norm

    def recording_clip(grads, max_norm):
        clipped.append(list(grads))
        return clip(grads, max_norm)

    monkeypatch.setattr(nn, "clip_global_norm", recording_clip)
    agent.train_rac(buffer, model, env, hyper)
    assert clipped == [
        ["critic.l1.W", "critic.l1.b", "critic.l0.W", "critic.l0.b"],
        ["actor.W", "actor.b", "encoder.embed.l0.W", "encoder.embed.l0.b", "encoder.lstm.l1.W",
         "encoder.lstm.l1.U", "encoder.lstm.l1.b", "encoder.lstm.l0.W", "encoder.lstm.l0.U", "encoder.lstm.l0.b"],
    ]


def test_epsilon_one_matches_supervised_bitwise():
    _, env, _, buffer, model, hyper = _training_setup(1.0, epochs=1)
    twin = model.clone()
    records = agent.train_rac(buffer, model, env, hyper)
    twin_records = agent.train_supervised(buffer, twin, hyper)
    for name, p in model.actor_params().items():
        assert np.array_equal(p, twin.actor_params()[name]), name
    assert set(twin_records[0]) == {"epoch", "ce_loss", "actor_grad_norm", "actor_clipped", "wallclock_ms"}
    for key in ("actor_grad_norm", "actor_clipped"):
        assert records[0][key] == twin_records[0][key]


def test_fixed_seed_training_is_bitwise_deterministic():
    _, env, _, buffer, m1, hyper = _training_setup(0.5, epochs=4)
    m2 = m1.clone()
    agent.train_rac(buffer, m1, env, hyper)
    agent.train_rac(buffer, m2, env, hyper)
    for name, p in m1.all_params().items():
        assert np.array_equal(p, m2.all_params()[name]), name


def test_actor_stays_valid_distribution_during_training():
    index, env, space, buffer, model, hyper = _training_setup(0.5, epochs=5)
    agent.train_rac(buffer, model, env, hyper)
    e = make_event("e", "driver-0", "cs0", T0)
    pi = agent.RacRecommender(model, space).probabilities([("driver-0", columns_of([e]), [1])])[0]
    assert np.all(np.isfinite(pi))
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)


def test_training_log_schema():
    _, env, _, buffer, model, hyper = _training_setup(0.5, epochs=3)
    records = agent.train_rac(buffer, model, env, hyper)
    assert len(records) == 3
    for i, rec in enumerate(records):
        assert rec["epoch"] == i
        for key in ("critic_mse", "ce_loss", "mean_reward", "wallclock_ms"):
            assert np.isfinite(rec[key])
        assert "forecaster_grad_norm" not in rec and "forecaster_clipped" not in rec


@pytest.mark.parametrize("clip_norm", [0.0, 1e-4, 1e6])
def test_training_log_clip_telemetry(clip_norm):
    """Each update logs its pre-clip gradient norm and whether clipping
    fired: always at a tiny bound, never when disabled or at a huge one."""
    _, env, _, buffer, model, hyper = _training_setup(0.5, epochs=3, clip_norm=clip_norm)
    for rec in agent.train_rac(buffer, model, env, hyper):
        for group in ("critic", "actor"):
            norm, clipped = rec[f"{group}_grad_norm"], rec[f"{group}_clipped"]
            assert norm > 0 and np.isfinite(norm)
            assert clipped is (clip_norm == 1e-4)


def test_delta_log_consistency():
    # The critic MSE reported for the first epoch equals mean((Q(c, a_hat) - y)^2)
    # recomputed independently from the same initial checkpoint and seeds.
    index, env, space, buffer, model, hyper = _training_setup(1.0, epochs=1)
    twin = model.clone()
    records = agent.train_rac(buffer, model, env, hyper)

    from evrac.seeding import rng_for

    rng_buffer = rng_for(hyper.seed, "buffer")
    rng_actions = rng_for(hyper.seed, "actions")
    batch = agent._gather_batch(buffer, buffer.sample(rng_buffer, hyper.samples_per_epoch))
    pi, cache = twin.policy(batch.histories, batch.rows)
    rewards = env.breakdowns(batch.drivers, batch.prev_cols, batch.actions, batch.hours).reward
    # The next states in a second encoder pass of their own: step j's next
    # state is the history that includes event j.
    trajectories = build_trajectories(columns_of(_training_events(3)))
    next_histories = np.stack([
        _pad_history(space.rows(trajectories[w.driver_id].events, None)[: j + 1], hyper.history)
        for w in batch.windows
        for j in range(w.start, w.start + w.length)
    ])
    c_next, _ = twin.encoder.forward(next_histories)
    logits_next, _ = twin.actor_head.forward(c_next)
    a_next = nn.sample_categorical(rng_actions, nn.softmax(logits_next))
    q_next, _ = twin.q_values(c_next, agent._onehot_rows(a_next, 3), target=True)
    y = agent.td_target(rewards, hyper.gamma, q_next, batch.terminal)
    q_logged, _ = twin.q_values(cache["c"], agent._onehot_rows(batch.actions, 3))
    delta = q_logged - y
    assert float(np.mean(delta * delta)) == records[0]["critic_mse"]
    assert records[0]["critic_explained_var"] == 1.0 - records[0]["critic_mse"] / float(np.var(y))
    entropy = -np.sum(pi * np.log(pi), axis=1)
    assert records[0]["policy_entropy"] == pytest.approx(float(np.mean(entropy)), rel=1e-12)


def test_explained_variance_is_null_when_targets_are_equal():
    """Colocated stations with equal waits and gamma = 0 make every TD target
    the same reward: the explained variance is None, and the entropy of the
    two-station policy lies in [0, log 2]."""
    index = make_stations(["cs0", "cs1"])
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 10.0})
    space = agent.ObservationSpace(index, max_duration=30.0, max_energy=10.0, history=3)
    hyper = _small_hyper(history=3, horizon=3, gamma=0.0)
    trajectories = build_trajectories(columns_of(pattern_events("d", ["cs0", "cs1"], 12)))
    buffer = agent.build_buffer(space, trajectories, None, hyper)
    records = agent.train_rac(buffer, agent.RacModel(space.obs_dim, 2, hyper), env, hyper)
    assert [r["critic_explained_var"] for r in records] == [None] * hyper.epochs
    assert all(0.0 <= r["policy_entropy"] <= np.log(2) for r in records)


def test_critic_semigradient_drives_q_to_reward():
    # gamma = 0, fixed encoder output: repeated updates on one (c, a, r)
    # decrease (Q - r)^2 monotonically.
    rng = np.random.default_rng(0)
    critic = nn.Mlp([6, 8, 1], rng)
    c = rng.normal(size=(1, 4))
    a = np.array([[1.0, 0.0]])
    x = np.concatenate([c, a], axis=1)
    r = -150.0
    errors = []
    for _ in range(60):
        q, cache = critic.forward(x)
        delta = q[:, 0] - r
        errors.append(float(delta[0] ** 2))
        _, grads = critic.backward(cache, delta[:, None])
        nn.clip_global_norm(grads, 5.0)
        nn.sgd_step(critic.params, grads, 0.05)
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < errors[0]


def test_nan_reward_aborts_with_dump():
    index, env, space, buffer, model, hyper = _training_setup(0.5, epochs=2)

    class BadForecaster:
        def forecast_batch(self, cols, hours):
            return np.full(len(cols), np.nan), np.zeros(len(cols), dtype=bool), np.zeros(len(cols), dtype=bool)

    env.forecaster = BadForecaster()
    with pytest.raises(TrainingDiverged) as excinfo:
        agent.train_rac(buffer, model, env, hyper)
    assert "windows" in excinfo.value.dump
    assert excinfo.value.dump["epoch"] == 0


def test_td_coupled_requires_net_forecaster():
    _, env, _, buffer, model, hyper = _training_setup(0.5, reward_update="td_coupled")
    with pytest.raises(ConfigError):
        agent.train_rac(buffer, model, env, hyper)


def _net_env(index, net):
    """Environment priced by `net` over the series of `_training_setup`'s
    events, 3 lag hours: early decisions fall back to the mean wait."""
    events = []
    for d in range(4):
        events += pattern_events(f"driver-{d}", list(index.order), 12)
    forecaster = rw.NetWaitForecaster(net, rw.build_wait_series(columns_of(events)), index, 3)
    return rw.RewardEnvironment(index, forecaster, {})


def _params(model, net):
    out = {f"model.{k}": v for k, v in model.all_params().items()}
    out.update({f"net.{k}": v for k, v in net.params.items()})
    return out


def test_td_coupled_training():
    index, _, _, buffer, model, hyper = _training_setup(0.5, epochs=3, reward_update="td_coupled")
    start_net = rw.WaitForecastNet(rw.reward_net_input_dim(index), 4, 1, rng_for(0, "td-net"))
    start_model = model.clone()

    env = _net_env(index, copy.deepcopy(start_net))
    records = agent.train_rac(buffer, model, env, hyper)
    trained = _params(model, env.forecaster.net)
    for rec in records:
        assert rec["forecaster_grad_norm"] >= 0 and rec["forecaster_clipped"] is (
            0 < hyper.clip_norm < rec["forecaster_grad_norm"])
    assert any(rec["forecaster_grad_norm"] > 0 for rec in records)
    assert any(not np.array_equal(v, start_net.params[k]) for k, v in env.forecaster.net.params.items())

    twin_env = _net_env(index, copy.deepcopy(start_net))
    twin_model = start_model.clone()
    twin_records = agent.train_rac(buffer, twin_model, twin_env, hyper)
    for name, value in _params(twin_model, twin_env.forecaster.net).items():
        assert value.tobytes() == trained[name].tobytes(), name
    for a, b in zip(twin_records, records, strict=True):
        assert {k: v for k, v in a.items() if k != "wallclock_ms"} == {k: v for k, v in b.items() if k != "wallclock_ms"}

    # Epoch e prices its batch with the forecaster as the first e epochs left it.
    rng_buffer = rng_for(hyper.seed, "buffer")
    for epoch, record in enumerate(records):
        net = copy.deepcopy(start_net)
        if epoch:
            agent.train_rac(buffer, start_model.clone(), _net_env(index, net), replace(hyper, epochs=epoch))
        batch = agent._gather_batch(buffer, buffer.sample(rng_buffer, hyper.samples_per_epoch))
        priced = _net_env(index, net).breakdowns(batch.drivers, batch.prev_cols, batch.actions, batch.hours)
        assert float(np.mean(priced.reward)) == record["mean_reward"]


def test_pg_weight_delta_variant_runs():
    _, env, _, buffer, model, hyper = _training_setup(0.0, epochs=2, pg_weight="delta")
    records = agent.train_rac(buffer, model, env, hyper)
    assert len(records) == 2


def test_eta_regularizer_variant_runs():
    _, env, _, buffer, model, hyper = _training_setup(1.0, epochs=2, regularizer="eta")
    records = agent.train_rac(buffer, model, env, hyper)
    assert np.isfinite(records[-1]["ce_loss"])


# ---------------------------------------------------------------------------
# Recommendation
# ---------------------------------------------------------------------------

def _recommend_setup():
    index = make_stations(["cs0", "cs1", "cs2"], spacing_km=2.0, mean_wait=10.0, mean_dist=2.0)
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 10.0, "cs2": 10.0})
    space = agent.ObservationSpace(index, 30.0, 10.0, 5)
    model = agent.RacModel(space.obs_dim, 3, _small_hyper())
    history = columns_of(pattern_events("d1", ["cs0", "cs1"], 4))
    return index, env, space, model, history


def test_recommend_full_permutation():
    _, env, space, model, history = _recommend_setup()
    items = agent.recommend(model, space, env, "d1", history, 3)
    assert sorted(i.station_id for i in items) == ["cs0", "cs1", "cs2"]


def test_recommend_uniform_ties_by_station_id():
    _, env, space, model, history = _recommend_setup()
    model.actor_head.W[:] = 0.0
    model.actor_head.b[:] = 0.0
    items = agent.recommend(model, space, env, "d1", history, 3)
    assert [i.station_id for i in items] == ["cs0", "cs1", "cs2"]
    assert all(i.prob == pytest.approx(1 / 3, abs=1e-12) for i in items)


def test_recommend_k_bounds():
    _, env, space, model, history = _recommend_setup()
    with pytest.raises(UsageError):
        agent.recommend(model, space, env, "d1", history, 4)
    with pytest.raises(UsageError):
        agent.recommend(model, space, env, "d1", history[:0], 1)


def test_recommend_annotations():
    _, env, space, model, history = _recommend_setup()
    items = agent.recommend(model, space, env, "d1", history, 2)
    for item in items:
        assert item.est_reward <= 0
        assert item.est_wait_min == 10.0
        assert item.est_dist_km >= 0


def test_recommend_learned_preference_top1():
    # A driver who always charged at cs2: a preference-trained model ranks it first.
    index = make_stations(["cs0", "cs1", "cs2"])
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 10.0, "cs2": 10.0})
    space = agent.ObservationSpace(index, 30.0, 10.0, 5)
    events = columns_of(pattern_events("loyal", ["cs2"], 20))
    trajectories = build_trajectories(events)
    hyper = _small_hyper(epsilon=1.0, alpha=0.5, epochs=120, samples_per_epoch=8, seed=2)
    buffer = agent.build_buffer(space, trajectories, None, hyper)
    model = agent.RacModel(space.obs_dim, 3, hyper)
    agent.train_rac(buffer, model, env, hyper)
    items = agent.recommend(model, space, env, "loyal", events[:10], 1)
    assert items[0].station_id == "cs2"


@pytest.mark.parametrize("max_step", [None, 7])
def test_gather_batch_histories_match_windows(max_step):
    # The training path and the ranking path see the same observations,
    # bit for bit, at every decision step, including the previous-station
    # link of the first row kept and the left padding.
    space = _obs_space(3, history=3)
    buffer = agent.ReplayBuffer(history=3, horizon=4)
    traj = build_trajectories(columns_of(pattern_events("d", ["cs0", "cs2", "cs1", "cs1"], 11)))["d"]
    buffer.add_trajectory(space, traj, max_step)
    batch = agent._gather_batch(buffer, buffer.windows)
    steps = [j for w in buffer.windows for j in range(w.start, w.start + w.length)]
    assert set(steps) == set(range(1, max_step or len(traj)))
    for history, j in zip(batch.histories[batch.rows], steps, strict=True):
        assert history.tobytes() == space.windows(traj.events, [j])[0].tobytes()


@pytest.mark.parametrize("n, max_step", [(2, None), (6, None), (20, None), (20, 8), (20, 30), (20, 1)])
def test_buffer_stores_each_observation_once(n, max_step):
    # One observation array per driver, `history` zero rows then one row per
    # decision step, and one station column and hour per event up to the
    # last step: no event past the training cap is kept.
    space = _obs_space(3, history=5)
    buffer = agent.ReplayBuffer(history=5, horizon=10)
    buffer.add_trajectory(space, _trajectory("d", n), max_step)
    steps = min(n, max_step or n) - 1
    if steps < 1:
        assert buffer.trajectories == {}
        return
    obs, cols, hours = buffer.trajectories["d"]
    assert obs.shape == (5 + steps, space.obs_dim)
    assert cols.shape == hours.shape == (steps + 1,)


def test_buffer_rejects_a_mismatched_history():
    with pytest.raises(UsageError):
        agent.ReplayBuffer(history=4, horizon=10).add_trajectory(_obs_space(3, history=5), _trajectory("d", 6))


def test_recommend_ranks_like_rac_recommender():
    index, env, space, _, _ = _recommend_setup()
    model = agent.RacModel(space.obs_dim, 3, _small_hyper(seed=7))
    rec = agent.RacRecommender(model, space)
    events = columns_of(pattern_events("d1", ["cs0", "cs2", "cs1", "cs2"], 12))
    for j in range(1, len(events) + 1):
        items = agent.recommend(model, space, env, "d1", events[:j], 3)
        assert [i.station_id for i in items] == rec.rank([("d1", events, [j])], 3)[0]
        p = rec.probabilities([("d1", events, [j])])[0]
        assert [i.prob for i in items] == [float(p[index.index_of(i.station_id)]) for i in items]


def test_recommend_serves_a_baseline():
    from evrac.baselines import MarkovRecommender

    index, env, space, _, history = _recommend_setup()
    mc = MarkovRecommender(index.order).fit({"d1": history})
    items = agent.recommend(mc, space, env, "d1", history, 2)
    assert [i.station_id for i in items] == mc.rank([("d1", history, [len(history)])], 2)[0]
    assert items[0].prob == mc.probabilities([("d1", history, [len(history)])])[0][index.index_of(items[0].station_id)]


# Per-event forms of every recommender, as each scored one history before
# they were batched over cut points: the references the batched rows must match.

def _per_event_rac(model, space, history):
    if not history:
        return np.full(model.num_stations, 1.0 / model.num_stations)
    start = max(len(history) - space.history, 0)
    rows = reference_rows(space, history[start:], history[start - 1].station_id if start else None)
    pi, _ = model.policy(_pad_history(rows, model.hyper.history)[None, :, :])
    return pi[0]


def _per_event_mc(mc, driver_id, history):
    matrix = mc.per_driver.get(driver_id, mc.global_matrix)
    last = history[-1].station_id if history else None
    if last is None or last not in mc.index:
        return np.full(len(mc.stations), 1.0 / len(mc.stations))
    return matrix[mc.index[last]]


def _per_event_fpmc(fpmc, driver_id, history):
    out = np.zeros(len(fpmc.stations))
    u = fpmc.driver_index.get(driver_id)
    if u is not None:
        out += fpmc.IU @ fpmc.UI[u]
    last = history[-1].station_id if history else None
    if last is not None and last in fpmc.index:
        out += fpmc.IL @ fpmc.LI[fpmc.index[last]]
    return nn.softmax(out)


def _per_event_popularity(pop, driver_id, history):
    counts = pop.per_driver.get(driver_id, pop.global_counts)
    total = counts.sum()
    if total == 0:
        return np.full(len(pop.stations), 1.0 / len(pop.stations))
    return counts / total


def _random_events(rng, driver_id, stations, n):
    hours = np.cumsum(rng.integers(1, 72, n))
    return [
        make_event(f"{driver_id}-{i:03d}", driver_id, stations[int(rng.integers(len(stations)))],
                   T0 + timedelta(hours=int(h)), duration=float(rng.uniform(1.0, 60.0)),
                   energy=float(rng.uniform(0.0, 20.0)))
        for i, h in enumerate(hours)
    ]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_probabilities_rows_are_policy_rows(data):
    """`probabilities` runs the policy in passes: each of its rows has the
    bits of the `model.policy` row over the same pass of windows
    (passes of 1, 3 or 129 cuts and 1-3 encoder layers, consecutive requests
    sometimes over one events table), and a cut of 0 gets the uniform row."""
    m = data.draw(st.integers(1, 12), label="m")
    k = data.draw(st.integers(1, 10), label="k")
    layers = data.draw(st.integers(1, 3), label="layers")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    stations = [f"cs{i:02d}" for i in range(m)]
    space = agent.ObservationSpace(make_stations(stations, spacing_km=1.5), 60.0, 20.0, k)
    requests = []
    for d in range(data.draw(st.integers(1, 3), label="requests")):
        if requests and data.draw(st.booleans(), label="same events list"):
            events = requests[-1][1]  # one `windows` call serves both requests' cuts in a pass
        else:
            events = columns_of(_random_events(rng, f"d{d}", stations, data.draw(st.integers(0, 25), label="n")))
        cuts = data.draw(st.lists(st.integers(0, len(events)), min_size=1, max_size=60), label="cuts")
        requests.append((f"d{d}", events, cuts))
    model = agent.RacModel(space.obs_dim, m, _small_hyper(history=k, layers=layers, seed=int(rng.integers(1000))))
    chunk = data.draw(st.sampled_from([1, 3, 129]), label="chunk")
    with patch.object(agent, "INFERENCE_ROWS", chunk):
        got = agent.RacRecommender(model, space).probabilities(requests)
    windows = np.concatenate([space.windows(events, cuts) for _, events, cuts in requests])
    want = np.concatenate([model.policy(windows[i : i + chunk])[0] for i in range(0, len(windows), chunk)])
    want[np.concatenate([cuts for _, _, cuts in requests]) == 0] = 1.0 / m
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batched_probabilities_match_per_event_oracle(data):
    """One call over several drivers' requests gives the per-event rows, in
    request order: RAC probabilities within 1e-15 (a batched forward rounds
    differently from B=1), whatever the forward's chunk length, and the
    baselines' rows bitwise equal."""
    from evrac.baselines import FpmcHyper, FpmcRecommender, MarkovRecommender, PopularityRecommender, _rank_row

    m = data.draw(st.integers(1, 50), label="m")
    k = data.draw(st.integers(1, 6), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    stations = [f"cs{i:02d}" for i in range(m)]
    space = agent.ObservationSpace(make_stations(stations, spacing_km=1.5), 60.0, 20.0, k)
    train = {f"d{d}": columns_of(_random_events(rng, f"d{d}", stations, int(rng.integers(2, 12))))
             for d in range(3)}
    requests = []
    for _ in range(data.draw(st.integers(1, 4), label="requests")):
        driver = data.draw(st.sampled_from(["d0", "d1", "d2", "stranger"]), label="driver")
        events = columns_of(_random_events(rng, driver, stations, data.draw(st.integers(0, 25), label="n")))
        cuts = data.draw(st.lists(st.integers(0, len(events)), min_size=1, max_size=12), label="cuts")
        requests.append((driver, events, cuts))

    model = agent.RacModel(space.obs_dim, m, _small_hyper(history=k, seed=int(rng.integers(1000))))
    rac = agent.RacRecommender(model, space)
    want = np.stack([_per_event_rac(model, space, events[:j]) for _, events, cuts in requests for j in cuts])
    chunk = data.draw(st.sampled_from([1, 2, 3, 7, agent.INFERENCE_ROWS]), label="chunk")
    with patch.object(agent, "INFERENCE_ROWS", chunk):
        got = rac.probabilities(requests)
        ranked = rac.rank(requests, m)
    assert got.shape == (len(want), m)
    assert np.abs(got - want).max() <= 1e-15
    assert ranked == [_rank_row(row, stations, m) for row in want]

    # The baselines also see previous stations they do not know.
    seen = [(driver, columns_of([replace(e, station_id="elsewhere") if rng.random() < 0.2 else e
                                      for e in events]), cuts)
            for driver, events, cuts in requests]
    baselines = [
        (MarkovRecommender(stations).fit(train), _per_event_mc),
        (FpmcRecommender(stations, FpmcHyper(factors=4, epochs=2, seed=1)).fit(train), _per_event_fpmc),
        (PopularityRecommender(stations).fit(train), _per_event_popularity),
    ]
    for baseline, per_event in baselines:
        want = np.stack([per_event(baseline, driver, events[:j]) for driver, events, cuts in seen for j in cuts])
        assert np.array_equal(baseline.probabilities(seen), want), type(baseline).__name__
        assert baseline.rank(seen, m) == [_rank_row(row, stations, m) for row in want]


def _per_driver_case(data, rng, space, m):
    """A shared model and a driver -> model map drawn for `drivers`: some
    drivers are missing from it, and one model object can serve several."""
    shared = agent.RacModel(space.obs_dim, m, _small_hyper(history=space.history, seed=int(rng.integers(1000))))
    pool = [agent.RacModel(space.obs_dim, m, _small_hyper(history=space.history, seed=int(rng.integers(1000))))
            for _ in range(2)]
    choices = st.sampled_from([None, "shared", 0, 1])

    def draw_models(drivers):
        picks = {d: data.draw(choices, label=f"model of {d}") for d in drivers}
        return {d: shared if pick == "shared" else pool[pick] for d, pick in picks.items() if pick is not None}

    return shared, draw_models


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_per_driver_probabilities_match_one_recommender_per_driver(data):
    """With a driver -> model map, every row has the bits of a single-model
    `RacRecommender` over that driver's requests alone, run through the
    driver's model, or the shared one for a driver the map lacks: requests
    with 0, 1 and more than `INFERENCE_ROWS` cuts, cuts of 0, a driver's
    requests apart in the call, and one model object shared by several
    drivers."""
    m = data.draw(st.integers(1, 6), label="m")
    k = data.draw(st.integers(1, 4), label="k")
    chunk = data.draw(st.sampled_from([1, 2, 3]), label="chunk")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    stations = [f"cs{i:02d}" for i in range(m)]
    space = agent.ObservationSpace(make_stations(stations, spacing_km=1.5), 60.0, 20.0, k)
    drivers = [f"d{i}" for i in range(data.draw(st.integers(1, 4), label="drivers"))]
    events_of = {d: columns_of(_random_events(rng, d, stations, data.draw(st.integers(0, 12), label="n")))
                 for d in drivers}
    requests = []
    for _ in range(data.draw(st.integers(1, 6), label="requests")):
        d = data.draw(st.sampled_from(drivers), label="driver")
        cuts = data.draw(st.lists(st.integers(0, len(events_of[d])), max_size=2 * chunk + 1), label="cuts")
        requests.append((d, events_of[d], cuts))
    shared, draw_models = _per_driver_case(data, rng, space, m)
    models = draw_models(drivers)

    starts = np.cumsum([0] + [len(cuts) for _, _, cuts in requests])
    with patch.object(agent, "INFERENCE_ROWS", chunk):
        got = agent.RacRecommender(shared, space, models).probabilities(requests)
        want = np.full_like(got, np.nan)
        for d in drivers:
            mine = [i for i, request in enumerate(requests) if request[0] == d]
            rows = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in mine] + [np.empty(0, np.intp)])
            want[rows] = agent.RacRecommender(models.get(d, shared), space).probabilities([requests[i] for i in mine])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_per_driver_evaluation_matches_reference(data):
    """`evaluate` with one per-driver `RacRecommender` gives the report of
    the per-driver reference harness, one single-model recommender per
    driver, NaN-aware and bit for bit, with and without a reward
    environment."""
    m = data.draw(st.integers(1, 5), label="m")
    chunk = data.draw(st.sampled_from([1, 2, agent.INFERENCE_ROWS]), label="chunk")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    stations = [f"cs{i:02d}" for i in range(m)]
    index = make_stations(stations, spacing_km=1.5)
    space = agent.ObservationSpace(index, 60.0, 20.0, data.draw(st.integers(1, 4), label="k"))
    events = []
    for d in range(data.draw(st.integers(1, 4), label="drivers")):
        events += _random_events(rng, f"d{d}", stations, data.draw(st.integers(1, 40), label="n"))
    trajectories, splits, _ = split_population(events)
    shared, draw_models = _per_driver_case(data, rng, space, m)
    models = draw_models(sorted(trajectories))
    env = None
    if data.draw(st.booleans(), label="env"):
        env = constant_reward_env(index, {sid: float(rng.uniform(1.0, 30.0)) for sid in stations})
    with patch.object(agent, "INFERENCE_ROWS", chunk):
        got = evaluate(agent.RacRecommender(shared, space, models), trajectories, splits, env, ks=(1, 2, 3))
        want = reference_evaluate(None, trajectories, splits, env, ks=(1, 2, 3),
                                  models={d: agent.RacRecommender(models.get(d, shared), space) for d in splits})
    assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(want.to_dict(), sort_keys=True)


def test_val_p1_equals_evaluate_precision_at_1():
    space = _obs_space(3, history=2)
    events = []
    for d, pattern in enumerate((["cs0", "cs1", "cs2"], ["cs2", "cs2", "cs0"], ["cs1", "cs0"])):
        events += pattern_events(f"d{d}", pattern, 40)
    trajectories, splits, _ = split_population(events)
    model = agent.RacModel(space.obs_dim, 3, _small_hyper(seed=11))
    rec = agent.RacRecommender(model, space)
    val = agent.validation_sets(space, trajectories, splits)
    for d, split in splits.items():
        assert split.val
        cuts = oracles.cut_points(trajectories[d], split.val)
        assert val[d].windows.tobytes() == space.windows(trajectories[d].events, cuts).tobytes()
        assert val[d].truths == [e.station_id for e in split.val]
        report = evaluate(rec, {d: trajectories[d]}, {d: replace(split, test=split.val)}, None, ks=(1,))
        assert agent._val_p1(model, space.index.order, val[d]) == report.precision[1]


@pytest.mark.parametrize("chunk", [1, agent.INFERENCE_ROWS])
@pytest.mark.parametrize("jobs", [1, 2])
def test_prebuilt_validation_windows_change_no_model(monkeypatch, jobs, chunk):
    """Fine-tuning that scores every epoch on validation windows built once
    returns, bit for bit, the shared and per-driver models of the loop that
    rebuilt them on every `_val_p1` call (`oracles.warmup_then_finetune`),
    serially and with two workers, in one-row and in full policy pieces. The
    city has a driver whose fine-tune improves, patience stops, restores to
    the epoch-0 snapshot and a driver without validation events; the
    validation windows of every driver take one observation pass, and each
    validation P@1 is the oracle's."""
    index = make_stations(["cs0", "cs1", "cs2"], spacing_km=1.0)
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 20.0, "cs2": 30.0})
    space = agent.ObservationSpace(index, 30.0, 10.0, 5)
    events = []
    for d, pattern in enumerate([["cs0", "cs1"], ["cs2", "cs2", "cs0"], ["cs1", "cs0", "cs2"], ["cs0"],
                                 ["cs2", "cs1"]]):
        events += pattern_events(f"d{d}", pattern, 30 + 10 * d)
    trajectories, splits, _ = split_population(events)
    trajectories["loner"] = build_trajectories(columns_of(pattern_events("loner", ["cs1", "cs0"], 2)))["loner"]
    pool = build_trajectories(columns_of(pattern_events("anon-0", ["cs0", "cs2"], 12)
                                              + pattern_events("anon-1", ["cs1"], 8)))
    hyper = _small_hyper(epochs=2, seed=2, epsilon=1.0, alpha=0.5)
    kwargs = dict(warmup_trajectories=pool, finetune_epochs=6, patience=2)
    monkeypatch.setattr(agent, "INFERENCE_ROWS", chunk)
    log = []
    want_shared, want = oracles.warmup_then_finetune(space, env, trajectories, splits, hyper, **kwargs, log=log)
    scores = {d: p1s for d, p1s, _ in log if p1s}
    assert any(max(p1s[1:]) > p1s[0] for p1s in scores.values()), "no fine-tune improves"
    assert any(max(p1s[1:]) <= p1s[0] for p1s in scores.values()), "no restore to the epoch-0 snapshot"
    assert any(ran < 6 for d, _, ran in log if d in scores), "no patience stop"
    assert "loner" not in splits and "loner" not in scores

    passes, p1s = [], []
    run_windows, val_p1 = agent.ObservationSpace.run_windows, agent._val_p1
    monkeypatch.setattr(agent.ObservationSpace, "run_windows",
                        lambda self, runs: passes.append(len(runs)) or run_windows(self, runs))
    monkeypatch.setattr(agent, "_val_p1", lambda *args: p1s.append(val_p1(*args)) or p1s[-1])
    got_shared, got = agent.warmup_then_finetune(space, env, trajectories, splits, hyper, **kwargs, jobs=jobs)
    assert passes == [len(scores)]
    if jobs == 1:  # workers score in their own processes
        assert p1s == [p1 for d in sorted(scores) for p1 in scores[d]]
    assert sorted(got) == sorted(want)
    for d, model in [("shared", got_shared), *got.items()]:
        reference = want_shared if d == "shared" else want[d]
        for name, p in model.all_params().items():
            assert p.tobytes() == reference.all_params()[name].tobytes(), (d, name)


# ---------------------------------------------------------------------------
# Warm-up / fine-tune plumbing
# ---------------------------------------------------------------------------

def test_warmup_cold_start_recommendation_defined():
    index = make_stations(["cs0", "cs1"])
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 10.0})
    space = agent.ObservationSpace(index, 30.0, 10.0, 5)
    pool_events = []
    for d in range(3):
        pool_events += pattern_events(f"anon-{d}", ["cs0", "cs1"], 6)
    cold = columns_of(pattern_events("newbie", ["cs0", "cs1"], 2))
    trajectories = build_trajectories(cold)
    hyper = _small_hyper(epsilon=1.0, epochs=5, seed=3)
    shared, models = agent.warmup_then_finetune(
        space, env, trajectories, {}, hyper,
        warmup_trajectories=build_trajectories(columns_of(pool_events)),
        finetune_epochs=2, patience=1,
    )
    items = agent.recommend(models["newbie"], space, env, "newbie", cold, 1)
    assert len(items) == 1


def test_warmup_empty_pool_falls_back_to_scratch():
    index = make_stations(["cs0", "cs1"])
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 10.0})
    space = agent.ObservationSpace(index, 30.0, 10.0, 5)
    events = pattern_events("d1", ["cs0", "cs1"], 12)
    trajectories, splits, _ = split_population(events)
    hyper = _small_hyper(epsilon=1.0, epochs=2, seed=4)
    shared, models = agent.warmup_then_finetune(
        space, env, trajectories, splits, hyper,
        warmup_trajectories=None, finetune_epochs=2, patience=1,
    )
    assert set(models) == {"d1"}


def test_finetune_epochs_draw_their_own_windows(monkeypatch):
    """Each fine-tuning epoch samples windows from its own seed, so a second
    epoch does not replay the first epoch's batch."""
    draws = []
    sample = agent.ReplayBuffer.sample

    def spy(self, rng, count):
        windows = sample(self, rng, count)
        draws.append([w.start for w in windows])
        return windows

    monkeypatch.setattr(agent.ReplayBuffer, "sample", spy)
    index = make_stations(["cs0", "cs1"])
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 10.0})
    space = agent.ObservationSpace(index, 30.0, 10.0, 5)
    traj = build_trajectories(columns_of(pattern_events("d1", ["cs0", "cs1"], 20)))["d1"]
    hyper = _small_hyper(epsilon=1.0, horizon=3, seed=6)
    shared = agent.RacModel(space.obs_dim, len(index), hyper)
    agent.finetune_driver(shared, space, env, traj, None, hyper, epochs=2, patience=1)
    assert len(draws) == 2 and draws[0] != draws[1]


def test_per_driver_jobs_parallel_matches_serial():
    """Per-driver models do not depend on `jobs`, also when td-coupled
    fine-tuning updates the forecaster it prices with (no splits there, so
    no early-stopping restore can hide a difference)."""
    index = make_stations(["cs0", "cs1"])
    space = agent.ObservationSpace(index, 30.0, 10.0, 5)
    events = []
    for d in range(3):
        events += pattern_events(f"d{d}", ["cs0", "cs1"], 10)
    trajectories, splits, _ = split_population(events)
    start_net = rw.WaitForecastNet(rw.reward_net_input_dim(index), 4, 1, rng_for(0, "td-net"))
    cases = [
        (lambda: constant_reward_env(index, {"cs0": 10.0, "cs1": 10.0}), splits,
         _small_hyper(epsilon=1.0, epochs=2, seed=5)),
        (lambda: _net_env(index, copy.deepcopy(start_net)), {},
         _small_hyper(epsilon=0.5, epochs=2, seed=5, reward_update="td_coupled")),
    ]
    for make_env, case_splits, hyper in cases:
        serial, parallel = (
            agent.warmup_then_finetune(space, make_env(), trajectories, case_splits, hyper,
                                       finetune_epochs=2, patience=1, jobs=jobs)[1]
            for jobs in (1, 2)
        )
        assert sorted(serial) == sorted(parallel)
        for d in serial:
            for name, p in serial[d].all_params().items():
                assert np.array_equal(p, parallel[d].all_params()[name]), (hyper.reward_update, d, name)


def test_per_driver_pool_never_exceeds_driver_count(monkeypatch):
    """jobs above the driver count must not ask for that many processes."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(agent, "ProcessPoolExecutor", RecordingPool)
    index = make_stations(["cs0", "cs1"])
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 10.0})
    space = agent.ObservationSpace(index, 30.0, 10.0, 5)
    hyper = _small_hyper(epsilon=1.0, epochs=1, seed=6)

    events = []
    for d in range(3):
        events += pattern_events(f"d{d}", ["cs0", "cs1"], 10)
    trajectories, splits, _ = split_population(events)
    _, models = agent.warmup_then_finetune(
        space, env, trajectories, splits, hyper, finetune_epochs=1, patience=1, jobs=100_000
    )
    assert asked == [3] and sorted(models) == ["d0", "d1", "d2"]

    # One driver runs serially, whatever jobs says.
    trajectories, splits, _ = split_population(pattern_events("d0", ["cs0", "cs1"], 10))
    agent.warmup_then_finetune(
        space, env, trajectories, splits, hyper, finetune_epochs=1, patience=1, jobs=100_000
    )
    assert asked == [3]
