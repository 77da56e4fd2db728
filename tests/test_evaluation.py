"""Metrics, the evaluation harness, sweeps and case studies."""

import json
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    T0,
    columns_of,
    constant_reward_env,
    make_event,
    make_stations,
    pattern_events,
    reference_evaluate,
    split_population,
)
import oracles
from evrac import evaluation as ev
from evrac import reward as rw
from evrac.agent import ObservationSpace, RacHyper, RacModel, RacRecommender
from evrac.baselines import FpmcHyper, FpmcRecommender, MarkovRecommender, PopularityRecommender, rank_rows
from evrac.dataset import EventColumns, build_trajectories
from evrac.errors import UsageError
from evrac.seeding import rng_for


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------

def test_precision_all_hits():
    preds = [["a", "b"], ["a", "c"]]
    assert oracles.precision_at_k(preds, ["a", "a"], 1) == 1.0
    assert oracles.precision_at_k(preds, ["a", "a"], 2) == 1.0


def test_precision_no_hits():
    assert oracles.precision_at_k([["a"], ["b"]], ["x", "y"], 1) == 0.0


def test_precision_hand_case():
    preds = [["a", "b", "c"], ["b", "a", "c"], ["c", "b", "a"], ["a", "c", "b"]]
    truths = ["a", "a", "a", "x"]
    assert oracles.precision_at_k(preds, truths, 3) == 0.75


def test_precision_k_validation():
    with pytest.raises(UsageError):
        oracles.precision_at_k([], [], 0)


def test_recall_single_truth_hit():
    assert oracles.recall_at_k({"d": [["a"]]}, {"d": ["a"]}, 1) == 1.0


def test_recall_half_coverage():
    preds = {"d": [["cs1"], ["cs1"], ["cs1"]]}
    truths = {"d": ["cs1", "cs2", "cs1"]}
    assert oracles.recall_at_k(preds, truths, 1) == 0.5


def test_recall_all_perfect():
    preds = {"a": [["x"]], "b": [["y"]]}
    truths = {"a": ["x"], "b": ["y"]}
    assert oracles.recall_at_k(preds, truths, 1) == 1.0


@settings(max_examples=40)
@given(st.data())
def test_metrics_non_decreasing_in_k(data):
    m = data.draw(st.integers(2, 6))
    stations = [f"cs{i}" for i in range(m)]
    n = data.draw(st.integers(1, 20))
    rng_seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(rng_seed)
    preds = [list(rng.permutation(stations)) for _ in range(n)]
    truths = [stations[int(rng.integers(0, m))] for _ in range(n)]
    p_values = [oracles.precision_at_k(preds, truths, k) for k in range(1, m + 1)]
    r_values = [oracles.recall_at_k({"d": preds}, {"d": truths}, k) for k in range(1, m + 1)]
    assert all(b >= a for a, b in zip(p_values, p_values[1:]))
    assert all(b >= a for a, b in zip(r_values, r_values[1:]))
    assert p_values[-1] == 1.0  # truth always within top-M


def brute_force_metrics(per_driver, k):
    """Independent enumeration oracle for P@K / R@K."""
    hits = total = 0
    coverages = []
    for _, (preds, truths) in per_driver.items():
        distinct_hit = set()
        for ranked, truth in zip(preds, truths):
            total += 1
            if truth in ranked[:k]:
                hits += 1
                distinct_hit.add(truth)
        coverages.append(len(distinct_hit & set(truths)) / len(set(truths)))
    return hits / total if total else 0.0, float(np.mean(coverages)) if coverages else 0.0


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        stations = [f"cs{i}" for i in range(m)]
        drivers = int(rng.integers(1, 5))
        per_driver = {}
        for d in range(drivers):
            n = int(rng.integers(1, 13))
            preds = [list(rng.permutation(stations)) for _ in range(n)]
            truths = [stations[int(rng.integers(0, m))] for _ in range(n)]
            per_driver[f"d{d}"] = (preds, truths)
        k = int(rng.integers(1, m + 1))
        expect_p, expect_r = brute_force_metrics(per_driver, k)
        all_preds = [p for preds, _ in per_driver.values() for p in preds]
        all_truths = [t for _, truths in per_driver.values() for t in truths]
        assert oracles.precision_at_k(all_preds, all_truths, k) == expect_p
        assert oracles.recall_at_k(
            {d: p for d, (p, _) in per_driver.items()},
            {d: t for d, (_, t) in per_driver.items()},
            k,
        ) == pytest.approx(expect_r, abs=1e-12)


# ---------------------------------------------------------------------------
# Harness with a scripted recommender
# ---------------------------------------------------------------------------

class ScriptedRecommender:
    """Always recommends a fixed ranking."""

    def __init__(self, ranking):
        self.ranking = ranking

    def rank(self, requests, k):
        return [self.ranking[:k] for _, _, cuts in requests for _ in cuts]


def _population():
    events = []
    events += pattern_events("d1", ["cs0"], 10)
    events += pattern_events("d2", ["cs1"], 10)
    return split_population(events)


def test_evaluate_report_structure():
    trajectories, splits, _ = _population()
    index = make_stations(["cs0", "cs1"], mean_wait=10.0, mean_dist=1.0)
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 30.0})
    rec = ScriptedRecommender(["cs0", "cs1"])
    report = ev.evaluate(rec, trajectories, splits, env, ks=(1, 2))
    assert report.events == 2  # one test event per driver
    assert report.drivers == 2
    assert report.precision[1] == 0.5   # d1 hit, d2 miss
    assert report.precision[2] == 1.0
    assert report.recall[1] == 0.5
    # MAR: top-1 is always cs0 with wait 10/10 and dist 0 -> -100 each
    assert report.mar == pytest.approx(-100.0)


def test_evaluate_without_env_skips_mar():
    trajectories, splits, _ = _population()
    report = ev.evaluate(ScriptedRecommender(["cs0", "cs1"]), trajectories, splits, None, ks=(1,))
    assert np.isnan(report.mar)


def test_mar_mean_of_two_rewards():
    trajectories, splits, _ = _population()
    index = make_stations(["cs0", "cs1"], mean_wait=10.0, mean_dist=1.0)
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 30.0})

    class PerDriverScripted:
        def rank(self, requests, k):
            return [["cs0", "cs1"] if driver_id == "d1" else ["cs1", "cs0"] for driver_id, _, cuts in requests for _ in cuts]

    report = ev.evaluate(PerDriverScripted(), trajectories, splits, env, ks=(1,))
    assert report.mar == pytest.approx((-100.0 + -300.0) / 2)


def test_evaluate_counts_clamped_and_fallback_events():
    # d1's top-1 cs0 has lags and a net that always forecasts below zero
    # (clamped); d2's top-1 cs2 has no sessions (mean fallback).
    trajectories, splits, _ = _population()
    index = make_stations(["cs0", "cs1", "cs2"], mean_wait=10.0, mean_dist=1.0)
    events = EventColumns.concat([t.events for t in trajectories.values()])
    net = rw.WaitForecastNet(rw.reward_net_input_dim(index), 4, 1, rng_for(0, "clamp"))
    net.head.b[:] = -100.0
    env = rw.RewardEnvironment(index, rw.NetWaitForecaster(net, rw.build_wait_series(events), index, 5), {})

    class PerDriverScripted:
        def rank(self, requests, k):
            return [["cs0"] if driver_id == "d1" else ["cs2"] for driver_id, _, cuts in requests for _ in cuts]

    report = ev.evaluate(PerDriverScripted(), trajectories, splits, env, ks=(1,))
    assert (report.clamped_events, report.fallback_events) == (1, 1)
    aggregate = report.to_dict()["aggregate"]
    assert (aggregate["clamped_events"], aggregate["fallback_events"]) == (1, 1)
    assert report.per_driver["d1"].mean_norm_wait == 0.0
    assert report.per_driver["d2"].mean_norm_wait == 1.0


def test_mar_order_invariance():
    # mean over events: shuffling drivers' evaluation order cannot matter
    trajectories, splits, _ = _population()
    index = make_stations(["cs0", "cs1"], mean_wait=10.0, mean_dist=1.0)
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 30.0})
    rec = ScriptedRecommender(["cs1", "cs0"])
    a = ev.evaluate(rec, trajectories, splits, env, ks=(1,)).mar
    reversed_trajs = dict(reversed(list(trajectories.items())))
    reversed_splits = dict(reversed(list(splits.items())))
    b = ev.evaluate(rec, reversed_trajs, reversed_splits, env, ks=(1,)).mar
    assert a == b


def test_evaluate_is_deterministic():
    trajectories, splits, _ = _population()
    index = make_stations(["cs0", "cs1"], mean_wait=10.0, mean_dist=1.0)
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 30.0})
    rec = ScriptedRecommender(["cs0", "cs1"])
    a = ev.evaluate(rec, trajectories, splits, env, ks=(1, 3)).to_dict()
    b = ev.evaluate(rec, trajectories, splits, env, ks=(1, 3)).to_dict()
    assert a == b


def test_report_writers(tmp_path):
    trajectories, splits, _ = _population()
    index = make_stations(["cs0", "cs1"], mean_wait=10.0, mean_dist=1.0)
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 30.0})
    report = ev.evaluate(ScriptedRecommender(["cs0", "cs1"]), trajectories, splits, env, ks=(1,))
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    report.write_json(jpath)
    report.write_csv(cpath)
    parsed = json.loads(jpath.read_text())
    assert parsed["aggregate"]["precision"]["1"] == 0.5
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "driver_id,metric,value"
    assert any(line.startswith("AGGREGATE,p@1,") for line in lines)
    assert any(line.startswith("d1,mar,") for line in lines)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cut_points_match_dict_lookup(data):
    """`cut_points` gives the cuts of the per-call dict lookup, in the order
    given, for split segments and for any other subset in any order
    (repeats included); an event of another driver is a KeyError in both."""
    n = data.draw(st.integers(1, 30), label="n")
    events = [make_event(f"e{(7 * i) % 31:02d}", "d", f"cs{i % 3}", T0 + timedelta(hours=3 * i)) for i in range(n)]
    traj = build_trajectories(columns_of(events + pattern_events("other", ["cs0"], 2)))["d"]
    if data.draw(st.booleans(), label="segment"):
        lo = data.draw(st.integers(0, n), label="lo")
        subset = traj.events[lo : data.draw(st.integers(lo, n), label="hi")]
    else:
        subset = traj.events.take(np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=12)), dtype=np.intp))
    assert ev.cut_points(traj, subset) == oracles.cut_points(traj, subset)
    stranger = pattern_events("other", ["cs0"], 1)
    for lookup in (ev.cut_points, oracles.cut_points):
        with pytest.raises(KeyError):
            lookup(traj, columns_of(list(subset) + stranger))


# ---------------------------------------------------------------------------
# One pass over every driver, against the per-driver oracle
# ---------------------------------------------------------------------------

class _Recording:
    """Passes `rank` or `breakdowns` calls to `inner` and logs what they
    return: the rankings, the priced rewards and the number of calls."""

    def __init__(self, inner, log):
        self.inner, self.log = inner, log

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def rank(self, requests, k):
        self.log["rank_calls"] += 1
        out = self.inner.rank(requests, k)
        self.log["rankings"].extend(out)
        return out

    def breakdowns(self, *args):
        self.log["pricing_calls"] += 1
        out = self.inner.breakdowns(*args)
        self.log["rewards"].extend(out.reward.tolist())
        return out


@pytest.fixture(scope="module")
def chunked_city():
    """60 drivers x 100 events over 8 stations: more test cuts than one
    `CHUNK_ROWS` chunk (and so than one `INFERENCE_ROWS` pass), so the
    one-pass RAC forward and the pricing call of the forecaster both run
    over several passes."""
    rng = np.random.default_rng(12)
    stations = [f"cs{i}" for i in range(8)]
    index = make_stations(stations, spacing_km=1.5, mean_wait=10.0, mean_dist=1.0)
    events = []
    for d in range(60):
        hours = np.cumsum(rng.integers(1, 30, 100))
        events += [make_event(f"d{d:02d}-{i:03d}", f"d{d:02d}", stations[int(rng.integers(8))],
                              T0 + timedelta(hours=int(h)), duration=float(rng.uniform(1.0, 60.0)))
                   for i, h in enumerate(hours)]
    trajectories, splits, _ = split_population(events)
    assert sum(len(ev.cut_points(trajectories[d], s.test)) for d, s in splits.items()) > rw.CHUNK_ROWS
    space = ObservationSpace(index, 60.0, 10.0, 3)
    hyper = RacHyper(hidden=10, embed=8, critic_hidden=8, history=3, seed=4)
    train = {d: s.train for d, s in splits.items()}
    shared = RacModel(space.obs_dim, 8, hyper)
    driver_models = {d: RacModel(space.obs_dim, 8, replace(hyper, seed=i)) for i, d in enumerate(sorted(splits))}
    recommenders = {
        "rac": RacRecommender(shared, space),
        "mc": MarkovRecommender(stations).fit(train),
        "per-driver": RacRecommender(shared, space, driver_models),
    }
    # The oracle's per-driver recommenders: one single-model adapter each.
    models = {d: RacRecommender(m, space) for d, m in driver_models.items()}
    net = rw.WaitForecastNet(rw.reward_net_input_dim(index), 4, 1, rng_for(0, "one-pass"))
    familiarity = rw.most_visited(EventColumns.concat([s.train for s in splits.values()]))
    envs = {
        "none": None,
        "means": rw.RewardEnvironment(index, rw.MeanWaitForecaster(index), familiarity),
        "net": rw.RewardEnvironment(index, rw.NetWaitForecaster(net, rw.build_wait_series(columns_of(events)),
                                                                index, 3),
                                    familiarity),
    }
    return trajectories, splits, recommenders, models, envs


def _recorded_run(evaluate, chunked_city, kind, env_name):
    trajectories, splits, recommenders, models, envs = chunked_city
    log = {"rank_calls": 0, "pricing_calls": 0, "rankings": [], "rewards": []}
    env = envs[env_name] and _Recording(envs[env_name], log)
    if kind == "per-driver" and evaluate is reference_evaluate:
        report = evaluate(None, trajectories, splits, env, ks=(1, 3), models={d: _Recording(m, log) for d, m in models.items()})
    else:
        report = evaluate(_Recording(recommenders[kind], log), trajectories, splits, env, ks=(1, 3))
    return report, log


@pytest.mark.parametrize("env_name", ["none", "means", "net"])
@pytest.mark.parametrize("kind", ["rac", "mc", "per-driver"])
def test_one_pass_evaluate_matches_per_driver_oracle(chunked_city, kind, env_name):
    """One `rank` call, per-driver models included, and one pricing call
    give the per-driver harness's rankings and counts, its rewards within
    4e-15 relative error (a forecaster pass over other rows rounds
    differently) and, priced by station means or not at all, its report."""
    got, got_log = _recorded_run(ev.evaluate, chunked_city, kind, env_name)
    want, want_log = _recorded_run(reference_evaluate, chunked_city, kind, env_name)
    assert got_log["rank_calls"] == 1
    assert got_log["pricing_calls"] == (env_name != "none")
    assert got_log["rankings"] == want_log["rankings"]
    a, b = np.array(got_log["rewards"]), np.array(want_log["rewards"])
    assert a.shape == b.shape and np.all(np.abs(a - b) <= 4e-15 * np.abs(b))
    assert (got.fallback_events, got.clamped_events) == (want.fallback_events, want.clamped_events)
    assert (got.precision, got.recall, got.events, got.drivers) == (want.precision, want.recall, want.events, want.drivers)
    if env_name == "net":
        assert abs(got.mar - want.mar) <= 4e-15 * abs(want.mar)
    else:
        assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(want.to_dict(), sort_keys=True)


def test_one_pass_rac_probabilities_match_per_driver_rows(chunked_city):
    """The chunked forward over every driver's cuts gives each driver's rows
    within 1e-15 of a forward over that driver alone."""
    trajectories, splits, recommenders, _, _ = chunked_city
    requests = [(d, trajectories[d].events, ev.cut_points(trajectories[d], s.test)) for d, s in sorted(splits.items())]
    rac = recommenders["rac"]
    got = rac.probabilities(requests)
    want = np.concatenate([rac.probabilities([request]) for request in requests])
    assert got.shape == want.shape and np.abs(got - want).max() <= 1e-15


class _TableRecommender:
    """Fixed rows per (driver, cut), drawn from few values so that rows tie,
    ranked by the one-sort `rank_rows`."""

    def __init__(self, stations, rows):
        self.stations, self.rows = stations, rows

    def probabilities(self, requests):
        return np.array([self.rows[driver_id, j] for driver_id, _, cuts in requests for j in cuts])

    def rank(self, requests, k):
        return rank_rows(self.probabilities(requests), self.stations, k)


class _PerRowRanking:
    """`inner`'s rows, each ranked by its own stable sort."""

    def __init__(self, inner):
        self.inner = inner

    def rank(self, requests, k):
        return [[self.inner.stations[i] for i in np.argsort(-row, kind="stable")[:k].tolist()]
                for row in self.inner.probabilities(requests)]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), seed=st.integers(0, 2**16), data=st.data())
def test_evaluate_matches_per_driver_reference(m, seed, data):
    """The hit-position `evaluate` gives the per-driver reference's report
    (NaN-aware, bit for bit) on tied probability rows, repeated truths,
    drivers with one test event, ks above M, with and without a reward
    environment; each row's one-sort ranking is its own stable sort's."""
    rng = np.random.default_rng(seed)
    stations = [f"cs{i}" for i in range(m)]
    counts = data.draw(st.lists(st.integers(3, 12), min_size=1, max_size=5), label="events per driver")
    events = []
    for d, n in enumerate(counts):
        events += [make_event(f"d{d}-{i:02d}", f"d{d}", stations[int(rng.integers(m))], T0 + timedelta(hours=8 * i))
                   for i in range(n)]
    trajectories, splits, _ = split_population(events)
    ks = data.draw(st.lists(st.integers(1, m + 2), min_size=1, max_size=4), label="ks")

    env = None
    if data.draw(st.booleans(), label="env"):
        index = make_stations(stations, spacing_km=1.0)
        env = constant_reward_env(index, {sid: float(rng.uniform(1.0, 30.0)) for sid in stations})
    rec = _TableRecommender(stations, {(d, j): rng.integers(0, 3, m) / 2.0
                                       for d, t in trajectories.items() for j in range(len(t) + 1)})
    got = ev.evaluate(rec, trajectories, splits, env, ks=ks)
    want = reference_evaluate(_PerRowRanking(rec), trajectories, splits, env, ks=ks)
    assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(want.to_dict(), sort_keys=True)


def _recommender(kind, stations, train):
    if kind == "rac":
        space = ObservationSpace(make_stations(stations), 60.0, 10.0, 3)
        return RacRecommender(RacModel(space.obs_dim, len(stations), RacHyper(hidden=6, embed=4, history=3)), space)
    if kind == "mc":
        return MarkovRecommender(stations).fit(train)
    if kind == "fpmc":
        return FpmcRecommender(stations, FpmcHyper(factors=2, epochs=2)).fit(train)
    return PopularityRecommender(stations).fit(train)


@pytest.mark.parametrize("cut", [-1, 9, 13])
@pytest.mark.parametrize("kind", ["rac", "mc", "fpmc", "popularity"])
def test_cuts_outside_the_events_are_usage_errors(kind, cut):
    """A cut j conditions on `events[:j]`, so j must lie in [0, len(events)];
    any other cut is rejected before any row is built."""
    events = columns_of(pattern_events("d1", ["cs0", "cs1", "cs2"], 8))
    rec = _recommender(kind, ["cs0", "cs1", "cs2"], {"d1": events})
    assert rec.probabilities([("d1", events, [0, 8])]).shape == (2, 3)
    with pytest.raises(UsageError, match="cut"):
        rec.probabilities([("d1", events, [3, cut])])
    with pytest.raises(UsageError, match="cut"):
        rec.rank([("d1", events, [1]), ("d1", events, [cut])], 1)


# ---------------------------------------------------------------------------
# Sweeps and case studies (stubbed runner: no training here)
# ---------------------------------------------------------------------------

def _canned_report(p1, r1, mar, drivers=("d1",)):
    per_driver = {
        d: ev.DriverOutcome(events=1, p_at={1: p1}, r_at={1: r1}, mar=mar,
                            mean_norm_wait=1.0, mean_norm_dist=0.5)
        for d in drivers
    }
    return ev.EvalReport(
        ks=[1], per_driver=per_driver, precision={1: p1}, recall={1: r1},
        mar=mar, events=len(drivers), drivers=len(drivers), fallback_events=0, clamped_events=0,
    )


def test_epsilon_sweep_shape(tmp_path):
    grid = [0.0, 0.5, 1.0]
    rows = ev.epsilon_sweep(lambda eps: _canned_report(eps, eps / 2, -100 - 100 * eps), grid)
    assert [r["eps"] for r in rows] == grid
    assert set(rows[0]) == {"eps", "p1", "r1", "mar"}
    path = tmp_path / "sweep.csv"
    ev.write_rows_csv(rows, ev.SWEEP_COLUMNS, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "eps,p1,r1,mar"
    assert len(lines) == 4
    assert path.read_bytes() == b"eps,p1,r1,mar\n0.0,0.0,0.0,-100.0\n0.5,0.5,0.25,-150.0\n1.0,1.0,0.5,-200.0\n"


def test_epsilon_sweep_rejects_bad_grid():
    with pytest.raises(UsageError):
        ev.epsilon_sweep(lambda eps: _canned_report(1, 1, -1), [0.0, 1.5])


def test_case_study_rows(tmp_path):
    rows = ev.case_study(
        lambda eps: _canned_report(0.5, 0.5, -150, drivers=("d1", "d2")),
        ["d1", "d2"],
        [0.2, 0.8],
    )
    assert len(rows) == 4  # two drivers x two epsilons
    assert {r["eps"] for r in rows} == {0.2, 0.8}
    path = tmp_path / "case.csv"
    ev.write_rows_csv(rows, ev.CASE_STUDY_COLUMNS, path)
    assert path.read_text().startswith("driver_id,eps,p1,r1,mean_norm_wait,mean_norm_dist")
    assert path.read_bytes().splitlines()[1:] == [b"d1,0.2,0.5,0.5,1.0,0.5", b"d2,0.2,0.5,0.5,1.0,0.5",
                                                  b"d1,0.8,0.5,0.5,1.0,0.5", b"d2,0.8,0.5,0.5,1.0,0.5"]


def test_case_study_unknown_driver():
    with pytest.raises(UsageError):
        ev.case_study(lambda eps: _canned_report(1, 1, -1), ["ghost"], [0.5])
