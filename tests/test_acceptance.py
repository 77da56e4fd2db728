"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The real-data smoke (criterion 11) is skipped unless EVRAC_DATA_DIR
points at a directory with a canonical `glasgow.csv` (and optionally
`stations.csv` / `poi.csv`).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import (
    columns_of,
    constant_reward_env,
    make_stations,
    pattern_events,
    split_population,
)
from evrac import checkpoint as ckpt
from evrac import reward as rw
from evrac.agent import (
    ObservationSpace,
    RacHyper,
    RacModel,
    RacRecommender,
    build_buffer,
    train_rac,
    train_supervised,
    warmup_then_finetune,
)
from evrac.baselines import MarkovRecommender
from evrac.dataset import (
    DriverTrajectory,
    build_trajectories,
    split_all,
    warmup_cut_counts,
    warmup_pool,
)
from evrac.errors import DataFormatError
from evrac.evaluation import evaluate, hit_rates
from evrac.gradcheck import TOLERANCE, run_gradcheck

CYCLE = ["cs0", "cs1", "cs2"]


def _report(model, obs_space, trajectories, splits, env, ks=(1,), models=None):
    return evaluate(RacRecommender(model, obs_space, models), trajectories, splits, env, ks=ks)


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------

def test_c01_gradient_correctness():
    start = time.monotonic()
    results = run_gradcheck(instances=20, seed=0, h=1e-6)
    elapsed = time.monotonic() - start
    assert set(results) == {"mlp", "lstm_cell", "actor_softmax_ce", "actor_eta", "critic_mse", "reward_mse"}
    for name, err in results.items():
        assert err < TOLERANCE, f"{name}: {err:.3e}"
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: all 6 gradient paths < 1e-5 "
          f"(worst {max(results.values()):.2e}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Reward formula exactness
# ---------------------------------------------------------------------------

def test_c02_reward_formula_exactness():
    assert abs(rw.compute_reward(20.0, 5.0, 20.0, 5.0, 1.0) - (-200.0)) < 1e-12
    assert abs(rw.compute_reward(20.0, 5.0, 20.0, 5.0, 0.8) - (-180.0)) < 1e-12
    assert abs(rw.compute_reward(30.0, 5.0, 20.0, 10.0, 1.0) - (-200.0)) < 1e-12

    rng = np.random.default_rng(2024)
    for _ in range(1000):
        z, d = rng.uniform(0.01, 500, size=2)
        mz, md = rng.uniform(0.01, 500, size=2)
        base = rw.compute_reward(z, d, mz, md, 1.0)
        assert rw.compute_reward(z + rng.uniform(0.01, 50), d, mz, md, 1.0) < base
        assert rw.compute_reward(z, d + rng.uniform(0.01, 50), mz, md, 1.0) < base
        familiar = rw.compute_reward(z, d, mz, md, 0.8)
        assert familiar >= base
        assert familiar > base  # d > 0 here, so strictly better
    assert rw.compute_reward(1.0, 0.0, 1.0, 1.0, 0.8) == rw.compute_reward(1.0, 0.0, 1.0, 1.0, 1.0)
    print("\nACCEPTANCE 2 PASS: plug-in rewards exact to 1e-12; "
          "monotonicity and zeta dominance hold on 1000 samples")


# ---------------------------------------------------------------------------
# 3. epsilon = 1 equivalence
# ---------------------------------------------------------------------------

def test_c03_epsilon_one_bitwise_equivalence():
    index = make_stations(CYCLE)
    env = constant_reward_env(index, {"cs0": 10.0, "cs1": 20.0, "cs2": 30.0})
    events = []
    for d in range(6):
        events += pattern_events(f"driver-{d}", CYCLE, 15)
    trajectories, splits, _ = split_population(events)
    obs_space = ObservationSpace(index, 30.0, 10.0, 5)
    hyper = RacHyper(epsilon=1.0, hidden=16, embed=12, critic_hidden=12,
                     epochs=1, samples_per_epoch=16, seed=21)
    buffer = build_buffer(obs_space, trajectories, {d: len(s.train) for d, s in splits.items()}, hyper)
    rac = RacModel(obs_space.obs_dim, 3, hyper)
    ce = rac.clone()
    train_rac(buffer, rac, env, hyper)
    train_supervised(buffer, ce, hyper)
    for name, p in rac.actor_params().items():
        assert np.array_equal(p, ce.actor_params()[name]), name
    print("\nACCEPTANCE 3 PASS: one eps=1 step equals the supervised CE step bitwise")


# ---------------------------------------------------------------------------
# 4. Reward-seeking convergence (eps = 0)
# ---------------------------------------------------------------------------

def test_c04_reward_seeking_convergence(bandit_fixture):
    index, env, trajectories, splits = bandit_fixture
    start = time.monotonic()
    obs_space = ObservationSpace(index, 30.0, 10.0, 5)
    hyper = RacHyper(epsilon=0.0, alpha=0.5, gamma=0.0, hidden=24, embed=16, critic_hidden=16,
                     epochs=200, samples_per_epoch=32, seed=3)
    buffer = build_buffer(obs_space, trajectories, {d: len(s.train) for d, s in splits.items()}, hyper)
    model = RacModel(obs_space.obs_dim, 2, hyper)
    train_rac(buffer, model, env, hyper)

    rec = RacRecommender(model, obs_space)
    good = total = 0
    for driver_id, split in splits.items():
        events = trajectories[driver_id].events
        pos = {e.event_id: i for i, e in enumerate(events)}
        for top in rec.rank([(driver_id, events, [pos[e.event_id] for e in split.test])], 1):
            good += top[0] == "cs0"
            total += 1
    elapsed = time.monotonic() - start
    rate = good / total
    assert rate >= 0.95, rate
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 4 PASS: eps=0 picks the -100 station in {rate:.0%} "
          f"of {total} held-out decisions ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. Preference-seeking convergence (eps = 1)
# ---------------------------------------------------------------------------

def test_c05_preference_seeking_convergence():
    start = time.monotonic()
    index = make_stations(CYCLE)
    env = constant_reward_env(index, {sid: 10.0 for sid in CYCLE})
    events = []
    for d in range(20):
        events += pattern_events(f"driver-{d:02d}", CYCLE, 30)
    trajectories, splits, _ = split_population(events)
    obs_space = ObservationSpace(index, 30.0, 10.0, 5)
    hyper = RacHyper(epsilon=1.0, alpha=0.5, hidden=24, embed=16, critic_hidden=16,
                     epochs=250, samples_per_epoch=32, seed=7)
    buffer = build_buffer(obs_space, trajectories, {d: len(s.train) for d, s in splits.items()}, hyper)
    model = RacModel(obs_space.obs_dim, 3, hyper)
    train_rac(buffer, model, env, hyper)
    rac_report = _report(model, obs_space, trajectories, splits, env)

    mc = MarkovRecommender(CYCLE).fit({d: s.train for d, s in splits.items()})
    mc_report = evaluate(mc, trajectories, splits, env, ks=(1,))

    elapsed = time.monotonic() - start
    assert rac_report.precision[1] >= 0.9, rac_report.precision[1]
    assert rac_report.precision[1] >= mc_report.precision[1] - 0.05
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 PASS: eps=1 P@1={rac_report.precision[1]:.3f} vs "
          f"MC P@1={mc_report.precision[1]:.3f} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6. epsilon trade-off direction
# ---------------------------------------------------------------------------

def _conflict_pattern(pref, others):
    pat = [pref] * 10
    pat[3] = others[0]
    pat[6] = others[1]
    return pat


def _sweep(events, waits, grid, seed):
    index = make_stations(CYCLE, mean_wait=100.0)
    env = constant_reward_env(index, waits)
    trajectories, splits, _ = split_population(events)
    obs_space = ObservationSpace(index, 30.0, 10.0, 5)
    max_steps = {d: len(s.train) for d, s in splits.items()}
    rows = []
    for eps in grid:
        hyper = RacHyper(epsilon=eps, alpha=0.5, gamma=0.0, hidden=24, embed=16,
                         critic_hidden=16, epochs=250, samples_per_epoch=32, seed=seed)
        buffer = build_buffer(obs_space, trajectories, max_steps, hyper)
        model = RacModel(obs_space.obs_dim, 3, hyper)
        train_rac(buffer, model, env, hyper)
        report = _report(model, obs_space, trajectories, splits, env)
        rows.append((eps, report.precision[1], report.mar))
    return rows


def test_c06_epsilon_tradeoff_direction():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    waits = {"cs0": 1.0, "cs1": 1.6, "cs2": 5.0}

    conflict = []
    for d in range(6):
        conflict += pattern_events(f"a-{d}", _conflict_pattern("cs1", ["cs0", "cs2"]), 30)
    for d in range(6):
        conflict += pattern_events(f"b-{d}", _conflict_pattern("cs2", ["cs0", "cs1"]), 30)
    for d in range(6):
        conflict += pattern_events(f"c-{d}", _conflict_pattern("cs0", ["cs1", "cs2"]), 30)
    rows = _sweep(conflict, waits, grid, seed=0)
    eps_v = [r[0] for r in rows]
    p1 = [r[1] for r in rows]
    mar = [r[2] for r in rows]
    rho_p1 = spearmanr(eps_v, p1).statistic
    rho_mar = spearmanr(eps_v, mar).statistic
    assert rho_p1 > 0.8, (rows, rho_p1)
    assert rho_mar < -0.8, (rows, rho_mar)

    aligned = []
    for d in range(6):
        aligned += pattern_events(f"al-{d}", _conflict_pattern("cs0", ["cs1", "cs2"]), 30)
    aligned_rows = _sweep(aligned, waits, grid, seed=0)
    aligned_p1 = [r[1] for r in aligned_rows]
    spread = max(aligned_p1) - min(aligned_p1)
    assert spread < 0.05, aligned_rows
    print(f"\nACCEPTANCE 6 PASS: conflict rho(P@1)={rho_p1:.3f}, rho(MAR)={rho_mar:.3f}; "
          f"aligned P@1 range={spread:.3f}")


# ---------------------------------------------------------------------------
# 7. Warm-up direction
# ---------------------------------------------------------------------------

def _warmup_population():
    events = []
    for v in range(8):
        pat = CYCLE[v % 3 :] + CYCLE[: v % 3]
        events += pattern_events(f"vet-{v:02d}", pat, 120)
    for c in range(8):
        pat = CYCLE[c % 3 :] + CYCLE[: c % 3]
        events += pattern_events(f"cold-{c}", pat, 4)
    return events


def _warmup_run(seed, warm):
    index = make_stations(CYCLE)
    env = constant_reward_env(index, {sid: 10.0 for sid in CYCLE})
    all_traj = build_trajectories(columns_of(_warmup_population()))
    if warm:
        pool = warmup_pool(all_traj)
        cuts = warmup_cut_counts(all_traj)
        private = {
            d: DriverTrajectory(d, t.events[cuts.get(d, 0) :])
            for d, t in all_traj.items()
            if len(t.events) > cuts.get(d, 0)
        }
        warm_trajs = build_trajectories(pool)
    else:
        private, warm_trajs = all_traj, None
    splits, _ = split_all(private)
    obs_space = ObservationSpace(index, 30.0, 10.0, 5)
    hyper = RacHyper(epsilon=1.0, alpha=1.0, hidden=24, embed=16, critic_hidden=16,
                     epochs=400, samples_per_epoch=32, seed=seed)
    shared, models = warmup_then_finetune(
        obs_space, env, private, splits, hyper,
        warmup_trajectories=warm_trajs, finetune_epochs=15, patience=4,
    )
    report = _report(shared, obs_space, private, splits, env, models=models)
    return float(np.mean([o.p_at[1] for o in report.per_driver.values()]))


def test_c07_warmup_direction():
    warm_scores, zero_scores = [], []
    for seed in range(5):
        warm_scores.append(_warmup_run(seed, True))
        zero_scores.append(_warmup_run(seed, False))
    warm_mean = float(np.mean(warm_scores))
    zero_mean = float(np.mean(zero_scores))
    assert warm_mean >= zero_mean, (warm_scores, zero_scores)
    print(f"\nACCEPTANCE 7 PASS: warm-up mean P@1={warm_mean:.3f} >= "
          f"from-scratch {zero_mean:.3f} over 5 seeds")


# ---------------------------------------------------------------------------
# 8. Metric oracles
# ---------------------------------------------------------------------------

def test_c08_metric_oracles():
    from test_evaluation import brute_force_metrics

    rng = np.random.default_rng(88)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        stations = [f"cs{i}" for i in range(m)]
        per_driver = {}
        for d in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 13))
            preds = [list(rng.permutation(stations)) for _ in range(n)]
            truths = [stations[int(rng.integers(0, m))] for _ in range(n)]
            per_driver[f"d{d}"] = (preds, truths)
        all_preds = [p for preds, _ in per_driver.values() for p in preds]
        all_truths = [t for _, truths in per_driver.values() for t in truths]
        sizes = [len(truths) for _, truths in per_driver.values()]
        _, _, precision, recall = hit_rates(all_preds, all_truths, sizes, range(1, m + 1))
        prev_p = prev_r = 0.0
        for k in range(1, m + 1):
            expect_p, expect_r = brute_force_metrics(per_driver, k)
            got_p, got_r = precision[k - 1], recall[k - 1]
            assert got_p == expect_p
            assert got_r == pytest.approx(expect_r, abs=1e-12)
            assert got_p >= prev_p and got_r >= prev_r - 1e-12
            prev_p, prev_r = got_p, got_r

        # MAR is a plain mean of per-event rewards at top-1: enumerate directly
        rewards = rng.uniform(-500, 0, size=len(all_preds))
        assert float(np.mean(rewards)) == pytest.approx(sum(rewards) / len(rewards), abs=1e-12)
    print("\nACCEPTANCE 8 PASS: P@K/R@K match brute-force enumeration on 100 instances, "
          "non-decreasing in K")


# ---------------------------------------------------------------------------
# 9. MC baseline exactness
# ---------------------------------------------------------------------------

def test_c09_markov_exactness():
    from test_baselines import _brute_force_row, _events_from_sequence

    seq = ["cs1", "cs2", "cs1", "cs2", "cs1", "cs2", "cs1", "cs3"]
    model = MarkovRecommender(["cs1", "cs2", "cs3"]).fit({"d": _events_from_sequence("d", seq)})
    assert model.per_driver["d"][0] == pytest.approx([1 / 7, 4 / 7, 2 / 7], abs=1e-15)

    rng = np.random.default_rng(99)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 31))
        lam = float(rng.choice([0.0, 1.0, 2.0]))
        stations = [f"cs{i}" for i in range(m)]
        seq = [stations[int(rng.integers(0, m))] for _ in range(n)]
        model = MarkovRecommender(stations, lam=lam).fit({"d": _events_from_sequence("d", seq)})
        for i, source in enumerate(stations):
            expected = _brute_force_row(seq, stations, source, lam)
            assert model.per_driver["d"][i] == pytest.approx(expected, abs=1e-12)
    print("\nACCEPTANCE 9 PASS: MC transition matrices equal hand-computed smoothed "
          "counts on 100 instances incl. the (1/7, 4/7, 2/7) example")


# ---------------------------------------------------------------------------
# 10. Determinism & persistence
# ---------------------------------------------------------------------------

def test_c10_determinism_and_persistence(tmp_path, bandit_fixture):
    index, env, trajectories, splits = bandit_fixture
    obs_space = ObservationSpace(index, 30.0, 10.0, 5)
    hyper = RacHyper(epsilon=0.5, alpha=0.1, hidden=12, embed=8, critic_hidden=8,
                     epochs=10, samples_per_epoch=8, seed=17)
    max_steps = {d: len(s.train) for d, s in splits.items()}

    paths = []
    for run in range(2):
        buffer = build_buffer(obs_space, trajectories, max_steps, hyper)
        model = RacModel(obs_space.obs_dim, 2, hyper)
        train_rac(buffer, model, env, hyper)
        path = tmp_path / f"run{run}.ckpt"
        ckpt.save_rac_model(model, path, {"config": {"seed": 17}})
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    loaded, _ = ckpt.load_rac_model(paths[0])
    saved_again = tmp_path / "resaved.ckpt"
    ckpt.save_rac_model(loaded, saved_again, {"config": {"seed": 17}})
    assert saved_again.read_bytes() == paths[0].read_bytes()

    corrupted = tmp_path / "corrupt.ckpt"
    corrupted.write_bytes(paths[0].read_bytes()[:-40])
    with pytest.raises(DataFormatError) as excinfo:
        ckpt.load_rac_model(corrupted)
    assert "incomplete" in str(excinfo.value) and "'" in str(excinfo.value)
    print("\nACCEPTANCE 10 PASS: fixed seed reproduces checkpoints bitwise; round-trip "
          "identity; corruption rejected naming the broken array")


# ---------------------------------------------------------------------------
# 11. Real-data smoke (optional)
# ---------------------------------------------------------------------------

_DATA_DIR = os.environ.get("EVRAC_DATA_DIR", "")
_GLASGOW = Path(_DATA_DIR) / "glasgow.csv" if _DATA_DIR else None


@pytest.mark.skipif(
    not (_GLASGOW and _GLASGOW.exists()),
    reason="real-data extracts not present (set EVRAC_DATA_DIR with glasgow.csv)",
)
def test_c11_real_data_smoke():
    from evrac.config import Config
    from evrac.pipeline import (
        evaluate_recommender,
        evaluation_environment,
        load_data_bundle,
        train_baseline_model,
        train_shared_model,
        training_environment,
    )

    start = time.monotonic()
    data_dir = Path(_DATA_DIR)
    stations = data_dir / "stations.csv"
    poi = data_dir / "poi.csv"
    config = Config(
        events=str(_GLASGOW),
        stations=str(stations) if stations.exists() else None,
        poi=str(poi) if poi.exists() else None,
        hidden=32, embed=24, critic_hidden=24,
        alpha=0.5, epochs=300, samples_per_epoch=32, seed=0, warmup=False,
    ).validate()
    bundle = load_data_bundle(config)
    model, _ = train_shared_model(bundle, training_environment(bundle, None))
    env = evaluation_environment(bundle, None)
    rac_report = evaluate_recommender(bundle, RacRecommender(model, bundle.obs_space), env)
    mc_report = evaluate_recommender(bundle, train_baseline_model(bundle, "mc"), env)
    elapsed = time.monotonic() - start
    assert rac_report.precision[1] >= mc_report.precision[1]
    assert elapsed < 1800.0
    print(f"\nACCEPTANCE 11 PASS: RAC P@1={rac_report.precision[1]:.3f} >= "
          f"MC P@1={mc_report.precision[1]:.3f} in {elapsed:.0f}s")
