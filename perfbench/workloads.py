"""The benchmark's four workloads.

Each workload drives evrac from outside through the public functions of
`pipeline`, `agent`, `checkpoint` and `reward`, the way the CLI and
scripts/run_epsilon_sweep.py do. A workload has

* `setup(fixture)`: config load, data bundle, checkpoint loads and reward
  environments; timed as `setup_s`;
* `prepare(state, index)`: benchmark-side inputs derived from the set-up
  state for the run's round `index`, untimed and untraced;
* `round(state, ops)`: the timed part, a fixed amount of work for a given
  seed, made of short timed calls so that a run holds many samples;
* `models(state, out)`: savers for every model a round trained, which the
  determinism witness hashes;
* `quality(state, out, ops)`: P@1, MAR and event count of the evaluated
  model, untimed.

Every timed call goes through `Ops.call`, which counts it, turns an exception
into a failed operation and validates the result.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evrac import agent, checkpoint, pipeline
from evrac.baselines import FpmcHyper, FpmcRecommender
from evrac.config import apply_overrides, load_config
from evrac.seeding import rng_for

_clock = time.perf_counter


class RoundFailed(Exception):
    """A timed operation failed; the rest of the round is skipped."""


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{name}: {why}")

    def check(self, name: str, problems: list[str]) -> None:
        """Count one untimed operation, such as a determinism comparison."""
        self.attempted += 1
        if problems:
            self.fail(name, "; ".join(problems))

    def call(self, name: str, fn, validate=None):
        """Run and time one operation; returns (result, seconds)."""
        self.attempted += 1
        start = _clock()
        try:
            out = fn()
        except Exception as exc:  # the benchmark counts a failure and carries on
            self.fail(name, f"{type(exc).__name__}: {exc}")
            raise RoundFailed(name) from exc
        seconds = _clock() - start
        problems = validate(out) if validate is not None else []
        if problems:
            self.fail(name, "; ".join(problems))
            raise RoundFailed(name)
        return out, seconds


@dataclass
class Sample:
    """Work units done by one timed call, and its wall time."""

    units: float
    seconds: float

    @property
    def rate(self) -> float:
        return self.units / self.seconds


@dataclass
class RoundResult:
    stage1: list[Sample]
    stage2: list[Sample]
    outputs: dict


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of problems; empty means valid.
# ---------------------------------------------------------------------------

def _finite_params(params: dict[str, np.ndarray], what: str) -> list[str]:
    bad = sorted(k for k, v in params.items() if not np.all(np.isfinite(v)))
    return [f"{what}: non-finite parameters {bad}"] if bad else []


def expected_eval_events(bundle) -> int:
    """Test events the harness can score: those with at least one past event."""
    total = 0
    for driver_id, split in bundle.splits.items():
        position = {e.event_id: i for i, e in enumerate(bundle.trajectories[driver_id].events)}
        total += sum(1 for e in split.test if position[e.event_id] > 0)
    return total


def check_report(report, bundle) -> list[str]:
    problems = []
    ks = sorted(report.precision)
    for lo, hi in zip(ks, ks[1:]):
        if report.precision[hi] < report.precision[lo]:
            problems.append(f"P@{hi} < P@{lo}")
        if report.recall[hi] < report.recall[lo]:
            problems.append(f"R@{hi} < R@{lo}")
    expected = expected_eval_events(bundle)
    if report.events != expected:
        problems.append(f"scored {report.events} events, split has {expected}")
    if not math.isfinite(report.mar):
        problems.append("MAR is not finite")
    return problems


def check_records(records: list[dict], epochs: int) -> list[str]:
    if len(records) != epochs:
        return [f"{len(records)} epoch records, expected {epochs}"]
    bad = [r["epoch"] for r in records
           if not all(math.isfinite(r[k]) for k in ("critic_mse", "ce_loss", "mean_reward"))]
    return [f"non-finite losses at epochs {bad}"] if bad else []


def check_recommendations(items, k: int, known: dict) -> list[str]:
    ids = [it.station_id for it in items]
    probs = [it.prob for it in items]
    problems = []
    if len(ids) != k or len(set(ids)) != k:
        problems.append(f"expected {k} distinct stations, got {ids}")
    if any(sid not in known for sid in ids):
        problems.append(f"unknown station in {ids}")
    if any(not (0.0 <= p <= 1.0) for p in probs):
        problems.append(f"probability outside [0, 1]: {probs}")
    if any(b > a for a, b in zip(probs, probs[1:])):
        problems.append(f"probabilities increase down the list: {probs}")
    return problems


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------

def _load_config(fixture: Path, **overrides):
    return apply_overrides(load_config(fixture / "config.cfg"), jobs=1, **overrides)


def _timed_eval(ops: Ops, bundle, env, recommender, **kwargs):
    """One evaluation; returns its report and sample."""
    report, seconds = ops.call(
        "eval", lambda: pipeline.evaluate_recommender(bundle, recommender, env, **kwargs),
        lambda rep: check_report(rep, bundle))
    return report, Sample(report.events, seconds)


def _replayed_decisions(bundle, hyper) -> int:
    """Logged decisions train_shared_model samples over all epochs, from the
    same buffer and sampling stream it uses."""
    max_steps = {d: len(s.train) for d, s in bundle.splits.items()}
    buffer = agent.build_buffer(bundle.obs_space, bundle.trajectories, max_steps, hyper)
    rng = rng_for(hyper.seed, "buffer")
    return sum(w.length for _ in range(hyper.epochs)
               for w in buffer.sample(rng, hyper.samples_per_epoch))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class OfflineFit:
    """Forecaster fit, then the mc, popularity and FPMC baselines."""

    name = "offline-fit"
    city = "demo"
    reward_epochs = 2
    # pipeline.train_baseline_model fixes FPMC at 200 epochs (20-28 s); the
    # same FpmcRecommender.fit runs here with fewer epochs per round.
    fpmc_epochs = 4
    stages = (("reward_fit.windows_per_s", "windows/s"), ("baseline_fit.transitions_per_s", "transitions/s"))
    probe_weights = {"setup": {"interp": 0.7, "small": 0.3}, "stage1": {"blas": 0.5, "batch": 0.3, "interp": 0.2},
                     "stage2": {"small": 0.7, "interp": 0.3}}

    def setup(self, fixture: Path) -> dict:
        config = _load_config(fixture, reward_epochs=self.reward_epochs)
        return {"config": config, "bundle": pipeline.load_data_bundle(config)}

    def prepare(self, state: dict, index: int) -> None:
        state["transitions"] = sum(max(len(s.train) - 1, 0) for s in state["bundle"].splits.values())

    def round(self, state: dict, ops: Ops) -> RoundResult:
        config, bundle = state["config"], state["bundle"]
        hyper = config.reward_hyper()

        def check_fit(out):
            net, report = out
            problems = _finite_params(net.params, "forecaster")
            if not math.isfinite(report["train_mse"]):
                problems.append("forecaster train MSE is not finite")
            return problems

        (net, report), fit_s = ops.call("reward_fit", lambda: pipeline.train_reward_model(bundle),
                                        check_fit)
        state["windows"] = report["samples"] - int(report["samples"] * hyper.val_frac)

        def fit_baselines():
            fpmc = FpmcRecommender(bundle.index.order, FpmcHyper(seed=config.seed, epochs=self.fpmc_epochs))
            return (pipeline.train_baseline_model(bundle, "mc"),
                    pipeline.train_baseline_model(bundle, "popularity"),
                    fpmc.fit(bundle.train_events_by_driver()))

        def check_baselines(models):
            mc, pop, fpmc = models
            arrays = {"mc": mc.global_matrix, "popularity": pop.global_counts,
                      "fpmc.UI": fpmc.UI, "fpmc.IU": fpmc.IU, "fpmc.LI": fpmc.LI, "fpmc.IL": fpmc.IL}
            return _finite_params(arrays, "baselines")

        (mc, pop, fpmc), base_s = ops.call("baseline_fit", fit_baselines, check_baselines)
        return RoundResult([Sample(state["windows"] * hyper.epochs, fit_s)],
                           [Sample(state["transitions"] * self.fpmc_epochs, base_s)],
                           {"net": net, "mc": mc, "popularity": pop, "fpmc": fpmc})

    def models(self, state: dict, out: dict) -> dict:
        hyper = state["config"].reward_hyper()
        savers = {"reward.ckpt": lambda p: checkpoint.save_reward_net(out["net"], hyper, p)}
        for kind in ("mc", "popularity", "fpmc"):
            savers[f"{kind}.ckpt"] = lambda p, m=out[kind]: checkpoint.save_baseline(m, p)
        return savers

    def quality(self, state: dict, out: dict, ops: Ops) -> tuple[float, float, int]:
        # The one evaluation of this workload, after the timed rounds: the
        # last FPMC model priced by the last forecaster.
        bundle = state["bundle"]
        env = pipeline.evaluation_environment(bundle, out["net"])
        report = pipeline.evaluate_recommender(bundle, out["fpmc"], env)
        ops.check("quality_eval", check_report(report, bundle))
        return report.precision[1], report.mar, report.events

    def size(self, state: dict) -> dict:
        return {"forecaster_windows": state.get("windows"), "forecaster_epochs": self.reward_epochs,
                "fpmc_transitions": state["transitions"], "fpmc_epochs": self.fpmc_epochs}


class RacShared:
    """The paper's main path: shared actor-critic training priced by the
    fitted forecaster, then evaluation of the trained model."""

    name = "rac-shared"
    city = "demo"
    epochs = 3  # per round; a full fit runs 250
    stages = (("rac_train.decisions_per_s", "decisions/s"), ("eval.events_per_s", "events/s"))
    probe_weights = {"setup": {"interp": 0.7, "small": 0.3}, "stage1": {"small": 0.8, "interp": 0.2},
                     "stage2": {"small": 0.8, "interp": 0.2}}

    def setup(self, fixture: Path) -> dict:
        config = _load_config(fixture, epochs=self.epochs)
        bundle = pipeline.load_data_bundle(config)
        net, _, _ = checkpoint.load_reward_net(fixture / "reward.ckpt")
        return {"config": config, "bundle": bundle, "net": net,
                "train_env": pipeline.training_environment(bundle, net),
                "eval_env": pipeline.evaluation_environment(bundle, net)}

    def prepare(self, state: dict, index: int) -> None:
        state["decisions"] = _replayed_decisions(state["bundle"], state["config"].rac_hyper())

    def round(self, state: dict, ops: Ops) -> RoundResult:
        bundle = state["bundle"]
        (model, _), train_s = ops.call(
            "rac_train", lambda: pipeline.train_shared_model(bundle, state["train_env"]),
            lambda out: check_records(out[1], self.epochs) + _finite_params(out[0].all_params(), "rac"))
        report, evals = _timed_eval(ops, bundle, state["eval_env"],
                                    agent.RacRecommender(model, bundle.obs_space))
        return RoundResult([Sample(state["decisions"], train_s)], [evals],
                           {"model": model, "report": report})

    def models(self, state: dict, out: dict) -> dict:
        return {"rac.ckpt": lambda p: checkpoint.save_rac_model(out["model"], p)}

    def quality(self, state: dict, out: dict, ops: Ops) -> tuple[float, float, int]:
        report = out["report"]
        return report.precision[1], report.mar, report.events

    def size(self, state: dict) -> dict:
        return {"rac_epochs": self.epochs, "decisions": state["decisions"]}


class PerDriver:
    """Warm-up then per-driver fine-tuning in the mean-wait environment
    (`train-rac --per-driver` without `--reward`), then evaluation with the
    per-driver models."""

    name = "per-driver"
    city = "demo"
    warmup_epochs = 3
    finetune_epochs = 1
    stages = (("per_driver_train.drivers_per_s", "drivers/s"), ("eval.events_per_s", "events/s"))
    probe_weights = {"setup": {"interp": 0.7, "small": 0.3}, "stage1": {"small": 0.5, "batch": 0.3, "interp": 0.2},
                     "stage2": {"small": 0.7, "interp": 0.3}}

    def setup(self, fixture: Path) -> dict:
        # patience = finetune_epochs: early stopping never shortens a driver,
        # so a round's work does not depend on validation luck.
        config = _load_config(fixture, epochs=self.warmup_epochs, finetune_epochs=self.finetune_epochs,
                              patience=self.finetune_epochs, warmup=True, per_driver=True)
        bundle = pipeline.load_data_bundle(config)
        return {"config": config, "bundle": bundle,
                "train_env": pipeline.training_environment(bundle, None),
                "eval_env": pipeline.evaluation_environment(bundle, None)}

    def prepare(self, state: dict, index: int) -> None:
        pass

    def round(self, state: dict, ops: Ops) -> RoundResult:
        bundle = state["bundle"]

        def check_models(out):
            shared, models = out
            problems = []
            if sorted(models) != sorted(bundle.trajectories):
                problems.append(f"{len(models)} models for {len(bundle.trajectories)} drivers")
            for driver_id, model in models.items():
                problems += _finite_params(model.all_params(), driver_id)
            return problems + _finite_params(shared.all_params(), "shared")

        (shared, models), train_s = ops.call(
            "per_driver_train", lambda: pipeline.train_per_driver_models(bundle, state["train_env"]),
            check_models)
        report, evals = _timed_eval(ops, bundle, state["eval_env"],
                                    agent.RacRecommender(shared, bundle.obs_space), per_driver_models=models)
        return RoundResult([Sample(len(models), train_s)], [evals],
                           {"shared": shared, "models": models, "report": report})

    def models(self, state: dict, out: dict) -> dict:
        savers = {"shared.ckpt": lambda p: checkpoint.save_rac_model(out["shared"], p)}
        for i, driver_id in enumerate(sorted(out["models"])):
            savers[f"driver-{i:05d}.ckpt"] = (
                lambda p, m=out["models"][driver_id]: checkpoint.save_rac_model(m, p))
        return savers

    def quality(self, state: dict, out: dict, ops: Ops) -> tuple[float, float, int]:
        report = out["report"]
        return report.precision[1], report.mar, report.events

    def size(self, state: dict) -> dict:
        return {"drivers": len(state["bundle"].trajectories), "warmup_epochs": self.warmup_epochs,
                "finetune_epochs": self.finetune_epochs}


class Serve:
    """Larger city: evaluate the served RAC model, mc and popularity, then a
    closed loop of one client sending recommend requests."""

    name = "serve"
    city = "serve"
    # Each round scores one slice of the city's drivers with all three
    # models, then sends its share of the request stream. Evaluation is per
    # driver, so the slices together do the work of one evaluation call;
    # short rounds let the speed probe follow the machine.
    eval_slice = 25
    requests = 1200  # per pass over all slices
    k = 3
    stages = (("eval.events_per_s", "events/s"), ("recommend.requests_per_s", "requests/s"))
    probe_weights = {"setup": {"interp": 0.7, "small": 0.3}, "stage1": {"small": 0.6, "interp": 0.4},
                     "stage2": {"small": 0.7, "interp": 0.3}}

    def setup(self, fixture: Path) -> dict:
        config = _load_config(fixture)
        bundle = pipeline.load_data_bundle(config)
        model, _ = checkpoint.load_rac_model(fixture / "rac.ckpt")
        net, _, _ = checkpoint.load_reward_net(fixture / "reward.ckpt")
        return {"config": config, "bundle": bundle, "model": model, "net": net,
                "eval_env": pipeline.evaluation_environment(bundle, net)}

    def prepare(self, state: dict, index: int) -> None:
        bundle = state["bundle"]
        state["mc"] = pipeline.train_baseline_model(bundle, "mc")
        state["popularity"] = pipeline.train_baseline_model(bundle, "popularity")
        drivers = sorted(bundle.splits)
        slices = [drivers[i:i + self.eval_slice] for i in range(0, len(drivers), self.eval_slice)]
        part = slices[index % len(slices)]
        state["slice"] = dataclasses.replace(bundle, splits={d: bundle.splits[d] for d in part})
        # Seeded request stream: a driver and a cut point in their history;
        # the decision time is the next logged event's start, if any.
        rng = rng_for(state["config"].seed, "perfbench-serve-requests")
        ids = sorted(bundle.trajectories)
        picks = []
        for _ in range(self.requests):
            events = bundle.trajectories[ids[int(rng.integers(len(ids)))]].events
            cut = int(rng.integers(1, len(events) + 1))
            when = events[cut].start_time if cut < len(events) else None
            picks.append((events[0].driver_id, events[:cut], when))
        share = -(-self.requests // len(slices))
        start = (index % len(slices)) * share
        state["picks"] = picks[start:start + share]

    def round(self, state: dict, ops: Ops) -> RoundResult:
        bundle, model, env = state["bundle"], state["model"], state["eval_env"]
        recommenders = {"rac": agent.RacRecommender(model, bundle.obs_space),
                        "mc": state["mc"], "popularity": state["popularity"]}
        evals, reports = [], {}
        for label, rec in recommenders.items():
            reports[label], sample = _timed_eval(ops, state["slice"], env, rec)
            evals.append(sample)

        requests = []
        known = bundle.index.stations
        for driver_id, history, when in state["picks"]:
            _, seconds = ops.call(
                "recommend",
                lambda: agent.recommend(model, bundle.obs_space, env, driver_id, history, self.k, when),
                lambda items: check_recommendations(items, self.k, known))
            requests.append(Sample(1, seconds))
        return RoundResult(evals, requests, {"report": reports["rac"]})

    def models(self, state: dict, out: dict) -> dict:
        return {}

    def quality(self, state: dict, out: dict, ops: Ops) -> tuple[float, float, int]:
        # The RAC model over the whole city, untimed.
        bundle = state["bundle"]
        report = pipeline.evaluate_recommender(bundle, agent.RacRecommender(state["model"], bundle.obs_space),
                                               state["eval_env"])
        ops.check("quality_eval", check_report(report, bundle))
        return report.precision[1], report.mar, report.events

    def size(self, state: dict) -> dict:
        return {"requests_per_pass": self.requests, "k": self.k, "eval_slice_drivers": self.eval_slice,
                "test_events": expected_eval_events(state["bundle"])}


WORKLOADS = {w.name: w for w in (OfflineFit(), RacShared(), PerDriver(), Serve())}
