"""End-to-end orchestration: raw files -> features -> environments ->
trained models -> reports. Every CLI subcommand but ingest and gradcheck
runs through it."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .agent import (
    ObservationSpace,
    RacModel,
    RacRecommender,
    build_buffer,
    train_rac,
    warmup_then_finetune,
)
from .baselines import FpmcHyper, FpmcRecommender, MarkovRecommender, PopularityRecommender
from .config import Config, apply_overrides
from .dataset import (
    DriverTrajectory,
    EventColumns,
    Split,
    build_trajectories,
    parse_events,
    split_all,
    warmup_cut_counts,
    warmup_pool,
)
from .errors import ConfigError, DataFormatError, UsageError
from .evaluation import EvalReport, evaluate
from .geospatial import StationIndex, load_poi, load_stations, station_norms
from .reward import (
    MeanWaitForecaster,
    NetWaitForecaster,
    RewardEnvironment,
    WaitForecastNet,
    WaitSeries,
    build_wait_series,
    hour_chunks,
    most_visited,
    train_reward_net,
)

logger = logging.getLogger(__name__)


@dataclass
class DataBundle:
    """Everything derived from the raw files that models and reports need."""

    config: Config
    trajectories: dict[str, DriverTrajectory]          # private (post warm-up cut)
    splits: dict[str, Split]
    excluded: list[str]
    warmup_trajectories: dict[str, DriverTrajectory]   # anonymized pool, may be empty
    index: StationIndex                                # with reward norms
    obs_space: ObservationSpace
    train_series: dict[str, WaitSeries]                # training-window series
    full_series: dict[str, WaitSeries]                 # all events, queried causally
    familiarity: dict[str, str | None]
    train_end_hour: int = 0

    def train_events_by_driver(self) -> dict[str, EventColumns]:
        return {d: s.train for d, s in self.splits.items()}


def load_data_bundle(config: Config) -> DataBundle:
    """Build features and splits from the configured files.

    With warm-up on, each eligible driver's earliest pool slice is moved into
    the anonymized shared pool and the private split covers the remainder.
    Feature scalers, reward norms, familiarity and the reward-net training
    window all come from training data only; drivers too small to split still
    contribute their events to the environment series.

    Events stay columns throughout: trajectories and splits are views of one
    table, and each event's hour chunks are computed once for both series.
    """
    if not config.events:
        raise ConfigError("no events file configured")
    events, _ = parse_events(config.events, "canonical")
    if not len(events):
        raise ConfigError("no events to work with")

    stations = load_stations(config.stations) if config.stations else _stations_from_events(events)
    unknown = ~np.array([sid in stations for sid in events.stations], dtype=bool)[events.station]
    if unknown.any():
        code = events.station[np.argmax(unknown)]
        raise DataFormatError(f"{config.stations}: no station {events.stations[code]!r}, "
                              f"which {np.count_nonzero(events.station == code)} events name")
    if config.poi:
        poi = load_poi(config.poi, sorted(stations))
        stations = {
            sid: _with_poi(st, poi[sid]) for sid, st in stations.items()
        }
    index = StationIndex(stations)

    all_trajectories = build_trajectories(events)
    if config.warmup:
        cuts = warmup_cut_counts(all_trajectories)
        private = {
            d: DriverTrajectory(d, t.events[cuts[d] :])
            for d, t in all_trajectories.items()
            if len(t) > cuts[d]
        }
        warmup_trajs = build_trajectories(warmup_pool(all_trajectories))
    else:
        private = all_trajectories
        warmup_trajs = {}

    splits, excluded = split_all(private)
    # Unsplittable drivers still shape the station-side environment.
    train = EventColumns.concat([splits[d].train for d in sorted(splits)]
                                + [private[d].events for d in excluded])
    train = train.take(train.time_order())
    if not len(train):
        raise ConfigError("no training events after splitting")

    chunks = hour_chunks(events)
    train_series = build_wait_series(events, train.row, chunks)
    full_series = build_wait_series(events, chunks=chunks)
    index = index.with_norms(*station_norms(train, index, train_series))

    # Python's max over the sorted events, so a tie of 0.0 and -0.0 keeps the first.
    max_duration = max(train.duration_min.tolist())
    max_energy = max(train.energy_kwh.tolist())
    obs_space = ObservationSpace(index, max_duration, max_energy, config.k_actor)
    familiarity = most_visited(EventColumns.concat([s.train for s in splits.values()]))
    train_end = int(train.hours[-1])  # sorted by start time

    return DataBundle(
        config=config,
        trajectories=private,
        splits=splits,
        excluded=excluded,
        warmup_trajectories=warmup_trajs,
        index=index,
        obs_space=obs_space,
        train_series=train_series,
        full_series=full_series,
        familiarity=familiarity,
        train_end_hour=train_end,
    )


def _stations_from_events(events: EventColumns):
    """Fallback station set at the origin when no stations file is given."""
    from .geospatial import NUM_POI_TYPES, Station

    ids = sorted(events.stations)
    logger.warning("no stations file; placing %d stations at (0, 0)", len(ids))
    return {sid: Station(sid, 0.0, 0.0, np.zeros(NUM_POI_TYPES)) for sid in ids}


def _with_poi(station, counts):
    return replace(station, poi_counts=counts)


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

def training_environment(bundle: DataBundle, net: WaitForecastNet | None) -> RewardEnvironment:
    """Rewards for the RAC loop: forecasts over the training-window series."""
    if net is None:
        forecaster = MeanWaitForecaster(bundle.index)
    else:
        forecaster = NetWaitForecaster(net, bundle.train_series, bundle.index, bundle.config.k_reward)
    return RewardEnvironment(bundle.index, forecaster, bundle.familiarity)


def evaluation_environment(bundle: DataBundle, net: WaitForecastNet | None) -> RewardEnvironment:
    """Rewards for reports: forecasts over the full causal series."""
    if net is None:
        forecaster = MeanWaitForecaster(bundle.index)
    else:
        forecaster = NetWaitForecaster(net, bundle.full_series, bundle.index, bundle.config.k_reward)
    return RewardEnvironment(bundle.index, forecaster, bundle.familiarity)


# ---------------------------------------------------------------------------
# Training entry points
# ---------------------------------------------------------------------------

def train_reward_model(bundle: DataBundle) -> tuple[WaitForecastNet, dict]:
    hyper = bundle.config.reward_hyper()
    return train_reward_net(bundle.train_series, bundle.index, hyper, bundle.train_end_hour)


def train_shared_model(bundle: DataBundle, env: RewardEnvironment) -> tuple[RacModel, list[dict]]:
    """One model over every driver's training windows."""
    hyper = bundle.config.rac_hyper()
    max_steps = {d: len(s.train) for d, s in bundle.splits.items()}
    buffer = build_buffer(bundle.obs_space, bundle.trajectories, max_steps, hyper)
    model = RacModel(bundle.obs_space.obs_dim, len(bundle.index), hyper)
    records = train_rac(buffer, model, env, hyper)
    return model, records


def train_per_driver_models(bundle: DataBundle, env: RewardEnvironment) -> tuple[RacModel, dict[str, RacModel]]:
    """Warm-up (when a pool exists) then per-driver fine-tuning."""
    cfg = bundle.config
    return warmup_then_finetune(
        bundle.obs_space,
        env,
        bundle.trajectories,
        bundle.splits,
        cfg.rac_hyper(),
        warmup_trajectories=bundle.warmup_trajectories or None,
        finetune_epochs=cfg.finetune_epochs,
        patience=cfg.patience,
        jobs=cfg.jobs,
    )


def train_baseline_model(bundle: DataBundle, kind: str):
    train = bundle.train_events_by_driver()
    stations = bundle.index.order
    if kind == "mc":
        return MarkovRecommender(stations).fit(train)
    if kind == "fpmc":
        return FpmcRecommender(stations, FpmcHyper(seed=bundle.config.seed)).fit(train)
    if kind == "popularity":
        return PopularityRecommender(stations).fit(train)
    raise UsageError(f"unknown baseline {kind!r}; expected mc, fpmc or popularity")


# ---------------------------------------------------------------------------
# Evaluation entry points
# ---------------------------------------------------------------------------

def evaluate_recommender(
    bundle: DataBundle,
    recommender,
    env: RewardEnvironment | None,
    ks=(1, 3, 5),
    per_driver_models: dict[str, RacModel] | None = None,
) -> EvalReport:
    """`evaluate` on the bundle's test splits. With `per_driver_models`,
    `recommender` is the shared `RacRecommender`, and each driver in the map
    is ranked by their own model in the same `rank` call."""
    if per_driver_models is not None:
        recommender = RacRecommender(recommender.model, bundle.obs_space, per_driver_models)
    return evaluate(recommender, bundle.trajectories, bundle.splits, env, ks=ks, config=bundle.config.as_dict())


def sweep_runner(bundle: DataBundle, net: WaitForecastNet | None):
    """Returns run(eps) for epsilon sweeps: shared seed, one model per eps,
    trained in the training environment and scored at k = 1 in the
    evaluation environment, both built on `net`."""
    env, eval_env = training_environment(bundle, net), evaluation_environment(bundle, net)

    def run(eps: float) -> EvalReport:
        at_eps = replace(bundle, config=apply_overrides(bundle.config, epsilon=eps))
        model, _ = train_shared_model(at_eps, env)
        return evaluate_recommender(at_eps, RacRecommender(model, at_eps.obs_space), eval_env, ks=(1,))

    return run
