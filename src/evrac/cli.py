"""Command-line interface.

Subcommands: ingest, features, train-reward, train-rac, train-baseline,
eval, sweep, case-study, recommend, gradcheck.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 config/format/domain
error, 1 anything else. Errors are emitted as one JSON object on stderr;
logs go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import sys
from pathlib import Path, PurePath

from . import __version__
from .agent import RacRecommender, recommend
from .checkpoint import (
    load_baseline,
    load_checkpoint,
    load_rac_model,
    load_reward_net,
    save_baseline,
    save_rac_model,
    save_reward_net,
)
from .config import Config, apply_overrides, load_config
from .dataset import EPOCH, _MICROSECOND, _parse_timestamp, _start_text, parse_events, write_events, write_rejects
from .errors import (ConfigError, DataFormatError, DomainError, EvracError, TrainingDiverged, UsageError,
                     require_regular_file)
from .evaluation import (
    CASE_STUDY_COLUMNS,
    SWEEP_COLUMNS,
    case_study,
    epsilon_sweep,
    scored_drivers,
    write_rows_csv,
)
from .gradcheck import TOLERANCE, run_gradcheck
from .pipeline import (
    evaluate_recommender,
    evaluation_environment,
    load_data_bundle,
    sweep_runner,
    train_baseline_model,
    train_per_driver_models,
    train_reward_model,
    train_shared_model,
    training_environment,
)
from .reward import export_wait_series

logger = logging.getLogger("evrac")


# ---------------------------------------------------------------------------
# Shared argument plumbing
# ---------------------------------------------------------------------------

def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file (key = value sections)")
    p.add_argument("--events", help="canonical events CSV (overrides config)")
    p.add_argument("--stations", help="stations CSV (overrides config)")
    p.add_argument("--poi", help="POI counts CSV (overrides config)")
    p.add_argument("--seed", type=int, help="master seed (overrides config)")
    p.add_argument("--epsilon", type=float, help="preference weight in [0, 1]")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--jobs", type=int, help="max parallel per-driver workers")
    p.add_argument("--warmup", dest="warmup", action="store_true", default=None,
                   help="enable warm-up pool pretraining")
    p.add_argument("--no-warmup", dest="warmup", action="store_false",
                   help="disable warm-up (train from scratch)")


def _build_config(args: argparse.Namespace) -> Config:
    """The config file (or defaults), overridden by every parsed flag that
    names a Config field."""
    config = load_config(args.config) if args.config else Config()
    keys = {f.name for f in dataclasses.fields(Config)}
    return apply_overrides(config, **{k: v for k, v in vars(args).items() if k in keys})


def _parse_ks(raw: str) -> list[int]:
    try:
        ks = [int(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --k list {raw!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise UsageError(f"bad --k list {raw!r}")
    return ks


def _parse_floats(raw: str, flag: str) -> list[float]:
    try:
        vals = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {flag} list {raw!r}") from exc
    if not vals:
        raise UsageError(f"empty {flag} list")
    return vals


def _load_reward(args: argparse.Namespace):
    if getattr(args, "reward", None):
        net, _, _ = load_reward_net(args.reward)
        return net
    return None


def _emit(data: dict) -> None:
    json.dump(data, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    events, rejects = parse_events(args.input, args.adapter)
    write_events(events, args.output)
    rejects_path = args.rejects or f"{args.output}.rejects.csv"
    write_rejects(rejects, rejects_path)
    _emit(
        {
            "events": len(events),
            "rejected": len(rejects),
            "drivers": len(events.drivers),
            "stations": len(events.stations),
            "output": str(args.output),
            "rejects": str(rejects_path),
        }
    )
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    config = _build_config(args)
    bundle = load_data_bundle(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_wait_series(bundle.full_series, out_dir / "wait_series.csv")
    columns = ("station_id", "mean_wait_min", "mean_dist_km")
    index = bundle.index
    norms = zip(index.order, index.mean_wait.tolist(), index.mean_dist.tolist())
    write_rows_csv([dict(zip(columns, row)) for row in norms], columns, out_dir / "station_norms.csv")
    summary = {
        "config": config.as_dict(),
        "drivers": len(bundle.trajectories),
        "evaluated_drivers": len(bundle.splits),
        "excluded_drivers": bundle.excluded,
        "stations": len(bundle.index),
        "max_duration_min": bundle.obs_space.max_duration,
        "max_energy_kwh": bundle.obs_space.max_energy,
        "warmup_pool_events": sum(len(t) for t in bundle.warmup_trajectories.values()),
    }
    (out_dir / "features.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _emit({"out_dir": str(out_dir), "stations": len(bundle.index), "drivers": len(bundle.trajectories)})
    return 0


def cmd_train_reward(args: argparse.Namespace) -> int:
    config = _build_config(args)
    bundle = load_data_bundle(config)
    net, report = train_reward_model(bundle)
    save_reward_net(net, config.reward_hyper(), args.out, extra_meta={"config": config.as_dict()})
    _write_log(report.pop("epoch_log"), f"{args.out}.log.jsonl")
    _emit({"out": str(args.out), **report})
    return 0


def _write_log(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


@contextlib.contextmanager
def _divergence_dump(path: str | Path):
    """On `TrainingDiverged`, write its diagnostic dump (epoch, losses and
    the batch's windows) to `path` as JSON, and name the file in the error."""
    try:
        yield
    except TrainingDiverged as exc:
        Path(path).write_text(json.dumps(exc.dump, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        raise TrainingDiverged(f"{exc}; dump in {path}", exc.dump) from exc


def cmd_train_rac(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if config.per_driver:
        if args.log:
            raise UsageError("--log is not supported with --per-driver: fine-tuning keeps no training log")
        if not args.out_dir:
            raise UsageError("--per-driver training needs --out-dir")
        if args.out:
            raise UsageError("--out is not used with --per-driver: the models go to --out-dir")
    elif not args.out:
        raise UsageError("shared training needs --out")
    elif args.out_dir:
        raise UsageError("--out-dir is used only with --per-driver: shared training writes --out")
    bundle = load_data_bundle(config)
    net, reward_hyper, _ = load_reward_net(args.reward) if args.reward else (None, None, None)
    env = training_environment(bundle, net)

    if config.per_driver:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with _divergence_dump(out_dir / "diverged.json"):
            shared, models = train_per_driver_models(bundle, env)
        save_rac_model(shared, out_dir / "shared.ckpt", {"config": config.as_dict()})
        files = {}
        for i, driver_id in enumerate(sorted(models)):
            name = f"driver-{i:05d}.ckpt"
            save_rac_model(models[driver_id], out_dir / name,
                           {"config": config.as_dict(), "driver_id": driver_id})
            files[driver_id] = name
        index = {"shared": "shared.ckpt", "files": files, "config": config.as_dict()}
        (out_dir / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
        _emit({"out_dir": str(out_dir), "drivers": len(models)})
        return 0

    with _divergence_dump(f"{args.out}.diverged.json"):
        model, records = train_shared_model(bundle, env)
    save_rac_model(model, args.out, {"config": config.as_dict()})
    log_path = args.log or f"{args.out}.log.jsonl"
    _write_log(records, log_path)
    summary = {"out": str(args.out), "log": str(log_path), "epochs": len(records),
               "final_ce_loss": records[-1]["ce_loss"] if records else None}
    if config.reward_update == "td_coupled":
        # Training updated the forecaster in place; eval and recommend price
        # with the updated one only if it is saved.
        summary["reward"] = f"{args.out}.reward.ckpt"
        save_reward_net(net, reward_hyper, summary["reward"], extra_meta={"config": config.as_dict()})
    _emit(summary)
    return 0


def cmd_train_baseline(args: argparse.Namespace) -> int:
    config = _build_config(args)
    bundle = load_data_bundle(config)
    model = train_baseline_model(bundle, args.model)
    save_baseline(model, args.out, extra_meta={"config": config.as_dict()})
    _emit({"out": str(args.out), "model": args.model})
    return 0


def _load_rac(path: str | Path, bundle):
    """A RAC checkpoint as a model of the bundle's city: its observation
    width and station count must be the city's."""
    model, _ = load_rac_model(path)
    got, city = (model.obs_dim, model.num_stations), (bundle.obs_space.obs_dim, len(bundle.index))
    if got != city:
        raise DataFormatError(f"{path}: checkpoint has obs_dim {got[0]} and {got[1]} stations, "
                              f"but this city has obs_dim {city[0]} and {city[1]} stations")
    return model


def _load_recommender(path: str, bundle):
    """Any model checkpoint (RAC or a baseline) as a recommender of the
    bundle's city. A baseline must rank the city's stations."""
    _, header = load_checkpoint(path)
    if header.get("kind") == "rac":
        return RacRecommender(_load_rac(path, bundle), bundle.obs_space)
    model, _ = load_baseline(path)
    if model.stations != bundle.index.order:
        raise DataFormatError(f"{path}: checkpoint ranks another city's stations "
                              f"({len(model.stations)} stations; this city has {len(bundle.index)})")
    return model


def _is_plain_name(name: str) -> bool:
    """Whether `name` names a file inside the directory it is joined onto:
    no separator, no absolute path, not `.` or `..`, no NUL byte."""
    return name not in ("", "..") and "\0" not in name and PurePath(name).name == name


def _load_index(path: Path) -> tuple[str, dict[str, str]]:
    """The per-driver index: the shared checkpoint's file name and a
    driver id -> file name map. Every name is a plain file name, so the
    checkpoints it points to stay inside the index's directory."""
    require_regular_file(path, DataFormatError)
    try:
        index = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: corrupt index: {exc}") from exc
    files = index.get("files") if isinstance(index, dict) else None
    if not (isinstance(files, dict) and isinstance(index.get("shared"), str)
            and all(isinstance(name, str) for name in files.values())):
        raise DataFormatError(f"{path}: index needs a string 'shared' and a 'files' object of strings")
    for name in [index["shared"], *files.values()]:
        if not _is_plain_name(name):
            raise DataFormatError(f"{path}: {name!r} is not a plain file name in the model directory")
    return index["shared"], files


def cmd_eval(args: argparse.Namespace) -> int:
    if (args.model is None) == (args.model_dir is None):
        raise UsageError("eval needs exactly one of --model and --model-dir")
    config = _build_config(args)
    bundle = load_data_bundle(config)
    env = evaluation_environment(bundle, _load_reward(args))
    ks = _parse_ks(args.k)

    per_driver_models = None
    if args.model_dir:
        # A driver the index does not name is ranked by the shared model.
        shared_name, files = _load_index(Path(args.model_dir) / "index.json")
        recommender = RacRecommender(_load_rac(Path(args.model_dir) / shared_name, bundle), bundle.obs_space)
        per_driver_models = {d: _load_rac(Path(args.model_dir) / files[d], bundle) for d in bundle.splits if d in files}
    else:
        recommender = _load_recommender(args.model, bundle)

    report = evaluate_recommender(bundle, recommender, env, ks=ks, per_driver_models=per_driver_models)
    if args.out:
        report.write_json(args.out)
    if args.csv:
        report.write_csv(args.csv)
    _emit(report.to_dict()["aggregate"])
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _build_config(args)
    bundle = load_data_bundle(config)
    run = sweep_runner(bundle, _load_reward(args))
    rows = epsilon_sweep(run, _parse_floats(args.grid, "--grid"))
    write_rows_csv(rows, SWEEP_COLUMNS, args.out)
    _emit({"out": str(args.out), "rows": rows})
    return 0


def cmd_case_study(args: argparse.Namespace) -> int:
    config = _build_config(args)
    epsilons = _parse_floats(args.epsilons, "--epsilons")
    bundle = load_data_bundle(config)
    drivers = [d for d in args.drivers.split(",") if d]
    if not drivers:
        raise UsageError("empty --drivers list")
    scored = scored_drivers(bundle.trajectories, bundle.splits)
    unknown = [d for d in drivers if d not in scored]
    if unknown:
        raise UsageError(f"driver {unknown[0]!r} has no evaluated test events")
    run = sweep_runner(bundle, _load_reward(args))
    rows = case_study(run, drivers, epsilons)
    write_rows_csv(rows, CASE_STUDY_COLUMNS, args.out)
    _emit({"out": str(args.out), "rows": rows})
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    config = _build_config(args)
    bundle = load_data_bundle(config)
    env = evaluation_environment(bundle, _load_reward(args))
    if args.driver not in bundle.trajectories:
        raise UsageError(f"unknown driver {args.driver!r}")
    history = bundle.trajectories[args.driver].events
    when = None
    if args.at:
        try:
            when = _parse_timestamp(args.at)
        except ValueError as exc:
            raise UsageError(f"bad --at timestamp {args.at!r}: {exc}") from exc
        # A decision at `when` may only see sessions that started before it;
        # the history is sorted by its exact start.
        history = history[: int(history.start_us.searchsorted((when - EPOCH) // _MICROSECOND))]
        if not history:
            raise UsageError(f"driver {args.driver!r} has no events before {args.at}")

    recommender = _load_recommender(args.model, bundle)
    items = recommend(recommender, bundle.obs_space, env, args.driver, history, args.k, when)
    payload = [
        {
            "station_id": it.station_id,
            "prob": it.prob,
            "est_wait_min": it.est_wait_min,
            "est_dist_km": it.est_dist_km,
            "est_reward": it.est_reward,
            "fallback": it.fallback,
            "clamped": it.clamped,
        }
        for it in items
    ]
    at_us = (when - EPOCH) // _MICROSECOND if when else int(history.start_us[-1])
    _emit(
        {
            "driver_id": args.driver,
            "timestamp": _start_text(at_us - at_us % 1_000_000),
            "items": payload,
        }
    )
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    results = run_gradcheck(args.instances, args.seed)
    ok = True
    for name in sorted(results):
        passed = results[name] < TOLERANCE
        ok &= passed
        print(f"{name}: max_rel_err={results[name]:.3e} {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evrac", description=__doc__)
    parser.add_argument("--version", action="version", version=f"evrac {__version__}")
    parser.add_argument("--verbose", action="store_true", help="debug logging on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a raw city export to canonical CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--adapter", required=True, choices=("canonical", "dundee", "glasgow"))
    p.add_argument("--output", required=True)
    p.add_argument("--rejects")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("features", help="build and export derived features")
    _add_config_args(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train-reward", help="train the wait-time forecaster")
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_reward)

    p = sub.add_parser("train-rac", help="train the actor-critic recommender")
    _add_config_args(p)
    p.add_argument("--out")
    p.add_argument("--out-dir")
    p.add_argument("--log", help="JSON-lines training log path")
    p.add_argument("--reward", help="wait forecaster checkpoint")
    p.add_argument("--per-driver", dest="per_driver", action="store_true", default=None)
    p.set_defaults(func=cmd_train_rac)

    p = sub.add_parser("train-baseline", help="fit a classic baseline")
    _add_config_args(p)
    p.add_argument("--model", required=True, choices=("mc", "fpmc", "popularity"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_baseline)

    p = sub.add_parser("eval", help="score a model on the test splits")
    _add_config_args(p)
    p.add_argument("--model")
    p.add_argument("--model-dir")
    p.add_argument("--reward")
    p.add_argument("--k", default="1,3,5")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train/evaluate across an epsilon grid")
    _add_config_args(p)
    p.add_argument("--grid", required=True)
    p.add_argument("--reward")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("case-study", help="per-driver wait/distance decomposition")
    _add_config_args(p)
    p.add_argument("--drivers", required=True)
    p.add_argument("--epsilons", required=True)
    p.add_argument("--reward")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_case_study)

    p = sub.add_parser("recommend", help="top-k stations for one driver")
    _add_config_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--reward")
    p.add_argument("--driver", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--at", help="decision time (ISO-8601), default last event")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradient paths")
    p.add_argument("--instances", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def _fail(exc: Exception, code: int) -> int:
    json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except UsageError as exc:
        return _fail(exc, 2)
    except OSError as exc:
        return _fail(exc, 3)
    except (ConfigError, DataFormatError, DomainError) as exc:
        return _fail(exc, 4)
    except (EvracError, MemoryError) as exc:
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
