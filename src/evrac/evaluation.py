"""Evaluation harness shared by all recommenders.

Metric conventions (both are non-decreasing in K):
  * P@K  - per-event hit rate: the fraction of test events whose true station
           appears in that event's top-K list, micro-averaged over all events.
  * R@K  - per-driver coverage: |distinct true stations hit in top-K at any of
           their events| / |distinct true stations in the driver's test set|,
           macro-averaged over drivers.
  * MAR  - mean over test events of the external reward the top-1
           recommendation would earn at that event's forecast wait and the
           driver's distance from their previous station (<= 0; closer to 0
           is better).
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .dataset import ChargingEvent, DriverTrajectory, Split
from .errors import UsageError
from .reward import RewardEnvironment, epoch_hour

logger = logging.getLogger(__name__)


class Recommender(Protocol):
    """A cut j of a driver's `events` means "condition on `events[:j]`".
    `probabilities` scores every station in sorted-id order at each cut, one
    row per cut; `rank` is each row's top-k by score with ties broken by
    station id."""

    def probabilities(self, driver_id: str, events: list[ChargingEvent], cuts: Sequence[int]) -> np.ndarray: ...

    def rank(self, driver_id: str, events: list[ChargingEvent], cuts: Sequence[int], k: int) -> list[list[str]]: ...


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------

def precision_at_k(predictions: Sequence[Sequence[str]], truths: Sequence[str], k: int) -> float:
    """Fraction of events whose truth appears in the event's top-k."""
    if k < 1:
        raise UsageError("k must be >= 1")
    if len(predictions) != len(truths):
        raise UsageError("predictions and truths differ in length")
    if not truths:
        return 0.0
    hits = sum(1 for ranked, truth in zip(predictions, truths) if truth in list(ranked)[:k])
    return hits / len(truths)


def recall_at_k(
    predictions_by_driver: dict[str, Sequence[Sequence[str]]],
    truths_by_driver: dict[str, Sequence[str]],
    k: int,
) -> float:
    """Distinct-station coverage within top-k, macro-averaged over drivers."""
    if k < 1:
        raise UsageError("k must be >= 1")
    per_driver = []
    for driver, truths in truths_by_driver.items():
        if not truths:
            continue
        preds = predictions_by_driver[driver]
        distinct = set(truths)
        hit = {t for ranked, t in zip(preds, truths) if t in list(ranked)[:k]}
        per_driver.append(len(hit) / len(distinct))
    return float(np.mean(per_driver)) if per_driver else 0.0


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass
class DriverOutcome:
    events: int
    p_at: dict[int, float]
    r_at: dict[int, float]
    mar: float
    mean_norm_wait: float
    mean_norm_dist: float


@dataclass
class EvalReport:
    ks: list[int]
    per_driver: dict[str, DriverOutcome]
    precision: dict[int, float]
    recall: dict[int, float]
    mar: float
    events: int
    drivers: int
    fallback_events: int
    clamped_events: int
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ks": self.ks,
            "aggregate": {
                "precision": {str(k): v for k, v in self.precision.items()},
                "recall": {str(k): v for k, v in self.recall.items()},
                "mar": self.mar,
                "events": self.events,
                "drivers": self.drivers,
                "fallback_events": self.fallback_events,
                "clamped_events": self.clamped_events,
            },
            "per_driver": {
                d: {
                    "events": o.events,
                    "precision": {str(k): v for k, v in o.p_at.items()},
                    "recall": {str(k): v for k, v in o.r_at.items()},
                    "mar": o.mar,
                    "mean_norm_wait": o.mean_norm_wait,
                    "mean_norm_dist": o.mean_norm_dist,
                }
                for d, o in sorted(self.per_driver.items())
            },
            "config": self.config,
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def write_csv(self, path: str | Path) -> None:
        """One row per metric per driver plus AGGREGATE rows."""
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["driver_id", "metric", "value"])
            for d, o in sorted(self.per_driver.items()):
                for k in self.ks:
                    writer.writerow([d, f"p@{k}", repr(o.p_at[k])])
                    writer.writerow([d, f"r@{k}", repr(o.r_at[k])])
                writer.writerow([d, "mar", repr(o.mar)])
            for k in self.ks:
                writer.writerow(["AGGREGATE", f"p@{k}", repr(self.precision[k])])
                writer.writerow(["AGGREGATE", f"r@{k}", repr(self.recall[k])])
            writer.writerow(["AGGREGATE", "mar", repr(self.mar)])


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def _driver_rankings(
    recommender: Recommender,
    traj: DriverTrajectory,
    test_events: list[ChargingEvent],
    max_k: int,
):
    """Ranked list per test event, using the driver's full actual past, from
    one `rank` call over the events' cut points."""
    events = traj.events
    pos = {e.event_id: i for i, e in enumerate(events)}
    scored = [e for e in test_events if pos[e.event_id] > 0]  # the first event has no history
    if not scored:
        return [], [], [], []
    cuts = [pos[e.event_id] for e in scored]
    rankings = recommender.rank(traj.driver_id, events, cuts, max_k)
    prevs = [events[j - 1].station_id for j in cuts]
    return rankings, [e.station_id for e in scored], prevs, [e.start_time for e in scored]


def evaluate(
    recommender: Recommender,
    trajectories: dict[str, DriverTrajectory],
    splits: dict[str, Split],
    env: RewardEnvironment | None,
    ks: Sequence[int] = (1, 3, 5),
    config: dict | None = None,
    models: dict[str, Recommender] | None = None,
) -> EvalReport:
    """Score a recommender (or per-driver recommenders) on every test split.

    MAR is skipped (NaN) when no reward environment is supplied.
    """
    ks = sorted(set(int(k) for k in ks))
    max_k = max(ks)
    per_driver: dict[str, DriverOutcome] = {}
    preds_by_driver: dict[str, list] = {}
    truths_by_driver: dict[str, list] = {}
    all_rank, all_truth = [], []
    mar_values = []
    fallback_events = clamped_events = 0

    for driver_id in sorted(splits):
        split = splits[driver_id]
        traj = trajectories[driver_id]
        rec = models[driver_id] if models is not None else recommender
        rankings, truths, prevs, whens = _driver_rankings(rec, traj, split.test, max_k)
        if not truths:
            continue
        preds_by_driver[driver_id] = rankings
        truths_by_driver[driver_id] = truths
        all_rank.extend(rankings)
        all_truth.extend(truths)

        p_at = {k: precision_at_k(rankings, truths, k) for k in ks}
        r_at = {k: recall_at_k({driver_id: rankings}, {driver_id: truths}, k) for k in ks}

        driver_mar = float("nan")
        norm_wait = norm_dist = float("nan")
        if env is not None:
            priced = env.breakdowns([driver_id] * len(rankings), prevs, [ranked[0] for ranked in rankings],
                                    [epoch_hour(when) for when in whens])
            driver_mar = float(np.mean(priced.reward))
            norm_wait = float(np.mean(priced.wait_forecast / priced.mean_wait))
            norm_dist = float(np.mean(priced.dist_km / priced.mean_dist))
            fallback_events += sum("mean_fallback" in f for f in priced.flags)
            clamped_events += sum("clamped" in f for f in priced.flags)
            mar_values.extend(priced.reward.tolist())

        per_driver[driver_id] = DriverOutcome(
            events=len(truths),
            p_at=p_at,
            r_at=r_at,
            mar=driver_mar,
            mean_norm_wait=norm_wait,
            mean_norm_dist=norm_dist,
        )

    return EvalReport(
        ks=list(ks),
        per_driver=per_driver,
        precision={k: precision_at_k(all_rank, all_truth, k) for k in ks},
        recall={k: recall_at_k(preds_by_driver, truths_by_driver, k) for k in ks},
        mar=float(np.mean(mar_values)) if mar_values else float("nan"),
        events=len(all_truth),
        drivers=len(per_driver),
        fallback_events=fallback_events,
        clamped_events=clamped_events,
        config=dict(config or {}),
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def epsilon_sweep(
    run: Callable[[float], EvalReport], grid: Sequence[float]
) -> list[dict]:
    """Train/evaluate one model per epsilon; rows of (eps, p1, r1, mar)."""
    rows = []
    for eps in grid:
        if not (0.0 <= eps <= 1.0):
            raise UsageError(f"epsilon {eps} outside [0, 1]")
        report = run(float(eps))
        rows.append(
            {
                "eps": float(eps),
                "p1": report.precision[1],
                "r1": report.recall[1],
                "mar": report.mar,
            }
        )
    return rows


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["eps", "p1", "r1", "mar"])
        for row in rows:
            writer.writerow([row["eps"], repr(row["p1"]), repr(row["r1"]), repr(row["mar"])])


def case_study(
    run: Callable[[float], EvalReport],
    driver_ids: Sequence[str],
    eps_values: Sequence[float],
) -> list[dict]:
    """Per-driver decomposition across epsilon values: precision/recall plus
    the mean normalized wait and distance of the top-1 recommendation."""
    rows = []
    for eps in eps_values:
        report = run(float(eps))
        for driver_id in driver_ids:
            if driver_id not in report.per_driver:
                raise UsageError(f"driver {driver_id!r} has no evaluated test events")
            o = report.per_driver[driver_id]
            rows.append(
                {
                    "driver_id": driver_id,
                    "eps": float(eps),
                    "p1": o.p_at[1],
                    "r1": o.r_at[1],
                    "mean_norm_wait": o.mean_norm_wait,
                    "mean_norm_dist": o.mean_norm_dist,
                }
            )
    return rows


def write_case_study_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["driver_id", "eps", "p1", "r1", "mean_norm_wait", "mean_norm_dist"])
        for row in rows:
            writer.writerow(
                [
                    row["driver_id"],
                    row["eps"],
                    repr(row["p1"]),
                    repr(row["r1"]),
                    repr(row["mean_norm_wait"]),
                    repr(row["mean_norm_dist"]),
                ]
            )
