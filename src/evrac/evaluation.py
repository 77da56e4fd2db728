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

`evaluate` scores in array passes. One `rank` call ranks every test event
(per-driver models included) to the largest K, and one
`breakdowns` call prices every top-1 pick. Every P@K and R@K then comes from
one integer vector: each event's position of its true station in its ranking,
the largest K when it is absent. P@K counts the positions below K; R@K counts
the distinct true stations whose best position is below K. The counts are
whole numbers, so each ratio is the one a per-list scan gives, bit for bit.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .dataset import DriverTrajectory, EventColumns, Split
from .errors import UsageError
from .reward import RewardEnvironment

logger = logging.getLogger(__name__)


# One scoring request: a driver, their events in time order and the cut
# points to score. A cut j means "condition on `events[:j]`".
Request = tuple[str, EventColumns, Sequence[int]]


def check_requests(requests: Sequence[Request]) -> None:
    """A cut outside [0, len(events)] of its request is a UsageError."""
    for driver_id, events, cuts in requests:
        bad = [j for j in cuts if not 0 <= j <= len(events)]
        if bad:
            raise UsageError(f"driver {driver_id!r}: cut {bad[0]} outside [0, {len(events)}]")


class Recommender(Protocol):
    """`probabilities` scores every station in sorted-id order at each cut of
    each request: one row per cut, the rows of all requests stacked in
    request order. `rank` is each row's top-k by score with ties broken by
    station id, all rows of the call ranked by one stable sort
    (`baselines.rank_rows`). Evaluation sends every driver's cuts in one
    call, one request per driver, its cuts `Split.test_cuts`; a row does not
    depend on which other requests share the call, up to the last bits of a
    batched forward pass, whose edges fall every `reward.INFERENCE_ROWS`
    cuts of the call (of each request's cuts, with per-driver models)."""

    def probabilities(self, requests: Sequence[Request]) -> np.ndarray: ...

    def rank(self, requests: Sequence[Request], k: int) -> list[list[str]]: ...


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
        rows = []
        for d, o in sorted(self.per_driver.items()):
            for k in self.ks:
                rows += [(d, f"p@{k}", o.p_at[k]), (d, f"r@{k}", o.r_at[k])]
            rows.append((d, "mar", o.mar))
        for k in self.ks:
            rows += [("AGGREGATE", f"p@{k}", self.precision[k]), ("AGGREGATE", f"r@{k}", self.recall[k])]
        rows.append(("AGGREGATE", "mar", self.mar))
        columns = ("driver_id", "metric", "value")
        write_rows_csv([dict(zip(columns, row)) for row in rows], columns, path)


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def hit_rates(
    rankings: Sequence[Sequence[str]], truths: Sequence[str], sizes: Sequence[int], ks: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, list[float], list[float]]:
    """P@k and R@k from hit positions, for events ranked in driver runs of
    `sizes` events each: the per-driver values as (len(ks), len(sizes))
    arrays, then the aggregate P@k (over events) and R@k (over drivers),
    each 0.0 without events. Every value is a quotient of whole-number
    counts, so it is the one a scan of the ranking lists gives, bit for bit."""
    max_k = max(ks)
    # Where each event's truth sits in its ranking: max_k when it is absent.
    pos = np.array([ranked.index(t) if t in ranked else max_k for ranked, t in zip(rankings, truths)],
                   dtype=np.intp)
    drivers = len(sizes)
    driver_of = np.repeat(np.arange(drivers), sizes)
    # Each distinct (driver, true station) pair and the best position it reaches.
    codes: dict[str, int] = {}
    truth_code = np.array([codes.setdefault(t, len(codes)) for t in truths], dtype=np.intp)
    stride = len(codes) + 1
    pairs, pair_of = np.unique(driver_of * stride + truth_code, return_inverse=True)
    best = np.full(pairs.size, max_k)
    np.minimum.at(best, pair_of, pos)
    pair_driver = pairs // stride
    hits = np.array([np.bincount(driver_of, weights=pos < k, minlength=drivers) for k in ks])
    covered = np.array([np.bincount(pair_driver, weights=best < k, minlength=drivers) for k in ks])
    recall = covered / np.bincount(pair_driver, minlength=drivers)
    return (
        hits / np.array(sizes),
        recall,
        [int(np.count_nonzero(pos < k)) / pos.size if pos.size else 0.0 for k in ks],
        [float(np.mean(r)) if drivers else 0.0 for r in recall],
    )


def evaluate(
    recommender: Recommender,
    trajectories: dict[str, DriverTrajectory],
    splits: dict[str, Split],
    env: RewardEnvironment | None,
    ks: Sequence[int] = (1, 3, 5),
    config: dict | None = None,
) -> EvalReport:
    """Score a recommender on every test split.

    Every driver's test cuts (`Split.test_cuts`, one request per driver in
    driver-id order) are ranked by one `rank` call, per-driver models
    included (a `RacRecommender` with a driver -> model map), and every
    top-1 pick is priced by one `breakdowns` call; the metrics come from
    the hit positions (see the module docstring). MAR is skipped (NaN)
    when no reward environment is supplied.
    """
    ks = sorted(set(int(k) for k in ks))
    max_k = max(ks)
    requests = [(d, trajectories[d].events, splits[d].test_cuts) for d in sorted(splits)]

    rankings = recommender.rank(requests, max_k)
    truths = [sid for _, events, cuts in requests for sid in events.station_id[cuts].tolist()]
    priced = None
    if env is not None and requests:
        priced = env.breakdowns(
            [driver_id for driver_id, _, cuts in requests for _ in cuts],
            np.concatenate([events.station_cols(env.index)[np.array(cuts) - 1] for _, events, cuts in requests]),
            [env.index.index_of(ranked[0]) for ranked in rankings],
            np.concatenate([events.hours[cuts] for _, events, cuts in requests]),
        )

    sizes = [len(cuts) for _, _, cuts in requests]
    precision, recall, total_precision, total_recall = hit_rates(rankings, truths, sizes, ks)

    per_driver: dict[str, DriverOutcome] = {}
    start = 0
    for (driver_id, _, cuts), p_row, r_row in zip(requests, precision.T.tolist(), recall.T.tolist()):
        rows = slice(start, start + len(cuts))
        start = rows.stop
        driver_mar = norm_wait = norm_dist = float("nan")
        if priced is not None:
            driver_mar = float(np.mean(priced.reward[rows]))
            norm_wait = float(np.mean(priced.wait_forecast[rows] / priced.mean_wait[rows]))
            norm_dist = float(np.mean(priced.dist_km[rows] / priced.mean_dist[rows]))
        per_driver[driver_id] = DriverOutcome(
            events=len(cuts),
            p_at=dict(zip(ks, p_row)),
            r_at=dict(zip(ks, r_row)),
            mar=driver_mar,
            mean_norm_wait=norm_wait,
            mean_norm_dist=norm_dist,
        )

    return EvalReport(
        ks=list(ks),
        per_driver=per_driver,
        precision=dict(zip(ks, total_precision)),
        recall=dict(zip(ks, total_recall)),
        mar=float(np.mean(priced.reward)) if priced is not None else float("nan"),
        events=len(truths),
        drivers=len(per_driver),
        fallback_events=int(priced.fallback.sum()) if priced is not None else 0,
        clamped_events=int(priced.clamped.sum()) if priced is not None else 0,
        config=dict(config or {}),
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("eps", "p1", "r1", "mar")
CASE_STUDY_COLUMNS = ("driver_id", "eps", "p1", "r1", "mean_norm_wait", "mean_norm_dist")


def check_epsilons(values: Sequence[float]) -> None:
    """An epsilon outside [0, 1] (NaN included) is a UsageError."""
    bad = [eps for eps in values if not 0.0 <= eps <= 1.0]
    if bad:
        raise UsageError(f"epsilon {bad[0]} outside [0, 1]")


def epsilon_sweep(
    run: Callable[[float], EvalReport], grid: Sequence[float]
) -> list[dict]:
    """Train/evaluate one model per epsilon; one row of `SWEEP_COLUMNS` each.
    The whole grid is checked before the first run."""
    check_epsilons(grid)
    rows = []
    for eps in grid:
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


def case_study(
    run: Callable[[float], EvalReport],
    driver_ids: Sequence[str],
    eps_values: Sequence[float],
) -> list[dict]:
    """Per-driver decomposition across epsilon values: precision/recall plus
    the mean normalized wait and distance of the top-1 recommendation, one
    row of `CASE_STUDY_COLUMNS` per (epsilon, driver). The epsilons are
    checked before the first run."""
    check_epsilons(eps_values)
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


def write_rows_csv(rows: list[dict], columns: Sequence[str], path: str | Path) -> None:
    """A header of `columns`, then each row's values under them: strings as
    they are, floats as `repr`."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(v) for v in (row[c] for c in columns)])
