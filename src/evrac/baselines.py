"""Classic next-station recommenders: first-order Markov chain, FPMC and a
visit-frequency baseline, all behind the same ranking interface as the
actor-critic model so one evaluation harness serves everything.

Every recommender exposes `probabilities(requests)` over a list of
`(driver_id, events, cuts)` requests: one (M,) row over the sorted station
list per cut j (conditioning on `events[:j]`), in request order. The rows of
one call are ranked together by `rank_rows`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import EventColumns
from .errors import UsageError
from .evaluation import Request, check_requests
from .nn import sigmoid, softmax
from .seeding import rng_for

logger = logging.getLogger(__name__)


def rank_rows(scores: np.ndarray, stations: Sequence[str], k: int) -> list[list[str]]:
    """Each row's top-k station ids by score, ties broken by station id: one
    stable sort of the whole (N, M) matrix, which orders every row as a
    stable sort of that row alone does.

    `stations` must be sorted: a stable sort then keeps tied scores in
    station-id order.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return np.array(stations, dtype=object)[top].tolist()


def _rank_row(row: np.ndarray, stations: Sequence[str], k: int) -> list[str]:
    """`rank_rows` of one (M,) row."""
    return rank_rows(row[None, :], stations, k)[0]


class _GatheredRows:
    """The request loop of the baselines. A subclass has `stations` and gives
    one request's rows with `_rows(driver_id, events, cuts)`, a gather whose
    rows do not depend on which other requests share the call."""

    def probabilities(self, requests: Sequence[Request]) -> np.ndarray:
        check_requests(requests)
        return np.concatenate([np.empty((0, len(self.stations)))] + [self._rows(*request) for request in requests])

    def rank(self, requests: Sequence[Request], k: int) -> list[list[str]]:
        return rank_rows(self.probabilities(requests), self.stations, k)


def _train_sequences(train_events: dict[str, EventColumns]) -> dict[str, list[str]]:
    """Each driver's training stations by (start_time, event_id)."""
    out = {}
    for driver in sorted(train_events):
        events = train_events[driver]
        out[driver] = events.station_id[events.time_order()].tolist()
    return out


class MarkovRecommender(_GatheredRows):
    """Per-driver first-order transition matrices with Laplace smoothing.

    Drivers without enough training data fall back to a matrix pooled over
    all drivers; an unknown previous station falls back to a uniform row.
    """

    def __init__(self, stations: list[str], lam: float = 1.0):
        self.stations = list(stations)
        self.index = {sid: i for i, sid in enumerate(self.stations)}
        self.lam = lam
        self.per_driver: dict[str, np.ndarray] = {}
        m = len(self.stations)
        self.global_matrix = np.full((m, m), 1.0 / m)

    def _normalize(self, counts: np.ndarray) -> np.ndarray:
        m = len(self.stations)
        rows = np.empty_like(counts)
        for i in range(m):
            total = counts[i].sum() + self.lam * m
            if total == 0:
                rows[i] = 1.0 / m
            else:
                rows[i] = (counts[i] + self.lam) / total
        return rows

    def fit(self, train_events: dict[str, EventColumns]) -> "MarkovRecommender":
        m = len(self.stations)
        global_counts = np.zeros((m, m))
        for driver, seq in _train_sequences(train_events).items():
            counts = np.zeros((m, m))
            for a, b in zip(seq, seq[1:]):
                counts[self.index[a], self.index[b]] += 1.0
            global_counts += counts
            if len(seq) >= 2:
                self.per_driver[driver] = self._normalize(counts)
        self.global_matrix = self._normalize(global_counts)
        return self

    def _rows(self, driver_id: str, events: EventColumns, cuts: Sequence[int]) -> np.ndarray:
        """The transition row of each cut's last station; a uniform row (the
        extra last row of the table) without one or for an unknown station."""
        m = len(self.stations)
        table = np.vstack([self.per_driver.get(driver_id, self.global_matrix), np.full(m, 1.0 / m)])
        stations = events.station_id
        return table[[self.index.get(stations[j - 1], m) if j else m for j in cuts]]


@dataclass(frozen=True)
class FpmcHyper:
    factors: int = 16
    lr: float = 0.05
    reg: float = 0.01
    negatives: int = 4
    epochs: int = 200
    seed: int = 0


class FpmcRecommender(_GatheredRows):
    """Factorized personalized Markov chain trained by pairwise ranking.

    score(u, last, i) = <U_u, V_i> + <L_last, W_i>; each observed transition
    is scored above sampled negative stations via a BPR update.
    """

    def __init__(self, stations: list[str], hyper: FpmcHyper = FpmcHyper()):
        self.stations = list(stations)
        self.index = {sid: i for i, sid in enumerate(self.stations)}
        self.hyper = hyper
        self.driver_index: dict[str, int] = {}
        self.UI = np.zeros((0, hyper.factors))
        self.IU = np.zeros((len(self.stations), hyper.factors))
        self.LI = np.zeros((len(self.stations), hyper.factors))
        self.IL = np.zeros((len(self.stations), hyper.factors))

    def fit(self, train_events: dict[str, EventColumns]) -> "FpmcRecommender":
        sequences = _train_sequences(train_events)
        samples: list[tuple[int, int, int]] = []
        self.driver_index = {d: i for i, d in enumerate(sorted(sequences))}
        for driver, seq in sequences.items():
            u = self.driver_index[driver]
            for a, b in zip(seq, seq[1:]):
                samples.append((u, self.index[a], self.index[b]))
        if not samples:
            raise UsageError("FPMC needs at least one training transition")

        h = self.hyper
        rng = rng_for(h.seed, "fpmc-init")
        d, m, f = len(self.driver_index), len(self.stations), h.factors
        ui, iu, li, il = (rng.normal(0.0, 0.1, size=(rows, f)) for rows in (d, m, m, m))
        # The fit keeps the factors as row blocks [UI; LI; IU; IL] of one
        # array, so a BPR step reads its six rows with one gather and writes
        # them with one scatter. The rows of one step are distinct (pos != neg).
        params = np.concatenate((ui, li, iu, il))
        at_iu, at_il = d + m, d + 2 * m
        rows_of = np.array([(u, d + last, at_iu + pos, at_il + pos, pos) for u, last, pos in samples], dtype=np.intp)
        sign = np.array([[1.0], [1.0], [1.0], [1.0], [-1.0], [-1.0]])
        # Row k of V is the gradient direction of row k of R, before the sign:
        # IU_pos - IU_neg, IL_pos - IL_neg, UI, LI, UI, LI.
        directions = np.array([2, 3, 0, 1, 0, 1], dtype=np.intp)
        lr, reg = h.lr, h.reg

        neg_rng = rng_for(h.seed, "fpmc-negatives")
        order_rng = rng_for(h.seed, "fpmc-order")
        for _ in range(h.epochs):
            picked = rows_of[order_rng.permutation(len(samples))]
            # One draw per epoch is the stream of len(samples) * negatives
            # scalar draws, in the same order (a property of numpy's PCG64
            # bounded integers; tests/test_baselines.py checks it).
            negatives = neg_rng.integers(0, m, size=(len(samples), h.negatives))
            # The epoch's steps, transition by transition and then negative by
            # negative, as rows [UI_u, LI_last, IU_pos, IL_pos, IU_neg, IL_neg];
            # a negative equal to its positive makes no step.
            steps = np.empty((len(samples), h.negatives, 6), dtype=np.intp)
            steps[:, :, :4] = picked[:, None, :4]
            steps[:, :, 4:] = negatives[:, :, None] + (at_iu, at_il)
            table = steps[negatives != picked[:, 4:]]
            for rows in table:
                R = params.take(rows, axis=0)
                V = R.take(directions, axis=0)
                V[:2] -= R[4:6]
                x = np.dot(R[0], V[0]) + np.dot(R[1], V[1])
                g = sigmoid(-x)
                # R + lr * ((g * sign) * V - reg * R), computed in V.
                V *= sign * g
                V -= reg * R
                V *= lr
                V += R
                params[rows] = V
        self.UI, self.LI, self.IU, self.IL = (block.copy() for block in np.split(params, [d, d + m, at_il]))
        return self

    def _rows(self, driver_id: str, events: EventColumns, cuts: Sequence[int]) -> np.ndarray:
        """softmax(score) at each cut. The driver term is computed once and the
        transition term once per distinct last station (-1: none or unknown)."""
        u = self.driver_index.get(driver_id)
        base = self.IU @ self.UI[u] if u is not None else np.zeros(len(self.stations))
        stations = events.station_id
        lasts = [self.index.get(stations[j - 1], -1) if j else -1 for j in cuts]
        distinct, inverse = np.unique(lasts, return_inverse=True)
        rows = [softmax(base + self.IL @ self.LI[p] if p >= 0 else base) for p in distinct.tolist()]
        return np.stack(rows)[inverse]


class PopularityRecommender(_GatheredRows):
    """Visit-frequency baseline: a driver's own station counts, falling back
    to global popularity for unseen drivers."""

    def __init__(self, stations: list[str]):
        self.stations = list(stations)
        self.index = {sid: i for i, sid in enumerate(self.stations)}
        self.per_driver: dict[str, np.ndarray] = {}
        self.global_counts = np.zeros(len(self.stations))

    def fit(self, train_events: dict[str, EventColumns]) -> "PopularityRecommender":
        for driver, seq in _train_sequences(train_events).items():
            counts = np.zeros(len(self.stations))
            for sid in seq:
                counts[self.index[sid]] += 1.0
            self.per_driver[driver] = counts
            self.global_counts += counts
        return self

    def _rows(self, driver_id: str, events: EventColumns, cuts: Sequence[int]) -> np.ndarray:
        """The driver's visit shares, the same row at every cut."""
        counts = self.per_driver.get(driver_id, self.global_counts)
        total = counts.sum()
        row = np.full(len(self.stations), 1.0 / len(self.stations)) if total == 0 else counts / total
        return np.repeat(row[None, :], len(cuts), axis=0)
