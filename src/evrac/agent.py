"""Regularized actor-critic recommender.

A shared history encoder (per-step embedding MLP + stacked LSTM) feeds a
softmax actor head over the station set and a critic MLP over
[state || one-hot action]. Training samples logged trajectory windows from a
replay buffer and updates the actor by a convex mix of an off-policy policy
gradient (weight 1-epsilon) and a preference cross-entropy ascent toward the
driver's logged choice (weight epsilon). The critic is trained by semi-
gradient TD with a hard-copied target network.

epsilon = 1 reduces the actor-network update to exactly the standalone
supervised cross-entropy update: the policy-gradient term is dropped and the
critic's TD gradient into the shared encoder is scaled by (1 - epsilon).
"""

from __future__ import annotations

import copy
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import groupby
from typing import NamedTuple, Sequence

import numpy as np

from . import nn
from .baselines import _rank_row, rank_rows
from .config import RacHyper
from .dataset import DriverTrajectory, EventColumns, Split
from .errors import ConfigError, TrainingDiverged, UsageError
from .evaluation import Request, check_requests, cut_points
from .geospatial import StationIndex
from .reward import (
    INFERENCE_ROWS,
    NetWaitForecaster,
    RewardEnvironment,
    TIME_FEATURE_WIDTH,
    epoch_hour,
    forecast_inputs,
    time_features,
)
from .seeding import derive_seed, rng_for

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------

class ObservationSpace:
    """Builds observation vectors [location || charging || time] per event.

    Width = (1 + M + 76) + 2 + 31. The charging block is the SOC proxy
    (duration / train max, clipped) and energy / train max; both scalers come
    from the training split only.
    """

    def __init__(self, index: StationIndex, max_duration: float, max_energy: float, history: int):
        if max_duration <= 0:
            raise ConfigError("max_duration must be positive (training split empty?)")
        self.index = index
        self.max_duration = max_duration
        self.max_energy = max_energy
        self.history = history
        self.obs_dim = index.context_width() + 2 + TIME_FEATURE_WIDTH

    def rows(self, events: EventColumns, prev_station: str | None) -> np.ndarray:
        """(len(events), obs_dim): the observations of consecutive events.
        Each links to the station charged at just before it, the first to
        `prev_station` (None: no previous station)."""
        cols = events.station_cols(self.index)
        first = -1 if prev_station is None else self.index.index_of(prev_station)
        out = np.empty((cols.size, self.obs_dim))
        self._fill_rows(out, events, cols, np.concatenate([[first], cols[:-1]])[: cols.size])
        return out

    def _fill_rows(self, out: np.ndarray, events: EventColumns, cols: np.ndarray, prev_cols: np.ndarray) -> None:
        """Write into `out` the observation of each event at station column
        `cols[i]`, linked to station column `prev_cols[i]` (-1: none). Every
        row is computed on its own, so a row's bits do not depend on the
        others."""
        width = self.index.context_width()
        out[:, :width] = self.index.context(cols, prev_cols)
        out[:, width] = np.minimum(events.duration_min / self.max_duration, 1.0)
        out[:, width + 1] = events.energy_kwh / self.max_energy if self.max_energy > 0 else 0.0
        out[:, width + 2 :] = time_features(events.hours)

    def padded(self, events: EventColumns) -> np.ndarray:
        """(history + len(events), obs_dim): `history` zero rows, then
        `rows(events, None)`. Rows j .. j + history - 1 are cut j's window."""
        out = np.zeros((self.history + len(events), self.obs_dim))
        out[self.history :] = self.rows(events, None)
        return out

    def windows(self, events: EventColumns, cuts: Sequence[int]) -> np.ndarray:
        """(len(cuts), history, obs_dim): for each cut j, the observations of
        the last `history` events of `events[:j]`, left-padded with zero rows.
        Each observation links to the station charged at just before it, even
        when that event is cut off. Cuts must be non-empty."""
        return self.run_windows([(events, cuts)])

    def run_windows(self, runs: Sequence[tuple[EventColumns, Sequence[int]]]) -> np.ndarray:
        """The `windows` of each (events, cuts) run, stacked in run order,
        from one observation pass. Each run's events from `history` before its
        first cut, and the one before those for its station, are joined into
        one table by `EventColumns.concat`; each run's first joined event links
        to no station (it is event 0, or read only for its station). Every
        window is then one gather from the rows, behind one zero row."""
        parts, starts, gathers, size = [], [], [], 0
        steps = np.arange(self.history) - self.history
        for events, cuts in runs:
            cuts = np.asarray(cuts, dtype=np.intp)
            lo = max(int(cuts.min()) - self.history - 1, 0)
            parts.append(events[lo : int(cuts.max())])
            at = cuts[:, None] + steps  # the event index of each window row
            gathers.append(np.where(at >= 0, 1 + size + at - lo, 0))
            starts.append(size)
            size += len(parts[-1])
        table = EventColumns.concat(parts)
        cols = table.station_cols(self.index)
        prev_cols = np.concatenate([[-1], cols[:-1]])[:size]
        prev_cols[[start for start in starts if start < size]] = -1
        obs = np.empty((1 + size, self.obs_dim))
        obs[0] = 0.0
        self._fill_rows(obs[1:], table, cols, prev_cols)
        return obs[np.concatenate(gathers)]


# ---------------------------------------------------------------------------
# Replay buffer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    driver_id: str
    start: int   # first decision step (event index being predicted)
    length: int


class ReplayBuffer:
    """Logged decision windows: overlapping length-T slices, stride 1.

    Decision step j of a trajectory predicts event j from the observations of
    events < j, so steps run 1..n-1. Each window is one finite-horizon
    episode: its last step takes no bootstrap, which keeps action values
    bounded by the T-step discounted return. Stored tensors are immutable
    once added; sampling is reproducible for a fixed generator.
    """

    def __init__(self, history: int, horizon: int):
        self.history = history
        self.horizon = horizon
        # Per driver: the observations `ObservationSpace.padded` gives of the
        # events before the last decision step, so rows j..j+history-1 are
        # step j's history, then the station column and the epoch hour of
        # each event up to that step.
        self.trajectories: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.windows: list[Window] = []

    def add_trajectory(self, obs_space: ObservationSpace, traj: DriverTrajectory,
                       max_step: int | None = None) -> int:
        """Add windows over decision steps [1, max_step); max_step defaults to n.

        Returns the number of windows added.
        """
        if obs_space.history != self.history:
            raise UsageError(f"observation history {obs_space.history} != buffer history {self.history}")
        hi = len(traj) if max_step is None else min(max_step, len(traj))
        steps = hi - 1  # decisions 1..hi-1
        if steps < 1:
            return 0
        events = traj.events[:hi]
        self.trajectories[traj.driver_id] = (
            obs_space.padded(events[:steps]),
            events.station_cols(obs_space.index),
            events.hours,
        )
        length = min(steps, self.horizon)
        added = [Window(traj.driver_id, start, length) for start in range(1, hi - length + 1)]
        self.windows.extend(added)
        return len(added)

    def __len__(self) -> int:
        return len(self.windows)

    def sample(self, rng: np.random.Generator, count: int) -> list[Window]:
        if not self.windows:
            raise UsageError("replay buffer is empty")
        idx = rng.integers(0, len(self.windows), size=count)
        return [self.windows[i] for i in idx]


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------

class HistoryEncoder:
    """Per-step embedding MLP (tanh) into a stacked LSTM; the final top-layer
    hidden state is the encoded state."""

    def __init__(self, obs_dim: int, embed: int, hidden: int, layers: int, rng: np.random.Generator):
        self.obs_dim = obs_dim
        self.embed_dim = embed
        self.hidden = hidden
        self.embed = nn.Mlp([obs_dim, embed], rng, output_activation="tanh")
        self.lstm = nn.StackedLstm(embed, hidden, layers, rng)

    @property
    def params(self) -> dict[str, np.ndarray]:
        return nn.named({"embed": self.embed.params, "lstm": self.lstm.params})

    def forward(self, histories: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
        """Encode the U histories once; with `rows` (B,), return the encoded
        state of history `rows[i]` as row i, so rows sharing a history share
        its encoding."""
        U, k, d = histories.shape
        flat = histories.reshape(U * k, d)
        emb, embed_cache = self.embed.forward(flat)
        seq = emb.reshape(U, k, self.embed_dim)
        c, lstm_cache = self.lstm.final_hidden(seq)
        return (c if rows is None else c[rows]), {"embed": embed_cache, "lstm": lstm_cache,
                                                  "shape": (U, k), "rows": rows}

    def backward(self, cache: dict, dc: np.ndarray) -> dict[str, np.ndarray]:
        U, k = cache["shape"]
        if cache["rows"] is not None:
            dc = _sum_rows(dc, cache["rows"], U)
        dseq, lstm_grads = self.lstm.backward_last(cache["lstm"], dc)
        _, embed_grads = self.embed.backward(cache["embed"], dseq.reshape(U * k, self.embed_dim))
        return nn.named({"embed": embed_grads, "lstm": lstm_grads})


def _sum_rows(dc: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """(count, h): row u is the sum of the rows i of `dc` with rows[i] == u,
    added in batch order (`np.add.at` is unbuffered and sequential)."""
    out = np.zeros((count, dc.shape[1]))
    np.add.at(out, rows, dc)
    return out


class RacModel:
    """Parameter bundle: encoder, actor head, critic and target critic."""

    def __init__(self, obs_dim: int, num_stations: int, hyper: RacHyper):
        self.obs_dim = obs_dim
        self.num_stations = num_stations
        self.hyper = hyper
        self.encoder = HistoryEncoder(
            obs_dim, hyper.embed, hyper.hidden, hyper.layers, rng_for(hyper.seed, "encoder-init")
        )
        self.actor_head = nn.Dense(hyper.hidden, num_stations, rng_for(hyper.seed, "actor-init"))
        self.critic = nn.Mlp(
            [hyper.hidden + num_stations, hyper.critic_hidden, 1],
            rng_for(hyper.seed, "critic-init"),
        )
        self.critic_target = copy.deepcopy(self.critic)
        self.critic_updates = 0

    # -- parameter views ----------------------------------------------------
    def actor_params(self) -> dict[str, np.ndarray]:
        return nn.named({"encoder": self.encoder.params, "actor": self.actor_head.params})

    def critic_params(self) -> dict[str, np.ndarray]:
        return nn.named({"critic": self.critic.params})

    def all_params(self) -> dict[str, np.ndarray]:
        return nn.named({"encoder": self.encoder.params, "actor": self.actor_head.params,
                         "critic": self.critic.params, "critic_target": self.critic_target.params})

    def clone(self) -> "RacModel":
        return copy.deepcopy(self)

    # -- forward helpers ----------------------------------------------------
    def policy(self, histories: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
        c, enc_cache = self.encoder.forward(histories, rows)
        logits, head_cache = self.actor_head.forward(c)
        pi = nn.softmax(logits)
        return pi, {"c": c, "enc": enc_cache, "head": head_cache, "pi": pi}

    def q_values(self, c: np.ndarray, action_onehot: np.ndarray, target: bool = False):
        net = self.critic_target if target else self.critic
        q, cache = net.forward(np.concatenate([c, action_onehot], axis=1))
        return q[:, 0], cache


# ---------------------------------------------------------------------------
# Update components
# ---------------------------------------------------------------------------

def td_target(r: np.ndarray, gamma: float, q_next: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    """y = r + gamma * Q_target(next state, next action); y = r at terminals."""
    r = np.asarray(r, dtype=float)
    q_next = np.asarray(q_next, dtype=float)
    out = r + gamma * np.where(terminal, 0.0, q_next)
    return np.where(terminal, r, out)


PROB_CLAMP = 1e-7


def regularization_gradient(pi: np.ndarray, a_hat: np.ndarray) -> np.ndarray:
    """Elementwise ascent direction of the per-station binary cross-entropy
    preference term w.r.t. the policy outputs: (a_hat - pi) / ((1-pi) pi),
    scaled by 1/M over the M stations of the last axis. Probabilities are
    clamped away from {0, 1}."""
    pi = np.asarray(pi, dtype=float)
    a_hat = np.asarray(a_hat, dtype=float)
    if pi.shape != a_hat.shape:
        raise UsageError("pi and a_hat shapes differ")
    clamped = np.clip(pi, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return (a_hat - clamped) / ((1.0 - clamped) * clamped) / pi.shape[-1]


def update_target(model: RacModel, interval: int) -> bool:
    """Hard-copy the live critic into the target every `interval` updates."""
    if model.critic_updates % interval == 0:
        for name, p in model.critic.params.items():
            np.copyto(model.critic_target.params[name], p)
        return True
    return False


def _onehot_rows(idx: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros((idx.shape[0], m))
    out[np.arange(idx.shape[0]), idx] = 1.0
    return out


@dataclass
class Batch:
    windows: list[Window]
    histories: np.ndarray        # (U, k, obs_dim), one per distinct (driver, step)
    rows: np.ndarray             # (B,) each row's index into histories
    actions: np.ndarray          # (B,) logged station columns
    drivers: list[str]
    prev_cols: np.ndarray        # (B,) station column of each step's previous event
    hours: np.ndarray            # (B,)
    terminal: np.ndarray         # (B,) bool, true at each window's last step

    def __len__(self) -> int:
        return self.actions.shape[0]


def _gather_batch(buffer: ReplayBuffer, windows: list[Window]) -> Batch:
    """Each window's steps in order, so a step's next state is the next row's.
    A window's last step, which may also end its trajectory, is terminal.
    Windows drawn with replacement, or overlapping, repeat steps: each
    distinct (driver, step) keeps one history, in first-appearance order."""
    lags = np.arange(buffer.history)
    first: dict[tuple[str, int], int] = {}
    hists, rows, actions, prevs, hours, drivers = [], [], [], [], [], []
    for w in windows:
        obs, cols, step_hours = buffer.trajectories[w.driver_id]
        end = w.start + w.length
        new = [j for j in range(w.start, end) if (w.driver_id, j) not in first]
        for j in new:
            first[w.driver_id, j] = len(first)
        if new:
            hists.append(obs[np.array(new)[:, None] + lags])
        rows += [first[w.driver_id, j] for j in range(w.start, end)]
        actions.append(cols[w.start : end])
        prevs.append(cols[w.start - 1 : end - 1])
        hours.append(step_hours[w.start : end])
        drivers += [w.driver_id] * w.length
    terminal = np.zeros(len(drivers), dtype=bool)
    terminal[np.cumsum([w.length for w in windows]) - 1] = True
    return Batch(
        windows=windows,
        histories=np.concatenate(hists),
        rows=np.array(rows, dtype=np.intp),
        actions=np.concatenate(actions),
        drivers=drivers,
        prev_cols=np.concatenate(prevs),
        hours=np.concatenate(hours),
        terminal=terminal,
    )


def _preference_ascent(pi: np.ndarray, a_hat_onehot: np.ndarray, regularizer: str) -> np.ndarray:
    """Ascent direction w.r.t. the actor logits for the preference term."""
    if regularizer == "softmax_ce":
        return a_hat_onehot - pi
    eta = regularization_gradient(pi, a_hat_onehot)
    return nn.softmax_backward(pi, eta)


def _ce_loss(pi: np.ndarray, actions: np.ndarray) -> float:
    picked = pi[np.arange(actions.shape[0]), actions]
    return float(-np.mean(np.log(np.clip(picked, 1e-300, None))))


def _mean_entropy(pi: np.ndarray) -> float:
    """Mean over rows of the entropy of each row of `pi`, in nats (0 log 0 = 0)."""
    return float(-np.mean(np.sum(pi * np.log(np.where(pi > 0, pi, 1.0)), axis=1)))


def _actor_grads(model: RacModel, cache: dict, ascent_dlogits: np.ndarray,
                 extra_dc: np.ndarray | None) -> dict[str, np.ndarray]:
    """Descent gradients of the actor group (head + shared encoder), keyed as
    `actor_params` but head first, for a mean-ascent logits direction plus an
    optional extra descent gradient on the encoded state."""
    dlogits = -ascent_dlogits / ascent_dlogits.shape[0]
    dc, head_grads = model.actor_head.backward(cache["head"], dlogits)
    if extra_dc is not None:
        dc = dc + extra_dc
    return nn.named({"actor": head_grads, "encoder": model.encoder.backward(cache["enc"], dc)})


def _clip_telemetry(group: str, norm: float, hyper: RacHyper) -> dict:
    """Log fields for one clipped update: the pre-clip global norm and
    whether clipping fired."""
    return {f"{group}_grad_norm": norm, f"{group}_clipped": bool(0 < hyper.clip_norm < norm)}


def _actor_apply(model: RacModel, cache: dict, ascent_dlogits: np.ndarray,
                 extra_dc: np.ndarray | None, hyper: RacHyper) -> dict:
    """Clip the actor gradients and apply one SGD step to the actor group.
    Returns the update's clip telemetry."""
    grads = _actor_grads(model, cache, ascent_dlogits, extra_dc)
    norm = nn.clip_global_norm(grads, hyper.clip_norm)
    nn.sgd_step(model.actor_params(), grads, hyper.alpha)
    return _clip_telemetry("actor", norm, hyper)


def _require_finite_losses(epoch: int, batch: Batch, **losses: float) -> None:
    bad = {k: v for k, v in losses.items() if not np.isfinite(v)}
    if bad:
        dump = {
            "epoch": epoch,
            "losses": {k: float(v) for k, v in losses.items()},
            "windows": [(w.driver_id, w.start, w.length) for w in batch.windows],
        }
        raise TrainingDiverged(f"non-finite losses at epoch {epoch}: {sorted(bad)}", dump)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

def train_supervised(buffer: ReplayBuffer, model: RacModel, hyper: RacHyper) -> list[dict]:
    """Standalone preference trainer: cross-entropy toward logged choices.

    Uses the same window sampling stream, batch assembly, gradient clipping
    and SGD as the actor-critic loop, so a train_rac step at epsilon = 1
    matches it bitwise.
    """
    rng_buffer = rng_for(hyper.seed, "buffer")
    records = []
    for epoch in range(hyper.epochs):
        start = time.perf_counter()
        batch = _gather_batch(buffer, buffer.sample(rng_buffer, hyper.samples_per_epoch))
        pi, cache = model.policy(batch.histories, batch.rows)
        a_hat = _onehot_rows(batch.actions, model.num_stations)
        ce_loss = _ce_loss(pi, batch.actions)
        _require_finite_losses(epoch, batch, ce_loss=ce_loss)
        ascent = _preference_ascent(pi, a_hat, hyper.regularizer)
        telemetry = _actor_apply(model, cache, ascent, None, hyper)
        records.append(
            {"epoch": epoch, "ce_loss": ce_loss, **telemetry,
             "wallclock_ms": (time.perf_counter() - start) * 1000.0}
        )
    return records


def train_rac(
    buffer: ReplayBuffer,
    model: RacModel,
    env: RewardEnvironment,
    hyper: RacHyper,
) -> list[dict]:
    """Off-policy regularized actor-critic training.

    Per epoch: sample windows; encode states; price the logged actions with
    the reward environment; form TD targets with the target critic and a
    next action sampled from the current policy; update the critic by
    semi-gradient TD; update the actor by (1-eps) * policy gradient +
    eps * preference cross-entropy. Deterministic for a fixed seed.

    Returns one record per epoch: the losses, the critic's explained variance
    of its TD targets (1 - critic_mse / var(y); None when every target is
    equal), the policy's mean entropy in nats, the mean reward, the
    wall-clock time and, for each clipped update, its pre-clip gradient norm
    and whether clipping fired (`critic_`, `actor_` and, when td-coupled,
    `forecaster_` `grad_norm` and `clipped`).
    """
    if len(buffer) == 0:
        raise UsageError("replay buffer is empty")
    eps = hyper.epsilon
    rng_buffer = rng_for(hyper.seed, "buffer")
    rng_actions = rng_for(hyper.seed, "actions")
    m = model.num_stations

    coupled = hyper.reward_update == "td_coupled"
    if coupled and not isinstance(env.forecaster, NetWaitForecaster):
        raise ConfigError("td_coupled reward updates need a NetWaitForecaster environment")

    records: list[dict] = []
    for epoch in range(hyper.epochs):
        start = time.perf_counter()
        batch = _gather_batch(buffer, buffer.sample(rng_buffer, hyper.samples_per_epoch))
        B = len(batch)
        pi, cache = model.policy(batch.histories, batch.rows)
        a_hat = _onehot_rows(batch.actions, m)
        ce_loss = _ce_loss(pi, batch.actions)

        # External rewards for the logged actions, priced before any
        # td-coupled forecaster update of this epoch.
        rewards = env.breakdowns(batch.drivers, batch.prev_cols, batch.actions, batch.hours).reward

        # TD target: bootstrap with the target critic at the next state (the
        # next row's; a window's masked last row borrows any) and a next
        # action sampled from the current policy, one uniform per row.
        c_next = np.concatenate([cache["c"][1:], cache["c"][-1:]])
        pi_next = np.concatenate([pi[1:], pi[-1:]])
        a_next = nn.sample_categorical(rng_actions, pi_next)
        q_next, _ = model.q_values(c_next, _onehot_rows(a_next, m), target=True)
        y = td_target(rewards, hyper.gamma, q_next, batch.terminal)

        # Critic semi-gradient at the logged actions.
        q_logged, critic_cache = model.q_values(cache["c"], a_hat)
        delta = q_logged - y
        critic_mse = float(np.mean(delta * delta))
        mean_reward = float(np.mean(rewards))
        var_y = float(np.var(y))
        _require_finite_losses(epoch, batch, critic_mse=critic_mse, ce_loss=ce_loss, mean_reward=mean_reward)

        dqin, critic_grads = model.critic.backward(critic_cache, (delta / B)[:, None])
        critic_grads = nn.named({"critic": critic_grads})
        dc_critic = dqin[:, : hyper.hidden]

        # Actor ascent: policy-gradient and preference terms.
        ce_ascent = _preference_ascent(pi, a_hat, hyper.regularizer)
        if eps == 1.0:
            ascent = ce_ascent
            extra_dc = None
        else:
            if hyper.pg_weight == "q":
                a_smp = nn.sample_categorical(rng_actions, pi)
                q_smp, _ = model.q_values(cache["c"], _onehot_rows(a_smp, m))
                pg_ascent = (_onehot_rows(a_smp, m) - pi) * q_smp[:, None]
            else:
                pg_ascent = (a_hat - pi) * (-delta)[:, None]
            ascent = pg_ascent if eps == 0.0 else (1.0 - eps) * pg_ascent + eps * ce_ascent
            extra_dc = (1.0 - eps) * dc_critic

        # Optional literal TD coupling of the wait forecaster.
        forecaster_telemetry = _td_couple_reward_net(env.forecaster, batch, delta, hyper) if coupled else {}

        critic_norm = nn.clip_global_norm(critic_grads, hyper.clip_norm)
        nn.sgd_step(model.critic_params(), critic_grads, hyper.alpha)
        model.critic_updates += 1
        update_target(model, hyper.target_interval)

        actor_telemetry = _actor_apply(model, cache, ascent, extra_dc, hyper)

        records.append(
            {
                "epoch": epoch,
                "critic_mse": critic_mse,
                "critic_explained_var": 1.0 - critic_mse / var_y if var_y > 0 else None,
                "ce_loss": ce_loss,
                "policy_entropy": _mean_entropy(pi),
                "mean_reward": mean_reward,
                **_clip_telemetry("critic", critic_norm, hyper),
                **actor_telemetry,
                **forecaster_telemetry,
                "wallclock_ms": (time.perf_counter() - start) * 1000.0,
            }
        )
    return records


def _td_couple_reward_net(fc: NetWaitForecaster, batch: Batch, delta: np.ndarray, hyper: RacHyper) -> dict:
    """Literal delta-weighted update of the forecaster parameters, over the
    logged decisions the forecaster prices from its own lags. Returns the
    update's clip telemetry; with no such decision the gradient is zero and
    no step is taken."""
    rows, keep = forecast_inputs(fc.series, fc.index, batch.actions, batch.hours, fc.k)
    if not keep.size:
        return _clip_telemetry("forecaster", 0.0, hyper)
    _, cache = fc.net.forward(rows)
    grads = fc.net.backward(cache, delta[keep] / len(batch))
    norm = nn.clip_global_norm(grads, hyper.clip_norm)
    nn.sgd_step(fc.net.params, grads, hyper.alpha)
    return _clip_telemetry("forecaster", norm, hyper)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Recommendation:
    station_id: str
    prob: float
    est_wait_min: float
    est_dist_km: float
    est_reward: float
    fallback: bool  # the wait is the station's mean wait
    clamped: bool   # the wait was a negative forecast, raised to 0


def recommend(
    model,
    obs_space: ObservationSpace,
    env: RewardEnvironment,
    driver_id: str,
    history: EventColumns,
    k: int,
    when=None,
) -> list[Recommendation]:
    """Top-k stations by probability (ties by station id), each annotated
    with the forecast wait, distance and reward it would earn.

    `history` is the driver's past events in trajectory order, by
    (start_time, event_id): `DriverTrajectory.events` or a prefix sliced
    from it. `model` is a RacModel or any recommender with `probabilities`.
    `when` is the decision time used for pricing; defaults to the last
    event's start time.
    """
    rec = RacRecommender(model, obs_space) if isinstance(model, RacModel) else model
    index = obs_space.index
    if k < 1 or k > len(index):
        raise UsageError(f"k must be in [1, {len(index)}]")
    if not history:
        raise UsageError("recommendation needs at least one past event")
    p = rec.probabilities([(driver_id, history, [len(history)])])[0]
    eh = epoch_hour(when) if when else int(history.hours[-1])
    ranked = _rank_row(p, index.order, k)
    cols = np.array([index.index[sid] for sid in ranked], dtype=np.int64)
    prev = index.index_of(history.stations[history.station[-1]])
    priced = env.breakdowns([driver_id] * k, np.full(k, prev), cols, np.full(k, eh))
    columns = zip(ranked, p[cols].tolist(), priced.wait_forecast.tolist(), priced.dist_km.tolist(),
                  priced.reward.tolist(), priced.fallback.tolist(), priced.clamped.tolist())
    return [Recommendation(*row) for row in columns]


class RacRecommender:
    """Ranking adapter used by the shared evaluation harness: the shared
    `model`, or with a driver -> model map `models`, each driver's own model
    (a driver missing from the map uses the shared one).

    The policy runs in pieces of at most `INFERENCE_ROWS` cuts. With the
    shared model alone, a piece is the next `INFERENCE_ROWS` cuts of the
    call, spanning requests when they are short. With a map, a piece is the
    next `INFERENCE_ROWS` cuts of one driver, counted over that driver's
    cuts alone, so every row has the bits that a single-model
    `RacRecommender` gives over that driver's requests. Whole pieces are
    packed, in the order the policy reads them, into passes of at most
    `INFERENCE_ROWS` cuts, and each pass builds the windows of all its cuts
    in one `run_windows` pass, whatever model each piece goes through."""

    def __init__(self, model: RacModel, obs_space: ObservationSpace,
                 models: dict[str, RacModel] | None = None):
        self.model = model
        self.obs_space = obs_space
        self.models = models

    def _pieces(self, requests: Sequence[Request], total: int) -> tuple[list[int] | None, list[tuple]]:
        """The order in which the policy reads the rows of the call (None:
        call order; with a map, driver by driver, in the order of their
        first cuts), and each policy call's model and [start, stop) in that
        order."""
        if self.models is None:
            return None, [(self.model, start, min(start + INFERENCE_ROWS, total))
                          for start in range(0, total, INFERENCE_ROWS)]
        rows_of: dict[str, list[int]] = {}
        start = 0
        for driver_id, _, cuts in requests:
            rows_of.setdefault(driver_id, []).extend(range(start, start + len(cuts)))
            start += len(cuts)
        order, pieces = [], []
        for driver_id, rows in rows_of.items():
            model = self.models.get(driver_id, self.model)
            pieces += [(model, len(order) + at, len(order) + min(at + INFERENCE_ROWS, len(rows)))
                       for at in range(0, len(rows), INFERENCE_ROWS)]
            order += rows
        return order, pieces

    def probabilities(self, requests: Sequence[Request]) -> np.ndarray:
        """Policy over stations at every cut of every request; uniform at a
        cut of 0 (no history). Only the returned rows grow with the number
        of cuts: each pass's windows and forward caches are freed before the
        next pass."""
        check_requests(requests)
        cuts = [(events, j) for _, events, request_cuts in requests for j in request_cuts]
        order, pieces = self._pieces(requests, len(cuts))
        if order is not None:
            cuts = [cuts[i] for i in order]
        passes: list[tuple[int, list[tuple]]] = []
        for piece in pieces:
            if not passes or piece[2] - passes[-1][0] > INFERENCE_ROWS:
                passes.append((piece[1], []))
            passes[-1][1].append(piece)
        out = np.empty((len(cuts), self.model.num_stations))
        for lo, group in passes:
            runs = [list(run) for _, run in groupby(cuts[lo : group[-1][2]], key=lambda cut: id(cut[0]))]
            windows = self.obs_space.run_windows([(run[0][0], [j for _, j in run]) for run in runs])
            for model, start, stop in group:
                out[start:stop] = model.policy(windows[start - lo : stop - lo])[0]
        uniform = [i for i, (_, j) in enumerate(cuts) if j == 0]
        if uniform:
            out[uniform] = 1.0 / self.model.num_stations
        if order is None:
            return out
        in_call_order = np.empty_like(out)
        in_call_order[order] = out
        return in_call_order

    def rank(self, requests: Sequence[Request], k: int) -> list[list[str]]:
        return rank_rows(self.probabilities(requests), self.obs_space.index.order, k)


# ---------------------------------------------------------------------------
# Warm-up and per-driver fine-tuning
# ---------------------------------------------------------------------------

def build_buffer(
    obs_space: ObservationSpace,
    trajectories: dict[str, DriverTrajectory],
    max_steps: dict[str, int] | None = None,
    hyper: RacHyper = RacHyper(),
) -> ReplayBuffer:
    """Replay buffer over each driver's decision steps (optionally capped at
    the training-split boundary)."""
    buffer = ReplayBuffer(hyper.history, hyper.horizon)
    for driver_id in sorted(trajectories):
        cap = None if max_steps is None else max_steps.get(driver_id)
        buffer.add_trajectory(obs_space, trajectories[driver_id], cap)
    return buffer


class Validation(NamedTuple):
    """One driver's validation cuts as the policy reads them: the window of
    each cut (`ObservationSpace.windows`) and the station charged at it."""

    windows: np.ndarray
    truths: list[str]


def validation_sets(obs_space: ObservationSpace, trajectories: dict[str, DriverTrajectory],
                    splits: dict[str, Split]) -> dict[str, Validation]:
    """The `Validation` of every driver with validation events, in driver-id
    order, with every driver's windows built in one observation pass. The
    cuts are the validation events that have a previous event; a driver
    whose validation events have none gets no rows."""
    runs = {d: (trajectories[d].events, cut_points(trajectories[d], splits[d].val))
            for d in sorted(trajectories) if d in splits and len(splits[d].val)}
    with_cuts = [run for run in runs.values() if run[1]]
    windows = (obs_space.run_windows(with_cuts) if with_cuts
               else np.empty((0, obs_space.history, obs_space.obs_dim)))
    out, start = {}, 0
    for driver_id, (events, cuts) in runs.items():
        out[driver_id] = Validation(windows[start : start + len(cuts)], events.station_id[cuts].tolist())
        start += len(cuts)
    return out


def _val_p1(model: RacModel, stations: Sequence[str], val: Validation) -> float:
    """Validation precision@1: the share of the validation cuts whose station
    is the model's top pick, 0.0 without cuts. The policy reads the prebuilt
    windows in pieces of `INFERENCE_ROWS`, as `RacRecommender` runs one
    driver's cuts."""
    if not val.truths:
        return 0.0
    pi = np.concatenate([model.policy(val.windows[start : start + INFERENCE_ROWS])[0]
                         for start in range(0, len(val.truths), INFERENCE_ROWS)])
    top = rank_rows(pi, stations, 1)
    return sum(ranked[0] == sid for ranked, sid in zip(top, val.truths)) / len(val.truths)


def finetune_driver(
    shared: RacModel,
    obs_space: ObservationSpace,
    env: RewardEnvironment,
    traj: DriverTrajectory,
    split: Split | None,
    hyper: RacHyper,
    epochs: int,
    patience: int,
    val: Validation | None = None,
) -> RacModel:
    """Clone the shared model and fine-tune on one driver's training split
    (the whole trajectory without a split). With `val`, the driver's
    validation windows from `validation_sets`, every epoch, and the shared
    starting point as epoch 0, is scored by validation precision@1 on those
    windows; training stops after `patience` epochs without a gain and
    keeps the best-scoring parameters. Without `val` every epoch runs. Each
    epoch draws its windows and actions from its own seed. A td-coupled
    fine-tune updates a private copy of the forecaster net, so no driver
    prices with another's updates."""
    model = shared.clone()
    n_train = len(split.train) if split is not None else len(traj)
    buffer = ReplayBuffer(hyper.history, hyper.horizon)
    buffer.add_trajectory(obs_space, traj, n_train)
    if len(buffer) == 0:
        return model
    if hyper.reward_update == "td_coupled" and isinstance(env.forecaster, NetWaitForecaster):
        env = copy.copy(env)
        env.forecaster = copy.copy(env.forecaster)
        env.forecaster.net = copy.deepcopy(env.forecaster.net)
    per_driver = replace(hyper, epochs=1, samples_per_epoch=min(hyper.samples_per_epoch, len(buffer)))
    stations = obs_space.index.order
    best_params = None
    best_p1 = -1.0
    stale = 0
    if val is not None:
        # Epoch-0 snapshot: fine-tuning must never end up worse than the
        # shared starting point on validation.
        best_p1 = _val_p1(model, stations, val)
        best_params = {k: v.copy() for k, v in model.all_params().items()}
    for epoch in range(epochs):
        seed = derive_seed(hyper.seed, f"finetune:{traj.driver_id}:{epoch}")
        train_rac(buffer, model, env, replace(per_driver, seed=seed))
        if val is None:
            continue
        p1 = _val_p1(model, stations, val)
        if p1 > best_p1:
            best_p1 = p1
            best_params = {k: v.copy() for k, v in model.all_params().items()}
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break
    if best_params is not None:
        params = model.all_params()
        for k, v in best_params.items():
            np.copyto(params[k], v)
    return model


def _finetune_job(args) -> tuple[str, RacModel]:
    shared, obs_space, env, traj, split, hyper, epochs, patience, val = args
    return traj.driver_id, finetune_driver(shared, obs_space, env, traj, split, hyper, epochs, patience, val)


def warmup_then_finetune(
    obs_space: ObservationSpace,
    env: RewardEnvironment,
    trajectories: dict[str, DriverTrajectory],
    splits: dict[str, Split],
    hyper: RacHyper,
    warmup_trajectories: dict[str, DriverTrajectory] | None = None,
    *,
    finetune_epochs: int,
    patience: int,
    jobs: int = 1,
) -> tuple[RacModel, dict[str, RacModel]]:
    """Train one shared model on the anonymized warm-up pool (when present),
    then clone and fine-tune it per driver on that driver's training split.

    An empty pool falls back to from-scratch per-driver training (the
    zero-warm-up variant). Every driver's validation windows are built
    once, before fine-tuning (`validation_sets`). Per-driver jobs are
    independent; results merge in driver-id order regardless of worker
    scheduling.
    """
    shared = RacModel(obs_space.obs_dim, len(obs_space.index), hyper)
    if warmup_trajectories:
        pool_buffer = build_buffer(obs_space, warmup_trajectories, None, hyper)
        if len(pool_buffer) > 0:
            train_rac(pool_buffer, shared, env, hyper)
        else:
            logger.warning("warm-up pool has no usable windows; training from scratch")

    val = validation_sets(obs_space, trajectories, splits)
    job_args = [
        (shared, obs_space, env, trajectories[d], splits.get(d), hyper, finetune_epochs, patience, val.get(d))
        for d in sorted(trajectories)
    ]
    # Never more workers than drivers: the fork start method spawns them all up front.
    workers = min(jobs, len(job_args))
    results: dict[str, RacModel] = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for driver_id, model in pool.map(_finetune_job, job_args):
                results[driver_id] = model
    else:
        for args in job_args:
            driver_id, model = _finetune_job(args)
            results[driver_id] = model
    return shared, {d: results[d] for d in sorted(results)}
