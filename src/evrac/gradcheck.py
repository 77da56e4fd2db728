"""Finite-difference validation of every gradient path used in training.

Each registered path builds a tiny random instance (dims <= 8, sequence
length <= 4), computes analytic gradients through the same backward code the
trainers use, and compares against central differences at h = 1e-6. The
actor and critic paths run on a small `RacModel` and take their gradients
from `agent._preference_ascent` and `agent._actor_grads`, as `train_rac` and
`train_supervised` do; the forecaster path takes its gradient from
`WaitForecastNet.mse_gradient`, as `train_reward_net` does.

Probe losses are scaled by LOSS_SCALE and regression targets sit close to the
clean predictions: central differences subtract two nearly equal loss values,
so their noise floor is ~eps*|loss|/(2h). Keeping |loss| small keeps that
floor orders of magnitude below the pass tolerance even for near-zero
gradient entries, while any systematic backward bug still scales with the
gradient and is caught.

Both sides run the one forward the trainers run; the finite-difference
losses drop the cache it returns.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import nn
from .agent import RacModel, _actor_grads, _ce_loss, _onehot_rows, _preference_ascent
from .config import RacHyper
from .errors import UsageError
from .geospatial import NUM_POI_TYPES, Station, StationIndex
from .reward import HOURS_PER_WEEK, ForecastRows, WaitForecastNet, reward_net_input_dim
from .seeding import rng_for

TOLERANCE = 1e-5
LOSS_SCALE = 3e-5
RESIDUAL = 0.3

Arrays = dict[str, np.ndarray]


def _check_regression(
    rng: np.random.Generator,
    h: float,
    params: Arrays,
    forward: Callable[[], tuple[np.ndarray, object]],
    backward: Callable[[object, np.ndarray], Arrays],
) -> float:
    """Check `backward(cache, dy)` against the scaled loss ½‖y − target‖²,
    with the target a small random offset from the clean output `forward()`."""
    clean, _ = forward()
    target = clean + RESIDUAL * rng.normal(size=clean.shape)

    def loss_fn() -> float:
        y, _ = forward()
        return LOSS_SCALE * float(np.sum(0.5 * (y - target) ** 2))

    def grads_fn() -> Arrays:
        y, cache = forward()
        return backward(cache, LOSS_SCALE * (y - target))

    return nn.grad_check(params, loss_fn, grads_fn, h)


def _check_mlp(rng: np.random.Generator, h: float) -> float:
    widths = [int(rng.integers(2, 6)) for _ in range(3)]
    model = nn.Mlp(widths, rng)
    x = rng.normal(size=(2, widths[0]))
    return _check_regression(rng, h, model.params, lambda: model.forward(x),
                             lambda cache, dy: model.backward(cache, dy)[1])


def _check_lstm_cell(rng: np.random.Generator, h: float) -> float:
    in_dim, hidden = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    layer = nn.LstmLayer(in_dim, hidden, rng)
    x = rng.normal(size=(1, 1, in_dim))
    return _check_regression(rng, h, layer.params, lambda: layer.forward(x),
                             lambda cache, dy: layer.backward(cache, dy)[1])


SHARED_ROWS = np.array([0, 1, 0])


def _tiny_rac(rng: np.random.Generator) -> tuple[RacModel, np.ndarray, np.ndarray]:
    """A small RacModel with two random histories and a batch of three
    logged actions whose first and last rows share history 0 through
    `SHARED_ROWS`, as `_gather_batch` shares a repeated decision step: the
    encoder's gather and its sum of the repeats' gradients are checked too."""
    m, obs_dim = 3, 5
    hyper = RacHyper(embed=4, hidden=4, layers=2, critic_hidden=5, seed=int(rng.integers(2**31)))
    model = RacModel(obs_dim, m, hyper)
    histories = rng.normal(size=(2, int(rng.integers(2, 5)), obs_dim))
    return model, histories, rng.integers(0, m, size=SHARED_ROWS.size)


def _station_bce(pi: np.ndarray, actions: np.ndarray) -> float:
    """Per-station binary cross-entropy, averaged over rows and stations: the
    loss whose ascent `regularization_gradient` returns while the clamp is
    inactive."""
    a_hat = _onehot_rows(actions, pi.shape[1])
    return float(-np.mean(a_hat * np.log(pi) + (1.0 - a_hat) * np.log(1.0 - pi)))


def _check_actor(regularizer: str, loss: Callable[[np.ndarray, np.ndarray], float]):
    """The preference update of the actor group: `loss(pi, actions)`
    against `_actor_grads` of `_preference_ascent`. The tiny model's policy
    stays interior (near uniform), far from the probability clamp."""

    def check(rng: np.random.Generator, h: float) -> float:
        model, histories, actions = _tiny_rac(rng)
        a_hat = _onehot_rows(actions, model.num_stations)

        def loss_fn() -> float:
            pi, _ = model.policy(histories, SHARED_ROWS)
            return LOSS_SCALE * loss(pi, actions)

        def grads_fn() -> Arrays:
            pi, cache = model.policy(histories, SHARED_ROWS)
            ascent = _preference_ascent(pi, a_hat, regularizer)
            return _actor_grads(model, cache, LOSS_SCALE * ascent, None)

        return nn.grad_check(model.actor_params(), loss_fn, grads_fn, h)

    return check


def _check_critic(rng: np.random.Generator, h: float) -> float:
    """Critic regression at the logged actions; the encoder takes the critic's
    state gradient as `extra_dc`, as in `train_rac`."""
    model, histories, actions = _tiny_rac(rng)
    a_hat = _onehot_rows(actions, model.num_stations)
    params = nn.named({"encoder": model.encoder.params, "critic": model.critic.params})

    def forward():
        _, cache = model.policy(histories, SHARED_ROWS)
        q, critic_cache = model.q_values(cache["c"], a_hat)
        return q, (cache, critic_cache)

    def backward(caches, dq: np.ndarray) -> Arrays:
        cache, critic_cache = caches
        dqin, critic_grads = model.critic.backward(critic_cache, dq[:, None])
        actor_grads = _actor_grads(model, cache, np.zeros_like(a_hat), dqin[:, : model.hyper.hidden])
        return {**actor_grads, **nn.named({"critic": critic_grads})}  # the head's go unread

    return _check_regression(rng, h, params, forward, backward)


def _check_reward(rng: np.random.Generator, h: float) -> float:
    """The forecaster on the `ForecastRows` it trains on: a few stations with
    random POI mixes, so the station-table and hour-of-week-table gradients of
    the first layer are checked too. Rows repeat stations and some lag hours
    fall before 1970. The gradient is `mse_gradient`'s, as `train_reward_net`
    applies it, summed over chunks of 2 rows; the row count is odd, so the
    last chunk is partial. The loss is the one-shot forward's."""
    m, hidden, k = int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 5))
    index = StationIndex({
        f"s{i}": Station(f"s{i}", float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180)),
                         rng.integers(0, 4, NUM_POI_TYPES).astype(float))
        for i in range(m)
    })
    n = 2 * m + 1
    rows = ForecastRows(index, rng.normal(size=(n, k)), rng.integers(0, m, size=n),
                        rng.integers(-2 * HOURS_PER_WEEK, 2 * HOURS_PER_WEEK, size=n))
    net = WaitForecastNet(reward_net_input_dim(index), hidden, 2, rng)
    target = net.forward(rows)[0] + RESIDUAL * rng.normal(size=n)
    chunks = rows.chunks(2)

    def loss_fn() -> float:
        y, _ = net.forward(rows)
        return LOSS_SCALE * float(np.mean(0.5 * (y - target) ** 2))

    def grads_fn() -> Arrays:
        _, grads = net.mse_gradient(chunks, target)
        return {name: LOSS_SCALE * g for name, g in grads.items()}

    return nn.grad_check(net.params, loss_fn, grads_fn, h)


PATHS = {
    "mlp": _check_mlp,
    "lstm_cell": _check_lstm_cell,
    "actor_softmax_ce": _check_actor("softmax_ce", _ce_loss),
    "actor_eta": _check_actor("eta", _station_bce),
    "critic_mse": _check_critic,
    "reward_mse": _check_reward,
}


def run_gradcheck(instances: int = 20, seed: int = 0, h: float = 1e-6) -> dict[str, float]:
    """Max relative error per path over `instances` random instances each;
    fewer than one instance is a UsageError, since it would check nothing."""
    if instances < 1:
        raise UsageError(f"instances must be >= 1, got {instances}")
    results = {}
    for name, fn in PATHS.items():
        worst = 0.0
        for i in range(instances):
            rng = rng_for(seed, f"gradcheck:{name}:{i}")
            worst = max(worst, fn(rng, h))
        results[name] = worst
    return results
