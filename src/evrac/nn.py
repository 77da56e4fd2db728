"""Minimal deterministic neural toolkit.

Dense layers, tanh MLPs with a linear or tanh output, a stacked LSTM with
full backpropagation through time, softmax and sigmoid functions, plain SGD
with optional global-norm clipping, seeded initialization and
finite-difference gradient checking.

Conventions:
  * everything is float64; non-finite inputs are rejected at layer entry
  * arrays are batch-first: vectors (B, D), sequences (B, T, D)
  * parameters live in plain dicts name -> ndarray, so SGD, clipping,
    checkpointing and gradient checks all share the same machinery. A
    composite names its parts' arrays with `named`, "<part>.<name>"
  * forward passes return (output, cache); backward passes consume the cache
    and return (input gradients, parameter gradients). Callers that never run
    backward drop the cache
  * inside `LstmLayer` the step state is time-major, (T, B, ·), so that step
    t reads and writes contiguous rows; its forward and backward take and
    return batch-first views of it
  * a caller that runs a loop of LSTM forwards may hand them a `Workspace`,
    which keeps each layer's gates and step state across calls; a forward
    without one allocates them. An array a workspace hands out, and so a
    cache built in it, is valid until the next call through that workspace:
    each cache that must stay live needs its own

Initialization: weights ~ uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); LSTM
forget-gate bias starts at 1.0 for gradient flow; all other biases at 0.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError

# LSTM pre-activation block layout within the 4h axis.
GATE_ORDER = ("input", "forget", "cell", "output")


@functools.lru_cache(maxsize=8)
def _gate_affine(h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only per-column constants over the 4h gate block: `scale` is 0.5
    on the sigmoid blocks (i, f, o) and 1 on the tanh block (g), `shift` is
    0.5 and 0, and `tanh_cols` marks the tanh block with 1."""
    tanh_cols = np.zeros(4 * h)
    tanh_cols[2 * h : 3 * h] = 1.0
    scale = 0.5 + 0.5 * tanh_cols
    out = (scale, 1.0 - scale, tanh_cols)
    for arr in out:
        arr.setflags(write=False)
    return out


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"non-finite values in {name}")


def named(groups: dict[str, dict]) -> dict:
    """One dict of every group's entries, each keyed "<group>.<key>", in group
    order and then in each group's own order. The one place parameter names
    are joined. A gradient dict's order is the summation order of
    `global_norm`, so it fixes the bits of every clipped step."""
    return {f"{g}.{k}": v for g, d in groups.items() for k, v in d.items()}


def uniform_init(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


_SIGMOID_NUDGE = 2.0**-600


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 0.5 * (1 + tanh(x/2)) equals 1 / (1 + exp(-x)) and cannot overflow.
    # Halving x below 2**-1021 can round into the subnormals and underflow;
    # adding 2**-600 first leaves every |x| >= 2**-547 unchanged and puts the
    # rest, whose sigmoid rounds to 0.5 either way, at 0 or above 2**-653.
    return 0.5 * (1.0 + np.tanh(0.5 * (x + _SIGMOID_NUDGE)))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax; positive and sums to 1 for any finite input."""
    _require_finite("logits", logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Chain a gradient w.r.t. softmax outputs back to the logits."""
    inner = (probs * dprobs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def sample_categorical(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Sample one index per row of a (B, M) probability matrix."""
    cum = np.cumsum(probs, axis=-1)
    u = rng.random(probs.shape[0])
    idx = (cum < u[:, None]).sum(axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1)


class Dense:
    """Affine map y = x @ W + b."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = uniform_init(rng, in_dim, (in_dim, out_dim))
        self.b = np.zeros(out_dim)

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        _require_finite("dense input", x)
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"dense expected input width {self.in_dim}, got {x.shape[-1]}")
        return x @ self.W + self.b, {"x": x}

    def backward(self, cache: dict, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        x = cache["x"]
        grads = {"W": x.T @ dy, "b": dy.sum(axis=0)}
        return dy @ self.W.T, grads


_ACTIVATIONS = ("linear", "tanh")


class Mlp:
    """Fully connected stack: tanh hidden layers, a linear or tanh output."""

    def __init__(
        self,
        widths: list[int],
        rng: np.random.Generator,
        output_activation: str = "linear",
    ):
        if len(widths) < 2:
            raise ShapeError("an MLP needs at least input and output widths")
        if output_activation not in _ACTIVATIONS:
            raise DomainError(f"unknown output activation {output_activation!r}")
        self.widths = list(widths)
        self.output_activation = output_activation
        self.layers = [Dense(a, b, rng) for a, b in zip(widths[:-1], widths[1:])]

    @property
    def params(self) -> dict[str, np.ndarray]:
        return named({f"l{i}": layer.params for i, layer in enumerate(self.layers)})

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        caches = []
        h = x
        last = len(self.layers) - 1
        acts = []
        for i, layer in enumerate(self.layers):
            h, cache = layer.forward(h)
            caches.append(cache)
            if i < last:
                h = np.tanh(h)
            acts.append(h)
        y = np.tanh(h) if self.output_activation == "tanh" else h
        return y, {"caches": caches, "acts": acts, "out": y}

    def backward(self, cache: dict, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        caches, acts, out = cache["caches"], cache["acts"], cache["out"]
        d = dy * (1.0 - out * out) if self.output_activation == "tanh" else dy
        grads: dict[str, dict] = {}  # last layer first
        last = len(self.layers) - 1
        for i in range(last, -1, -1):
            if i < last:
                # acts[i] is the tanh output feeding layer i+1
                d = d * (1.0 - acts[i] * acts[i])
            d, grads[f"l{i}"] = self.layers[i].backward(caches[i], d)
        return d, named(grads)


class Workspace:
    """Named float64 arrays kept across calls, with one named part per
    layer. `array(name, shape)` is a C-contiguous view of the buffer kept
    under `name`, reused while it is large enough and replaced by a larger
    one otherwise, so a smaller pass takes a view of a larger pass's buffer.
    Its contents are whatever the last call left there."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self._parts: dict[str, Workspace] = {}

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is not None and buf.shape == shape:
            return buf
        size = math.prod(shape)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(shape)
            return buf
        return buf.reshape(-1)[:size].reshape(shape)

    def part(self, name: str) -> Workspace:
        if name not in self._parts:
            self._parts[name] = Workspace()
        return self._parts[name]


class DenseInput:
    """The input side of an `LstmLayer` over a (B, T, in) array.

    An `LstmLayer` touches its input in two places only: `project(W, out)`
    writes every step's input pre-activations x_t W, time-major (T, B, 4h),
    into the C-contiguous `out` on the way in, and `backward(W, dW, steps)`
    adds the input-weight gradient to `dW` on the way out, from the (t, dz)
    pairs of the BPTT loop, and returns the input gradient (B, T, in). Any
    object with a (B, T, in) `shape` and these two methods can stand in for
    the array; `reward.ForecastRows` is one.
    """

    def __init__(self, xs: np.ndarray):
        self.xs = xs
        self.shape = xs.shape

    def project(self, W: np.ndarray, out: np.ndarray) -> np.ndarray:
        _require_finite("lstm input", self.xs)
        B, T, _ = self.shape
        np.matmul(self.xs.swapaxes(0, 1).reshape(T * B, -1), W, out=out.reshape(T * B, W.shape[1], copy=False))
        return out

    def backward(self, W: np.ndarray, dW: np.ndarray, steps) -> np.ndarray:
        B, T, in_dim = self.shape
        dxs = np.empty((T, B, in_dim))
        for t, dz in steps:
            dW += self.xs[:, t].T @ dz
            np.matmul(dz, W.T, out=dxs[t])
        return dxs.swapaxes(0, 1)


def _input_side(xs):
    return DenseInput(xs) if isinstance(xs, np.ndarray) else xs


class LstmLayer:
    """One LSTM layer over a (B, T, in) sequence.

    Pre-activations z_t = x_t W + h_{t-1} U + b are split into four h-wide
    blocks in GATE_ORDER; the cell follows the standard recurrences
    c_t = f*c + i*g, h_t = o*tanh(c_t). Parameter count is 4h(in + h + 1).
    The sequence is an array or an input side that stands in for one (see
    `DenseInput`); the cache keeps it as given under "xs".
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        h = hidden_dim
        self.W = uniform_init(rng, input_dim, (input_dim, 4 * h))
        self.U = uniform_init(rng, h, (h, 4 * h))
        self.b = np.zeros(4 * h)
        self.b[h : 2 * h] = 1.0  # forget gate starts open

    @property
    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "U": self.U, "b": self.b}

    def forward(self, xs, work: Workspace | None = None) -> tuple[np.ndarray, dict]:
        """The hidden sequence (B, T, h), and the cache `backward` reads. The
        cache holds the step state time-major: "hs" and "cs" are (T, B, h),
        "gates" (T, B, 4h), all three views of `work`'s arrays when it is
        given and new ones otherwise; the returned sequence is a view of "hs"."""
        inputs = _input_side(xs)
        if len(inputs.shape) != 3 or inputs.shape[2] != self.input_dim:
            raise ShapeError(
                f"lstm expected (B, T, {self.input_dim}), got {inputs.shape}"
            )
        B, T, _ = inputs.shape
        h = self.hidden_dim
        scale, shift, _ = _gate_affine(h)
        # sigmoid(z) = 0.5 + 0.5 tanh(z/2), so one tanh over the whole block
        # activates every gate once its i/f/o columns are halved. The halving
        # is folded into W, U and b; scaling by a power of two is exact.
        # The input projection of all T steps is computed up front, into the
        # gates buffer that each step then activates in place; it is
        # contiguous, so the block views below are views.
        U = self.U * scale
        if work is None:  # a one-off call: a Workspace would cost more than it saves
            gates, hs, cs = np.empty((T, B, 4 * h)), np.empty((T, B, h)), np.empty((T, B, h))
        else:
            gates = work.array("gates", (T, B, 4 * h))
            hs, cs = work.array("hs", (T, B, h)), work.array("cs", (T, B, h))
        inputs.project(self.W * scale, out=gates)
        gates += self.b * scale
        blocks = gates.reshape(T, B, 4, h).swapaxes(1, 2)  # step t's i, f, g, o
        ig = np.empty((B, h))
        for t, (a, (i, f, g, o), c, h_t) in enumerate(zip(gates, blocks, cs, hs)):
            if t:
                a += h_prev @ U
            np.tanh(a, out=a)
            a *= scale
            a += shift
            if t:
                np.multiply(f, c_prev, out=c)
                c += np.multiply(i, g, out=ig)  # c_t = f * c_prev + i * g
            else:
                np.multiply(i, g, out=c)
            np.tanh(c, out=h_t)
            h_t *= o  # h_t = o * tanh(c_t)
            h_prev, c_prev = h_t, c
        return hs.swapaxes(0, 1), {"xs": xs, "hs": hs, "cs": cs, "gates": gates}

    def backward(self, cache: dict, dhs: np.ndarray) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
        """BPTT. `dhs` (B, T, h) is the upstream gradient on every step's
        hidden state. The input gradient is whatever the input side returns
        (None when it has no use for one)."""
        dW = np.zeros_like(self.W)
        dU = np.zeros_like(self.U)
        db = np.zeros_like(self.b)
        steps = self._steps(cache, dhs.swapaxes(0, 1), dU, db)
        dxs = _input_side(cache["xs"]).backward(self.W, dW, steps)
        return dxs, {"W": dW, "U": dU, "b": db}

    def _steps(self, cache: dict, dhs: np.ndarray, dU: np.ndarray, db: np.ndarray):
        """The BPTT step loop over time-major `dhs` (T, B, h), last step
        first. Yields (t, dz), the gradient on step t's pre-activations, and
        adds that step's terms to dU and db. `dz` is one buffer, rewritten
        block by block each step."""
        hs, cs, gates = cache["hs"], cache["cs"], cache["gates"]
        T, B, h = hs.shape
        _, _, tanh_cols = _gate_affine(h)
        dz = np.empty((B, 4 * h))
        di, df, dg, do = dz[:, :h], dz[:, h : 2 * h], dz[:, 2 * h : 3 * h], dz[:, 3 * h :]
        dh_carry = dc_carry = None
        for t in range(T - 1, -1, -1):
            a = gates[t]
            i, f, g, o = a[:, :h], a[:, h : 2 * h], a[:, 2 * h : 3 * h], a[:, 3 * h :]
            tanh_c = np.tanh(cs[t])
            dh = dhs[t] if dh_carry is None else dhs[t] + dh_carry
            np.multiply(dh, tanh_c, out=do)
            dc = dh * o
            tanh_c *= tanh_c
            dc *= np.subtract(1.0, tanh_c, out=tanh_c)
            if dc_carry is not None:
                dc += dc_carry
            np.multiply(dc, g, out=di)
            if t:
                np.multiply(dc, cs[t - 1], out=df)
            else:
                df.fill(0.0)  # c_{-1} = 0
            np.multiply(dc, i, out=dg)
            # Activation slopes from the outputs: a(1 - a) on the sigmoid
            # blocks, (1 - a)(1 + a) on the tanh block.
            dz *= (1.0 - a) * (a + tanh_cols)
            yield t, dz
            if t:
                dU += hs[t - 1].T @ dz
            db += dz.sum(axis=0)
            dh_carry = dz @ self.U.T
            dc_carry = dc
            dc_carry *= f


class StackedLstm:
    """Stack of LSTM layers; layer l consumes layer l-1's hidden sequence."""

    def __init__(self, input_dim: int, hidden_dim: int, num_layers: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.layers = []
        for l in range(num_layers):
            in_l = input_dim if l == 0 else hidden_dim
            self.layers.append(LstmLayer(in_l, hidden_dim, rng))

    @property
    def params(self) -> dict[str, np.ndarray]:
        return named({f"l{l}": layer.params for l, layer in enumerate(self.layers)})

    def forward(self, xs: np.ndarray, work: Workspace | None = None) -> tuple[np.ndarray, dict]:
        """Returns the top layer's full hidden sequence (B, T, h) and a cache.
        Layer l runs in part "l<l>" of `work`, when given."""
        caches = []
        seq = xs
        for l, layer in enumerate(self.layers):
            seq, cache = layer.forward(seq, None if work is None else work.part(f"l{l}"))
            caches.append(cache)
        return seq, {"caches": caches}

    def final_hidden(self, xs: np.ndarray, work: Workspace | None = None) -> tuple[np.ndarray, dict]:
        hs, cache = self.forward(xs, work)
        return hs[:, -1], cache

    def backward(self, cache: dict, dhs_top: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        grads: dict[str, dict] = {}  # top layer first
        d = dhs_top
        for l in range(self.num_layers - 1, -1, -1):
            d, grads[f"l{l}"] = self.layers[l].backward(cache["caches"][l], d)
        return d, named(grads)

    def backward_last(self, cache: dict, dh_last: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Backward when only the final step's hidden state was consumed."""
        T, B, h = cache["caches"][-1]["hs"].shape
        dhs = np.zeros((T, B, h))
        dhs[-1] = dh_last
        return self.backward(cache, dhs.swapaxes(0, 1))


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

def sgd_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], alpha: float
) -> dict[str, np.ndarray]:
    """In-place p <- p - alpha*g. Ascent callers negate their gradients first."""
    for name, g in grads.items():
        p = params[name]
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        p -= alpha * g
    return params


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale the whole gradient dict so its global norm is <= max_norm.

    max_norm <= 0 disables clipping. Returns the pre-clip norm.
    """
    norm = global_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))


def grad_check(
    params: dict[str, np.ndarray],
    loss_fn: Callable[[], float],
    grads_fn: Callable[[], dict[str, np.ndarray]],
    h: float = 1e-6,
) -> float:
    """Max relative error between analytic gradients and central differences.

    `loss_fn` recomputes the scalar loss from the current parameter values;
    `grads_fn` returns analytic gradients at the current values. Only suitable
    for small models: runs 2 forward passes per scalar parameter.
    """
    analytic = grads_fn()
    worst = 0.0
    for name, p in params.items():
        g = analytic[name]
        flat = p.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss_fn()
            flat[idx] = orig - h
            lm = loss_fn()
            flat[idx] = orig
            numeric = (lp - lm) / (2.0 * h)
            worst = max(worst, relative_error(float(gflat[idx]), numeric))
    return worst
