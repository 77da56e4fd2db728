"""Machine-speed probe, used to put timings on one scale.

The shared machines this benchmark runs on change speed by up to 2x within
tens of seconds, most of all for small numpy calls. A plain wall-clock rate
then says more about the neighbours than about evrac. So every round is
bracketed by a probe: fixed kernels that share no code with evrac, each
shaped like one kind of work evrac does. A workload weights the kernels by
its own mix, and its timings are rescaled to the machine speed at which each
kernel takes its `REFERENCE_S`:

    slowdown = sum_k weight_k * seconds_k / REFERENCE_S[k]
    rate at reference speed = measured rate * slowdown
    time at reference speed = measured time / slowdown

A change to evrac moves the workload's timings and not the probe, so it
shows in full. Raw timings stay in the readable report.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_clock = time.perf_counter
REPEATS = 3  # timings per kernel per probe; the median is kept

# Median kernel seconds over 175 probes on the reference machine: a 2-vCPU
# Intel Xeon VM, Python 3.11, numpy 2.4, one BLAS thread.
REFERENCE_S = {"interp": 0.0040, "small": 0.0048, "batch": 0.0063, "blas": 0.0059}

_rng = np.random.default_rng(0)
_W = {b: (_rng.standard_normal((b, 64)), _rng.standard_normal((64, 128)),
          _rng.standard_normal((32, 128)), _rng.standard_normal(128)) for b in (1, 320)}
_BLAS = (_rng.standard_normal((3000, 160)), _rng.standard_normal((160, 128)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ex = np.exp(z[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _recurrent(batch: int, steps: int) -> None:
    """LSTM-shaped steps: two matmuls, masked sigmoids, tanh, slicing."""
    x, w, u, b = _W[batch]
    h = np.zeros((batch, 32))
    c = np.zeros((batch, 32))
    for _ in range(steps):
        z = x @ w + h @ u + b
        i, f, o = _sigmoid(z[:, :32]), _sigmoid(z[:, 32:64]), _sigmoid(z[:, 96:])
        c = f * c + i * np.tanh(z[:, 64:96])
        h = o * np.tanh(c)


def _interp() -> None:
    """Interpreter work: loops, tuples and dict updates."""
    counts: dict[int, int] = {}
    for i in range(24000):
        key = (i * 7) % 97
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def _blas() -> None:
    a, w = _BLAS
    np.tanh(a @ w)


KERNELS = {
    "interp": _interp,
    "small": lambda: _recurrent(1, 80),
    "batch": lambda: _recurrent(320, 3),
    "blas": _blas,
}


def probe() -> dict[str, float]:
    """Median seconds of each kernel."""
    out = {}
    for name in sorted(KERNELS):
        times = []
        for _ in range(REPEATS):
            t0 = _clock()
            KERNELS[name]()
            times.append(_clock() - t0)
        out[name] = statistics.median(times)
    return out


def slowdown(weights: dict[str, float], seconds: dict[str, float]) -> float:
    """Weighted mean of kernel time over reference time (1.0 = reference)."""
    total = sum(weights.values())
    return sum(w * seconds[k] / REFERENCE_S[k] for k, w in weights.items()) / total
