"""Span recorder for the traced benchmark run.

While a `Tracer` is active it replaces selected evrac callables with wrappers
that record one span per call: name, start, end and parent span. Spans are
kept in memory and written out once, when the run ends. Counts (calls, rows,
bytes, computed FLOPs, distinct keys) are gathered at the same boundaries.

A module-level function may be bound under its own name in other modules
(`baselines` imports `nn.sigmoid`, `pipeline` and `cli` import `agent` and
`evaluation` names), so every loaded `evrac` module attribute that *is* the
original function is swapped, and all of them are restored on exit.

Self time of a span is its duration minus the time covered by its child
spans. Work done by the hooks that compute counts is charged to no span.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

_clock = time.perf_counter


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.selfs: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[list] = []  # [span index, time covered by children]

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.ends.append(0.0)
        self.selfs.append(0.0)
        self._stack.append([idx, 0.0])
        self.starts.append(_clock())
        return idx

    def exit(self, idx: int) -> None:
        end = _clock()
        _, covered = self._stack.pop()
        self.ends[idx] = end
        duration = end - self.starts[idx]
        self.selfs[idx] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def uncharged(self, seconds: float) -> None:
        """Hide hook work from the enclosing span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds
        self.counts["tracing.hook_s"] += seconds

    def end_pass(self) -> None:
        """Fold this pass's distinct keys into counts; keys are per pass
        because each pass builds new objects."""
        for name, keys in self.distinct.items():
            self.counts[f"{name}.distinct"] += len(keys)
        self.distinct.clear()

    def parent_name(self) -> str | None:
        return self.names[self._stack[-1][0]] if self._stack else None

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, start, end, self_s in zip(self.names, self.starts, self.ends, self.selfs):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += self_s
        return dict(out)

    def write(self, path: Path) -> None:
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(table),
            name_idx=np.array([code[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
            self_s=np.array(self.selfs),
        )


# -- count hooks: (recorder, args, kwargs, result) ----------------------------

def _lstm_gflop(layer, batch: int, steps: int) -> float:
    """Matmul FLOPs of one LSTM layer pass, computed from shapes:
    2 * B * T * 4h * (in + h)."""
    h = layer.hidden_dim
    return 2.0 * batch * steps * 4 * h * (layer.input_dim + h) / 1e9


def _lstm_forward(rec, args, kwargs, out):
    layer, xs = args[0], args[1]
    rec.counts["nn.lstm_forward.gflop"] += _lstm_gflop(layer, xs.shape[0], xs.shape[1])


def _lstm_backward(rec, args, kwargs, out):
    layer, cache = args[0], args[1]
    xs = cache["xs"]
    # dW, dU, dx and dh each cost one forward-sized matmul pair.
    rec.counts["nn.lstm_backward.gflop"] += 2.0 * _lstm_gflop(layer, xs.shape[0], xs.shape[1])


def _sigmoid(rec, args, kwargs, out):
    if rec.parent_name() == "baselines.fpmc_fit":
        rec.counts["baselines.fpmc_fit.updates"] += 1


def _predict_wait(rec, args, kwargs, out):
    _, series, _, station_id, eh = args[:5]
    rec.distinct["reward.predict_wait"].add((id(series), station_id, int(eh)))
    if "mean_fallback" in out[1]:
        rec.counts["reward.predict_wait.fallbacks"] += 1


def _encoder_forward(rec, args, kwargs, out):
    histories = args[1]
    rec.counts["agent.encoder_forward.rows"] += histories.shape[0]
    seen = rec.distinct["agent.encoder_forward"]
    for row in histories:
        seen.add(hashlib.blake2b(row.tobytes(), digest_size=16).digest())


def _parse_events(rec, args, kwargs, out):
    rec.counts["dataset.parse_events.rows"] += len(out[0])


def _file_bytes(counter: str, arg: int):
    def hook(rec, args, kwargs, out):
        path = kwargs.get("path", args[arg] if len(args) > arg else None)
        rec.counts[counter] += os.path.getsize(path)
    return hook


# (module, attribute path, span name, hook). Class attributes are methods.
TARGETS = [
    ("evrac.nn", "LstmLayer.forward", "nn.lstm_forward", _lstm_forward),
    ("evrac.nn", "LstmLayer.backward", "nn.lstm_backward", _lstm_backward),
    ("evrac.nn", "sigmoid", "nn.sigmoid", _sigmoid),
    ("evrac.nn", "sgd_step", "nn.sgd_step", None),
    ("evrac.nn", "clip_global_norm", "nn.clip_global_norm", None),
    ("evrac.reward", "train_reward_net", "reward.train_reward_net", None),
    ("evrac.reward", "predict_wait", "reward.predict_wait", _predict_wait),
    ("evrac.baselines", "FpmcRecommender.fit", "baselines.fpmc_fit", None),
    ("evrac.baselines", "_rank_row", "baselines.rank", None),
    ("evrac.agent", "_gather_batch", "agent.gather_batch", None),
    ("evrac.agent", "HistoryEncoder.forward", "agent.encoder_forward", _encoder_forward),
    ("evrac.agent", "HistoryEncoder.backward", "agent.encoder_backward", None),
    ("evrac.agent", "train_rac", "agent.train_rac", None),
    ("evrac.agent", "finetune_driver", "agent.finetune_driver", None),
    ("evrac.agent", "_val_p1", "agent.val_p1", None),
    ("evrac.agent", "RacRecommender.rank", "agent.rank", None),
    ("evrac.agent", "recommend", "agent.recommend", None),
    ("evrac.evaluation", "evaluate", "evaluation.evaluate", None),
    ("evrac.geospatial", "StationIndex.distance", "geospatial.distance", None),
    ("evrac.geospatial", "station_norms", "geospatial.station_norms", None),
    ("evrac.dataset", "parse_events", "dataset.parse_events", _parse_events),
    ("evrac.pipeline", "load_data_bundle", "pipeline.load_data_bundle", None),
    ("evrac.checkpoint", "load_checkpoint", "checkpoint.load", _file_bytes("checkpoint.load.bytes", 0)),
    ("evrac.checkpoint", "save_checkpoint", "checkpoint.save", _file_bytes("checkpoint.save.bytes", 3)),
]


def _wrap(rec: SpanRecorder, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if hook is not None:
            t0 = _clock()
            hook(rec, args, kwargs, out)
            rec.uncharged(_clock() - t0)
        return out

    return wrapper


class Tracer:
    """Context manager: patch every target while active, restore on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "evrac" or n.startswith("evrac.")]
        for module_name, attr_path, span, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr_path:
                cls_name, attr = attr_path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, _wrap(self.recorder, span, original, hook))
                continue
            original = getattr(owner, attr_path)
            wrapper = _wrap(self.recorder, span, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)
        return self.recorder

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                           else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
