"""Checkpoint container and model (de)serialization.

Layout:
    b"RACCKPT1\\n"
    <header byte length, ASCII decimal>\\n
    <header JSON, UTF-8>
    <payload: concatenated little-endian float64 arrays>

The header carries format_version, kind, tool version, model metadata and a
per-array manifest (name, shape, byte offset into the payload). Offsets must
be contiguous and strictly increasing; load(save(x)) is a bitwise identity.
No wall-clock metadata is stored, so identical runs produce identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import __version__, nn
from .agent import RacHyper, RacModel
from .baselines import FpmcHyper, FpmcRecommender, MarkovRecommender, PopularityRecommender
from .config import hyper_from_mapping
from .errors import DataFormatError, require_regular_file
from .reward import RewardNetHyper, WaitForecastNet

MAGIC = b"RACCKPT1\n"
FORMAT_VERSION = 1


def save_checkpoint(arrays: dict[str, np.ndarray], kind: str, meta: dict, path: str | Path) -> None:
    names = sorted(arrays)
    manifest = []
    offset = 0
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "tool": f"evrac {__version__}",
        "meta": meta,
        "arrays": manifest,
    }
    header_bytes = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(f"{len(header_bytes)}\n".encode("ascii"))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    require_regular_file(path, DataFormatError)
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise DataFormatError(f"{path}: bad checkpoint magic")
    rest = raw[len(MAGIC) :]
    nl = rest.find(b"\n")
    if nl < 0:
        raise DataFormatError(f"{path}: missing header length")
    try:
        header_len = int(rest[:nl])
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad header length") from exc
    header_start = nl + 1
    header_bytes = rest[header_start : header_start + header_len]
    if len(header_bytes) < header_len:
        raise DataFormatError(f"{path}: truncated header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: checkpoint header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: unsupported checkpoint format_version {version!r} (expected {FORMAT_VERSION})"
        )

    payload = rest[header_start + header_len :]
    arrays: dict[str, np.ndarray] = {}
    expected_offset = 0
    manifest = header.get("arrays", [])
    if not (isinstance(manifest, list) and all(map(_is_manifest_entry, manifest))):
        raise DataFormatError(f"{path}: manifest entries need a string name, a shape and an offset")
    names = [entry["name"] for entry in manifest]
    if len(set(names)) != len(names):
        raise DataFormatError(f"{path}: duplicate array names in manifest")
    payload_elements = len(payload) // 8
    for entry in manifest:
        name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
        if offset != expected_offset:
            raise DataFormatError(f"{path}: non-contiguous manifest at array {name!r}")
        # Sizes are Python ints, which cannot wrap; numpy rejects a huge
        # dimension even at size 0, and no stored array has one.
        if any(dim > payload_elements for dim in shape):
            raise DataFormatError(f"{path}: array {name!r} has shape {list(shape)}, larger than the payload")
        nbytes = math.prod(shape) * 8
        chunk = payload[offset : offset + nbytes]
        if len(chunk) < nbytes:
            raise DataFormatError(f"{path}: truncated payload, array {name!r} incomplete")
        arrays[name] = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(arrays[name])):
            raise DataFormatError(f"{path}: array {name!r} holds non-finite values")
        expected_offset = offset + nbytes
    if len(payload) != expected_offset:
        raise DataFormatError(f"{path}: {len(payload) - expected_offset} trailing bytes after payload")
    return arrays, header


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_manifest_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list) and all(map(_is_count, entry["shape"]))
            and _is_count(entry.get("offset")))


# Rules for meta values: (predicate, what the value must be).
_POSITIVE = (lambda v: _is_count(v) and v > 0, "a positive integer")
_COUNT = (_is_count, "a non-negative integer")
_NAMES = (lambda v: isinstance(v, list) and v and all(isinstance(x, str) for x in v) and len(set(v)) == len(v),
          "a non-empty list of distinct strings")
_SMOOTHING = (lambda v: type(v) in (int, float) and math.isfinite(v) and v >= 0, "a finite number >= 0")


def _meta(header: dict, path: str | Path, **rules: tuple) -> dict:
    """The header's meta object, with each named value passing its rule."""
    meta = header.get("meta")
    if not isinstance(meta, dict):
        raise DataFormatError(f"{path}: checkpoint meta is not a JSON object")
    for key, (ok, what) in rules.items():
        if not ok(meta.get(key)):
            raise DataFormatError(f"{path}: meta {key!r} must be {what}")
    return meta


def _check_shapes(arrays: dict[str, np.ndarray], shapes: dict[str, tuple], path: str | Path) -> None:
    missing = sorted(set(shapes) - set(arrays))
    if missing:
        raise DataFormatError(f"{path}: checkpoint is missing arrays {missing}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise DataFormatError(f"{path}: array {name!r} has shape {arrays[name].shape}, expected {shape}")


def _lstm_shapes(input_dim: int, hidden: int, layers: int) -> dict[str, tuple]:
    """The array shapes of an `nn.StackedLstm`, named as in its params."""
    return nn.named({f"l{l}": {"W": (input_dim if l == 0 else hidden, 4 * hidden), "U": (hidden, 4 * hidden),
                               "b": (4 * hidden,)} for l in range(layers)})


def _mlp_shapes(widths: list[int]) -> dict[str, tuple]:
    """The array shapes of an `nn.Mlp`, named as in its params."""
    return nn.named({f"l{i}": {"W": (a, b), "b": (b,)} for i, (a, b) in enumerate(zip(widths[:-1], widths[1:]))})


def _copy_into(params: dict[str, np.ndarray], arrays: dict[str, np.ndarray], path: str | Path) -> None:
    _check_shapes(arrays, {name: target.shape for name, target in params.items()}, path)
    for name, target in params.items():
        np.copyto(target, arrays[name])


# ---------------------------------------------------------------------------
# Actor-critic bundle
# ---------------------------------------------------------------------------

def save_rac_model(model: RacModel, path: str | Path, extra_meta: dict | None = None) -> None:
    meta = {
        "obs_dim": model.obs_dim,
        "num_stations": model.num_stations,
        "hyper": dataclasses.asdict(model.hyper),
        "critic_updates": model.critic_updates,
    }
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(model.all_params(), "rac", meta, path)


def load_rac_model(path: str | Path) -> tuple[RacModel, dict]:
    arrays, header = load_checkpoint(path)
    if header.get("kind") != "rac":
        raise DataFormatError(f"{path}: expected a rac checkpoint, got {header.get('kind')!r}")
    meta = _meta(header, path, obs_dim=_POSITIVE, num_stations=_POSITIVE, critic_updates=_COUNT)
    hyper = hyper_from_mapping(RacHyper, meta.get("hyper"), path)
    # The arrays must match the meta before the model is built, so that no
    # meta value makes the loader allocate more than the file holds.
    obs_dim, m, h, c = meta["obs_dim"], meta["num_stations"], hyper.hidden, hyper.critic_hidden
    if 3 * hyper.layers + 12 > len(arrays):
        raise DataFormatError(f"{path}: hyper 'layers' is {hyper.layers}, but the checkpoint holds {len(arrays)} arrays")
    encoder = {"embed": _mlp_shapes([obs_dim, hyper.embed]), "lstm": _lstm_shapes(hyper.embed, h, hyper.layers)}
    critic = _mlp_shapes([h + m, c, 1])
    _check_shapes(arrays, nn.named({"encoder": nn.named(encoder), "actor": {"W": (h, m), "b": (m,)},
                                    "critic": critic, "critic_target": critic}), path)
    model = RacModel(obs_dim, m, hyper)
    _copy_into(model.all_params(), arrays, path)
    model.critic_updates = meta["critic_updates"]
    return model, header


# ---------------------------------------------------------------------------
# Wait forecaster
# ---------------------------------------------------------------------------

def save_reward_net(net: WaitForecastNet, hyper: RewardNetHyper, path: str | Path,
                    extra_meta: dict | None = None) -> None:
    meta = {
        "input_dim": net.input_dim,
        "hidden": net.hidden_dim,
        "layers": net.lstm.num_layers,
        "hyper": dataclasses.asdict(hyper),
    }
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(net.params, "reward", meta, path)


def load_reward_net(path: str | Path) -> tuple[WaitForecastNet, RewardNetHyper, dict]:
    arrays, header = load_checkpoint(path)
    if header.get("kind") != "reward":
        raise DataFormatError(f"{path}: expected a reward checkpoint, got {header.get('kind')!r}")
    meta = _meta(header, path, input_dim=_POSITIVE, hidden=_POSITIVE, layers=_POSITIVE)
    hyper = hyper_from_mapping(RewardNetHyper, meta.get("hyper"), path)
    # The arrays must match the meta before the net is built, so that no meta
    # value makes the loader allocate more than the file holds.
    input_dim, hidden, layers = meta["input_dim"], meta["hidden"], meta["layers"]
    if 3 * layers + 2 > len(arrays):
        raise DataFormatError(f"{path}: meta 'layers' is {layers}, but the checkpoint holds {len(arrays)} arrays")
    _check_shapes(arrays, nn.named({"head": {"W": (hidden, 1), "b": (1,)},
                                    "lstm": _lstm_shapes(input_dim, hidden, layers)}), path)
    net = WaitForecastNet(input_dim, hidden, layers, np.random.default_rng(0))
    _copy_into(net.params, arrays, path)
    return net, hyper, header


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def save_baseline(model, path: str | Path, extra_meta: dict | None = None) -> None:
    extra = extra_meta or {}
    if isinstance(model, MarkovRecommender):
        arrays = {"global": model.global_matrix, **nn.named({"driver": model.per_driver})}
        meta = {"stations": model.stations, "lam": model.lam, **extra}
        save_checkpoint(arrays, "markov", meta, path)
    elif isinstance(model, FpmcRecommender):
        arrays = {"UI": model.UI, "IU": model.IU, "LI": model.LI, "IL": model.IL}
        meta = {
            "stations": model.stations,
            "drivers": sorted(model.driver_index, key=model.driver_index.get),
            "hyper": dataclasses.asdict(model.hyper),
            **extra,
        }
        save_checkpoint(arrays, "fpmc", meta, path)
    elif isinstance(model, PopularityRecommender):
        arrays = {"global": model.global_counts, **nn.named({"driver": model.per_driver})}
        meta = {"stations": model.stations, **extra}
        save_checkpoint(arrays, "popularity", meta, path)
    else:
        raise DataFormatError(f"cannot checkpoint {type(model).__name__}")


def load_baseline(path: str | Path):
    arrays, header = load_checkpoint(path)
    kind = header.get("kind")
    if kind not in ("markov", "fpmc", "popularity"):
        raise DataFormatError(f"{path}: unknown baseline kind {kind!r}")
    rules = {"markov": {"lam": _SMOOTHING}, "fpmc": {"drivers": _NAMES}}.get(kind, {})
    meta = _meta(header, path, stations=_NAMES, **rules)
    m = len(meta["stations"])
    if kind == "fpmc":
        hyper = hyper_from_mapping(FpmcHyper, meta.get("hyper"), path)
        f = hyper.factors
        # Checked before the model is built, which allocates (m, factors) arrays.
        _check_shapes(arrays, {"UI": (len(meta["drivers"]), f), "IU": (m, f), "LI": (m, f), "IL": (m, f)}, path)
        model = FpmcRecommender(meta["stations"], hyper)
        model.driver_index = {d: i for i, d in enumerate(meta["drivers"])}
        model.UI, model.IU = arrays["UI"], arrays["IU"]
        model.LI, model.IL = arrays["LI"], arrays["IL"]
        return model, header
    per_driver = {name[len("driver.") :]: arr for name, arr in arrays.items() if name.startswith("driver.")}
    shape = (m, m) if kind == "markov" else (m,)
    _check_shapes(arrays, {"global": shape, **nn.named({"driver": dict.fromkeys(per_driver, shape)})}, path)
    if kind == "markov":
        model = MarkovRecommender(meta["stations"], lam=meta["lam"])
        model.global_matrix = arrays["global"]
    else:
        model = PopularityRecommender(meta["stations"])
        model.global_counts = arrays["global"]
    model.per_driver = per_driver
    return model, header
