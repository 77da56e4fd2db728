"""Checkpoint container format and model round trips."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import T0, checkpoint_mutations, columns_of, make_event
from evrac import checkpoint as ckpt
from evrac.agent import RacHyper, RacModel
from evrac.baselines import FpmcHyper, FpmcRecommender, MarkovRecommender, PopularityRecommender
from evrac.errors import DataFormatError, EvracError
from evrac.reward import RewardNetHyper, WaitForecastNet
from evrac.seeding import rng_for


def _arrays():
    rng = np.random.default_rng(0)
    return {
        "alpha.W": rng.normal(size=(3, 4)),
        "alpha.b": rng.normal(size=4),
        "beta": rng.normal(size=(2, 2, 2)),
    }


def test_roundtrip_bitwise(tmp_path):
    arrays = _arrays()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(arrays, "test", {"note": 1}, path)
    loaded, header = ckpt.load_checkpoint(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert np.array_equal(loaded[name], arrays[name])
        assert loaded[name].dtype == np.float64
    assert header["kind"] == "test"
    assert header["meta"] == {"note": 1}


def test_save_is_deterministic(tmp_path):
    arrays = _arrays()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ckpt.save_checkpoint(arrays, "test", {"x": [1, 2]}, p1)
    ckpt.save_checkpoint(arrays, "test", {"x": [1, 2]}, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_payload_names_array(tmp_path):
    arrays = _arrays()
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(arrays, "test", {}, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-12])
    with pytest.raises(DataFormatError, match="'beta'"):
        ckpt.load_checkpoint(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOTMAGIC\n123\n")
    with pytest.raises(DataFormatError, match="magic"):
        ckpt.load_checkpoint(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(_arrays(), "test", {}, path)
    raw = path.read_bytes()
    nl = raw.index(b"\n", len(ckpt.MAGIC))
    header_len = int(raw[len(ckpt.MAGIC):nl])
    header = json.loads(raw[nl + 1 : nl + 1 + header_len])
    header["format_version"] = 99
    new_header = (json.dumps(header, sort_keys=True) + "\n").encode()
    path.write_bytes(ckpt.MAGIC + f"{len(new_header)}\n".encode() + new_header + raw[nl + 1 + header_len :])
    with pytest.raises(DataFormatError, match="format_version 99"):
        ckpt.load_checkpoint(path)


def test_non_contiguous_manifest_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(_arrays(), "test", {}, path)
    raw = path.read_bytes()
    nl = raw.index(b"\n", len(ckpt.MAGIC))
    header_len = int(raw[len(ckpt.MAGIC):nl])
    header = json.loads(raw[nl + 1 : nl + 1 + header_len])
    header["arrays"][1]["offset"] += 8
    new_header = (json.dumps(header, sort_keys=True) + "\n").encode()
    path.write_bytes(ckpt.MAGIC + f"{len(new_header)}\n".encode() + new_header + raw[nl + 1 + header_len :])
    with pytest.raises(DataFormatError, match="non-contiguous"):
        ckpt.load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    ckpt.save_checkpoint(_arrays(), "test", {}, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(DataFormatError, match="trailing"):
        ckpt.load_checkpoint(path)


# ---------------------------------------------------------------------------
# Model round trips
# ---------------------------------------------------------------------------

def test_rac_model_roundtrip(tmp_path):
    hyper = RacHyper(hidden=6, embed=4, critic_hidden=4, seed=5)
    model = RacModel(20, 3, hyper)
    model.critic_updates = 42
    path = tmp_path / "rac.ckpt"
    ckpt.save_rac_model(model, path, {"config": {"seed": 5}})
    loaded, header = ckpt.load_rac_model(path)
    assert loaded.critic_updates == 42
    assert loaded.hyper == hyper
    for name, p in model.all_params().items():
        assert np.array_equal(p, loaded.all_params()[name])
    assert header["meta"]["config"] == {"seed": 5}


def test_rac_model_wrong_kind(tmp_path):
    path = tmp_path / "x.ckpt"
    ckpt.save_checkpoint(_arrays(), "reward", {}, path)
    with pytest.raises(DataFormatError, match="rac"):
        ckpt.load_rac_model(path)


def test_reward_net_roundtrip(tmp_path):
    net = WaitForecastNet(12, 5, 2, rng_for(0, "r"))
    path = tmp_path / "reward.ckpt"
    ckpt.save_reward_net(net, RewardNetHyper(window=6, hidden=5, layers=2), path)
    loaded, hyper, _ = ckpt.load_reward_net(path)
    assert hyper.window == 6
    for name, p in net.params.items():
        assert np.array_equal(p, loaded.params[name])


def _saved_reward_net(path) -> bytes:
    net = WaitForecastNet(12, 3, 2, rng_for(0, "fuzz"))
    ckpt.save_reward_net(net, RewardNetHyper(window=4, hidden=3, layers=2), path, {"config": {"seed": 1}})
    return path.read_bytes()


def test_reward_net_rejects_non_finite_weights(tmp_path):
    path = tmp_path / "reward.ckpt"
    raw = _saved_reward_net(path)
    # The last 8 bytes are the last float64 of the payload; 0x7ff8... is NaN.
    path.write_bytes(raw[:-8] + np.array([np.nan]).astype("<f8").tobytes())
    with pytest.raises(DataFormatError, match="non-finite"):
        ckpt.load_reward_net(path)


def _edited(raw: bytes, mutate) -> bytes:
    """A saved checkpoint's bytes with its header replaced by mutate(header)."""
    nl = raw.index(b"\n", len(ckpt.MAGIC))
    end = nl + 1 + int(raw[len(ckpt.MAGIC) : nl])
    header = mutate(json.loads(raw[nl + 1 : end]))
    encoded = (json.dumps(header, sort_keys=True) + "\n").encode()
    return ckpt.MAGIC + f"{len(encoded)}\n".encode() + encoded + raw[end:]


def _set(*keys_and_value):
    """A header edit that sets header[k0][k1]...[kn] to the last argument."""
    *keys, value = keys_and_value

    def mutate(header):
        node = header
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return header

    return mutate


def test_reward_net_meta_must_match_arrays(tmp_path):
    """A meta size the arrays do not have is rejected before any net is
    built, however large."""
    path = tmp_path / "reward.ckpt"
    raw = _saved_reward_net(path)
    for key, value in [("hidden", 2**40), ("input_dim", 2**40), ("layers", 2**40), ("layers", 3)]:
        path.write_bytes(_edited(raw, _set("meta", key, value)))
        with pytest.raises(DataFormatError):
            ckpt.load_reward_net(path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reward_checkpoint_loaders_raise_only_package_errors(tmp_path, data):
    """Truncations, bit flips and header or manifest edits of a saved
    forecaster either load or raise an `EvracError`; nothing else escapes."""
    path = tmp_path / "reward.ckpt"
    raw = _saved_reward_net(path)
    path.write_bytes(data.draw(checkpoint_mutations(raw)))
    for load in (ckpt.load_checkpoint, ckpt.load_reward_net):
        try:
            load(path)
        except EvracError:
            pass


def _train_events():
    return {
        "d1": columns_of([
            make_event(f"e{i}", "d1", sid, T0)
            for i, sid in enumerate(["cs0", "cs1", "cs0", "cs1"])
        ])
    }


def _saved_rac_model(path) -> bytes:
    ckpt.save_rac_model(RacModel(20, 3, RacHyper(hidden=6, embed=4, critic_hidden=4, layers=2, seed=5)), path)
    return path.read_bytes()


@pytest.mark.parametrize("edit", [
    _set("meta", "obs_dim", 2**40), _set("meta", "num_stations", 2**40),
    _set("meta", "hyper", "hidden", 2**40), _set("meta", "hyper", "embed", 2**40),
    _set("meta", "hyper", "critic_hidden", 2**40), _set("meta", "hyper", "layers", 2**40),
    _set("meta", "hyper", "layers", 3), _set("meta", "obs_dim", 21),
], ids=["obs_dim-huge", "num_stations-huge", "hidden-huge", "embed-huge", "critic_hidden-huge",
        "layers-huge", "layers-one-more", "obs_dim-one-more"])
def test_rac_model_meta_must_match_arrays(tmp_path, edit):
    """As for the forecaster: a meta or hyper size the arrays do not have is
    a DataFormatError before any model is built, however large (before, a
    huge one escaped as numpy's MemoryError)."""
    path = tmp_path / "rac.ckpt"
    path.write_bytes(_edited(_saved_rac_model(path), edit))
    with pytest.raises(DataFormatError):
        ckpt.load_rac_model(path)


def _saved_baseline(path, kind: str) -> bytes:
    build = {
        "mc": lambda: MarkovRecommender(["cs0", "cs1"]).fit(_train_events()),
        "fpmc": lambda: FpmcRecommender(["cs0", "cs1"], FpmcHyper(factors=3, epochs=2)).fit(_train_events()),
        "popularity": lambda: PopularityRecommender(["cs0", "cs1"]).fit(_train_events()),
    }[kind]
    ckpt.save_baseline(build(), path)
    return path.read_bytes()


@pytest.mark.parametrize("factors", [-1, 0, 4, 2**40])
def test_fpmc_factors_must_match_arrays(tmp_path, factors):
    """The FPMC arrays are checked against the meta's factor count before the
    model is built: before, -1 escaped as numpy's ValueError and 2**40 as
    MemoryError."""
    path = tmp_path / "fpmc.ckpt"
    path.write_bytes(_edited(_saved_baseline(path, "fpmc"), _set("meta", "hyper", "factors", factors)))
    with pytest.raises(DataFormatError, match="expected"):
        ckpt.load_baseline(path)


@pytest.mark.parametrize("field, names", [("drivers", ["d1", "d1"]), ("stations", ["cs0", "cs0"])])
def test_fpmc_names_must_be_distinct(tmp_path, field, names):
    """A repeated driver loaded before: `driver_index` kept its last row and
    `UI` row 0 was never read. A repeated station passed too, and only the
    CLI's city check caught it."""
    path = tmp_path / "fpmc.ckpt"
    path.write_bytes(_edited(_saved_baseline(path, "fpmc"), _set("meta", field, names)))
    with pytest.raises(DataFormatError, match=f"meta '{field}' must be a non-empty list of distinct strings"):
        ckpt.load_baseline(path)


@pytest.mark.parametrize("kind", ["rac", "mc", "fpmc", "popularity"])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_model_checkpoint_loaders_raise_only_package_errors(tmp_path, kind, data):
    """Truncations, bit flips and header or manifest edits of a saved RAC
    model or baseline either load or raise an `EvracError`; nothing else
    escapes."""
    path = tmp_path / f"{kind}.ckpt"
    raw = _saved_rac_model(path) if kind == "rac" else _saved_baseline(path, kind)
    path.write_bytes(data.draw(checkpoint_mutations(raw)))
    try:
        (ckpt.load_rac_model if kind == "rac" else ckpt.load_baseline)(path)
    except EvracError:
        pass


@pytest.mark.parametrize("build", [
    lambda: MarkovRecommender(["cs0", "cs1"]).fit(_train_events()),
    lambda: FpmcRecommender(["cs0", "cs1"], FpmcHyper(factors=3, epochs=5)).fit(_train_events()),
    lambda: PopularityRecommender(["cs0", "cs1"]).fit(_train_events()),
])
def test_baseline_roundtrip_preserves_ranking(tmp_path, build):
    model = build()
    path = tmp_path / "b.ckpt"
    ckpt.save_baseline(model, path)
    loaded, _ = ckpt.load_baseline(path)
    history = _train_events()["d1"]
    cuts = list(range(len(history) + 1))
    assert loaded.rank([("d1", history, cuts)], 2) == model.rank([("d1", history, cuts)], 2)
    assert loaded.probabilities([("d1", history, cuts)]) == pytest.approx(model.probabilities([("d1", history, cuts)]))
