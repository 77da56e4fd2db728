"""Config file parsing, defaults and overrides."""

import configparser
import dataclasses
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evrac.config import Config, apply_overrides, load_config
from evrac.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_match_documented_values():
    c = Config()
    assert c.alpha == 0.001
    assert c.epsilon == 0.5
    assert c.gamma == 0.99
    assert c.horizon == 10
    assert c.k_actor == 5
    assert c.k_reward == 10
    assert c.hidden == 100
    assert c.layers == 2
    assert c.target_interval == 100
    assert c.clip_norm == 5.0
    assert c.warmup is True


def test_load_config_sections(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "[data]\nevents = ev.csv\n\n"
        "[model]\nhidden = 32\nk_actor = 4\n\n"
        "[training]\nepsilon = 0.25\nseed = 9\n\n"
        "[mode]\nwarmup = false\nregularizer = eta\n",
        encoding="utf-8",
    )
    c = load_config(path)
    assert c.events == "ev.csv"
    assert c.hidden == 32
    assert c.k_actor == 4
    assert c.epsilon == 0.25
    assert c.seed == 9
    assert c.warmup is False
    assert c.regularizer == "eta"


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[training]\nlearningrate = 0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[experimental]\nfoo = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("text, rule", [
    ("[model]\ncritic_hidden = 0\n", "critic_hidden must be >= 1, got 0"),
    ("[training]\nepsilon = 1.5\n", "epsilon must be in [0, 1], got 1.5"),
    ("[mode]\nregularizer = l2\n", "regularizer must be one of softmax_ce, eta, got 'l2'"),
])
def test_rule_error_names_the_file(tmp_path, text, rule):
    path = tmp_path / "c.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"{path}: {rule}"


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[training]\nepochs = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


@pytest.mark.parametrize("text", ["[DEFAULT]\nbogus = 1\nepochs = 7\n", "[DEFAULT]\nepochs = 7\n[training]\nseed = 1\n"],
                         ids=["alone", "beside-a-section"])
def test_default_section_keys_rejected(tmp_path, text):
    # configparser copies [DEFAULT] keys into every section, and with no
    # other section it would drop them unread.
    path = tmp_path / "c.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"unknown key \[DEFAULT\] (bogus|epochs)$"):
        load_config(path)


def test_bad_interpolation_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[data]\nevents = ev%ents.csv\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


@pytest.mark.parametrize("field,value", [
    ("epsilon", 1.5),
    ("gamma", -0.1),
    ("alpha", 0.0),
    ("layers", 0),
    ("clip_norm", -1.0),
    ("regularizer", "blah"),
    ("pg_weight", "advantage"),
    ("reward_update", "sometimes"),
    ("alpha", math.nan),
    ("alpha", math.inf),
    ("clip_norm", math.nan),
    ("clip_norm", math.inf),
    ("reward_alpha", math.nan),
    ("reward_alpha", math.inf),
    ("epsilon", math.nan),
    ("gamma", math.inf),
])
def test_validation_ranges(field, value):
    with pytest.raises(ConfigError):
        Config(**{field: value}).validate()


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[training]\nepsilon = 0.25\nseed = 1\n", encoding="utf-8")
    c = apply_overrides(load_config(path), epsilon=0.75, seed=None)
    assert c.epsilon == 0.75
    assert c.seed == 1  # None means "not provided"


def test_hyper_views():
    c = Config(hidden=16, epsilon=0.3, seed=4)
    h = c.rac_hyper()
    assert h.hidden == 16 and h.epsilon == 0.3 and h.seed == 4
    assert apply_overrides(c, epsilon=0.9).rac_hyper().epsilon == 0.9
    r = c.reward_hyper()
    assert r.window == c.k_reward and r.seed == 4


def test_config_echo_is_complete():
    echo = Config().as_dict()
    assert "epsilon" in echo and "seed" in echo and "warmup" in echo


def _file_keys() -> set[tuple[str, str]]:
    return {(f.metadata["section"], f.name) for f in dataclasses.fields(Config)}


def _readme_config_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Configuration"):]
    return re.search(r"```ini\n(.*?)```", section, re.S).group(1)


def test_readme_configuration_block_matches_declaration():
    documented = configparser.ConfigParser()
    documented.read_string(_readme_config_block())
    assert {(s, k) for s in documented.sections() for k in documented[s]} == _file_keys()


def test_readme_configuration_block_loads_as_written(tmp_path):
    # The block loads through load_config verbatim (an inline `#` comment
    # would be read as part of its value), and the shown values outside
    # [data] are the defaults.
    path = tmp_path / "readme.cfg"
    path.write_text(_readme_config_block(), encoding="utf-8")
    loaded = load_config(path)
    assert (loaded.events, loaded.stations, loaded.poi) == ("events.csv", "stations.csv", "poi.csv")
    assert dataclasses.replace(loaded, events=None, stations=None, poi=None) == Config()


_counts = st.integers(1, 10**9)
_rates = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False)
_units = st.floats(min_value=0.0, max_value=1.0)
_paths = st.none() | st.from_regex(r"[A-Za-z0-9_./-]{1,24}", fullmatch=True)
_VALID = {
    "events": _paths, "stations": _paths, "poi": _paths,
    "embed": _counts, "hidden": _counts, "layers": _counts, "critic_hidden": _counts,
    "k_actor": _counts, "k_reward": _counts,
    "alpha": _rates, "epsilon": _units, "gamma": _units, "horizon": _counts, "epochs": _counts,
    "samples_per_epoch": _counts, "target_interval": _counts,
    "clip_norm": st.just(0.0) | _rates, "seed": st.integers(-(2**63), 2**63),
    "finetune_epochs": _counts, "patience": st.integers(0, 10**9), "reward_alpha": _rates,
    "reward_epochs": _counts,
    "warmup": st.booleans(), "per_driver": st.booleans(),
    "reward_update": st.sampled_from(["supervised", "td_coupled"]),
    "regularizer": st.sampled_from(["softmax_ce", "eta"]),
    "pg_weight": st.sampled_from(["q", "delta"]), "jobs": _counts,
}
# Hyper fields whose name differs from the config key they view.
_RAC_RENAMED = {"history": "k_actor"}
_REWARD_RENAMED = {"window": "k_reward", "alpha": "reward_alpha", "epochs": "reward_epochs"}


def _shown(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def _render(c: Config) -> str:
    out = io.StringIO()
    for section in sorted({s for s, _ in _file_keys()}):
        out.write(f"[{section}]\n")
        for f in dataclasses.fields(Config):
            value = getattr(c, f.name)
            if f.metadata["section"] == section and value is not None:
                out.write(f"{f.name} = {_shown(value)}\n")
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries(_VALID))
def test_config_file_round_trip_and_views(values):
    assert set(_VALID) == {f.name for f in dataclasses.fields(Config)}
    c = Config(**values).validate()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text(_render(c), encoding="utf-8")
        assert load_config(path) == c

    rac = c.rac_hyper()
    for f in dataclasses.fields(rac):
        assert getattr(rac, f.name) == getattr(c, _RAC_RENAMED.get(f.name, f.name)), f.name
    rew = c.reward_hyper()
    assert rew.val_frac == 0.1
    for f in dataclasses.fields(rew):
        if f.name != "val_frac":
            assert getattr(rew, f.name) == getattr(c, _REWARD_RENAMED.get(f.name, f.name)), f.name


_FUZZ_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", "0", "-1", "1e400", "nan", "-inf", "yes", "%(seed)s", "%", "9" * 5000, "ev.csv"]),
)
_FUZZ_NOISE = st.text(max_size=30) | st.sampled_from(["[", "# note", "  continued", "key value"])


def _fuzz_section(name: str):
    """`key = value` lines for a section's own keys (an unknown section's are
    `bogus` and `epochs`), each key once, so that most sections get past the
    parser to the key and value checks."""
    keys = sorted(k for s, k in _file_keys() if s == name) or ["bogus", "epochs"]
    entries = st.tuples(st.sampled_from(keys), st.sampled_from(["=", " = ", ": "]), _FUZZ_VALUES)
    return st.lists(entries, max_size=4, unique_by=lambda e: e[0].lower()).map(
        lambda entries: [f"[{name}]", *("".join(e) for e in entries)])


# A file: sections in any order, then at most one noise line.
_FUZZ_FILES = st.tuples(
    st.lists(st.sampled_from(["data", "model", "training", "mode", "DEFAULT", "bogus"]), unique=True, max_size=4)
    .flatmap(lambda names: st.tuples(*map(_fuzz_section, names))),
    st.lists(_FUZZ_NOISE, max_size=1),
).map(lambda parts: [line for section in parts[0] for line in section] + parts[1])


@settings(max_examples=300, deadline=None)
@given(_FUZZ_FILES)
def test_load_config_fuzz_raises_only_config_error(lines):
    """Whatever the file holds, load_config returns a valid Config or raises
    ConfigError, whose message names the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
        try:
            c = load_config(path)
        except ConfigError as exc:
            assert str(path) in str(exc)
            return
    assert c == c.validate()
