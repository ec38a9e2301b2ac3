"""Configuration parsing, profiles, validation messages."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedwave.config import (
    _KEYS,
    SimConfig,
    forcing_field,
    from_dict,
    load_config,
    profile_field,
)
from dampedwave.errors import ConfigError
from dampedwave.grid import Grid


class TestProfiles:
    def test_named_profiles(self):
        g = Grid(1.0, 17, "neumann")
        assert np.all(profile_field(g, "zero") == 0.0)
        assert np.all(profile_field(g, "constant:0.3") == 0.3)
        np.testing.assert_allclose(
            profile_field(g, "sine:2:0.5"), 0.5 * np.sin(2 * math.pi * g.x), atol=1e-15
        )
        np.testing.assert_allclose(
            profile_field(g, "cosine:1"), np.cos(math.pi * g.x), atol=1e-15
        )

    def test_unknown_profile(self):
        g = Grid(1.0, 5, "neumann")
        with pytest.raises(ConfigError):
            profile_field(g, "wiggle:3")


class TestValidation:
    def base(self):
        return {
            "space": {"length": 1.0, "n_nodes": 1, "bc": "neumann"},
            "graph": {"kind": "indicator", "epsilon": 1e-3},
            "time": {"T": 1.0, "dt": 1e-2},
            "init": {"u0": "zero", "u1": "zero"},
        }

    def test_valid_document(self):
        cfg = from_dict(self.base())
        assert cfg.graph_kind == "indicator"
        assert cfg.theta == 1.0

    def test_key_pinpointing(self):
        doc = self.base()
        doc["time"]["dt"] = 0.0
        with pytest.raises(ConfigError, match="time.dt"):
            from_dict(doc)
        doc = self.base()
        del doc["graph"]["kind"]
        with pytest.raises(ConfigError, match="graph.kind"):
            from_dict(doc)
        doc = self.base()
        doc["graph"] = {"kind": "family", "eps_param": 0.1}
        with pytest.raises(ConfigError, match="graph.r_threshold"):
            from_dict(doc)
        doc = self.base()
        doc["space"]["n_nodes"] = 2
        with pytest.raises(ConfigError, match="space.n_nodes"):
            from_dict(doc)
        doc = self.base()
        doc["time"]["theta"] = 0.3
        with pytest.raises(ConfigError, match="time.theta"):
            from_dict(doc)

    def test_family_requires_no_epsilon(self):
        doc = self.base()
        doc["graph"] = {"kind": "family", "r_threshold": 0.9, "eps_param": 0.1}
        cfg = from_dict(doc)
        assert cfg.reaction().epsilon == 0.1
        assert cfg.reaction().layer_width == pytest.approx(math.pi * 0.1)

    def test_config_hash_stable_and_sensitive(self):
        a, b = from_dict(self.base()), from_dict(self.base())
        assert a.config_hash() == b.config_hash()
        doc = self.base()
        doc["time"]["dt"] = 5e-3
        assert from_dict(doc).config_hash() != a.config_hash()

    def test_with_epsilon_moves_the_right_knob(self):
        cfg = from_dict(self.base())
        assert cfg.with_epsilon(1e-5, dt=1e-3).epsilon == 1e-5
        doc = self.base()
        doc["graph"] = {"kind": "family", "r_threshold": 0.9, "eps_param": 0.1}
        fam = from_dict(doc)
        assert fam.with_epsilon(0.01).eps_param == 0.01


class TestReaction:
    def test_scalar_and_vector_paths_agree(self):
        cfg = SimConfig(n_nodes=1, bc="neumann", graph_kind="indicator",
                        epsilon=0.2, T=1.0, dt=0.1)
        reaction = cfg.reaction()
        rs = [-1.7, -1.0, -0.5, 0.0, 1.0, 2.4]
        scalar = np.array([reaction.scalar_beta_and_dbeta(r) for r in rs])
        vector = np.stack([reaction.beta(np.array(rs)), reaction.dbeta(np.array(rs))], axis=1)
        assert scalar.tobytes() == vector.tobytes()

    def test_family_reaction_is_the_family_itself(self):
        cfg = SimConfig(n_nodes=1, bc="neumann", graph_kind="family",
                        r_threshold=0.8, eps_param=0.2, epsilon=None, T=1.0, dt=0.01)
        reaction = cfg.reaction()
        from dampedwave.graphs import family_beta, family_j

        rs = np.linspace(-2, 2, 41)
        np.testing.assert_allclose(reaction.beta(rs), family_beta(0.8, 0.2, rs))
        np.testing.assert_allclose(reaction.pot(rs), family_j(0.8, 0.2, rs))


class TestStrictDocument:
    base = TestValidation.base

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("time", "dt", float("nan")),
            ("time", "T", float("inf")),
            ("time", "dt", "abc"),
            ("time", "theta", True),
            ("graph", "epsilon", float("nan")),
            ("graph", "epsilon", [1e-3]),
            ("space", "n_nodes", 16.5),
            ("space", "n_nodes", "many"),
            ("newton", "max_iter", float("inf")),
        ],
    )
    def test_bad_value_names_key(self, section, key, value):
        doc = self.base()
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as info:
            from_dict(doc)
        assert info.value.key == f"{section}.{key}"

    @pytest.mark.parametrize("section", ["space", "graph", "time", "init", "newton"])
    def test_section_must_be_a_mapping(self, section):
        doc = self.base()
        doc[section] = 5
        with pytest.raises(ConfigError) as info:
            from_dict(doc)
        assert info.value.key == section

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda d: d.update(newton={"tolerance": 1e-3}), "newton.tolerance"),
            (lambda d: d["time"].update(theta_=0.5), "time.theta_"),
            (lambda d: d.update(lamda=0.5), "lamda"),
            (lambda d: d.update(output_every=1), "output_every"),
        ],
    )
    def test_unknown_key_rejected(self, edit, key):
        doc = self.base()
        edit(doc)
        with pytest.raises(ConfigError) as info:
            from_dict(doc)
        assert info.value.key == key

    def test_scalar_keys_coerced_and_checked(self):
        doc = self.base()
        doc["graph"]["epsilon"] = "1e-3"  # YAML 1.1 reads 1e-3 as a string
        doc["space"]["n_nodes"] = 17.0
        doc["regularize_u0"] = "no"
        with pytest.raises(ConfigError, match="regularize_u0"):
            from_dict(doc)
        doc["regularize_u0"] = False
        cfg = from_dict(doc)
        assert cfg.epsilon == 1e-3 and cfg.n_nodes == 17 and not cfg.regularize_u0

    def test_forcing_number_must_be_finite(self):
        doc = self.base()
        doc["forcing"] = float("nan")
        with pytest.raises(ConfigError, match="forcing"):
            from_dict(doc)

    @pytest.mark.parametrize("spec", ["sine:abc", "cosine:", "sine:1:x"])
    def test_bad_forcing_profile_names_forcing(self, spec):
        with pytest.raises(ConfigError) as info:
            forcing_field(Grid(1.0, 5, "neumann"), spec)
        assert info.value.key == "forcing"
        assert str(info.value).startswith("forcing: ")

    def test_missing_init_csv_names_key(self):
        with pytest.raises(ConfigError, match="init"):
            profile_field(Grid(1.0, 3, "neumann"), "csv:/nonexistent/u.csv:1")


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).parent.parent / "configs").glob("*.yaml"))
    + [Path(__file__).parent.parent / "perfbench" / "configs" / "neumann_contact_log.yaml"],
    ids=lambda p: p.stem,
)
def test_shipped_configs_load_and_round_trip(path):
    cfg = load_config(path)
    assert from_dict(cfg.to_dict()) == cfg


def test_round_trip_with_array_data_and_flags():
    cfg = SimConfig(
        length=1.0, n_nodes=3, bc="neumann", graph_kind="family", r_threshold=0.9,
        eps_param=0.1, epsilon=None, T=0.1, dt=0.01, u0=np.array([0.1, 0.2, 0.3]),
        forcing="constant:1", regularize_u0=False, label="arrays",
    )
    back = from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    assert back.config_hash() == cfg.config_hash()
    np.testing.assert_array_equal(back.u0, cfg.u0)


@pytest.mark.parametrize(
    "path, digest",
    [("configs/dirichlet_sine.yaml", "3e7c6f95281e7a6e"),
     ("configs/neumann_contact.yaml", "55af4a2f17e1cc12"),
     ("configs/pressed_wall.yaml", "74a5fd66ad3eb845"),
     ("configs/toy_jump.yaml", "c7a0a1e38775f8c0"),
     ("perfbench/configs/neumann_contact_log.yaml", "886560522b17e1a7")],
    ids=lambda v: Path(v).stem if "/" in v else None,
)
def test_config_hash_is_pinned(path, digest):
    """The hash that ``manifest.json`` records for each shipped config."""
    assert load_config(Path(__file__).parent.parent / path).config_hash() == digest


def test_to_dict_writes_the_keys_of_the_graph_kind_in_table_order():
    """``manifest.json`` holds ``to_dict()`` as it is ordered: the Yosida
    kinds write ``graph.epsilon`` only, the family ``r_threshold`` and
    ``eps_param`` only."""
    toy = load_config(Path(__file__).parent.parent / "configs" / "toy_jump.yaml")
    assert json.dumps(toy.to_dict()) == (
        '{"space": {"length": 1.0, "n_nodes": 1, "bc": "neumann"}, '
        '"graph": {"kind": "indicator", "epsilon": 0.001}, '
        '"time": {"T": 2.0, "dt": 0.001, "theta": 0.5}, '
        '"init": {"u0": "zero", "u1": "constant:1"}, "forcing": "zero", '
        '"newton": {"tol": 1e-10, "max_iter": 50}, "lambda": 0.0, '
        '"regularize_u0": true, "label": "toy-jump"}'
    )
    family = SimConfig(n_nodes=3, graph_kind="family", r_threshold=0.9, eps_param=0.1,
                       T=0.1, dt=0.01, u0=np.array([0.1, 0.2, 0.3]), forcing="constant:1",
                       regularize_u0=False, label="arrays")
    assert family.to_dict()["graph"] == {"kind": "family", "r_threshold": 0.9, "eps_param": 0.1}
    assert family.to_dict()["init"]["u0"] == {"array": [0.1, 0.2, 0.3]}
    assert family.config_hash() == "9a418cf6779f5982"


@pytest.mark.parametrize(
    "graph",
    [
        dict(graph_kind="indicator", epsilon=1e-3),
        dict(graph_kind="logarithmic", epsilon=1e-3),
        dict(graph_kind="logarithmic", epsilon=0.5),
        dict(graph_kind="family", r_threshold=0.8, eps_param=0.05, epsilon=None),
    ],
    ids=["indicator", "logarithmic-small", "logarithmic-large", "family"],
)
def test_beta_and_dbeta_bitwise_equal_to_separate_calls(graph):
    reaction = SimConfig(n_nodes=1, T=1.0, dt=0.1, **graph).reaction()
    near_one = [1.0 - 1e-15, 1.0 - 1e-12, 1.0 - 1e-6, 1.0 + 1e-12, 1.0 + 1e-6]
    kinks = [1.0, 0.8, np.nextafter(0.8, 0.0), np.nextafter(1.0, 2.0)]
    rng = np.random.default_rng(7)
    u = np.concatenate([
        [0.0, 2.5, 40.0], near_one, kinks, rng.uniform(-3.0, 3.0, 200),
    ])
    u = np.concatenate([u, -u])
    b, db = reaction.beta_and_dbeta(u)
    assert np.array_equal(b, reaction.beta(u))
    assert np.array_equal(db, reaction.dbeta(u))
    # the kinks resolve toward the active side, as dbeta does
    assert np.all(db[np.abs(u) >= (0.8 if graph["graph_kind"] == "family" else 1.0)] > 0)


# ---------------------------------------------------------------------------
# the key table against odd values: each key fails alone and names itself

SHIPPED = sorted((Path(__file__).parent.parent / "configs").glob("*.yaml")) + [
    Path(__file__).parent.parent / "perfbench" / "configs" / "neumann_contact_log.yaml"
]
SHIPPED_DOCS = [yaml.safe_load(p.read_text()) for p in SHIPPED]

ODD_NUMBERS = [math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5, -1e300, 1e-300, -1e-300, 1e300, 10 ** 400]
ODD_STRINGS = ["", "abc", "nan", "-inf", "1e-3", "1e300", "dirichlet", "neumann", "indicator",
               "logarithmic", "family", "zero", "constant:1", "constant:x", "csv:u.csv:1", "table:g.csv"]
ODD_VALUES = st.one_of(
    st.sampled_from(ODD_NUMBERS + ODD_STRINGS + [None, True, False]),
    st.text(max_size=8),
    st.floats(),
    st.integers(-10, 10),
    st.lists(st.one_of(st.floats(), st.text(max_size=3), st.none()), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
    st.fixed_dictionaries({"array": st.one_of(
        st.lists(st.floats(), min_size=1, max_size=70), st.text(max_size=3), st.floats())}),
)


def _with_key(doc: dict, key: str, value) -> dict:
    """A copy of ``doc`` whose ``key`` ("section.name" or "name") holds ``value``."""
    doc = {k: dict(v) if isinstance(v, dict) else v for k, v in doc.items()}
    *section, name = key.split(".")
    (doc.setdefault(section[0], {}) if section else doc)[name] = value
    return doc


class TestKeyTableFuzz:
    """``from_dict`` on a shipped document with exactly one key changed
    either loads or raises a ConfigError naming that key (``init`` for an
    ``init.*`` key).  A rule over two keys names one of them and says the
    other in its message (``time.dt: must not exceed time.T``), so an
    error may instead name the other key if its message says the changed
    one.  A value that loads is kept as written, or as the number its text
    spells: ``label: [1, 2]`` may not load as the label "[1, 2]".  No other
    exception escapes; no run is started."""

    @settings(max_examples=400, deadline=None)
    @given(doc=st.sampled_from(SHIPPED_DOCS), row=st.sampled_from(_KEYS), value=ODD_VALUES)
    def test_one_changed_key_loads_or_names_itself(self, doc, row, value):
        try:
            cfg = from_dict(_with_key(doc, row.key, value))
        except ConfigError as exc:
            named = "init" if row.key.startswith("init.") else row.key
            assert exc.key == named or row.key in exc.message, (row.key, value, str(exc))
        else:
            *section, name = row.key.split(".")
            out = cfg.to_dict()
            # a key its graph kind leaves out of the document is not written
            written = (out[section[0]] if section else out).get(name, value)
            assert written == value or (isinstance(value, str) and written == float(value)), (
                row.key, value, written)

    @pytest.mark.parametrize("doc", SHIPPED_DOCS, ids=[p.stem for p in SHIPPED])
    @pytest.mark.parametrize("key", [row.key for row in _KEYS if row.required])
    def test_dropped_required_key_names_itself(self, doc, key):
        *section, name = key.split(".")
        doc = _with_key(doc, key, None)
        del (doc[section[0]] if section else doc)[name]
        with pytest.raises(ConfigError) as info:
            from_dict(doc)
        assert (info.value.key, info.value.message) == (key, "missing required key")

    @pytest.mark.parametrize("doc", SHIPPED_DOCS, ids=[p.stem for p in SHIPPED])
    @pytest.mark.parametrize(
        "section, name", [(None, "colour"), ("time", "steps"), ("space", "length.x"), ("time", "dt.x")]
    )
    def test_unknown_key_names_itself(self, doc, section, name):
        doc = {**doc, section: {**doc[section], name: 1}} if section else {**doc, name: 1}
        with pytest.raises(ConfigError) as info:
            from_dict(doc)
        key = f"{section}.{name}" if section else name
        assert (info.value.key, info.value.message) == (key, "unknown key")

    def test_dotted_top_level_key_is_not_a_section_key(self):
        """A top-level ``time.dt`` is an unknown key, not the ``dt`` of ``time``."""
        with pytest.raises(ConfigError) as info:
            from_dict({**SHIPPED_DOCS[0], "time.dt": 1e-3})
        assert info.value.key == "time.dt" and info.value.message == "unknown key"

    @pytest.mark.parametrize("key", ["space.bc", "graph.kind", "label"])
    @pytest.mark.parametrize("value", [None, [1, 2], 5, True, {"a": 1}], ids=["null", "list", "int", "bool", "mapping"])
    def test_string_key_of_another_type_names_itself(self, key, value):
        """At one time ``str()`` let any value through: ``label: [1, 2]``
        loaded as the label "[1, 2]" and ``label: null`` as "None"."""
        with pytest.raises(ConfigError) as info:
            from_dict(_with_key(SHIPPED_DOCS[0], key, value))
        assert info.value.key == key and info.value.message == f"must be a string, got {value!r}"

    def test_integer_past_the_float_range_is_not_finite(self):
        with pytest.raises(ConfigError) as info:
            from_dict(_with_key(SHIPPED_DOCS[0], "time.T", 10 ** 400))
        assert info.value.key == "time.T" and info.value.message.startswith("must be finite")


def test_defaults_are_the_simconfig_field_defaults():
    """A document with only the required keys and ``graph.epsilon`` gives
    ``SimConfig``'s defaults; every other field keeps its default too."""
    doc = {"graph": {"kind": "indicator", "epsilon": 1e-3}, "time": {"T": 1.0, "dt": 0.1}}
    assert from_dict(doc) == SimConfig(epsilon=1e-3, T=1.0, dt=0.1)
    assert SimConfig().epsilon is None  # a document without graph.epsilon is refused


def test_readme_configuration_lists_every_key():
    """README's Configuration section names every key of the run document."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    missing = [row.key for row in _KEYS if f"`{row.key}`" not in section]
    assert not missing, f"README's Configuration section lacks {missing}"


# ---------------------------------------------------------------------------
# a SimConfig built in code goes through the parsers a document does

# one value of the wrong type per field; a number spelt as text is one
WRONG_TYPE = {
    "length": "1.0", "n_nodes": "3", "bc": None, "graph_kind": ["indicator"],
    "epsilon": "1e-3", "r_threshold": [0.9], "eps_param": {"x": 1}, "T": None, "dt": True,
    "theta": "0.5", "u0": 0.5, "u1": ["zero"], "forcing": [1.0], "newton_tol": None,
    "newton_max_iter": "5", "lam": [0.0], "regularize_u0": "yes", "label": [1, 2],
}
CODE_BASES = {
    "indicator": SimConfig(n_nodes=3, T=1.0, dt=0.1, epsilon=1e-3),
    "family": SimConfig(n_nodes=3, T=1.0, dt=0.1, graph_kind="family", r_threshold=0.9,
                        eps_param=0.1),
}


@pytest.mark.parametrize("row", _KEYS, ids=lambda row: row.key)
def test_validate_refuses_a_wrong_type_naming_its_key(row):
    """``validate`` runs each key's parser, so a config built in code with a
    value of the wrong type (``label=[1, 2]``) is refused as a document is."""
    base = CODE_BASES["family" if row.kinds == ("family",) else "indicator"]
    with pytest.raises(ConfigError) as info:
        replace(base, **{row.field: WRONG_TYPE[row.field]}).validate()
    assert info.value.key == ("init" if row.key.startswith("init.") else row.key)


def test_validate_keeps_an_array_profile_as_given():
    """An ndarray of finite numbers is an ``init`` profile, as ``{array: [...]}``
    gives; ``validate`` stores no parsed copy, so the hash does not move."""
    u0 = np.array([0.1, 0.2, 0.3])
    cfg = replace(CODE_BASES["family"], u0=u0, forcing="constant:1", regularize_u0=False,
                  label="arrays", T=0.1, dt=0.01)
    assert cfg.validate().u0 is u0
    assert cfg.config_hash() == "9a418cf6779f5982"
    for bad in (np.array([0.1, np.nan, 0.3]), np.array([[0.1], [0.2], [0.3]])):
        with pytest.raises(ConfigError) as info:
            replace(cfg, u0=bad).validate()
        assert info.value.key == "init"


def test_configs_built_in_code_validate(monkeypatch):
    """``cli.toy_run_config`` and ``sweep.nonuniqueness_exhibit`` build their
    configs in code; each passes ``validate``, parsers included."""
    from dampedwave.cli import toy_run_config
    from dampedwave.sweep import nonuniqueness_exhibit

    toy_run_config(1e-4).validate()
    validated = []
    real = SimConfig.validate
    monkeypatch.setattr(SimConfig, "validate", lambda cfg: validated.append(cfg.label) or real(cfg))
    nonuniqueness_exhibit(epsilon=1e-2)
    assert {"yosida", "family"} <= set(validated)
