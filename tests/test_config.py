"""Configuration parsing, profiles, validation messages."""

import math
from pathlib import Path

import numpy as np
import pytest

from dampedwave.config import (
    SimConfig,
    forcing_function,
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
        np.testing.assert_allclose(profile_field(g, "ramp"), g.x, atol=1e-15)

    def test_csv_profile(self, tmp_path):
        g = Grid(1.0, 3, "neumann")
        p = tmp_path / "u.csv"
        p.write_text("x,u\n0.0,0.1\n0.5,0.2\n1.0,0.3\n")
        np.testing.assert_allclose(profile_field(g, f"csv:{p}:1"), [0.1, 0.2, 0.3])

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
            forcing_function(Grid(1.0, 5, "neumann"), spec)
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
