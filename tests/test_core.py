import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import spheres
from verletdem.cli import EXIT_CONFIG, main
from verletdem.core import (
    CellTooSmall, ConfigError, ContactParams, EmptyDomain, NonPositiveDt,
    Particles, SimConfig, WallPlane, norm, simconfig_from_dict,
    validate_config, vec3,
)


# one small sphere inside the unit box of base_config
ONE = dict(positions=[(0.1, 0.1, 0.1)], radius=0.005, mass=1e-3)


def base_config(**overrides):
    kw = dict(
        dt=1e-4, k_factor=200, gravity=vec3(0, 0, -9.81), cell_size=0.02,
        domain_min=vec3(0, 0, 0), domain_max=vec3(1, 1, 1),
        contact=ContactParams(k_n=1000.0, gamma_n=1.0, mu_s=0.3, k_t=100.0),
        steps=100, walls=(WallPlane(vec3(0, 0, 0), vec3(0, 0, 1)),),
    )
    kw.update(overrides)
    return SimConfig(**kw)


class TestWallPlane:
    def test_signed_distance_of_selected_rows_keeps_their_bits(self):
        # a tilted normal, where the row kernels of numpy's product round
        # differently; one row selected alone is the case that differs
        rng = np.random.default_rng(4)
        pos = rng.uniform(-1.0, 1.0, (300, 3))
        wall = WallPlane(vec3(0.1, -0.2, 0.3), vec3(0.3, 0.1, 0.9) / norm(vec3(0.3, 0.1, 0.9)))
        full = wall.signed_distance(pos)
        for i in range(len(pos)):
            rows = np.array([i])
            assert wall.signed_distance(pos, rows).tobytes() == full[rows].tobytes()
        for size in (0, 2, 3, 7, 150):
            rows = np.sort(rng.choice(len(pos), size, replace=False))
            assert wall.signed_distance(pos, rows).tobytes() == full[rows].tobytes()

    def test_signed_distance_sign(self):
        wall = WallPlane(vec3(0, 0, 1), vec3(0, 0, 1))
        np.testing.assert_array_equal(
            wall.signed_distance(np.array([[0.0, 0.0, 3.0], [5.0, 5.0, 0.5]])), [2.0, -0.5])


class TestNorm:
    def test_zero_vector(self):
        assert norm(vec3(0, 0, 0)) == 0.0

    def test_pythagorean(self):
        assert norm(vec3(3, 4, 0)) == 5.0

    def test_unit_cube_diagonal(self):
        assert norm(vec3(1, 1, 1)) == pytest.approx(1.7320508, abs=1e-7)

    # components below ~1e-30 are excluded: at subnormal scale the product
    # s*v itself quantizes, so no norm implementation can keep 1e-12
    _component = st.one_of(
        st.just(0.0),
        st.floats(-1e6, -1e-30),
        st.floats(1e-30, 1e6),
    )

    @given(
        st.lists(_component, min_size=3, max_size=3),
        st.one_of(st.floats(-1e6, -1e-12), st.floats(1e-12, 1e6)),
    )
    @settings(max_examples=200, deadline=None)
    def test_absolute_homogeneity(self, comps, s):
        v = vec3(*comps)
        lhs = norm(s * v)
        rhs = abs(s) * norm(v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


class TestValidateConfig:
    def test_cell_boundary_exactly_satisfied(self):
        cfg = base_config(cell_size=0.02)
        validate_config(cfg, spheres(**ONE | dict(radius=0.01)))

    def test_cell_boundary_violated(self):
        cfg = base_config(cell_size=0.019)
        with pytest.raises(CellTooSmall):
            validate_config(cfg, spheres(**ONE | dict(radius=0.01)))

    def test_zero_dt(self):
        with pytest.raises(NonPositiveDt):
            validate_config(base_config(dt=0.0), spheres(**ONE))

    def test_empty_particle_set_passes(self):
        validate_config(base_config(), Particles.empty())

    # single-violation mutations: each listed invariant, violated alone,
    # must be rejected while the unmutated base passes
    @pytest.mark.parametrize("mutation,error", [
        (dict(dt=-1e-4), NonPositiveDt),
        (dict(dt=0.0), NonPositiveDt),
        (dict(steps=0), ConfigError),
        (dict(k_factor=-1), ConfigError),
        (dict(domain_min=vec3(2, 0, 0)), EmptyDomain),
        (dict(domain_max=vec3(1, 1, 0)), EmptyDomain),
        (dict(cell_size=0.005), CellTooSmall),
        (dict(cell_size=-1.0), ConfigError),
        (dict(gravity=vec3(np.nan, 0, 0)), ConfigError),
        (dict(walls=(WallPlane(vec3(0, 0, 0), vec3(0, 0, 2)),)), ConfigError),
        (dict(contact=ContactParams(k_n=0.0)), ConfigError),
        (dict(contact=ContactParams(k_n=1.0, gamma_n=-0.1)), ConfigError),
        (dict(contact=ContactParams(k_n=1.0, mu_s=-0.5)), ConfigError),
        (dict(dt=np.inf), ConfigError),
        (dict(k_factor=2 ** 63), ConfigError),
        (dict(domain_max=vec3(1e300, 1e300, 1e300)), ConfigError),
        (dict(domain_min=vec3(-1e308, 0, 0), domain_max=vec3(1e308, 1, 1)), ConfigError),
        (dict(contact=ContactParams(k_n=np.inf)), ConfigError),
        (dict(contact=ContactParams(k_n=1.0, gamma_n=np.nan)), ConfigError),
        (dict(contact=ContactParams(k_n=1.0, k_t=np.inf)), ConfigError),
    ])
    def test_config_mutation_rejected(self, mutation, error):
        validate_config(base_config(), spheres(**ONE))
        with pytest.raises(error):
            validate_config(base_config(**mutation), spheres(**ONE))

    @pytest.mark.parametrize("particle", [    # changed columns of the one particle
        dict(radius=-0.001),
        dict(radius=0.005, cutoff=0.004),
        dict(mass=0.0),
        dict(velocities=[(1.0, 0, 0)], is_static=True),
        dict(positions=[(np.nan, 0, 0)]),
        dict(velocities=[(np.inf, 0, 0)]),
    ])
    def test_particle_mutation_rejected(self, particle):
        with pytest.raises(ConfigError):
            validate_config(base_config(), spheres(**ONE | particle))


class TestParticles:
    def test_copy_is_independent(self):
        pset = spheres(**ONE)
        other = pset.copy()
        other.position[0, 0] = 9.0
        assert pset.position[0, 0] != 9.0


VALID_DOC = {
    "dt": 1e-4,
    "k_factor": 200,
    "gravity": [0, 0, -9.81],
    "cell_size": 0.02,
    "domain_min": [0, 0, 0],
    "domain_max": [1, 1, 1],
    "contact": {"k_n": 1000.0, "gamma_n": 1.0, "mu_s": 0.3, "k_t": 100.0},
    "steps": 500,
    "walls": [{"point": [0, 0, 0], "outward_normal": [0, 0, 1]}],
    "verlet_enabled": True,
}


class TestConfigJson:
    def test_valid_document(self):
        cfg = simconfig_from_dict(json.loads(json.dumps(VALID_DOC)))
        assert cfg.k_factor == 200
        assert cfg.steps == 500
        assert len(cfg.walls) == 1
        assert cfg.contact.mu_s == 0.3
        np.testing.assert_array_equal(cfg.gravity, vec3(0, 0, -9.81))

    def test_unknown_field_is_error(self):
        # the seed belongs to the scenario block, not to the config
        for field in ("skin_factor", "seed"):
            with pytest.raises(ConfigError, match="unknown config field"):
                simconfig_from_dict(json.loads(json.dumps(dict(VALID_DOC, **{field: 3}))))

    def test_unknown_contact_field_is_error(self):
        doc = dict(VALID_DOC, contact={"k_n": 1.0, "kn_typo": 2.0})
        with pytest.raises(ConfigError, match="unknown contact field"):
            simconfig_from_dict(json.loads(json.dumps(doc)))

    def test_unknown_wall_field_is_error(self):
        doc = dict(VALID_DOC, walls=[{"point": [0, 0, 0], "normal": [0, 0, 1]}])
        with pytest.raises(ConfigError):
            simconfig_from_dict(json.loads(json.dumps(doc)))

    def test_missing_field_is_error(self):
        doc = {k: v for k, v in VALID_DOC.items() if k != "dt"}
        with pytest.raises(ConfigError, match="missing"):
            simconfig_from_dict(json.loads(json.dumps(doc)))

    def test_walls_and_verlet_enabled_default(self):
        doc = {k: v for k, v in VALID_DOC.items() if k not in ("walls", "verlet_enabled")}
        cfg = simconfig_from_dict(json.loads(json.dumps(doc)))
        assert cfg.walls == ()
        assert cfg.verlet_enabled

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        # JSON text is parsed where it is read: the CLI's run document
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "config error: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"contact": {"k_n": "abc"}},
        {"contact": {"k_n": [1, 2]}},
        {"walls": [{"point": "xyz", "outward_normal": [0, 0, 1]}]},
        {"walls": 5},
        {"verlet_enabled": "false"},
        {"verlet_enabled": 1},
        {"k_factor": 1.9},
        {"k_factor": True},
        {"steps": 50.7},
        {"dt": "0.0001"},
        {"dt": True},
        {"dt": 10 ** 400},
        {"cell_size": "0.02"},
        {"contact": {"k_n": True}},
        {"contact": {"k_n": 1000.0, "gamma_n": "1"}},
        {"gravity": ["0", "0", "-9.81"]},
        {"gravity": [0, 0, False]},
        {"gravity": [0, 0]},
        {"domain_max": "111"},
        {"walls": [{"point": [0, 0, "0"], "outward_normal": [0, 0, 1]}]},
        {"walls": [{"point": [0, 0, 0], "outward_normal": [0, True, 0]}]},
    ])
    def test_bad_value_is_config_error(self, change):
        with pytest.raises(ConfigError, match="bad config value"):
            simconfig_from_dict(dict(VALID_DOC, **change))
