"""SimConfig: validation, replace semantics, and construction from it."""

import warnings

import numpy as np
import pytest

from repro import FUSED_FULL, SimConfig, Simulation, get_config
from repro.grid.geometry import wall_refinement
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec


def cavity_spec():
    base = (16, 16)
    bc = DomainBC({"y+": FaceBC("moving", velocity=(0.06, 0.0))})
    return RefinementSpec(base, wall_refinement(base, 2, [3.0]), bc=bc)


class TestValidation:
    def test_requires_exactly_one_relaxation_input(self):
        with pytest.raises(ValueError, match="exactly one"):
            SimConfig(lattice="D2Q9")
        with pytest.raises(ValueError, match="exactly one"):
            SimConfig(lattice="D2Q9", viscosity=0.05, omega0=1.2)

    def test_fusion_preset_name_resolves(self):
        cfg = SimConfig(viscosity=0.05, fusion="ours-4f")
        assert cfg.fusion is get_config("ours-4f")

    def test_bad_fusion_type_rejected(self):
        with pytest.raises(TypeError, match="fusion"):
            SimConfig(viscosity=0.05, fusion=42)

    def test_bad_preset_name_rejected(self):
        with pytest.raises(KeyError):
            SimConfig(viscosity=0.05, fusion="no-such-preset")

    def test_max_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="max_workers"):
            SimConfig(viscosity=0.05, max_workers=0)

    def test_mp_backend_cannot_be_threaded(self):
        # It used to construct, count a fallback on every step and still
        # report mode == "mp".
        with pytest.raises(ValueError, match="threaded"):
            SimConfig(viscosity=0.05, backend="mp", threaded=True)
        with pytest.raises(ValueError, match="threaded"):
            SimConfig(viscosity=0.05, backend="mp").replace(threaded=True)

    def test_force_normalized_to_tuple(self):
        cfg = SimConfig(viscosity=0.05, force=np.array([1e-5, 0.0, 0.0]))
        assert cfg.force == (1e-5, 0.0, 0.0)
        hash(cfg)  # stays hashable

    def test_dtype_is_float32_or_float64(self):
        # float32 by default; float64 is the reference precision; nothing
        # else is a step's dtype
        assert SimConfig(viscosity=0.05).dtype == "float32"
        cfg = SimConfig(viscosity=0.05, dtype="float64")
        assert cfg.as_dict()["dtype"] == "float64"
        for bad in ("float16", "f4", np.float32):
            with pytest.raises(ValueError, match="dtype must be one of"):
                SimConfig(viscosity=0.05, dtype=bad)


class TestReplace:
    def test_replace_swaps_viscosity_for_omega(self):
        cfg = SimConfig(lattice="D2Q9", viscosity=0.05)
        safe = cfg.replace(viscosity=None, omega0=1.1)
        assert safe.omega0 == 1.1 and safe.viscosity is None
        assert cfg.viscosity == 0.05  # original untouched

    def test_replace_revalidates(self):
        cfg = SimConfig(lattice="D2Q9", viscosity=0.05)
        with pytest.raises(ValueError):
            cfg.replace(omega0=1.2)  # both set now

    def test_as_dict_is_json_ready(self):
        import json
        cfg = SimConfig(lattice="D2Q9", viscosity=0.05, fusion=FUSED_FULL,
                        threaded=False)
        d = cfg.as_dict()
        json.dumps(d)
        assert d["lattice"] == "D2Q9"
        assert d["fusion"] == FUSED_FULL.name
        assert d["threaded"] is False


class TestShim:
    def test_legacy_kwargs_rejected(self):
        # The constructor takes (spec, config, runtime=None) only.
        with pytest.raises(TypeError):
            Simulation(cavity_spec(), "D2Q9", "bgk", viscosity=0.05)

    def test_from_config_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = Simulation.from_config(
                cavity_spec(), SimConfig(lattice="D2Q9", viscosity=0.05,
                                         threaded=False))
        sim.close()

    def test_legacy_and_config_paths_are_bit_identical(self):
        # What legacy keyword callers migrated to — from_config building
        # the config from bare keywords — against an explicit SimConfig.
        spec = cavity_spec()
        legacy = Simulation.from_config(spec, lattice="D2Q9", collision="bgk",
                                        viscosity=0.05, fusion=FUSED_FULL,
                                        threaded=False)
        modern = Simulation.from_config(
            spec, SimConfig(lattice="D2Q9", collision="bgk", viscosity=0.05,
                            fusion=FUSED_FULL, threaded=False))
        assert legacy.sim_config == modern.sim_config
        legacy.run(5)
        modern.run(5)
        for a, b in zip(legacy.engine.levels, modern.engine.levels):
            assert np.array_equal(a.f[:, :a.n_owned], b.f[:, :b.n_owned])
        legacy.close()
        modern.close()

    def test_from_config_overrides_apply_via_replace(self):
        base = SimConfig(lattice="D2Q9", viscosity=0.05)
        sim = Simulation.from_config(cavity_spec(), base,
                                     fusion="fuse-SE", threaded=False)
        assert sim.sim_config.fusion is get_config("fuse-SE")
        assert base.fusion is FUSED_FULL  # base profile untouched
        sim.close()

    def test_simulation_records_its_config(self):
        cfg = SimConfig(lattice="D2Q9", viscosity=0.05, threaded=False)
        sim = Simulation.from_config(cavity_spec(), cfg)
        assert sim.sim_config == cfg
        sim.close()
