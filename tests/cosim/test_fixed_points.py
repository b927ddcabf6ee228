"""The electro-thermal fixed point on the kept family against its oracle.

:meth:`repro.cosim.ElectroThermalCosim.run` must return, for every
configuration, the bits of the scalar loop in ``cosim_oracle.py`` (a
freshly built model re-solved per iteration), whatever other runs shared
its coolant point's kept model before it.
"""

import itertools
import math

import numpy as np
import pytest

from repro.casestudy.power7plus import thermal_family
from repro.cosim import CosimConfig, ElectroThermalCosim, coupling
from tests.cosim.cosim_oracle import oracle_fixed_point


def assert_same_result(got, want) -> None:
    """Every field bit for bit, the returned thermal state included."""
    assert got.config == want.config
    assert got.iterations == want.iterations
    assert got.converged is want.converged
    assert np.array_equal(got.group_temperatures_k, want.group_temperatures_k)
    assert np.array_equal(got.group_currents_a, want.group_currents_a)
    assert got.array_current_a == want.array_current_a
    assert got.array_power_w == want.array_power_w
    assert got.isothermal_current_a == want.isothermal_current_a
    assert np.array_equal(
        got.thermal.temperatures_k, want.thermal.temperatures_k
    )
    got_sources = got.thermal.model._sources
    want_sources = want.thermal.model._sources
    assert sorted(got_sources) == sorted(want_sources)
    for offset, power in want_sources.items():
        assert np.array_equal(got_sources[offset], power)


ORACLE_CONFIGS = [
    CosimConfig(
        total_flow_ml_min=flow, inlet_temperature_k=inlet,
        operating_voltage_v=voltage, nx=nx, ny=ny,
    )
    for (nx, ny), flow, inlet, voltage in itertools.product(
        [(22, 11), (44, 22)], [48.0, 1352.0], [300.0, 310.15], [1.0, 2.0],
    )
]


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "config", ORACLE_CONFIGS,
        ids=lambda c: (
            f"{c.nx}x{c.ny}-{c.total_flow_ml_min:g}-"
            f"{c.inlet_temperature_k:g}K-{c.operating_voltage_v:g}V"
        ),
    )
    def test_batch_of_one_is_the_scalar_loop(self, config):
        result = ElectroThermalCosim(config).run()
        assert_same_result(result, oracle_fixed_point(config))
        if config.operating_voltage_v == 2.0:
            # Above every OCV: no current and an undefined gain.
            assert result.array_current_a == 0.0
            assert math.isnan(result.current_gain)
        else:
            assert result.converged

    def test_run_stopped_at_max_iterations(self, monkeypatch):
        monkeypatch.setattr(coupling, "MAX_ITERATIONS", 2)
        config = CosimConfig(total_flow_ml_min=59.0, nx=22, ny=11)
        result = ElectroThermalCosim(config).run()
        assert not result.converged
        assert result.iterations == 2
        assert_same_result(result, oracle_fixed_point(config))


class TestSharedKeptModels:
    def test_runs_sharing_kept_models_are_the_oracle(self):
        """Shared coolant points at different voltages, repeats, two
        rasters and shuffled order: no run leaves state on the kept model
        or its LU that moves the next run's bits."""
        configs = [
            CosimConfig(total_flow_ml_min=48.0, operating_voltage_v=0.8,
                        nx=22, ny=11),
            CosimConfig(total_flow_ml_min=1352.0, nx=22, ny=11),
            CosimConfig(total_flow_ml_min=48.0, nx=22, ny=11),
            CosimConfig(total_flow_ml_min=48.0, operating_voltage_v=2.0,
                        nx=22, ny=11),
            CosimConfig(total_flow_ml_min=48.0, nx=44, ny=22),
            CosimConfig(total_flow_ml_min=1352.0, inlet_temperature_k=310.15,
                        nx=22, ny=11),
        ]
        runs = configs + configs[:3]
        order = np.random.default_rng(7).permutation(len(runs))
        expected = {config: oracle_fixed_point(config) for config in configs}
        for i in order:
            assert_same_result(
                ElectroThermalCosim(runs[i]).run(), expected[runs[i]]
            )


class TestKeptFamily:
    def test_runs_on_the_kept_model_and_hold_no_model(self):
        """The facade holds only its config; the solve's LU stays with
        the family's kept model of the coolant point."""
        config = CosimConfig(total_flow_ml_min=333.0, nx=22, ny=11)
        cosim = ElectroThermalCosim(config)
        cosim.run()
        assert vars(cosim) == {"config": config}
        family = thermal_family(config.inlet_temperature_k, 22, 11)
        assert family.kept_model(333.0)._steady_lu is not None
