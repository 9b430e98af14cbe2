"""Propagation, airtime and energy model unit tests."""

import math
import sys
from dataclasses import replace

import pytest

from hybsim.engine import Engine
from hybsim.radio import (EnergyCoefficients, RadioParams, frame_airtime,
                          link_feasible, received_power, rx_energy, tx_energy)
from hybsim.scenario import Scenario, ScenarioError


@pytest.fixture
def params():
    return Scenario().radio_params()


@pytest.fixture
def coeff():
    return Scenario().energy_coefficients()


class TestPropagation:
    def test_tx_power_calibration(self, params):
        # derived so the edge of the radio range meets the threshold exactly
        assert params.tx_power == pytest.approx(
            -80.0 + 20.0 * math.log10(350.0), abs=1e-12)
        assert received_power(params, params.radio_range) == pytest.approx(
            params.reception_threshold, abs=1e-9)

    def test_received_power_decade(self, params):
        # one decade closer than 350 m gains 20 dB with exponent 2
        assert received_power(params, 35.0) == pytest.approx(-60.0, abs=1e-9)

    def test_received_power_monotone(self, params):
        dists = [1.0, 10.0, 50.0, 100.0, 200.0, 349.0, 350.0, 500.0]
        powers = [received_power(params, d) for d in dists]
        assert powers == sorted(powers, reverse=True)

    def test_reference_distance_clamp(self, params):
        # inside the reference distance the model saturates at tx power
        assert received_power(params, 0.0) == params.tx_power
        assert received_power(params, 0.5) == params.tx_power

    def test_negative_distance_rejected(self, params):
        with pytest.raises(ValueError):
            received_power(params, -1.0)

    def test_link_feasible_matches_range(self, params):
        for d in [0.0, 1.0, 100.0, 349.999, 350.0, 350.001, 1000.0]:
            assert link_feasible(params, d) == (d <= params.radio_range)

    def test_higher_exponent_shrinks_nothing_at_range(self):
        # the calibration keeps the range boundary exact for any exponent
        p = Scenario(path_loss_exponent=3.5).radio_params()
        assert link_feasible(p, p.radio_range)
        assert not link_feasible(p, p.radio_range + 0.01)

    def test_invalid_params(self, params):
        with pytest.raises(ValueError):
            replace(params, path_loss_exponent=1.5)
        with pytest.raises(ValueError):
            replace(params, radio_range=0.5, reference_distance=1.0)
        with pytest.raises(ValueError):
            replace(params, bandwidth=0.0)


class TestAirtime:
    def test_payload_airtime(self, params):
        assert frame_airtime(params, 4096) == pytest.approx(2.048e-3)

    def test_control_airtime(self, params):
        bits = Scenario().control_bits
        assert frame_airtime(params, bits) == pytest.approx(1.6e-4)

    def test_zero_bits(self, params):
        assert frame_airtime(params, 0) == 0.0

    def test_negative_bits_rejected(self, params):
        with pytest.raises(ValueError):
            frame_airtime(params, -1)


class TestEnergyModel:
    def test_tx_energy_formula(self, coeff):
        assert tx_energy(coeff, 4096, 100.0) == pytest.approx(
            50e-9 * 4096 + 100e-12 * 4096 * 100.0 ** 2)

    def test_tx_equals_rx_at_zero_distance(self, coeff):
        assert tx_energy(coeff, 4096, 0.0) == rx_energy(coeff, 4096)

    def test_tx_energy_grows_with_distance(self, coeff):
        costs = [tx_energy(coeff, 4096, d) for d in (0, 50, 150, 350)]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]

    def test_invalid_inputs(self, coeff):
        with pytest.raises(ValueError):
            tx_energy(coeff, -1, 10.0)
        with pytest.raises(ValueError):
            tx_energy(coeff, 10, -1.0)
        with pytest.raises(ValueError):
            rx_energy(coeff, -5)
        with pytest.raises(ValueError):
            replace(coeff, elec=0.0)


class TestEnergyState:
    """A node's energy state: its residual charge, one float in
    ``Engine.nodes``, against the scenario's one ``energy_threshold``."""

    def test_alive_at_threshold_boundary(self):
        e = Engine(Scenario(node_count=1, sim_time=1.0, initial_energy=1e-6,
                            energy_threshold=1e-6))
        assert e.nodes == {0: 1e-6} and e.asleep == {}
        e.charge(0, 1e-9)
        assert e.nodes[0] == 1e-6 - 1e-9 and e.asleep == {0: 0.0}

    def test_deduct_clamps_at_zero(self):
        # Engine.charge is the one place that drains a battery
        e = Engine(Scenario(node_count=1, sim_time=1.0, initial_energy=1e-4))
        node = next(iter(e.nodes))
        e.charge(node, 1.0)
        assert e.nodes[node] == 0.0
        e.charge(node, 1.0)
        assert e.nodes[node] == 0.0

    def test_invalid_state(self):
        for bad in (-1.0, math.inf, math.nan):
            for key in ("initial_energy", "energy_threshold"):
                with pytest.raises(ScenarioError, match=key):
                    Scenario(**{key: bad})

    def test_residual_bounds_are_zero_and_the_largest_float(self):
        for edge in (0.0, math.ulp(0.0), sys.float_info.max):
            e = Engine(Scenario(node_count=2, initial_energy=edge,
                                energy_threshold=0.0))
            assert e.nodes == {0: edge, 1: edge} and e.asleep == {}

    def test_types_have_no_defaults(self):
        # Scenario owns every default; each type is built from its fields
        for cls in (RadioParams, EnergyCoefficients):
            with pytest.raises(TypeError):
                cls()
