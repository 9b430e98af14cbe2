"""Scenario file parsing, validation and round-trip tests."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybsim.scenario import (MAX_EVENTS, PROTOCOLS, Scenario, ScenarioError,
                             emit_scenario, parse_scenario)


class TestParse:
    def test_empty_file_is_all_defaults(self):
        assert parse_scenario("") == Scenario()

    def test_basic_keys(self):
        sc = parse_scenario(
            "node_count = 50\n"
            "sim_time = 60\n"
            "protocol = aodv\n"
            "seed = 9\n")
        assert (sc.node_count, sc.sim_time, sc.protocol, sc.seed) == \
            (50, 60.0, "aodv", 9)

    def test_pair_keys(self):
        sc = parse_scenario("topology_size = 800x600\nbs_location = 10,20\n")
        assert sc.topology_size == (800.0, 600.0)
        assert sc.bs_location == (10.0, 20.0)

    def test_vertical_extent_unbounded(self):
        assert parse_scenario("vertical_extent_N = unbounded\n").vertical_extent_N is None
        assert parse_scenario("vertical_extent_N = 120\n").vertical_extent_N == 120.0

    def test_comments_and_blanks(self):
        sc = parse_scenario("# header\n\nnode_count = 7  # trailing\n")
        assert sc.node_count == 7

    @pytest.mark.parametrize("bad,fragment", [
        ("node_cuont = 5\n", "unknown key"),
        ("node_count\n", "line 1"),
        ("node_count = 5\nnode_count = 6\n", "duplicate key"),
        ("node_count = five\n", "bad value"),
        ("protocol = olsr\n", "unknown protocol"),
        ("node_count = 0\n", "node_count"),
        ("sim_time = -1\n", "positive"),
        ("liveness = psychic\n", "liveness"),
        ("refresh_period = 0\n", "refresh_period"),
        ("refresh_period = -5\n", "refresh_period"),
        ("refresh_period = nan\n", "refresh_period"),
        ("topology_size = infx100\n", "topology_size"),
        ("bs_location = 10,nan\n", "bs_location"),
        ("bandwidth = 0\n", "bandwidth"),
        ("radio_range = 1\n", "radio_range"),
        ("radio_range = 0.5\n", "radio_range"),
        ("path_loss_exponent = 1.5\n", "path loss exponent"),
        ("path_loss_exponent = nan\n", "path loss exponent"),
        ("path_loss_exponent = inf\n", "path loss exponent"),
        ("radio_range = inf\n", "radio_range"),
        ("reception_threshold = nan\n", "reception_threshold"),
        ("bandwidth = nan\n", "bandwidth"),
        ("elec = 0\n", "energy coefficients"),
        ("initial_energy = -1\n", "residual"),
        ("energy_threshold = -1\n", "threshold"),
        ("max_neighbours_K = 0\n", "max_neighbours_K"),
        ("band_halfwidth_M = 0\n", "band_halfwidth_M"),
        ("band_halfwidth_M = -5\n", "band_halfwidth_M"),
        ("vertical_extent_N = 0\n", "vertical_extent_N"),
        ("control_bits = -1\n", "control_bits"),
        ("wait_t = -0.1\n", "wait_t"),
        ("dedup_ttl = -1\n", "dedup_ttl"),
        ("discovery_timeout = -1\n", "discovery_timeout"),
        ("discovery_timeout = nan\n", "discovery_timeout"),
        ("retry_backoff = -0.01\n", "retry_backoff"),
        ("discovery_retries = -1\n", "discovery_retries"),
        ("data_retries = -1\n", "data_retries"),
        ("sim_time = inf\n", "sim_time"),
        ("sim_time = nan\n", "sim_time"),
        ("packet_rate = inf\n", "packet_rate"),
        ("packet_rate = nan\n", "packet_rate"),
        ("sensing_radius = nan\n", "sensing_radius"),
        ("elec = nan\n", "energy coefficients"),
        ("amp = nan\n", "energy coefficients"),
        ("energy_threshold = nan\n", "threshold"),
        ("band_halfwidth_M = nan\n", "band_halfwidth_M"),
        ("vertical_extent_N = nan\n", "vertical_extent_N"),
        ("refresh_period = inf\n", "refresh_period"),
        ("discovery_timeout = inf\n", "discovery_timeout"),
        ("retry_backoff = inf\n", "retry_backoff"),
        ("elec = inf\n", "energy coefficients"),
        ("amp = inf\n", "energy coefficients"),
        ("energy_threshold = inf\n", "threshold"),
        ("band_halfwidth_M = inf\n", "band_halfwidth_M"),
        ("vertical_extent_N = inf\n", "vertical_extent_N"),
        ("sim_time = 125000.5\npacket_rate = 8\n", "exceeds"),
        ("sim_time = 1e9\npacket_rate = 1e9\n", "exceeds"),
    ])
    def test_rejects(self, bad, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            parse_scenario(bad)

    def test_accepts_the_limits(self):
        sc = parse_scenario("sim_time = 125000\npacket_rate = 8\n"
                            "sensing_radius = inf\n")
        assert sc.sim_time * sc.packet_rate == MAX_EVENTS


def _number():
    """Number text: mostly values most knobs accept, sometimes anything."""
    return st.one_of(
        st.floats(1e-3, 1e4).map(repr),
        st.floats(0.0, 1e4).map(lambda x: f"{x:g}"),
        st.floats().map(repr),
        st.just("nan"),
        st.sampled_from(["inf", "-inf", "0", "1e-300", "-1"]))


def _value(field):
    name = field.name
    if name in ("topology_size", "bs_location"):
        sep = "x" if name == "topology_size" else ","
        return st.tuples(_number(), _number()).map(sep.join)
    if name == "vertical_extent_N":
        return st.one_of(_number(), st.sampled_from(["unbounded", "None"]))
    if name == "protocol":
        return st.sampled_from(PROTOCOLS + ("olsr",))
    if name == "liveness":
        return st.sampled_from(["ground_truth", "reported", "psychic"])
    if name == "placement":
        return st.one_of(st.just("uniform"), st.text(max_size=12))
    if field.type is int:
        return st.integers(-2, 10 ** 6).map(str)
    return _number()


@st.composite
def scenario_entries(draw):
    """Key -> value text for a few distinct scenario keys."""
    chosen = draw(st.lists(st.sampled_from(fields(Scenario)),
                           unique_by=lambda f: f.name, max_size=6))
    return {f.name: draw(_value(f)) for f in chosen}


class TestRoundTrip:
    def test_emit_parses_back(self):
        sc = Scenario(node_count=42, topology_size=(500.0, 750.0),
                      bs_location=(20.0, 30.0), protocol="dsr",
                      vertical_extent_N=None, seed=17)
        assert parse_scenario(emit_scenario(sc)) == sc

    def test_bounded_extent_round_trips(self):
        sc = Scenario(vertical_extent_N=150.0)
        assert parse_scenario(emit_scenario(sc)) == sc

    def test_floats_keep_every_digit(self):
        sc = Scenario(topology_size=(1234.5678, 2000.0),
                      bs_location=(0.1 + 0.2, 1e-7), vertical_extent_N=1 / 3)
        assert parse_scenario(emit_scenario(sc)) == sc

    @settings(max_examples=300, deadline=None)
    @given(entries=scenario_entries())
    def test_parse_emit_parse_round_trips(self, entries):
        text = "".join(f"{key} = {val}\n" for key, val in entries.items())
        try:
            sc = parse_scenario(text)
        except ScenarioError:
            return  # rejected as a whole at parse time
        again = parse_scenario(emit_scenario(sc))
        assert again == sc
        assert emit_scenario(again) == emit_scenario(sc)


class TestDerived:
    def test_payload_bits(self):
        assert Scenario(packet_size=512).payload_bits == 4096

    def test_radio_params_match_knobs(self):
        sc = Scenario(radio_range=200.0, reception_threshold=-75.0)
        rp = sc.radio_params()
        assert rp.radio_range == 200.0
        assert rp.reception_threshold == -75.0

    def test_region_params_share_radio_range(self):
        sc = Scenario(radio_range=200.0, band_halfwidth_M=90.0)
        assert sc.region_params().radio_range == 200.0
        assert sc.region_params().band_halfwidth_M == 90.0
