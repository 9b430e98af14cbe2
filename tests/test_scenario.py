"""Scenario file parsing, validation and round-trip tests."""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hybsim import scenario
from hybsim.engine import Engine
from hybsim.metrics import compare, run_scenario
from hybsim.scenario import (MAX_DELAY, MAX_EVENTS, MAX_RETRIES, PROTOCOLS,
                             Scenario, ScenarioError, emit_scenario,
                             parse_pair, parse_scenario)


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

    @pytest.mark.parametrize("sep", ["x", ","])
    @pytest.mark.parametrize("text,pair", [
        ("1{}2", (1.0, 2.0)), (" 1 {} 2 ", (1.0, 2.0)),
        ("-1.5{}1e3", (-1.5, 1000.0)), ("inf {} 2", (math.inf, 2.0)),
        ("1{}2{}3", None), ("1{}", None), ("{}2", None), ("{}", None),
        ("1", None), ("", None), ("a{}2", None), ("1{}{}2", None)])
    def test_pair_parser(self, sep, text, pair):
        # the scenario file and the command line read pairs with this one
        # parser, which raises ValueError on anything but two floats
        text = text.replace("{}", sep)
        if pair is None:
            with pytest.raises(ValueError):
                parse_pair(text, sep)
        else:
            assert parse_pair(text, sep) == pair

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
        ("topology_size = 100xinf\n", "topology_size"),
        ("topology_size = 0x100\n", "topology_size"),
        ("topology_size = 100x0\n", "topology_size"),
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
        ("amp = 0\n", "energy coefficients"),
        ("initial_energy = -1\n", "initial_energy"),
        # every run would report energy_consumed = inf - inf = nan
        ("initial_energy = inf\n", "initial_energy"),
        ("initial_energy = nan\n", "initial_energy"),
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
        # finite delays whose retries overflowed the clock to inf
        ("protocol = aodv\nnode_count = 20\nsim_time = 2\nseed = 1\n"
         "discovery_timeout = 1e308\n", "discovery_timeout"),
        ("protocol = aodv\nnode_count = 40\nsim_time = 5\n"
         "retry_backoff = 1e308\n", "retry_backoff"),
        ("elec = inf\n", "energy coefficients"),
        ("amp = inf\n", "energy coefficients"),
        ("energy_threshold = inf\n", "threshold"),
        ("band_halfwidth_M = inf\n", "band_halfwidth_M"),
        ("vertical_extent_N = inf\n", "vertical_extent_N"),
        ("sim_time = 125000.5\npacket_rate = 8\n", "exceeds"),
        ("sim_time = 1e9\npacket_rate = 1e9\n", "exceeds"),
        ("refresh_period = 1e-300\n", "refresh_period exceeds"),
        ("sim_time = 2\nrefresh_period = 1e-6\n", "refresh_period exceeds"),
        ("bandwidth = 1e-300\n", "airtime exceeds refresh_period"),
        ("packet_size = 512\nbandwidth = 100\nrefresh_period = 30\n",
         "airtime"),
        ("discovery_retries = 101\n", "discovery_retries"),
        ("data_retries = 1100\n", "data_retries"),
        ("packet_size = 0\n", "packet_size"),
    ])
    def test_rejects(self, bad, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            parse_scenario(bad)

    def test_accepts_the_limits(self):
        sc = parse_scenario("sim_time = 125000\npacket_rate = 8\n"
                            "sensing_radius = inf\n")
        assert sc.sim_time * sc.packet_rate == MAX_EVENTS
        sc = parse_scenario("sim_time = 500000\npacket_rate = 1\n"
                            "refresh_period = 0.5\n"
                            f"data_retries = {MAX_RETRIES}\n"
                            f"discovery_retries = {MAX_RETRIES}\n")
        assert sc.sim_time / sc.refresh_period == MAX_EVENTS
        # a data frame exactly as long as the refresh period
        sc = parse_scenario("packet_size = 512\nbandwidth = 512\n"
                            "refresh_period = 8\n")
        assert sc.payload_bits / sc.bandwidth == sc.refresh_period
        # one retry waits the backoff itself, exactly MAX_DELAY here
        sc = parse_scenario("retry_backoff = 1e30\ndata_retries = 1\n")
        assert sc.retry_backoff * 2 ** (sc.data_retries - 1) == MAX_DELAY


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


class TestPlacementFile:
    """Every node of a location file lies in [0, w] x [0, h], and the file
    sets node_count unless the scenario names the same count."""

    def write(self, tmp_path, points):
        path = tmp_path / "nodes.txt"
        path.write_text("".join(f"{i} , {x!r} , {y!r}\n"
                                for i, (x, y) in enumerate(points)))
        return str(path)

    def test_nodes_on_the_field_edge_accepted(self, tmp_path):
        path = self.write(tmp_path, [(0.0, 0.0), (800.0, 600.0)])
        sc = parse_scenario(f"topology_size = 800x600\nplacement = {path}\n")
        assert sc.node_count == 2
        assert Scenario(topology_size=(800.0, 600.0), placement=path,
                        node_count=2) == sc

    @pytest.mark.parametrize("outside", [(800.5, 0.0), (0.0, 600.5)])
    def test_node_past_one_edge_refused(self, tmp_path, outside):
        path = self.write(tmp_path, [(0.0, 0.0), outside])
        with pytest.raises(ScenarioError, match="node 1 at .* lies outside"):
            parse_scenario(f"topology_size = 800x600\nplacement = {path}\n")

    def test_unreadable_file_refused(self, tmp_path):
        with pytest.raises(ScenarioError, match="placement"):
            parse_scenario(f"placement = {tmp_path / 'missing.txt'}\n")

    @pytest.mark.parametrize("count_line,parse_reads",
                             [("", 2), ("node_count = 6\n", 1)])
    def test_file_read_once_per_run(self, tmp_path, monkeypatch, count_line,
                                    parse_reads):
        # parsing reads the file to count its nodes unless the scenario
        # names the count, and once to validate; each run of compare
        # validates its own scenario, and its engine places the nodes that
        # read found. Every read_placement call, whoever makes it, parses
        # the text it read once.
        path = self.write(tmp_path, [(100.0 * i, 50.0 * i) for i in range(6)])
        reads, parse = [], scenario.parse_location_file

        def counting(text):
            reads.append(text)
            return parse(text)
        monkeypatch.setattr(scenario, "parse_location_file", counting)
        sc = parse_scenario(f"topology_size = 800x600\nplacement = {path}\n"
                            f"sim_time = 2\n{count_line}")
        assert len(reads) == parse_reads
        table = compare(sc, ["hyb", "aodv"], [1, 2])
        assert len(table.runs) == 4
        assert len(reads) == parse_reads + 4
        Engine(sc)
        assert len(reads) == parse_reads + 4


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

    @staticmethod
    def two_nodes(tmp_path, name):
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text("0 , 10.0 , 20.0\n1 , 30.0 , 40.0\n")
        return str(path)

    def test_placement_path_with_inner_spaces_round_trips(self, tmp_path):
        sc = Scenario(placement=self.two_nodes(tmp_path, "my nodes/n.txt"),
                      node_count=2)
        assert parse_scenario(emit_scenario(sc)) == sc

    # the file format cuts each line at '#' and at line breaks, and strips it
    @pytest.mark.parametrize("name", ["p#q/n.txt", "p\nq/n.txt", "p\rq/n.txt",
                                      "n.txt ", "n.txt\n", " n.txt"])
    def test_placement_the_file_cannot_carry_refused(self, tmp_path,
                                                     monkeypatch, name):
        self.two_nodes(tmp_path, name)
        monkeypatch.chdir(tmp_path)  # a relative path may begin with a space
        sc = Scenario(placement=name, node_count=2)
        with pytest.raises(ScenarioError, match="cannot be written"):
            emit_scenario(sc)

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


# key -> value texts for scenarios that are run: ordinary values, edge
# values and invalid ones. A run's cost grows with its events, so the rates
# stay small; node_count and sim_time are capped after parsing instead.
LOCATION_FILE = "<location file>"
_RUN_VALUES = {
    "topology_size": ["2000x2000", "500x300", "1x1", "0x100", "-1x5",
                      "infx1", "nanx1", "12"],
    # 12 is the location file's count, so a placed run can name it
    "node_count": ["1", "7", "12", "20", "500", "0", "-2", "2.5"],
    "placement": ["uniform", LOCATION_FILE],
    "bs_location": ["1000,1000", "0,0", "5000,5000", "-1,0", "nan,1", "1,inf"],
    "sim_time": ["2", "0.5", "300", "1e-3", "0", "-1", "nan", "inf"],
    "packet_rate": ["8", "0.5", "40", "1e-3", "0", "-1", "nan", "inf"],
    "packet_size": ["512", "1", "4000", "0", "-1", "3.5"],
    "sensing_radius": ["250", "0", "inf", "-1", "nan"],
    "protocol": list(PROTOCOLS) + ["olsr"],
    "seed": ["1", "0", "-7", "x"],
    "radio_range": ["350", "100", "2000", "1", "0.5", "inf", "nan"],
    "reception_threshold": ["-80", "-120", "-40", "nan", "inf", "-inf"],
    "bandwidth": ["2e6", "1e3", "1e12", "0", "-1", "nan", "inf", "1e-300"],
    "path_loss_exponent": ["2", "4", "1.5", "nan"],
    "reference_distance": ["1", "10", "0", "-1", "nan"],
    "elec": ["5e-8", "1e-3", "0", "nan", "inf"],
    "amp": ["1e-10", "1e-6", "0", "nan", "inf"],
    "initial_energy": ["10", "0.05", "0.01", "1e-6", "0", "-1", "nan", "inf"],
    "energy_threshold": ["1e-6", "0", "0.02", "20", "-1", "nan", "inf"],
    "control_bits": ["320", "0", "4096", "-1", "1.5"],
    "band_halfwidth_M": ["250", "50", "0", "-5", "nan", "inf"],
    "vertical_extent_N": ["unbounded", "None", "100", "0", "nan", "inf"],
    "max_neighbours_K": ["3", "1", "50", "0", "-1"],
    "wait_t": ["0.1", "0", "1e9", "-0.1", "nan"],
    "dedup_ttl": ["5", "0", "1e9", "-1"],
    "refresh_period": ["30", "0.5", "0.05", "1e-6", "0", "-5", "nan", "inf",
                       "1e-300"],
    "liveness": ["ground_truth", "reported", "psychic"],
    "discovery_timeout": ["1", "0", "0.05", "1e30", "1e300", "1e308", "-1",
                          "nan", "inf"],
    "discovery_retries": ["2", "0", "5", "100", "101", "1000000", "-1"],
    "data_retries": ["3", "0", "10", "100", "1100", "1000000", "-1"],
    "retry_backoff": ["0.01", "0", "1", "1e27", "1e300", "1e308", "-0.01",
                      "nan", "inf"],
}


@pytest.fixture(scope="module")
def location_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("placement") / "nodes.txt"
    path.write_text("".join(f"{i} , {150.0 * i!r} , {90.0 * (i % 4)!r}\n"
                            for i in range(12)))
    return str(path)


# the protocol and every key that sets a delay or a retry count; a fault
# among them can need two keys at once, such as a failed discovery retried
# after a huge timeout
_DELAY_KEYS = ("protocol", "discovery_timeout", "discovery_retries",
               "retry_backoff", "data_retries", "refresh_period", "wait_t",
               "dedup_ttl", "bandwidth", "packet_size")


def _accepted_alone(key):
    """The values of ``key`` in _RUN_VALUES that parse on their own."""
    accepted = []
    for val in _RUN_VALUES[key]:
        try:
            parse_scenario(f"{key} = {val}\n")
        except ScenarioError:
            continue
        accepted.append(val)
    return accepted


_DELAY_VALUES = {key: _accepted_alone(key) for key in _DELAY_KEYS}


def _rejected_or_runs(text):
    """The report of the run ``text`` describes, capped at 20 nodes and 2 s,
    or None when ``text`` is rejected at parse time."""
    try:
        sc = parse_scenario(text)
    except ScenarioError:
        return None
    # a packet resolved twice raises in the run; run_scenario then checks
    # the log's generated, delivered and dropped counts against the engine's
    report, log = run_scenario(replace(sc, node_count=min(sc.node_count, 20),
                                       sim_time=min(sc.sim_time, 2.0)))
    assert all(math.isfinite(float(line.split(" ", 1)[0]))
               for line in log.splitlines())
    assert math.isfinite(report.execution_time)
    assert math.isfinite(report.energy_consumed)
    return report


class TestEveryParsedScenarioRuns:
    """Scenario text over every key, invalid values included: each file is
    rejected at parse time or runs to completion with every packet
    resolved exactly once and every record stamped at a finite time."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_rejected_or_runs_with_packets_conserved(self, data,
                                                     location_file):
        chosen = data.draw(st.lists(st.sampled_from(fields(Scenario)),
                                    unique_by=lambda f: f.name, max_size=8))
        lines = []
        for f in chosen:
            val = data.draw(st.sampled_from(_RUN_VALUES[f.name]))
            val = location_file if val == LOCATION_FILE else val
            lines.append(f"{f.name} = {val}\n")
        _rejected_or_runs("".join(lines))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_delay_and_retry_keys_together(self, data):
        # every key in every example, each at a value that parses on its
        # own, so that only combinations are left to reject
        _rejected_or_runs("".join(
            f"{key} = {data.draw(st.sampled_from(values))}\n"
            for key, values in _DELAY_VALUES.items()))


_FIELD_COORD = st.one_of(st.floats(0.0, 1000.0).map(repr),
                         st.sampled_from(["0", "-0.0", "1000"]))
_BAD_COORDS = ["1000.5", "1e308", "-1", "-inf", "inf", "nan"]


@st.composite
def location_files(draw):
    """``(lines, valid)``: the ``[id, x, y]`` texts of up to 20 nodes on the
    1000 m x 1000 m field, and whether they obey every placement rule. Up to
    two faults are put into a valid file: a duplicate id, a negative id or a
    coordinate outside the field or not finite."""
    n = draw(st.integers(0, 18))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n,
                        unique=True))
    lines = [[str(i), draw(_FIELD_COORD), draw(_FIELD_COORD)] for i in ids]
    faults = draw(st.lists(st.sampled_from(["duplicate", "negative",
                                            "coordinate"]),
                           max_size=2 if lines else 0))
    for fault in faults:
        line = lines[draw(st.integers(0, n - 1))]
        if fault == "duplicate":
            lines.append([line[0], draw(_FIELD_COORD), draw(_FIELD_COORD)])
        elif fault == "negative":
            line[0] = "-1"
        else:
            line[draw(st.sampled_from([1, 2]))] = draw(
                st.sampled_from(_BAD_COORDS))
    return lines, bool(lines) and not faults


class TestEveryDrawnLocationFileRuns:
    """A placement file is refused at parse time exactly when it breaks a
    rule (it is empty, an id is negative or repeated, a coordinate is not
    finite or lies outside the field, or node_count names another count);
    otherwise it runs to completion with every packet resolved exactly
    once."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(file=location_files(), extra=st.sampled_from([None, 0, 1]),
           protocol=st.sampled_from(PROTOCOLS))
    def test_refused_or_runs(self, tmp_path_factory, file, extra, protocol):
        lines, valid = file
        path = tmp_path_factory.mktemp("drawn") / "nodes.txt"
        path.write_text("".join(" , ".join(line) + "\n" for line in lines))
        text = (f"protocol = {protocol}\nsim_time = 2\n"
                "topology_size = 1000x1000\nbs_location = 500,500\n"
                f"placement = {path}\n")
        if extra is not None:  # node_count: the file's own count, or one more
            text += f"node_count = {len(lines) + extra}\n"
            valid = valid and extra == 0
        assert (_rejected_or_runs(text) is not None) == valid
