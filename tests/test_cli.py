"""End-to-end tests of the command-line surface and its exit codes."""

from dataclasses import replace

import pytest

from hybsim.cli import EXIT_CHECK, EXIT_OK, EXIT_RUN, EXIT_USAGE, main
from hybsim.metrics import run_scenario
from hybsim.scenario import Scenario
from hybsim.topology import (Location, compute_neighbour_table,
                             emit_neighbour_table, parse_location_file)

from helpers import count_engines
from test_topology import SAMPLE_TEXT

TINY_SCENARIO = """\
# small and fast, for tooling tests
node_count = 5
sim_time = 2
packet_rate = 4
seed = 3
"""

# `hybsim run` output for TINY_SCENARIO, byte for byte
_BASELINE_REPORT = """\
execution_time = 4.50015
avg_hop_count = 0.0
collisions = 0
signals = 6
generated = 2
delivered = 0
unique_events_delivered = 0
energy_consumed = 0.023615999999996973
dropped_asleep = 0
dropped_congestion = 0
dropped_duplicate = 0
dropped_no_route = 2
"""
REPORTS = {
    "hyb": """\
execution_time = 1.50015
avg_hop_count = 0.0
collisions = 0
signals = 15
generated = 2
delivered = 0
unique_events_delivered = 0
energy_consumed = 0.07227688636174001
dropped_asleep = 0
dropped_congestion = 0
dropped_duplicate = 0
dropped_no_route = 2
""",
    "aodv": _BASELINE_REPORT,
    "dsr": _BASELINE_REPORT,
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(TINY_SCENARIO)
    return str(path)


class TestRunCommand:
    def test_writes_report_and_log(self, tmp_path, scenario_file, capsys):
        log = tmp_path / "run.log"
        out = tmp_path / "report.txt"
        code = main(["run", scenario_file, "--log", str(log),
                     "--out", str(out)])
        assert code == EXIT_OK
        report = out.read_text()
        assert "execution_time = " in report
        assert "signals = " in report
        for line in log.read_text().splitlines():
            assert len(line.split()) == 6

    def test_report_to_stdout(self, scenario_file, capsys):
        assert main(["run", scenario_file]) == EXIT_OK
        assert "avg_hop_count = " in capsys.readouterr().out

    @pytest.mark.parametrize("protocol", sorted(REPORTS))
    def test_exact_report_text(self, scenario_file, capsys, protocol):
        assert main(["run", scenario_file, "--protocol", protocol]) == EXIT_OK
        assert capsys.readouterr().out == REPORTS[protocol]

    def test_protocol_and_seed_overrides(self, tmp_path, scenario_file, capsys):
        a = tmp_path / "a.log"
        b = tmp_path / "b.log"
        main(["run", scenario_file, "--protocol", "aodv", "--seed", "7",
              "--log", str(a)])
        main(["run", scenario_file, "--protocol", "aodv", "--seed", "8",
              "--log", str(b)])
        assert a.read_text() != b.read_text()

    def test_determinism_across_invocations(self, tmp_path, scenario_file, capsys):
        a = tmp_path / "a.log"
        b = tmp_path / "b.log"
        main(["run", scenario_file, "--log", str(a)])
        main(["run", scenario_file, "--log", str(b)])
        assert a.read_text() == b.read_text()

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.scn")]) == EXIT_RUN

    def test_bad_scenario_key(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text("node_cuont = 5\n")
        assert main(["run", str(path)]) == EXIT_RUN
        assert "unknown key" in capsys.readouterr().err

    def test_zero_refresh_period_rejected_before_the_run(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(TINY_SCENARIO + "refresh_period = 0\n")
        assert main(["run", str(path)]) == EXIT_RUN
        assert "refresh_period must be positive" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_protocol_choice(self, scenario_file, capsys):
        assert main(["run", scenario_file, "--protocol", "olsr"]) == EXIT_USAGE


class TestCompareCommand:
    def test_writes_csvs(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", scenario_file, "--protocols", "hyb,aodv",
                     "--seeds", "1,2", "--out", str(out)])
        assert code == EXIT_OK
        runs = (out / "runs.csv").read_text()
        assert runs.splitlines()[0].startswith("protocol,node_count,seed")
        assert len(runs.splitlines()) == 1 + 4
        summary = (out / "summary.csv").read_text()
        assert summary == capsys.readouterr().out

    def test_node_sweep(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "cmp"
        main(["compare", scenario_file, "--protocols", "hyb", "--seeds", "1",
              "--nodes", "5,10", "--out", str(out)])
        rows = (out / "runs.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["5", "10"]

    @pytest.mark.parametrize("option,value", [
        ("--seeds", "x"), ("--seeds", ","), ("--seeds", "1,"),
        ("--seeds", "1,2,1"), ("--protocols", "hyb,foo"),
        ("--protocols", "hyb,,aodv"), ("--protocols", ""),
        ("--protocols", "aodv,aodv"), ("--nodes", "5,x"), ("--nodes", "5,5")])
    def test_malformed_list_is_usage_error(self, tmp_path, scenario_file,
                                           capsys, monkeypatch, option,
                                           value):
        engines = count_engines(monkeypatch)
        out = tmp_path / "cmp"
        assert main(["compare", scenario_file, option, value,
                     "--out", str(out)]) == EXIT_USAGE
        assert f"argument {option}" in capsys.readouterr().err
        assert engines == [] and not out.exists()

    def test_refused_node_count_fails_before_any_run(self, tmp_path,
                                                     scenario_file, capsys,
                                                     monkeypatch):
        engines = count_engines(monkeypatch)
        out = tmp_path / "cmp"
        assert main(["compare", scenario_file, "--nodes", "5,0",
                     "--out", str(out)]) == EXIT_RUN
        assert "node_count must be >= 1" in capsys.readouterr().err
        assert engines == [] and not out.exists()

    def test_check_fails_without_hyb(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", scenario_file, "--protocols", "aodv",
                     "--seeds", "1", "--out", str(out), "--check"])
        assert code == EXIT_CHECK
        assert "check failed" in capsys.readouterr().err


class TestPlacementFile:
    """A location file is checked against the scenario before any run."""

    def placed(self, tmp_path, extra=""):
        nodes = tmp_path / "nodes.txt"
        assert main(["gen-topology", "--nodes", "40", "--size", "1000x1000",
                     "--seed", "1", "--out", str(nodes)]) == EXIT_OK
        path = tmp_path / "placed.scn"
        path.write_text("sim_time = 2\ntopology_size = 1000x1000\n"
                        f"bs_location = 500,500\nplacement = {nodes}\n{extra}")
        return str(path), nodes

    def test_node_count_is_the_files(self, tmp_path, capsys):
        path, _ = self.placed(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", path, "--nodes", "40", "--protocols", "dsr",
                     "--out", str(out)]) == EXIT_OK
        rows = (out / "runs.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["40"]

    def test_later_node_count_refused_before_any_run(self, tmp_path, capsys,
                                                     monkeypatch):
        path, _ = self.placed(tmp_path)
        engines = count_engines(monkeypatch)
        out = tmp_path / "cmp"
        assert main(["compare", path, "--nodes", "40,10", "--protocols", "dsr",
                     "--out", str(out)]) == EXIT_RUN
        assert ("node_count is 10, but the location file holds 40 nodes"
                in capsys.readouterr().err)
        assert engines == [] and not out.exists()

    def test_compare_with_another_node_count_refused(self, tmp_path, capsys):
        path, _ = self.placed(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", path, "--nodes", "10,40", "--protocols", "dsr",
                     "--out", str(out)]) == EXIT_RUN
        assert ("node_count is 10, but the location file holds 40 nodes"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_explicit_node_count_mismatch_refused(self, tmp_path, capsys):
        path, _ = self.placed(tmp_path, "node_count = 25\n")
        assert main(["run", path]) == EXIT_RUN
        assert ("node_count is 25, but the location file holds 40 nodes"
                in capsys.readouterr().err)

    def test_node_outside_the_field_refused(self, tmp_path, capsys):
        path, nodes = self.placed(tmp_path)
        with open(nodes, "a", encoding="utf-8") as fh:
            fh.write("40 , 1500.0 , 1500.0\n")
        assert main(["run", path]) == EXIT_RUN
        assert ("node 40 at 1500.0,1500.0 lies outside topology_size "
                "1000.0x1000.0" in capsys.readouterr().err)

    def test_empty_file_refused(self, tmp_path, capsys):
        path, nodes = self.placed(tmp_path)
        nodes.write_text("")
        assert main(["run", path]) == EXIT_RUN
        assert "location file holds no nodes" in capsys.readouterr().err


class TestNeighboursCommand:
    def test_sample_table(self, tmp_path, capsys):
        path = tmp_path / "nodes.txt"
        path.write_text(SAMPLE_TEXT)
        code = main(["neighbours", str(path), "--bs", "60,230", "--M", "100"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["0\t0\t0\t0", "1\t5\t-\t-", "2\t5\t1\t-",
                         "3\t5\t1\t2", "4\t5\t1\t2", "5\t0\t0\t0"]

    def test_missing_bs_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nodes.txt"
        path.write_text(SAMPLE_TEXT)
        assert main(["neighbours", str(path)]) == EXIT_USAGE

    @pytest.mark.parametrize("bs", ["5", "5,5,5", "x,5", ""])
    def test_malformed_bs_is_usage_error(self, tmp_path, capsys, bs):
        path = tmp_path / "nodes.txt"
        path.write_text(SAMPLE_TEXT)
        assert main(["neighbours", str(path), "--bs", bs]) == EXIT_USAGE
        assert "argument --bs" in capsys.readouterr().err

    def test_region_defaults_are_the_scenario_defaults(self, tmp_path,
                                                       capsys):
        path = tmp_path / "nodes.txt"
        assert main(["gen-topology", "--nodes", "60", "--size", "1000x1000",
                     "--seed", "2", "--out", str(path)]) == EXIT_OK
        assert main(["neighbours", str(path), "--bs", "500,500"]) == EXIT_OK
        locs = parse_location_file(path.read_text())
        locs.base_station = Location(500.0, 500.0)
        sc = Scenario()
        table = compute_neighbour_table(locs, sc.region_params(),
                                        locs.entries.keys())
        assert capsys.readouterr().out == emit_neighbour_table(
            table, sc.max_neighbours_K)

    @pytest.mark.parametrize("bad", ["nan", "0", "-5"])
    def test_bad_range_is_run_error(self, tmp_path, capsys, bad):
        path = tmp_path / "nodes.txt"
        path.write_text(SAMPLE_TEXT)
        args = ["neighbours", str(path), "--bs", "600,100", f"--range={bad}"]
        assert main(args) == EXIT_RUN
        assert "radio_range" in capsys.readouterr().err


class TestGenTopologyCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        args = ["gen-topology", "--nodes", "12", "--size", "500x400",
                "--seed", "6"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()
        locs = parse_location_file(a.read_text())
        assert len(locs.entries) == 12
        for p in locs.entries.values():
            assert 0 <= p.x <= 500 and 0 <= p.y <= 400

    @pytest.mark.parametrize("size", ["100", "100x100x3", "100,100", "x"])
    def test_malformed_size_is_usage_error(self, tmp_path, capsys, size):
        out = tmp_path / "a.txt"
        assert main(["gen-topology", "--nodes", "5", "--size", size,
                     "--seed", "6", "--out", str(out)]) == EXIT_USAGE
        assert "argument --size" in capsys.readouterr().err
        assert not out.exists()

    def test_without_out_writes_to_stdout(self, tmp_path, capsys):
        args = ["gen-topology", "--nodes", "5", "--size", "500x400",
                "--seed", "6"]
        assert main(args + ["--out", str(tmp_path / "a.txt")]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == (tmp_path / "a.txt").read_text()

    @pytest.mark.parametrize("protocol", ["hyb", "dsr"])
    def test_file_reproduces_the_uniform_run(self, tmp_path, protocol):
        nodes = tmp_path / "nodes.txt"
        assert main(["gen-topology", "--nodes", "40", "--size", "1000x1000",
                     "--seed", "1", "--out", str(nodes)]) == EXIT_OK
        uniform = Scenario(protocol=protocol, node_count=40, seed=1,
                           sim_time=5.0, topology_size=(1000.0, 1000.0),
                           bs_location=(500.0, 500.0))
        placed = replace(uniform, placement=str(nodes))
        (want, want_log), (got, got_log) = (run_scenario(uniform),
                                            run_scenario(placed))
        assert got_log == want_log
        assert got.energy_consumed == want.energy_consumed
