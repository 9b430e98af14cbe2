"""End-to-end tests of the command-line surface and its exit codes."""

import pytest

from hybsim.cli import EXIT_CHECK, EXIT_OK, EXIT_RUN, EXIT_USAGE, main
from hybsim.topology import parse_location_file

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

    def test_check_fails_without_hyb(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", scenario_file, "--protocols", "aodv",
                     "--seeds", "1", "--out", str(out), "--check"])
        assert code == EXIT_CHECK
        assert "check failed" in capsys.readouterr().err


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
