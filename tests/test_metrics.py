"""Metric collection, CSV round trips and the dominance check."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybsim import metrics
from hybsim.metrics import (CSV_COLUMNS, ComparisonTable, MetricsError,
                            MetricsReport, RunRow, check_dominance, collect,
                            compare, parse_runs_csv, run_scenario, runs_csv,
                            summary_csv)
from hybsim.hyb import ASLEEP
from hybsim.scenario import Scenario

SAMPLE_LOG = """\
0.001000 DATA 3 1 ev0 OK
0.002000 DATA 1 BS ev0 OK
0.002000 DELIVER 1 BS ev0 hops=1
0.003000 DROP 4 - ev1 CONGESTION
0.004000 COLL 2 5 rq0.1 COLLISION
0.005000 RREQ 2 * rq0.1 SENT
0.006000 DATA 2 1 ev2 COLLISION
0.007000 DROP 2 - ev2 CONGESTION
0.010000 CONFIG BS 3 - OK
0.011000 REPORT 3 BS - OK
"""

MALFORMED = [
    ("0.1 DATA 1 2 ev0\n", "line 1"),
    ("zero DATA 1 2 ev0 OK\n", "bad timestamp"),
    ("0.1 DELIVER 1 BS ev0 fast\n", "bad DELIVER outcome"),
    ("0.1 DROP 1 - ev0 TIRED\n", "unknown drop reason"),
    ("0.1 DATA 1 2 ev0 OK\n0.2 BEEP 1 2 ev0 OK\n", "line 2"),
]


class TestCollect:
    def test_sample_log_tallies(self):
        r = collect(SAMPLE_LOG)
        assert r.signals == 6          # 3 DATA + 1 RREQ + CONFIG + REPORT
        assert r.collisions == 2       # one COLL record + one lost DATA
        assert r.delivered == 1
        assert r.dropped == {"ASLEEP": 0, "DUPLICATE": 0,
                             "NO_ROUTE": 0, "CONGESTION": 2}
        assert r.generated == 3
        assert r.avg_hop_count == 1.0
        assert r.unique_events_delivered == 1
        assert r.execution_time == 0.007  # last terminal packet outcome

    def test_empty_log(self):
        r = collect("")
        assert r.generated == 0
        assert r.avg_hop_count == 0.0
        assert r.execution_time == 0.0

    @pytest.mark.parametrize("bad,fragment", MALFORMED)
    def test_malformed_logs_rejected(self, bad, fragment):
        with pytest.raises(MetricsError, match=fragment):
            collect(bad)


def outcome(text, block=None):
    """collect's report or MetricsError message for ``text``: split
    ``block`` characters at a time, or by ``str.splitlines`` when None."""
    patch = (mock.patch.object(metrics, "_lines", str.splitlines)
             if block is None else mock.patch.object(metrics, "_BLOCK", block))
    with patch:
        try:
            return collect(text)
        except MetricsError as exc:
            return f"MetricsError: {exc}"


# every line boundary str.splitlines knows, and lines good, blank and bad
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
RECORDS = SAMPLE_LOG.splitlines() + ["", "   ", "\t"] + [
    line for bad, _ in MALFORMED for line in bad.splitlines()]


@st.composite
def tricky_logs(draw):
    records = draw(st.lists(st.sampled_from(RECORDS), max_size=12))
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(records),
                           max_size=len(records)))
    text = "".join(r + b for r, b in zip(records, breaks))
    if records and draw(st.booleans()):
        text = text[:-len(breaks[-1])]  # no final line break
    return text


class TestLazyCollect:
    """collect walks the log a block at a time; str.splitlines is the
    reference it must match, report and error alike."""

    @settings(max_examples=300, deadline=None)
    @given(text=tricky_logs(), block=st.integers(0, 80))
    def test_matches_splitlines_reference(self, text, block):
        with mock.patch.object(metrics, "_BLOCK", block):
            assert list(metrics._lines(text)) == text.splitlines()
        assert outcome(text, block) == outcome(text)

    @pytest.mark.parametrize("bad", [bad for bad, _ in MALFORMED])
    @pytest.mark.parametrize("prefix", [
        "", SAMPLE_LOG, SAMPLE_LOG.replace("\n", "\r\n")],
        ids=["bare", "after_lf", "after_crlf"])
    def test_same_error_at_every_block_edge(self, bad, prefix):
        text = prefix + bad
        expected = outcome(text)
        assert expected.startswith("MetricsError: line ")
        for block in range(len(text) + 2):
            assert outcome(text, block) == expected


class TestRunScenario:
    def test_report_consistency(self):
        sc = Scenario(node_count=10, sim_time=5.0, seed=2)
        report, log = run_scenario(sc)
        assert report.generated == report.delivered + report.dropped_total()
        assert report.energy_consumed > 0.0
        assert report.wall_clock > 0.0
        assert collect(log).signals == report.signals


def synthetic_table():
    """hyb strictly better than one baseline on every metric."""
    table = ComparisonTable()
    for n in (50, 75):
        for proto, scale in (("hyb", 1.0), ("aodv", 2.0)):
            for seed in (1, 2, 3):
                table.runs.append(RunRow(proto, n, seed, MetricsReport(
                    execution_time=10.0 * scale + seed,
                    avg_hop_count=1.0 * scale,
                    collisions=int(20 * scale) + seed,
                    signals=int(100 * scale),
                    generated=100, delivered=90,
                    energy_consumed=0.5 * scale)))
    return table


class TestComparison:
    def test_compare_runs_full_grid(self):
        sc = Scenario(node_count=5, sim_time=2.0)
        table = compare(sc, ["hyb", "aodv"], [1, 2], node_counts=[5, 8])
        assert len(table.runs) == 8
        assert table.node_counts() == [5, 8]
        assert table.protocols() == ["hyb", "aodv"]
        assert len(table.cell("hyb", 5)) == 2

    def test_compare_rejects_empty_axes(self):
        with pytest.raises(MetricsError):
            compare(Scenario(), [], [1])

    def test_runs_csv_round_trip(self):
        table = synthetic_table()
        text = runs_csv(table)
        header = ("protocol,node_count,seed,execution_time_s,avg_hop_count,"
                  "collisions,signals,generated,delivered,dropped_asleep,"
                  "dropped_duplicate,dropped_no_route,dropped_congestion")
        assert text.splitlines()[0] == header == ",".join(CSV_COLUMNS)
        back = parse_runs_csv(text)
        assert runs_csv(back) == text

    def test_parse_rejects_wrong_header(self):
        with pytest.raises(MetricsError):
            parse_runs_csv("a,b,c\n1,2,3\n")

    def test_summary_csv_shape(self):
        text = summary_csv(synthetic_table())
        rows = text.splitlines()
        assert rows[0] == "protocol,node_count,metric,mean,min,max"
        # 2 node counts x 2 protocols x 7 metrics
        assert len(rows) == 1 + 28

    def test_mean_and_spread(self):
        table = synthetic_table()
        assert table.mean("hyb", 50, "execution_time") == pytest.approx(12.0)
        assert table.spread("hyb", 50, "execution_time") == (11.0, 13.0)


class TestRunScenarioCrossCheck:
    """The log is checked against the engine's counters with an exception,
    so ``python -O`` keeps the check."""

    @pytest.mark.parametrize("counter", ["generated", "delivered", "dropped"])
    def test_log_engine_mismatch_raises(self, monkeypatch, counter):
        class Miscounting(metrics.Engine):
            def run(self):
                log = super().run()
                if counter == "dropped":
                    self.dropped[ASLEEP] += 1
                else:
                    setattr(self, counter, getattr(self, counter) + 1)
                return log
        monkeypatch.setattr(metrics, "Engine", Miscounting)
        with pytest.raises(MetricsError, match=counter):
            run_scenario(Scenario(node_count=5, sim_time=2.0))

    def test_matching_counters_pass(self):
        report, log = run_scenario(Scenario(node_count=5, sim_time=2.0))
        assert report.generated == collect(log).generated > 0


class TestDominanceCheck:
    def test_clean_table_passes(self):
        assert check_dominance(synthetic_table()) == []

    def test_missing_hyb_reported(self):
        table = ComparisonTable(runs=[RunRow("aodv", 50, 1, MetricsReport())])
        assert check_dominance(table) == ["no hyb runs in table"]

    def test_violation_reported(self):
        table = synthetic_table()
        for row in table.runs:
            if row.protocol == "hyb":
                row.report.signals = 10_000
        problems = check_dominance(table)
        assert any("signals" in p for p in problems)

    def test_collision_majority_rule(self):
        table = synthetic_table()
        # let hyb lose on collisions for 2 of 3 seeds at 75 nodes
        for row in table.runs:
            if row.protocol == "hyb" and row.node_count == 75 and row.seed <= 2:
                row.report.collisions = 10_000
        problems = check_dominance(table)
        assert any("collisions" in p and "75" in p for p in problems)
        assert not any("collisions" in p and "50" in p for p in problems)
