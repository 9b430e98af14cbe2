"""Metric collection, counted and parsed reports, CSV round trips and the
dominance check."""

import csv
import io
from dataclasses import fields, replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybsim import metrics
from hybsim.engine import ASLEEP, DROP_REASONS, Engine
from hybsim.metrics import (CSV_COLUMNS, ComparisonTable, MetricsError,
                            MetricsReport, RunRow, check_dominance, collect,
                            compare, counted_report, run_scenario, runs_csv,
                            summary_csv)
from hybsim.scenario import PROTOCOLS, Scenario, ScenarioError

from helpers import count_engines, counted_and_parsed

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
    # an unknown kind is refused even with a drop reason as its outcome
    ("0.000000 FOO 1 BS ev0 ASLEEP\n", "unknown record kind"),
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
        assert collect(log).signals == report.signals


@st.composite
def small_scenarios(draw):
    side = draw(st.sampled_from([2000.0, 1000.0, 500.0]))
    return Scenario(
        protocol=draw(st.sampled_from(PROTOCOLS)),
        liveness=draw(st.sampled_from(["ground_truth", "reported"])),
        node_count=draw(st.integers(1, 30)),
        topology_size=(side, side),
        bs_location=draw(st.sampled_from([(side / 2, side / 2), (side, side)])),
        sim_time=draw(st.floats(0.5, 5.0)),
        initial_energy=draw(st.one_of(st.floats(0.01, 10.0),
                                      st.sampled_from([0.01, 0.05, 0.2]))),
        control_bits=draw(st.sampled_from([0, 320])),
        seed=draw(st.integers(0, 2 ** 32)))


class TestCountedReport:
    """The engine counts the report's fields as it writes the log;
    ``collect`` re-derives them from the text alone and must agree."""

    @settings(max_examples=60, deadline=None)
    @given(sc=small_scenarios())
    def test_counts_equal_the_parsed_log(self, sc):
        _, counted, parsed = counted_and_parsed(Engine(sc))
        assert counted == parsed

    def test_a_storm_counts_every_kind_of_record(self):
        # 120 nodes on 3 s with 0.05 J batteries: COLL records, unicast
        # collisions, drops, deliveries over several hops and nodes that
        # die mid-flood all occur
        sc = Scenario(protocol="aodv", node_count=120, sim_time=3.0,
                      initial_energy=0.05, seed=1)
        _, counted, parsed = counted_and_parsed(Engine(sc))
        assert counted == parsed
        assert counted.collisions > 0 and counted.avg_hop_count > 0
        assert counted.unique_events_delivered > 0

    def test_execution_time_is_rounded_as_logged(self):
        e = Engine(Scenario(node_count=5, sim_time=2.0))
        e.run()
        e.tally.last_terminal = 1.2345678
        assert counted_report(e).execution_time == float("1.234568")

    def test_compare_rows_equal_run_scenario_reports(self):
        sc = Scenario(sim_time=3.0, initial_energy=0.2)
        table = compare(sc, ["hyb", "aodv", "dsr"], [1, 2],
                        node_counts=[10, 30])
        assert len(table.runs) == 12
        for row in table.runs:
            alone = replace(sc, protocol=row.protocol, seed=row.seed,
                            node_count=row.node_count)
            assert row.report == run_scenario(alone)[0]

    def test_compare_never_parses_a_log(self, monkeypatch):
        def refuse(log_text):
            raise AssertionError("compare parsed a log")
        monkeypatch.setattr(metrics, "collect", refuse)
        table = compare(Scenario(node_count=10, sim_time=2.0),
                        ["hyb", "aodv"], [1])
        assert [r.report.signals > 0 for r in table.runs] == [True, True]

    def test_compare_refuses_unconserved_packets(self, monkeypatch):
        class Leaking(metrics.Engine):
            def run(self):
                log = super().run()
                self.generated += 1  # a packet that met no fate
                return log
        monkeypatch.setattr(metrics, "Engine", Leaking)
        with pytest.raises(MetricsError, match="packets generated"):
            compare(Scenario(node_count=5, sim_time=2.0), ["aodv"], [1])


def parse_runs_csv(text: str) -> ComparisonTable:
    """Rebuild a ComparisonTable from runs_csv output (numeric round trip)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_COLUMNS:
        raise MetricsError(f"unexpected CSV header: {header}")
    table = ComparisonTable()
    kinds = {f.name: f.type for f in fields(MetricsReport)}
    for rec in reader:
        vals = dict(zip(CSV_COLUMNS, rec))
        report = MetricsReport(
            **{name: kinds[name](vals[column])
               for column, name in metrics._REPORT_COLUMNS},
            dropped={reason: int(vals[column]) for reason, column
                     in zip(DROP_REASONS, metrics._DROP_COLUMNS)})
        table.runs.append(RunRow(vals["protocol"], int(vals["node_count"]),
                                 int(vals["seed"]), report))
    return table


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

    def test_one_engine_per_run_in_grid_order(self, monkeypatch):
        engines = count_engines(monkeypatch)
        table = compare(Scenario(node_count=5, sim_time=2.0), ["dsr", "hyb"],
                        [2, 1], node_counts=[8, 5])
        keys = [(n, p, s) for n in (8, 5) for p in ("dsr", "hyb")
                for s in (2, 1)]
        assert [(r.node_count, r.protocol, r.seed) for r in table.runs] == keys
        assert [(sc.node_count, sc.protocol, sc.seed)
                for sc in engines] == keys

    @pytest.mark.parametrize("protocols,seeds,counts,error,message", [
        (["hyb", "aodv", "foo"], [1], None, ScenarioError,
         "unknown protocol 'foo'"),
        (["hyb", "aodv"], [1], [5, 0], ScenarioError,
         "node_count must be >= 1"),
        # a repeated axis entry would put its runs in one cell twice
        (["hyb", "hyb", "aodv"], [1, 2], None, MetricsError, "repeated"),
        (["hyb"], [1, 2, 1], None, MetricsError, "repeated"),
        (["hyb"], [1], [5, 8, 5], MetricsError, "repeated"),
        # an empty list is no node count, not the scenario's own
        (["hyb"], [1], [], MetricsError, "at least one")])
    def test_bad_axis_refused_before_any_run(self, monkeypatch, protocols,
                                             seeds, counts, error, message):
        engines = count_engines(monkeypatch)
        with pytest.raises(error, match=message):
            compare(Scenario(node_count=5, sim_time=2.0), protocols, seeds,
                    node_counts=counts)
        assert engines == []

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

    SCENARIO = Scenario(node_count=30, sim_time=3.0, seed=2)
    # engine counter, or count of its tally -> the report field it feeds
    FIELD = {"generated": "generated", "delivered": "delivered",
             "dropped": "dropped", "signals": "signals",
             "collisions": "collisions", "hop_sum": "avg_hop_count",
             "last_terminal": "execution_time",
             "delivered_ids": "unique_events_delivered"}

    @pytest.mark.parametrize("counter", list(FIELD))
    def test_log_engine_mismatch_raises(self, monkeypatch, counter):
        class Miscounting(metrics.Engine):
            def run(self):
                log = super().run()
                if counter == "dropped":
                    self.dropped[ASLEEP] += 1
                elif counter == "delivered_ids":
                    self.tally.delivered_ids.add("ev-never")
                elif hasattr(self.tally, counter):
                    setattr(self.tally, counter,
                            getattr(self.tally, counter) + 1)
                else:
                    setattr(self, counter, getattr(self, counter) + 1)
                return log
        monkeypatch.setattr(metrics, "Engine", Miscounting)
        with pytest.raises(MetricsError,
                           match=rf"(^|; ){self.FIELD[counter]}: log says"):
            run_scenario(self.SCENARIO)

    def test_matching_counters_pass(self):
        report, log = run_scenario(self.SCENARIO)
        assert report.generated == collect(log).generated > 0
        assert report.avg_hop_count > 0  # so a miscounted hop sum shows


class TestDominanceCheck:
    def test_clean_table_passes(self):
        assert check_dominance(synthetic_table()) == []

    def test_missing_hyb_reported(self):
        table = ComparisonTable(runs=[RunRow("aodv", 50, 1, MetricsReport())])
        assert check_dominance(table) == ["no hyb runs in table"]

    def test_missing_baselines_reported(self):
        # hyb alone has nothing to dominate: no vacuous pass
        table = synthetic_table()
        table.runs = [r for r in table.runs if r.protocol == "hyb"]
        assert table.runs
        assert check_dominance(table) == ["no baseline runs in table"]

    @pytest.mark.parametrize("attr,value,problem", [
        ("avg_hop_count", 5.0, "mean avg_hop_count hyb !<= aodv at 50 nodes"),
        # strictly lower: a mean equal to aodv's is no win
        ("energy_consumed", 1.0,
         "mean energy_consumed hyb !< aodv at 50 nodes")])
    def test_mean_violation_reported(self, attr, value, problem):
        table = synthetic_table()
        for row in table.runs:
            if row.protocol == "hyb" and row.node_count == 50:
                setattr(row.report, attr, value)
        assert check_dominance(table) == [problem]

    def test_node_count_without_baseline_runs_skipped(self):
        # aodv has no run at 75 nodes: that cell is neither summarised
        # nor compared
        table = synthetic_table()
        table.runs = [r for r in table.runs
                      if r.protocol == "hyb" or r.node_count == 50]
        assert check_dominance(table) == []
        rows = summary_csv(table).splitlines()[1:]
        assert [tuple(r.split(",")[:2]) for r in rows[::7]] == [
            ("hyb", "50"), ("aodv", "50"), ("hyb", "75")]

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

    def test_collision_half_the_seeds_is_no_majority(self):
        # hyb has fewer collisions at 50 nodes in exactly one of two seeds
        table = ComparisonTable()
        for proto, scale in (("hyb", 1.0), ("aodv", 2.0)):
            for seed, collisions in ((1, 10), (2, 30)):
                table.runs.append(RunRow(proto, 50, seed, MetricsReport(
                    execution_time=10.0 * scale, avg_hop_count=1.0,
                    collisions=collisions if proto == "hyb" else 20,
                    signals=int(100 * scale), energy_consumed=0.5 * scale)))
        assert check_dominance(table) == [
            "collisions hyb not majority-below aodv at 50 nodes"]
