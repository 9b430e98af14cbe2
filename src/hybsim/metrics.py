"""Run reports, from the engine's counts or from an event log, and the
multi-protocol comparison.

The four headline metrics are execution time (simulated time of the last
terminal packet outcome), average hop count over delivered packets,
collisions, and signals transmitted (every data/discovery/report/config
frame). The engine counts them as it writes each record, and
``counted_report`` reads those counts; ``collect`` re-derives the same
report from the log text alone, and ``run_scenario`` holds the two against
each other. A comparison runs every (protocol, seed, node count)
combination of one base scenario from the counts and aggregates mean and
min-max spread per cell.
"""

import csv
import statistics
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import COLL, DROP_REASONS, Engine, FRAME_KINDS, TextBuffer
from .scenario import Scenario

# the runs.csv columns between the run's key (protocol, node count, seed) and
# its drop counts, one per reason in DROP_REASONS order: (column,
# MetricsReport field)
_REPORT_COLUMNS = (("execution_time_s", "execution_time"),
                   ("avg_hop_count", "avg_hop_count"),
                   ("collisions", "collisions"),
                   ("signals", "signals"),
                   ("generated", "generated"),
                   ("delivered", "delivered"))
_DROP_COLUMNS = [f"dropped_{reason.lower()}" for reason in DROP_REASONS]
BASELINES = ("aodv", "dsr")  # the protocols check_dominance holds hyb against
CSV_COLUMNS = ["protocol", "node_count", "seed",
               *(column for column, _ in _REPORT_COLUMNS), *_DROP_COLUMNS]


class MetricsError(ValueError):
    """Malformed event log or comparison input."""


@dataclass
class MetricsReport:
    execution_time: float = 0.0
    avg_hop_count: float = 0.0
    collisions: int = 0
    signals: int = 0
    generated: int = 0
    delivered: int = 0
    dropped: Dict[str, int] = field(default_factory=dict)
    unique_events_delivered: int = 0
    energy_consumed: float = 0.0

    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    def csv_values(self, protocol: str, node_count: int, seed: int) -> List[str]:
        return [protocol, str(node_count), str(seed),
                *(str(getattr(self, name)) for _, name in _REPORT_COLUMNS),
                *(str(self.dropped.get(reason, 0)) for reason in DROP_REASONS)]


_BLOCK = 1 << 16  # characters of log text split into lines at a time


def _lines(text: str):
    """Yield ``text.splitlines()`` one line at a time without building the
    whole list. Each block ends just after a newline, so no line break, not
    even a CR LF pair, straddles two blocks."""
    start, end = 0, len(text)
    while start < end:
        cut = text.find("\n", start + _BLOCK)
        stop = end if cut < 0 else cut + 1
        yield from text[start:stop].splitlines()
        start = stop


def collect(log_text: str) -> MetricsReport:
    """Tally a report from an event log; pure function of the text."""
    report = MetricsReport(dropped=dict.fromkeys(DROP_REASONS, 0))
    hops: List[int] = []
    events_delivered = set()
    last_terminal = 0.0
    for lineno, raw in enumerate(_lines(log_text), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise MetricsError(f"line {lineno}: expected 6 fields, got {raw!r}")
        t_str, kind, _tx, _rx, event_id, outcome = parts
        try:
            t = float(t_str)
        except ValueError as exc:
            raise MetricsError(f"line {lineno}: bad timestamp {t_str!r}") from exc
        if kind in FRAME_KINDS:
            report.signals += 1
            if outcome == "COLLISION":
                report.collisions += 1
        elif kind == COLL:
            report.collisions += 1
        elif kind == "DELIVER":
            if not outcome.startswith("hops="):
                raise MetricsError(f"line {lineno}: bad DELIVER outcome {outcome!r}")
            hops.append(int(outcome[5:]))
            events_delivered.add(event_id)
            report.delivered += 1
            last_terminal = max(last_terminal, t)
        elif kind == "DROP":
            if outcome not in report.dropped:
                raise MetricsError(f"line {lineno}: unknown drop reason {outcome!r}")
            report.dropped[outcome] += 1
            last_terminal = max(last_terminal, t)
        else:
            raise MetricsError(f"line {lineno}: unknown record kind {kind!r}")
    report.generated = report.delivered + report.dropped_total()
    report.execution_time = last_terminal
    report.avg_hop_count = statistics.fmean(hops) if hops else 0.0
    report.unique_events_delivered = len(events_delivered)
    return report


def counted_report(engine: Engine) -> MetricsReport:
    """The report of a finished run, from the counts its engine kept while
    writing the log: ``collect`` of that log gives every field but
    ``energy_consumed`` the same value."""
    tally, delivered = engine.tally, engine.delivered
    return MetricsReport(
        # rounded as the log writes it; rounding keeps order, so this is
        # the latest of the logged times
        execution_time=float(f"{tally.last_terminal:.6f}"),
        # the same float as statistics.fmean over the integer hops
        avg_hop_count=tally.hop_sum / delivered if delivered else 0.0,
        collisions=tally.collisions,
        signals=tally.signals,
        generated=engine.generated,
        delivered=delivered,
        dropped=dict(engine.dropped),
        unique_events_delivered=len(tally.delivered_ids),
        energy_consumed=sum(engine.sc.initial_energy - residual
                            for residual in engine.nodes.values()))


def run_scenario(scenario: Scenario) -> Tuple[MetricsReport, str]:
    """Execute one run and return its report plus the full event log. The
    report counted by the engine must equal the one ``collect`` parses from
    the log, field by field: MetricsError names every field that differs,
    in field order."""
    engine = Engine(scenario)
    log = engine.run()
    report, logged = counted_report(engine), collect(log)
    logged.energy_consumed = report.energy_consumed  # the log holds none
    differ = [f"{f.name}: log says {getattr(logged, f.name)}, engine "
              f"counted {getattr(report, f.name)}"
              for f in fields(MetricsReport)
              if getattr(logged, f.name) != getattr(report, f.name)]
    if differ:
        raise MetricsError("; ".join(differ))
    return report, log


@dataclass
class RunRow:
    protocol: str
    node_count: int
    seed: int
    report: MetricsReport


@dataclass
class ComparisonTable:
    runs: List[RunRow] = field(default_factory=list)

    def cell(self, protocol: str, node_count: int) -> List[MetricsReport]:
        return [r.report for r in self.runs
                if r.protocol == protocol and r.node_count == node_count]

    def node_counts(self) -> List[int]:
        return sorted({r.node_count for r in self.runs})

    def protocols(self) -> List[str]:
        return list(dict.fromkeys(r.protocol for r in self.runs))

    def mean(self, protocol: str, node_count: int, attr: str) -> float:
        return statistics.fmean(getattr(rep, attr)
                                for rep in self.cell(protocol, node_count))

    def spread(self, protocol: str, node_count: int, attr: str) -> Tuple[float, float]:
        vals = [getattr(rep, attr) for rep in self.cell(protocol, node_count)]
        return (min(vals), max(vals))


def _counted_run(scenario: Scenario) -> MetricsReport:
    # one run, reported from the engine's counts; its log is not parsed
    engine = Engine(scenario)
    engine.run()
    resolved = engine.delivered + sum(engine.dropped.values())
    if engine.generated != resolved:
        raise MetricsError(
            f"{scenario.protocol}/{scenario.node_count}/seed {scenario.seed}: "
            f"{engine.generated} packets generated, {resolved} resolved")
    return counted_report(engine)


def compare(scenario: Scenario, protocols: Sequence[str], seeds: Sequence[int],
            node_counts: Optional[Sequence[int]] = None) -> ComparisonTable:
    """Run every (protocol, node count, seed) combination of one scenario,
    each reported from its engine's counts. Every run's scenario is built,
    and so validated, before the first run; a run whose packets are not
    all delivered or dropped raises MetricsError."""
    counts = ([scenario.node_count] if node_counts is None
              else list(node_counts))
    if not protocols or not seeds or not counts:
        raise MetricsError("need at least one protocol, seed and node count")
    for axis in (protocols, seeds, counts):
        if len(set(axis)) < len(axis):
            raise MetricsError(f"repeated entry in {list(axis)}")
    runs = [replace(scenario, protocol=protocol, seed=seed, node_count=n)
            for n in counts for protocol in protocols for seed in seeds]
    return ComparisonTable([RunRow(sc.protocol, sc.node_count, sc.seed,
                                   _counted_run(sc)) for sc in runs])


def runs_csv(table: ComparisonTable) -> str:
    buf = TextBuffer()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in table.runs:
        writer.writerow(row.report.csv_values(row.protocol, row.node_count,
                                              row.seed))
    return buf.getvalue()


def summary_csv(table: ComparisonTable) -> str:
    """Per (protocol, node count) mean and min-max spread of each metric."""
    buf = TextBuffer()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["protocol", "node_count", "metric", "mean", "min", "max"])
    metrics = [name for _, name in _REPORT_COLUMNS] + ["energy_consumed"]
    for n in table.node_counts():
        for protocol in table.protocols():
            if not table.cell(protocol, n):
                continue
            for m in metrics:
                lo, hi = table.spread(protocol, n, m)
                writer.writerow([protocol, str(n), m,
                                 str(table.mean(protocol, n, m)),
                                 str(lo), str(hi)])
    return buf.getvalue()


def check_dominance(table: ComparisonTable) -> List[str]:
    """Check the comparative trends the hybrid protocol is expected to show.

    Returns a list of violation descriptions; empty means all trends held.
    Execution time and signals (and energy) must be strictly lower in the
    mean at every node count; mean hop count at most equal; collisions
    strictly lower for a majority of seeds at node counts of 50 and up.
    """
    problems = []
    if not any(r.protocol == "hyb" for r in table.runs):
        return ["no hyb runs in table"]
    if not any(r.protocol in BASELINES for r in table.runs):
        return ["no baseline runs in table"]
    for n in table.node_counts():
        for b in BASELINES:
            if not table.cell(b, n) or not table.cell("hyb", n):
                continue
            for attr in ("execution_time", "signals", "energy_consumed"):
                if not table.mean("hyb", n, attr) < table.mean(b, n, attr):
                    problems.append(f"mean {attr} hyb !< {b} at {n} nodes")
            if not table.mean("hyb", n, "avg_hop_count") <= table.mean(b, n, "avg_hop_count"):
                problems.append(f"mean avg_hop_count hyb !<= {b} at {n} nodes")
            if n >= 50:
                hyb_c = [r.collisions for r in table.cell("hyb", n)]
                base_c = [r.collisions for r in table.cell(b, n)]
                wins = sum(1 for h, o in zip(hyb_c, base_c) if h < o)
                if wins * 2 <= len(hyb_c):
                    problems.append(f"collisions hyb not majority-below {b} at {n} nodes")
    return problems
