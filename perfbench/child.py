"""One run of one workload, in a process of its own.

    python3 perfbench/child.py WORKLOAD_JSON SCENARIO_SEED TRACE RUN_ID [SPANS_OUT]

Runs ``hybsim.metrics.compare`` for the workload at one scenario seed, then
``runs_csv`` and ``summary_csv``, and prints one JSON object: host times,
record counts, the SHA-256 of the event logs in run order, the paper's four
simulated metrics per (protocol, node count), peak RSS and every problem the
run's own checks found. With TRACE 1 the run is traced and the object also
holds the per-layer metrics; the spans go to SPANS_OUT.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hybsim import Engine, Scenario, metrics  # noqa: E402

from tracer import Patches, Tracer  # noqa: E402
from spec import Workload  # noqa: E402


class Boundary:
    """Times ``Engine.__init__`` and ``Engine.run`` and keeps what the checks
    need from each engine; its own bookkeeping time is kept apart so that it
    can be taken out of the run's wall time."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.setup_s = 0.0
        self.run_s = 0.0
        self.bookkeeping_s = 0.0
        self.records = 0
        self.log_sha256 = hashlib.sha256()
        self.counters = []

    def install(self, patches: Patches) -> None:
        init, run = vars(Engine)["__init__"], vars(Engine)["run"]
        clock = time.perf_counter

        def timed_init(eng, scenario):
            t0 = clock()
            init(eng, scenario)
            self.setup_s += clock() - t0

        def timed_run(eng):
            t0 = clock()
            log = run(eng)
            t1 = clock()
            self.run_s += t1 - t0
            self.records += log.count("\n")
            self.log_sha256.update(log.encode())
            self.counters.append((eng.generated, eng.delivered,
                                  dict(eng.dropped)))
            if self.tracer is not None:
                self.tracer.count_frames(log)
            self.bookkeeping_s += clock() - t1
            return log

        patches.set(Engine, "__init__", timed_init)
        patches.set(Engine, "run", timed_run)


def check(table, counters) -> list:
    """Problems in a finished comparison: collect() against the engines'
    counters, and packet conservation."""
    problems = []
    if len(table.runs) != len(counters):
        return [f"{len(table.runs)} reports for {len(counters)} engines"]
    for row, (generated, delivered, dropped) in zip(table.runs, counters):
        where = f"{row.protocol}/{row.node_count}/seed {row.seed}"
        rep = row.report
        if (rep.generated, rep.delivered, rep.dropped) != (generated, delivered, dropped):
            problems.append(f"{where}: collect() disagrees with the engine counters")
        if generated != delivered + sum(dropped.values()):
            problems.append(f"{where}: packets not conserved")
    return problems


def execute(workload: Workload, seed: int, traced: bool = False,
            run_id: int = 0, spans_out: str = "") -> dict:
    """Run the workload once at scenario seed ``seed`` and report on it."""
    patches = Patches()
    tracer = Tracer(run_id) if traced else None
    if tracer is not None:
        tracer.install(patches)
    boundary = Boundary(tracer)
    boundary.install(patches)
    base = Scenario(sim_time=workload.sim_time, seed=seed)
    compare = metrics.compare
    if tracer is not None:
        compare = tracer.span("run", compare)
    out = {"seed": seed, "problems": []}
    try:
        t0 = time.perf_counter()
        table = compare(base, workload.protocols, [seed], workload.node_counts)
        csv_text = metrics.runs_csv(table) + metrics.summary_csv(table)
        wall = time.perf_counter() - t0 - boundary.bookkeeping_s
    except Exception:  # a raising run is a failed run, reported as such
        out["problems"].append("raised: " + traceback.format_exc())
        return out
    finally:
        patches.undo()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["problems"] += check(table, boundary.counters)
    out.update(
        wall_s=wall, setup_s=boundary.setup_s, run_s=boundary.run_s,
        records=boundary.records,
        log_sha256=boundary.log_sha256.hexdigest(),
        csv_sha256=hashlib.sha256(csv_text.encode()).hexdigest(),
        paper={f"{r.protocol}/{r.node_count}": [
            r.report.execution_time, r.report.avg_hop_count,
            r.report.collisions, r.report.signals] for r in table.runs})
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if spans_out:
            tracer.write(spans_out)
    return out


def main(argv) -> int:
    workload = Workload.from_json(json.loads(argv[0]))
    spans_out = argv[4] if len(argv) > 4 else ""
    result = execute(workload, int(argv[1]), argv[2] == "1", int(argv[3]),
                     spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
