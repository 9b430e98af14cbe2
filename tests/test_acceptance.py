"""Acceptance suite: comparative trends, property checks and golden files.

One test per criterion, so `pytest -v` reports a single pass/fail line for
each. The headline sweep (25/50/75 nodes x three protocols x seeds 1-3 at
60 simulated seconds) is run once and shared across the trend criteria.
"""

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import pytest

from hybsim.engine import BS, Engine
from hybsim.metrics import (ComparisonTable, MetricsReport, RunRow, collect,
                            runs_csv)
from hybsim.scenario import Scenario
from hybsim.topology import (DIRECT, Location, LocationTable, RegionParams,
                             compute_neighbour_table, parse_location_file)

from helpers import write_points
from oracles import (brute_force_rows, record_charges, record_deliveries,
                     replay_energy_ledger)
from test_topology import SAMPLE_POINTS, SAMPLE_TEXT, region

NODE_COUNTS = (25, 50, 75)
PROTOCOLS = ("hyb", "aodv", "dsr")
SEEDS = (1, 2, 3)
SWEEP_SIM_TIME = 60.0
WALL_CLOCK_BUDGET = 10.0  # s per run

FRAME_KINDS = {"DATA", "RREQ", "RREP", "REPORT", "CONFIG"}


@dataclass
class SweepRun:
    protocol: str
    node_count: int
    seed: int
    engine: Engine
    report: MetricsReport
    wall: float  # s, set-up and run
    log: str
    charges: Dict[int, List[float]]  # node id -> every charge, in order
    deliveries: List[Tuple[str, List[int]]]  # (event id, path), in order


@pytest.fixture(scope="session")
def sweep() -> List[SweepRun]:
    runs = []
    for n in NODE_COUNTS:
        for protocol in PROTOCOLS:
            for seed in SEEDS:
                sc = Scenario(protocol=protocol, node_count=n, seed=seed,
                              sim_time=SWEEP_SIM_TIME)
                start = time.perf_counter()
                engine = Engine(sc)
                charges = record_charges(engine)
                deliveries = record_deliveries(engine)
                log = engine.run()
                wall = time.perf_counter() - start
                report = collect(log)
                report.energy_consumed = sum(
                    sc.initial_energy - battery.residual
                    for battery in engine.nodes.values())
                runs.append(SweepRun(protocol, n, seed, engine, report, wall,
                                     log, charges, deliveries))
    return runs


@pytest.fixture(scope="session")
def table(sweep) -> ComparisonTable:
    return ComparisonTable(runs=[
        RunRow(r.protocol, r.node_count, r.seed, r.report) for r in sweep])


def test_criterion_01_execution_time_trend(table, sweep):
    for n in NODE_COUNTS:
        hyb = table.mean("hyb", n, "execution_time")
        for baseline in ("aodv", "dsr"):
            assert hyb < table.mean(baseline, n, "execution_time"), \
                f"execution time: hyb not below {baseline} at {n} nodes"
    for r in sweep:
        assert r.wall < WALL_CLOCK_BUDGET, \
            f"{r.protocol}/{r.node_count}/{r.seed} took {r.wall:.1f}s"


def test_criterion_02_hop_count_trend_and_zero_hop_direct(table, tmp_path):
    for n in NODE_COUNTS:
        hyb = table.mean("hyb", n, "avg_hop_count")
        for baseline in ("aodv", "dsr"):
            assert hyb <= table.mean(baseline, n, "avg_hop_count"), \
                f"hop count: hyb not at most {baseline} at {n} nodes"
    # one node 300 m from the base station delivers everything directly
    sc = Scenario(placement=write_points(tmp_path, {0: (1000.0, 1300.0)}),
                  node_count=1, sim_time=60.0)
    report = collect(Engine(sc).run())
    assert report.delivered > 0
    assert report.avg_hop_count == 0.0


def test_criterion_03_collision_trend(table):
    for n in (50, 75):
        hyb = [r.collisions for r in table.cell("hyb", n)]
        for baseline in ("aodv", "dsr"):
            base = [r.collisions for r in table.cell(baseline, n)]
            wins = sum(1 for h, b in zip(hyb, base) if h < b)
            assert wins >= 2, \
                f"collisions: hyb beats {baseline} in only {wins}/3 seeds at {n}"


def test_criterion_04_signals_and_energy_trend(table):
    for n in NODE_COUNTS:
        for baseline in ("aodv", "dsr"):
            assert table.mean("hyb", n, "signals") < \
                table.mean(baseline, n, "signals"), \
                f"signals: hyb not below {baseline} at {n} nodes"
            assert table.mean("hyb", n, "energy_consumed") < \
                table.mean(baseline, n, "energy_consumed"), \
                f"energy: hyb not below {baseline} at {n} nodes"


def test_criterion_05_neighbour_table_oracle():
    import random
    rng = random.Random(0xACCE55)
    for trial in range(200):
        n = rng.randint(1, 50)
        side = rng.choice([400.0, 1000.0, 2000.0])
        pts = {i: (rng.uniform(0, side), rng.uniform(0, side))
               for i in range(n)}
        bs = (rng.uniform(0, side), rng.uniform(0, side))
        m = rng.choice([100.0, 250.0, 600.0])
        ext = rng.choice([None, 200.0])
        k = rng.choice([1, 2, 3, 4])
        rr = rng.choice([200.0, 350.0])
        locs = LocationTable(entries={i: Location(*p) for i, p in pts.items()},
                             base_station=Location(*bs))
        params = RegionParams(band_halfwidth_M=m, vertical_extent_N=ext,
                              max_neighbours_K=k, radio_range=rr)
        got = compute_neighbour_table(locs, params, set(pts)).rows
        assert got == brute_force_rows(pts, bs, m, ext, k, rr), \
            f"layout {trial} diverges from the brute-force oracle"


def test_criterion_06_loop_freedom(sweep):
    checked = 0
    for r in sweep:
        if r.protocol != "hyb":
            continue
        bs = r.engine.locs.base_station
        for event_id, path in r.deliveries:
            dists = [r.engine.locs.entries[v].dist(bs) for v in path]
            assert all(a > b for a, b in zip(dists, dists[1:])), \
                f"path for {event_id} not strictly closing on the sink: {path}"
            checked += 1
    assert checked > 0


def test_criterion_07_redundancy_suppression(tmp_path):
    # every node senses every one of the 480 events; duplicates must die
    # in the dedup buffer so each node transmits an event at most once
    points = {0: (600.0, 1000.0),
              1: (500.0, 800.0), 2: (700.0, 800.0),
              3: (500.0, 500.0), 4: (600.0, 500.0), 5: (700.0, 500.0),
              6: (500.0, 200.0), 7: (600.0, 200.0), 8: (700.0, 200.0)}
    sc = Scenario(placement=write_points(tmp_path, points), node_count=9,
                  topology_size=(1200.0, 1200.0), bs_location=(600.0, 1200.0),
                  sensing_radius=2000.0, sim_time=60.0)
    engine = Engine(sc)
    log = engine.run()
    assert engine.generated == 480 * 9
    forwards: Dict[Tuple[str, str], int] = {}
    for line in log.splitlines():
        _, kind, tx, _, event_id, _ = line.split()
        if kind == "DATA":
            forwards[(tx, event_id)] = forwards.get((tx, event_id), 0) + 1
    assert forwards, "no data traffic in the redundancy scenario"
    repeats = {k: v for k, v in forwards.items() if v > 1}
    assert not repeats, f"nodes forwarded an event twice: {repeats}"


def test_criterion_08_energy_properties(sweep, tmp_path):
    # (a) every node's charge ledger replays exactly to its residual
    for r in sweep:
        for node, battery in r.engine.nodes.items():
            replayed = replay_energy_ledger(r.engine.sc.initial_energy,
                                            r.charges[node])
            assert replayed == battery.residual, \
                f"{r.protocol}/{r.node_count}/{r.seed}: node {node} ledger drift"
    # (b) no frame was ever put on the air by an asleep transmitter
    for r in sweep:
        for line in r.log.splitlines():
            t, kind, tx, _, _, _ = line.split()
            if kind not in FRAME_KINDS or tx == "BS":
                continue
            death = r.engine.asleep.get(int(tx))
            assert death is None or float(t) <= death + 1e-9, \
                f"{r.protocol}: node {tx} transmitted after dying at {death}"
    # (c) a drained node disappears from every row at the next refresh
    sc = Scenario(node_count=12, seed=4)
    engine = Engine(sc)
    hyb = engine.protocol
    hyb.configure()
    victim = next(n for n, row in hyb.neighbour_table.rows.items()
                  if any(isinstance(other, tuple) and n in other
                         for other in hyb.neighbour_table.rows.values()))
    hyb.bs_known_residual[victim] = 0.0
    hyb._bs_refresh()
    assert victim not in hyb.neighbour_table.rows
    for row in hyb.neighbour_table.rows.values():
        assert isinstance(row, str) or victim not in row


def test_criterion_09_load_balance(tmp_path):
    sc = Scenario(node_count=20, sim_time=60.0, seed=11)
    engine = Engine(sc)
    engine.run()
    assert not engine.asleep, \
        "load-balance scenario must finish with no deaths"
    checked = 0
    for state in engine.protocol.states.values():
        if not state.use_count:
            continue
        counts = list(state.use_count.values())
        assert max(counts) - min(counts) <= 1, \
            f"node {state.id} spread {counts} exceeds 1"
        checked += 1
    assert checked > 0


def test_criterion_10_determinism(tmp_path):
    for protocol in PROTOCOLS:
        sc = Scenario(protocol=protocol, node_count=25, sim_time=10.0, seed=2)
        first = Engine(sc).run()
        second = Engine(sc).run()
        assert first == second, f"{protocol}: event logs differ between runs"
    rows = []
    for _ in range(2):
        table = ComparisonTable()
        for protocol in ("hyb", "aodv"):
            sc = Scenario(protocol=protocol, node_count=15, sim_time=5.0, seed=3)
            report = collect(Engine(sc).run())
            table.runs.append(RunRow(protocol, 15, 3, report))
        rows.append(runs_csv(table))
    assert rows[0] == rows[1], "CSV output differs between invocations"


def test_criterion_11_golden_files():
    locs = parse_location_file(SAMPLE_TEXT)
    assert {i: (p.x, p.y) for i, p in locs.entries.items()} == SAMPLE_POINTS
    locs.base_station = Location(60.0, 230.0)
    table = compute_neighbour_table(locs, region(band_halfwidth_M=100.0),
                                    set(locs.entries))
    direct = {n for n, row in table.rows.items() if row == DIRECT}
    assert direct == {0, 5}
