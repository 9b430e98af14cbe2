"""Location/neighbour table unit tests, checked against a brute-force oracle."""

import math
import random

from dataclasses import replace

import pytest

from hybsim.scenario import Scenario
from hybsim.topology import (DIRECT, ISOLATED, Location, LocationTable,
                             NeighbourTable, RegionParams, TopologyError,
                             compute_neighbour_table,
                             emit_location_file, emit_neighbour_table,
                             parse_location_file, refresh_table)

from oracles import brute_force_rows

# the six-node sample layout used throughout the documentation
SAMPLE_POINTS = {0: (58.0, 258.0), 1: (160.0, 275.0), 2: (163.0, 192.0),
                 3: (216.0, 202.0), 4: (205.0, 166.0), 5: (167.0, 227.0)}
SAMPLE_TEXT = "".join(f"{i} , {x:g} , {y:g}\n"
                      for i, (x, y) in SAMPLE_POINTS.items())


def region(**knobs):
    """The scenario's region parameters, with ``knobs`` overriding its keys."""
    return Scenario(**knobs).region_params()


def sample_table(bs=(60.0, 230.0)):
    locs = parse_location_file(SAMPLE_TEXT)
    locs.base_station = Location(*bs)
    return locs


class TestLocation:
    def test_dist(self):
        assert Location(0, 0).dist(Location(3, 4)) == 5.0

    def test_negative_coordinates_rejected(self):
        with pytest.raises(TopologyError):
            Location(-1.0, 5.0)


def members(locs, params, alive, u):
    """u's row built with K above the node count: every node u may list."""
    wide = replace(params, max_neighbours_K=len(locs.entries))
    row = compute_neighbour_table(locs, wide, alive).rows[u]
    return () if row in (DIRECT, ISOLATED) else row


class TestEligibility:
    def test_band_and_progress(self):
        locs = sample_table()
        params = region(band_halfwidth_M=100.0)
        alive = set(locs.entries)
        # 5 is inside 2's band and strictly closer to the base station
        assert 5 in members(locs, params, alive, 2)
        # 3 is 53 m right of 2 but farther from the base station
        assert 3 not in members(locs, params, alive, 2)
        # nothing is its own neighbour
        assert 2 not in members(locs, params, alive, 2)

    def test_band_halfwidth_cut(self):
        locs = sample_table()
        alive = set(locs.entries)
        wide = region(band_halfwidth_M=200.0)
        narrow = region(band_halfwidth_M=100.0)
        # |dx| between 3 and 0 is 158: inside the wide band, outside narrow
        assert 0 in members(locs, wide, alive, 3)
        assert 0 not in members(locs, narrow, alive, 3)

    def test_vertical_extent_cut(self):
        locs = sample_table()
        alive = set(locs.entries)
        bounded = region(band_halfwidth_M=100.0, vertical_extent_N=30.0)
        # |dy| between 2 and 5 is 35, above the 30 m extent
        assert 5 not in members(locs, bounded, alive, 2)

    def test_dead_nodes_excluded(self):
        locs = sample_table()
        params = region(band_halfwidth_M=100.0)
        assert 5 not in members(locs, params, {2}, 2)

    def test_radio_range_cut(self):
        locs = LocationTable(entries={0: Location(0, 0), 1: Location(300, 0)},
                             base_station=Location(600, 0))
        params = region(band_halfwidth_M=500.0, radio_range=250.0)
        assert 1 not in members(locs, params, {0, 1}, 0)


class TestComputeTable:
    def test_sample_layout_golden(self):
        table = compute_neighbour_table(sample_table(),
                                        region(band_halfwidth_M=100.0),
                                        {0, 1, 2, 3, 4, 5})
        assert table.rows == {0: DIRECT, 1: (5,), 2: (5, 1), 3: (5, 1, 2),
                              4: (5, 1, 2), 5: DIRECT}

    def test_rows_ordered_by_distance_to_bs(self):
        table = compute_neighbour_table(sample_table(),
                                        region(band_halfwidth_M=100.0),
                                        {0, 1, 2, 3, 4, 5})
        locs = sample_table()
        bs = locs.base_station
        for row in table.rows.values():
            if isinstance(row, str):
                continue
            dists = [locs.entries[v].dist(bs) for v in row]
            assert dists == sorted(dists)

    def test_isolated_marker(self):
        locs = LocationTable(entries={0: Location(1900.0, 1900.0)},
                             base_station=Location(0.0, 0.0))
        table = compute_neighbour_table(locs, region(), {0})
        assert table.rows[0] == ISOLATED

    def test_k_caps_row_length(self):
        table = compute_neighbour_table(sample_table(),
                                        region(band_halfwidth_M=100.0,
                                               max_neighbours_K=1),
                                        {0, 1, 2, 3, 4, 5})
        assert table.rows[3] == (5,)

    def test_unknown_alive_id_rejected(self):
        with pytest.raises(TopologyError):
            compute_neighbour_table(sample_table(), region(), {0, 99})

    def test_empty_table_rejected(self):
        with pytest.raises(TopologyError):
            compute_neighbour_table(LocationTable(), region(), set())

    def test_against_brute_force_oracle(self):
        rng = random.Random(20250823)
        for trial in range(40):
            n = rng.randint(1, 40)
            pts = {i: (rng.uniform(0, 800), rng.uniform(0, 800))
                   for i in range(n)}
            bs = (rng.uniform(0, 800), rng.uniform(0, 800))
            m = rng.choice([80.0, 250.0, 500.0])
            nn = rng.choice([None, 120.0, 400.0])
            k = rng.choice([1, 2, 3, 5])
            rr = rng.choice([150.0, 350.0])
            locs = LocationTable(
                entries={i: Location(*p) for i, p in pts.items()},
                base_station=Location(*bs))
            params = RegionParams(band_halfwidth_M=m, vertical_extent_N=nn,
                                  max_neighbours_K=k, radio_range=rr)
            got = compute_neighbour_table(locs, params, set(pts)).rows
            want = brute_force_rows(pts, bs, m, nn, k, rr)
            assert got == want, f"trial {trial} mismatch"


class TestRefresh:
    def test_dead_node_leaves_all_rows(self):
        params = region(band_halfwidth_M=100.0)
        table = compute_neighbour_table(sample_table(), params,
                                        {0, 1, 2, 3, 4, 5})
        refreshed = refresh_table(table, sample_table(), params, {5})
        assert 5 not in refreshed.rows
        for row in refreshed.rows.values():
            assert isinstance(row, str) or 5 not in row

    def test_refresh_matches_oracle(self):
        params = region(band_halfwidth_M=100.0)
        table = compute_neighbour_table(sample_table(), params,
                                        {0, 1, 2, 3, 4, 5})
        refreshed = refresh_table(table, sample_table(), params, {5})
        want = brute_force_rows(SAMPLE_POINTS, (60.0, 230.0), 100.0, None, 3,
                                350.0, alive={0, 1, 2, 3, 4})
        assert refreshed.rows == want

    def test_no_dead_row_returns_the_input_table(self):
        # 5 is placed but holds no row, so no row changes
        params = region(band_halfwidth_M=100.0)
        table = compute_neighbour_table(sample_table(), params, {0, 1, 2, 3, 4})
        rows = dict(table.rows)
        for dead in (set(), {5}):
            assert refresh_table(table, sample_table(), params, dead) is table
        assert table.rows == rows

    def test_unknown_dead_id_rejected(self):
        params = region(band_halfwidth_M=100.0)
        table = compute_neighbour_table(sample_table(), params, {0, 1})
        with pytest.raises(TopologyError):
            refresh_table(table, sample_table(), params, {42})


class TestLocationFile:
    def test_parse_sample(self):
        locs = parse_location_file(SAMPLE_TEXT)
        assert len(locs.entries) == 6
        assert locs.entries[0] == Location(58.0, 258.0)
        assert locs.entries[4] == Location(205.0, 166.0)

    def test_round_trip(self):
        locs = parse_location_file(SAMPLE_TEXT)
        assert parse_location_file(emit_location_file(locs)).entries == locs.entries

    def test_round_trip_keeps_fractional_coordinates_exactly(self):
        # 7 significant digits and more, and a value one ulp above 100
        locs = LocationTable(entries={
            0: Location(123.4567891, 0.1 + 0.2),
            1: Location(math.nextafter(100.0, math.inf), 999.9999999999)})
        assert parse_location_file(emit_location_file(locs)).entries == locs.entries

    def test_blank_lines_skipped(self):
        locs = parse_location_file("\n0 , 1 , 2\n\n1 , 3 , 4\n")
        assert set(locs.entries) == {0, 1}

    @pytest.mark.parametrize("bad,fragment", [
        ("0 , 1\n", "line 1"),
        ("0 , 1 , 2\nx , 3 , 4\n", "line 2"),
        ("0 , 1 , 2\n0 , 3 , 4\n", "duplicate id 0"),
        ("-1 , 3 , 4\n", "negative node id"),
        ("0 , -3 , 4\n", "negative coordinate"),
        ("0 , inf , 4\n", "non-finite coordinate"),
        ("0 , 3 , nan\n", "non-finite coordinate"),
    ])
    def test_parse_errors(self, bad, fragment):
        with pytest.raises(TopologyError, match=fragment):
            parse_location_file(bad)


def parse_neighbour_table(text: str) -> NeighbourTable:
    """Inverse of emit_neighbour_table."""
    table = NeighbourTable()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) < 2:
            raise TopologyError(f"line {lineno}: too few columns in {raw!r}")
        try:
            node = int(cols[0])
        except ValueError as exc:
            raise TopologyError(f"line {lineno}: bad node id in {raw!r}") from exc
        if node in table.rows:
            raise TopologyError(f"line {lineno}: duplicate row for {node}")
        markers = cols[1:]
        if all(m == "-" for m in markers):
            table.rows[node] = ISOLATED
        elif all(m == "0" for m in markers):
            table.rows[node] = DIRECT
        else:
            neigh = []
            for m in markers:
                if m == "-":
                    break
                try:
                    neigh.append(int(m))
                except ValueError as exc:
                    raise TopologyError(
                        f"line {lineno}: bad neighbour id {m!r}") from exc
            table.rows[node] = tuple(neigh)
    return table


class TestNeighbourTableText:
    def test_emit_markers(self):
        table = NeighbourTable(rows={0: DIRECT, 1: (5,), 2: ISOLATED})
        text = emit_neighbour_table(table, 3)
        assert text.splitlines() == ["0\t0\t0\t0", "1\t5\t-\t-", "2\t-\t-\t-"]

    def test_round_trip(self):
        table = NeighbourTable(rows={0: DIRECT, 1: (5,), 2: (5, 1),
                                     3: (5, 1, 2), 4: ISOLATED})
        text = emit_neighbour_table(table, 3)
        assert parse_neighbour_table(text).rows == table.rows

    def test_parse_errors(self):
        with pytest.raises(TopologyError, match="line 1"):
            parse_neighbour_table("0\n")
        with pytest.raises(TopologyError, match="duplicate row"):
            parse_neighbour_table("0\t1\t-\t-\n0\t2\t-\t-\n")


class TestRegionParams:
    def test_invalid(self):
        with pytest.raises(TopologyError):
            replace(region(), band_halfwidth_M=0.0)
        with pytest.raises(TopologyError):
            replace(region(), max_neighbours_K=0)
        with pytest.raises(TopologyError):
            replace(region(), vertical_extent_N=0.0)
        for bad in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(TopologyError, match="radio_range"):
                replace(region(), radio_range=bad)

    def test_no_defaults(self):
        # Scenario owns every default; RegionParams is built from its fields
        with pytest.raises(TypeError):
            RegionParams()
