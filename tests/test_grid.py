"""The spatial grid against brute force.

The grid only chooses which pairs are checked, so everything built with it
must equal an all-pairs scan with the same exact predicate: engine
reachability, sensor matching, neighbour tables and incremental refreshes.
Its pair sweep must hand over every two points within one cell width of
each other exactly once.
Placements are drawn to hit the edge cases: points exactly one radio range
apart or one ulp either side of it, points on cell edges, coincident
points, the base station in a corner, and zero or tiny radii.
"""

import math
import tempfile
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hybsim.engine import BS, Engine
from hybsim.radio import link_bounds, link_feasible
from hybsim.scenario import Scenario
from hybsim.topology import (Grid, Location, LocationTable, RegionParams,
                             compute_neighbour_table, refresh_table)

from helpers import write_points
from oracles import brute_force_rows

RANGES = (1.5, 100.0, 350.0)
FIELD = 800.0

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _edges(r):
    """Coordinates on multiples of r and one ulp either side of them."""
    out = []
    for k in range(int(FIELD // r) + 1 if r > 50 else 4):
        c = k * r
        out += [c, math.nextafter(c, math.inf)]
        if c > 0:
            out.append(math.nextafter(c, 0.0))
    return out


def coordinate(r):
    return st.one_of(st.floats(0.0, FIELD), st.sampled_from(_edges(r)))


@st.composite
def placements(draw, r, max_nodes=30):
    """A list of (x, y) node positions; some repeat an earlier one."""
    pts = []
    for _ in range(draw(st.integers(1, max_nodes))):
        if pts and draw(st.booleans()) and draw(st.booleans()):
            pts.append(draw(st.sampled_from(pts)))
        else:
            pts.append((draw(coordinate(r)), draw(coordinate(r))))
    return pts


def base_station(r):
    # the last two lie beyond the node field, so they set the grid's extent
    return st.one_of(st.sampled_from([(0.0, 0.0), (FIELD, FIELD), (0.0, FIELD),
                                      (FIELD + r, FIELD / 2),
                                      (100 * FIELD, 0.0)]),
                     st.tuples(coordinate(r), coordinate(r)))


def make_engine(points, bs, **kw):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_points(tmp, dict(enumerate(points)))
        return Engine(Scenario(placement=path, node_count=len(points),
                               bs_location=bs, **kw))


def hypot(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def members(eng, mask):
    """The endpoints an engine reachability mask holds, decoded through its
    bit order; a set bit that no endpoint owns fails the decode."""
    out = {x for x in eng._ids if mask & 1 << eng._index[x]}
    assert mask == sum(1 << eng._index[x] for x in out), (
        "bit owned by no endpoint")
    return out


def hears(eng, x):
    """Endpoint x's reach mask, built through the engine's accessor."""
    i = eng._index[x]
    mask = eng._mask(i)
    assert eng._hears[i] == mask
    return mask


def assert_reach_is_all_pairs(eng, pts, bs):
    """Every endpoint's mask, the base station's included, holds exactly
    the other endpoints link_feasible admits."""
    where = [*pts, bs]
    for a, x in enumerate(eng._ids):
        want = {eng._ids[b] for b, q in enumerate(where)
                if b != a and link_feasible(eng.radio, hypot(where[a], q))}
        assert members(eng, hears(eng, x)) == want, x


def boundary_ring(centre, dists, turns=16):
    """Points around ``centre`` at each of ``dists``, in ``turns`` directions;
    the four axis directions keep the distance exact."""
    cx, cy = centre
    out = []
    for k in range(turns):
        a = 2 * math.pi * k / turns
        c, s = math.cos(a), math.sin(a)
        if k % (turns // 4) == 0:  # cos and sin of a right angle, exactly
            c, s = round(c), round(s)
        out += [(cx + d * c, cy + d * s) for d in dists]
    return out


def link_edges(radio):
    """Distances where a reach test can go wrong: either side of inner,
    of the first distance link_feasible fails at, and of outer."""
    inner, outer = link_bounds(radio)
    fail = radio.radio_range
    while link_feasible(radio, fail):
        fail = math.nextafter(fail, math.inf)
    return [math.nextafter(inner, 0.0), inner, math.nextafter(inner, math.inf),
            math.nextafter(fail, 0.0), fail, math.nextafter(outer, 0.0),
            outer, math.nextafter(outer, math.inf)]


@st.composite
def engine_cases(draw):
    r = draw(st.sampled_from(RANGES))
    return (r, draw(placements(r)), draw(base_station(r)),
            draw(st.sampled_from([0.0, 1e-300, 0.5, r, 250.0, math.inf])))


class TestGrid:
    @SETTINGS
    @given(r=st.sampled_from(RANGES + (0.5, 0.0, 1e-300, math.inf)),
           data=st.data())
    def test_sweep_pairs_every_close_pair_once(self, r, data):
        # r = 0.5 and 1e-300 over an 800 m field hit the MAX_CELLS cap
        pts = data.draw(placements(max(r, 1.0) if r < math.inf else 350.0,
                                   max_nodes=40))
        locs = {i: Location(*p) for i, p in enumerate(pts)}
        grid = Grid(locs, r)
        seen, pairs = [], []
        for (a, xa, ya), later in grid.sweep():
            assert (xa, ya) == pts[a]
            seen.append(a)
            for b, xb, yb in later:
                assert (xb, yb) == pts[b]
                pairs.append(frozenset((a, b)))
        assert sorted(seen) == list(range(len(pts)))
        assert all(len(pair) == 2 for pair in pairs)
        assert len(pairs) == len(set(pairs))
        close = {frozenset((a, b)) for a in locs for b in locs
                 if a < b and locs[a].dist(locs[b]) <= r}
        assert close <= set(pairs)

    @SETTINGS
    @given(r=st.sampled_from(RANGES + (0.5, 0.0, 1e-300, math.inf)),
           share=st.sampled_from([1.0, 0.5, 1 / 3, 0.01, 2.5, math.inf]),
           gap=st.sampled_from([0.0, 1e-9, 0.01, 1.0]), data=st.data())
    def test_split_takes_whole_only_cells_within_inner(self, r, share, gap,
                                                        data):
        # inner = r and outer a little beyond it, as link_bounds gives, or
        # both equal, as sensing asks; share 0.01 over an 800 m field hits
        # the MAX_CELLS cap, and 2.5 and inf make cells wider than outer
        pts = data.draw(placements(max(r, 1.0) if r < math.inf else 350.0,
                                   max_nodes=40))
        outer = r * (1.0 + gap) if r else gap
        grid = Grid({i: Location(*p) for i, p in enumerate(pts)},
                    outer * share if outer else 0.0)
        queries = data.draw(st.lists(
            st.tuples(st.floats(0.0, 2 * FIELD), st.floats(0.0, 2 * FIELD)),
            max_size=5))
        for q in pts + queries + [(0.0, 0.0), (FIELD, 2 * FIELD)]:
            whole, edge = grid.split(q[0], q[1], r, outer)
            assert len(whole) + len(edge) == len(set(whole) | set(edge))
            for i in whole:
                assert hypot(pts[i], q) <= r
            near = {i for i, p in enumerate(pts) if hypot(p, q) <= outer}
            assert near <= set(whole) | set(edge)

    @staticmethod
    def _check_sweep(pts, r):
        grid = Grid({i: Location(*p) for i, p in pts.items()}, r)
        pairs = [frozenset((a, b)) for (a, _, _), later in grid.sweep()
                 for b, _, _ in later]
        assert len(pairs) == len(set(pairs))
        close = {frozenset((a, b)) for a in pts for b in pts
                 if a < b and hypot(pts[a], pts[b]) <= r}
        assert close <= set(pairs)
        return grid

    def test_sweep_at_cell_edges(self):
        # coordinates on the cell edges, one ulp either side, and one
        # radius before and after them; (0, 0) and (1000, 1000) fix the
        # grid's origin and span, so its cells are those of the probe
        r = 100.0
        size = Grid({0: Location(0.0, 0.0), 1: Location(1000.0, 1000.0)}, r).size
        coords = [0.0, 1000.0]
        for k in range(1, 4):
            edge = k * size
            coords += [math.nextafter(edge, 0.0), edge,
                       math.nextafter(edge, math.inf), edge - r, edge + r]
        pts = dict(enumerate((x, y) for x in coords for y in coords[:7]))
        assert self._check_sweep(pts, r).size == size

    def test_sweep_survives_rounding_of_cell_indices(self):
        # 1 and 2 are 0.3 apart, but (x - x0) / 0.3 rounds to 571.99... for
        # 1 and to 573.0 for 2: cells exactly 0.3 wide would put them two
        # cells apart and the sweep would miss the pair
        pts = {0: (60.608280301711616, 0.0), 1: (232.2082803017116, 0.0),
               2: (232.50828030171158, 0.0)}
        assert hypot(pts[1], pts[2]) <= 0.3
        self._check_sweep(pts, 0.3)

    def test_sweep_under_the_cell_cap(self):
        # a span a million radii wide: cells are capped, not r wide
        far = 1e8
        pts = {0: (0.0, 0.0), 1: (far, far), 2: (far, math.nextafter(far, 0.0)),
               3: (far - 100.0, far), 4: (50.0, 50.0), 5: (50.0, 50.0)}
        grid = self._check_sweep(pts, 100.0)
        assert grid.nx == Grid.MAX_CELLS + 1

    def test_empty_and_degenerate(self):
        def near(grid, x, y, r):
            whole, edge = grid.split(x, y, r, r)
            return sorted(whole + edge)
        assert near(Grid({}, 10.0), 1.0, 1.0, 5.0) == []
        one = Grid({7: Location(3.0, 3.0)}, 0.0)
        assert near(one, 3.0, 3.0, 0.0) == [7]
        far = Grid({1: Location(0.0, 0.0), 2: Location(1e300, 1e300)}, 1e-300)
        assert near(far, 0.0, 0.0, 0.0) == [1]
        assert near(far, 0.0, 0.0, math.inf) == [1, 2]
        assert list(Grid({}, 10.0).sweep()) == []
        assert list(one.sweep()) == [((7, 3.0, 3.0), [])]


class TestEngineReachability:
    @SETTINGS
    @given(case=engine_cases())
    def test_matches_all_pairs_link_feasible(self, case):
        r, pts, bs, sensing = case
        eng = make_engine(pts, bs, radio_range=r, sensing_radius=sensing)
        radio = eng.radio
        ids = range(len(pts))
        assert eng._ids == [*ids, BS]
        for x in eng._ids:
            assert eng._index[x] == eng._ids.index(x)
        reach_bs = {a for a in ids if link_feasible(radio, hypot(pts[a], bs))}
        for a in ids:
            want = {b for b in ids
                    if b != a and link_feasible(radio, hypot(pts[a], pts[b]))}
            assert members(eng, hears(eng, a)) == (
                want | {BS} if a in reach_bs else want)
        assert members(eng, hears(eng, BS)) == reach_bs
        for where in pts + [bs]:
            want = [n for n in ids if hypot(pts[n], where) <= sensing]
            assert eng.sensors(Location(*where)) == want

    def test_pair_between_the_bounds_that_fails_the_link_is_not_linked(self):
        # between inner and outer only link_feasible decides; a pair a few
        # ulps past the radio range, where it fails, hears nothing
        radio = Scenario().radio_params()
        inner, outer = link_bounds(radio)
        d = radio.radio_range
        while link_feasible(radio, d):
            d = math.nextafter(d, math.inf)
        assert inner < d < outer
        eng = make_engine([(0.0, 0.0), (d, 0.0)], (5000.0, 5000.0))
        assert members(eng, hears(eng, 0)) == set()
        assert members(eng, hears(eng, 1)) == set()

    def test_boundary_pairs_across_cell_edges(self):
        # a sender at sixteen offsets within one radio range, each with
        # partners at every edge distance and at the sensing radius and one
        # ulp either side of it; the two corners fix the grids' origin and
        # span, so the offsets cross the cell edges of any cell width up
        # to the radio range, and those of the sensing grid
        sc = Scenario()
        radio, s = sc.radio_params(), sc.sensing_radius
        r, edges = radio.radio_range, link_edges(radio)
        edges += [math.nextafter(s, 0.0), s, math.nextafter(s, math.inf)]
        for k in range(16):
            centre = (1000.0 + r * k / 16, 1000.0 + r * (k * 7 % 16) / 16)
            pts = [(0.0, 0.0), (1999.0, 1999.0), centre,
                   *boundary_ring(centre, edges)]
            eng = make_engine(pts, centre)
            assert_reach_is_all_pairs(eng, pts, centre)
            want = [n for n, p in enumerate(pts) if hypot(p, centre) <= s]
            assert eng.sensors(Location(*centre)) == want

    def test_whole_cells_end_before_the_link_edge(self):
        # a partner on the corner of its cell that is farthest from the
        # sender, a first float past the link edge away: the cell lies
        # almost wholly within range, yet it must go to the exact test.
        # The two corner points fix the grid, so a probe gives its cells.
        radio = Scenario().radio_params()
        span, bs = [(0.0, 0.0), (1999.0, 1999.0)], (0.0, 0.0)
        size = make_engine(span, bs)._reach.grid.size
        step = radio.radio_range / math.sqrt(2)
        for k in (3, 4, 5):
            corner = k * size
            while int(corner / size) < k:
                corner = math.nextafter(corner, math.inf)
            partner = (corner, corner)
            sender = [corner + step, corner + step]
            while link_feasible(radio, hypot(sender, partner)):
                sender[0] = math.nextafter(sender[0], math.inf)
            pts = [*span, partner, tuple(sender)]
            eng = make_engine(pts, bs)
            assert eng._reach.grid.size == size
            assert_reach_is_all_pairs(eng, pts, bs)
            assert 2 not in members(eng, hears(eng, 3))

    def test_short_range_on_a_wide_field(self):
        # 1.5 m links on a 1e6 m field: the cell cap makes every cell far
        # wider than a link, and coordinates near 1e6 round to 1.2e-10 m
        radio = replace(Scenario().radio_params(), radio_range=1.5)
        edges = link_edges(radio)
        pts = [(0.0, 0.0), (1e6, 1e6)]
        for centre in ((5e5, 5e5), (999_998.0, 3.0), (2.0, 2.0)):
            pts += [centre, *boundary_ring(centre, edges, turns=8)]
        bs = (math.nextafter(5e5 + 1.5, math.inf), 5e5)
        eng = make_engine(pts, bs, radio_range=1.5,
                          topology_size=(1e6, 1e6))
        assert_reach_is_all_pairs(eng, pts, bs)

    def test_link_bounds_bracket_the_edge(self):
        # the last calibration rounds the power comparison down at its
        # range, so the inner bound moves inwards
        radio = Scenario().radio_params()
        rounds_down = replace(radio, path_loss_exponent=4.69,
                              reception_threshold=-48.4, radio_range=646.0)
        for params in (radio, replace(radio, radio_range=1.5),
                       replace(radio, radio_range=123.456,
                               path_loss_exponent=3.7,
                               reception_threshold=-91.3),
                       replace(radio, reception_threshold=1e12), rounds_down):
            inner, outer = link_bounds(params)
            assert inner <= params.radio_range <= outer
            assert link_feasible(params, inner)
            assert not link_feasible(params, outer)
        assert link_bounds(rounds_down)[0] < rounds_down.radio_range


@st.composite
def table_cases(draw):
    r = draw(st.sampled_from(RANGES))
    pts = draw(placements(r, max_nodes=40))
    params = RegionParams(
        band_halfwidth_M=draw(st.sampled_from([r / 2, r, 250.0, 1e-3])),
        vertical_extent_N=draw(st.sampled_from([None, r / 3, r, 400.0])),
        max_neighbours_K=draw(st.integers(1, 4)),
        radio_range=r)
    return r, pts, draw(base_station(r)), params


def _locs(pts, bs):
    return LocationTable(entries={i: Location(*p) for i, p in enumerate(pts)},
                         base_station=Location(*bs))


class TestNeighbourTable:
    @SETTINGS
    @given(case=table_cases())
    def test_matches_brute_force(self, case):
        r, pts, bs, params = case
        got = compute_neighbour_table(_locs(pts, bs), params, set(range(len(pts))))
        want = brute_force_rows(dict(enumerate(pts)), bs, params.band_halfwidth_M,
                                params.vertical_extent_N,
                                params.max_neighbours_K, r)
        assert got.rows == want

    @SETTINGS
    @given(case=table_cases(), data=st.data())
    def test_rows_hold_exactly_the_eligible_nodes(self, case, data):
        # with K above the node count a row is every node the rules admit
        r, pts, bs, params = case
        params = replace(params, max_neighbours_K=len(pts))
        locs = _locs(pts, bs)
        alive = data.draw(st.sets(st.sampled_from(range(len(pts))), min_size=1))
        rows = compute_neighbour_table(locs, params, alive).rows
        assert rows == brute_force_rows(
            dict(enumerate(pts)), bs, params.band_halfwidth_M,
            params.vertical_extent_N, len(pts), r, alive)

    def test_band_extent_and_range_bounds_are_inclusive(self):
        # 1 is exactly N above 0 and R away; 2 is exactly M across and R away
        pts = [(0.0, 0.0), (0.0, 300.0), (180.0, 240.0)]
        params = RegionParams(band_halfwidth_M=180.0, vertical_extent_N=300.0,
                              max_neighbours_K=3, radio_range=300.0)
        locs = _locs(pts, (0.0, 1000.0))
        alive = {0, 1, 2}
        assert brute_force_rows(dict(enumerate(pts)), (0.0, 1000.0), 180.0,
                                300.0, 3, 300.0)[0] == (1, 2)
        assert compute_neighbour_table(locs, params, alive).rows[0] == (1, 2)

    @SETTINGS
    @given(case=table_cases(), data=st.data())
    def test_incremental_refresh_matches_rebuild(self, case, data):
        r, pts, bs, params = case
        locs = _locs(pts, bs)
        ids = set(range(len(pts)))
        table = compute_neighbour_table(locs, params, ids)
        before = dict(table.rows)
        for _ in range(3):
            dead = data.draw(st.sets(st.sampled_from(sorted(ids))))
            new = refresh_table(table, locs, params, dead)
            assert table.rows == before  # the input is never modified
            alive = set(table.rows) - dead
            assert new.rows == compute_neighbour_table(locs, params, alive).rows
            assert new.rows == brute_force_rows(
                dict(enumerate(pts)), bs, params.band_halfwidth_M,
                params.vertical_extent_N, params.max_neighbours_K, r, alive)
            table, before = new, dict(new.rows)
