"""Base-station location and neighbourhood tables.

The base station keeps a location table (node id -> coordinates) and
computes, for every node, an ordered list of candidate forwarders: nodes
inside the vertical band around it that are strictly closer to the base
station and physically reachable. Rows are capped at K entries; nodes that
can reach the base station directly and have no such candidate carry a
direct-to-sink marker, unreachable nodes an ISOLATED marker.

Lookups by distance go through a uniform bucket grid. It only chooses
which pairs are checked; the exact predicates decide, so every table is the
one an all-pairs scan would build.
"""

import heapq
import math
from dataclasses import dataclass, field
from typing import (Dict, Iterator, List, Mapping, Optional, Set, Tuple,
                    Union)

DIRECT = "DIRECT"      # row marker: node delivers straight to the sink
ISOLATED = "ISOLATED"  # row marker: node has no route at all

Row = Union[str, Tuple[int, ...]]


class TopologyError(ValueError):
    """Configuration or parse failure in topology inputs."""


@dataclass(frozen=True)
class Location:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise TopologyError("non-finite coordinate")
        if self.x < 0 or self.y < 0:
            raise TopologyError("negative coordinate")

    def dist(self, other: "Location") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass
class LocationTable:
    entries: Dict[int, Location] = field(default_factory=dict)
    base_station: Location = Location(0.0, 0.0)


@dataclass(frozen=True)
class RegionParams:
    """Band geometry and row width for neighbour eligibility.

    band_halfwidth_M bounds |dx|, vertical_extent_N bounds |dy| (None means
    unbounded), max_neighbours_K caps row length, radio_range bounds the
    node-to-neighbour link distance.
    """

    band_halfwidth_M: float             # m
    vertical_extent_N: Optional[float]  # m
    max_neighbours_K: int
    radio_range: float                  # m

    def __post_init__(self):
        if not 0 < self.band_halfwidth_M < math.inf:  # NaN too
            raise TopologyError("band_halfwidth_M must be positive and finite")
        if self.max_neighbours_K < 1:
            raise TopologyError("max_neighbours_K must be >= 1")
        if (self.vertical_extent_N is not None
                and not 0 < self.vertical_extent_N < math.inf):
            # None, not inf, stands for an unbounded extent
            raise TopologyError(
                "vertical_extent_N must be positive and finite, or unbounded")
        if not 0 < self.radio_range < math.inf:  # NaN too
            raise TopologyError("radio_range must be positive and finite")


@dataclass
class NeighbourTable:
    rows: Dict[int, Row] = field(default_factory=dict)


Point = Tuple[int, float, float]  # (id, x, y)


class Grid:
    """Uniform bucket grid over point locations, for lookups by distance.

    A grid is built with cells at least ``cell`` wide, so ``sweep()`` pairs
    every two points within ``cell`` of each other exactly once.
    ``split(x, y, inner, outer)`` sorts the cells near (x, y) into those
    wholly within ``inner``, whose points need no test, and those that may
    hold a point at most ``outer`` away, whose points callers apply their
    exact predicate to; with ``outer <= cell`` it visits at most 4 x 4
    cells. Zero and infinite radii are answered correctly.
    """

    MAX_CELLS = 1024  # per axis; caps the cell count for tiny radii
    PAD = 1e-9        # cell units; see split
    # half of the eight neighbour cells; the other half pair from their side
    FORWARD = ((1, -1), (1, 0), (1, 1), (0, 1))

    def __init__(self, points: Mapping[int, Location], cell: float):
        xs = [p.x for p in points.values()] or [0.0]
        ys = [p.y for p in points.values()] or [0.0]
        self.x0, self.y0 = min(xs), min(ys)
        span = max(max(xs) - self.x0, max(ys) - self.y0)
        # the pad keeps two points one cell apart, whose cell indices round
        # independently, from landing two cells apart
        size = max(cell * (1.0 + 1e-9), span / self.MAX_CELLS)
        if not 0.0 < size < math.inf:
            size = max(span, 1.0)
        self.size = size
        self.nx = int((max(xs) - self.x0) / size) + 1
        self.ny = int((max(ys) - self.y0) / size) + 1
        self.points = points
        self.cells: Dict[Tuple[int, int], List[int]] = {}
        for i, p in points.items():
            key = (int((p.x - self.x0) / size), int((p.y - self.y0) / size))
            self.cells.setdefault(key, []).append(i)

    def split(self, x: float, y: float, inner: float,
              outer: float) -> Tuple[List[int], List[int]]:
        """The points near (x, y), sorted by their cells: ``(whole, edge)``.

        ``whole`` holds the points of every cell that lies wholly within
        ``inner`` of (x, y), so each of them is at most ``inner`` from it by
        ``Location.dist``. ``edge`` holds the points of every other cell
        that may hold a point at most ``outer`` from it; callers apply their
        exact predicate to those. The cells left over hold no point within
        ``outer``.
        """
        # In cell units a point lies in its cell to within a few ulps of
        # the cell count (at most MAX_CELLS + 1 per axis), far less than
        # the 1e-9 cell PAD, and every cell bound is moved by PAD the safe
        # way; the relative 1e-9 on the radii covers math.hypot's rounding.
        # Rounding can thus only send a cell to edge.
        size, get = self.size, self.cells.get
        within = inner / size * (1.0 - 1e-9)
        reach = outer / size * (1.0 + 1e-9)
        cols = self._bounds((x - self.x0) / size, reach, self.nx)
        rows = self._bounds((y - self.y0) / size, reach, self.ny)
        within, reach = within * within, reach * reach
        whole: List[int] = []
        edge: List[int] = []
        for i, far_x, near_x in cols:
            for j, far_y, near_y in rows:
                if far_x + far_y <= within:
                    whole += get((i, j), ())
                elif near_x + near_y <= reach:
                    edge += get((i, j), ())
        return whole, edge

    @classmethod
    def _bounds(cls, u: float, reach: float,
                n: int) -> List[Tuple[int, float, float]]:
        # (k, far², near²) for every cell index k on one axis within reach
        # of u, all in cell units: the squared distances from u to the far
        # and the near bound of cell k, padded outwards and inwards
        lo, hi = u - reach, u + reach
        if hi < 0 or lo >= n:
            return []
        pad, out = cls.PAD, []
        for k in range(int(lo) if lo > 0 else 0, int(hi) + 1 if hi < n else n):
            below, above = u - k, k + 1 - u
            far = max(below, above) + pad
            near = max(-below, -above, pad) - pad
            out.append((k, far * far, near * near))
        return out

    def sweep(self) -> Iterator[Tuple[Point, List[Point]]]:
        """Every point with the points it is paired with, each pair once.

        Yields ``(p, later)`` where ``later`` holds the points after ``p`` in
        its own cell and every point in the FORWARD neighbour cells. Every
        unordered pair of points whose ``Location.dist`` is at most the
        ``cell`` the grid was built with appears exactly once, among other
        pairs; callers apply their exact predicate.
        """
        points = self.points
        cells = {key: [(i, points[i].x, points[i].y) for i in ids]
                 for key, ids in self.cells.items()}
        for (i, j), here in cells.items():
            ahead: List[Point] = []
            for di, dj in self.FORWARD:
                ahead += cells.get((i + di, j + dj), ())
            for k, p in enumerate(here):
                yield p, here[k + 1:] + ahead


def compute_neighbour_table(locs: LocationTable, params: RegionParams,
                            alive: Set[int]) -> NeighbourTable:
    """Build the per-node forwarder rows for every alive node.

    A row holds the K candidates nearest to the base station, in
    non-decreasing distance-to-base-station order (ties by id). A node with
    no candidate is DIRECT when within radio range of the base station,
    ISOLATED otherwise.
    """
    if not locs.entries:
        raise TopologyError("empty location table")
    unknown = alive - locs.entries.keys()
    if unknown:
        raise TopologyError(f"alive set contains unknown ids: {sorted(unknown)}")

    # The sweep hands over every pair within radio range once. The band,
    # extent and range tests are symmetric, so one pass decides the pair:
    # the node farther from the base station lists the nearer one, and
    # two equally far nodes list neither.
    pts = {v: locs.entries[v] for v in alive}
    bs = locs.base_station
    to_bs = {v: p.dist(bs) for v, p in pts.items()}
    band, reach = params.band_halfwidth_M, params.radio_range
    extent = (math.inf if params.vertical_extent_N is None
              else params.vertical_extent_N)
    hypot = math.hypot
    cands: Dict[int, List[int]] = {v: [] for v in alive}
    for (a, xa, ya), later in Grid(pts, reach).sweep():
        da = to_bs[a]
        for b, xb, yb in later:
            if (abs(xa - xb) <= band and abs(ya - yb) <= extent
                    and hypot(xa - xb, ya - yb) <= reach):
                db = to_bs[b]
                if db < da:
                    cands[a].append(b)
                elif da < db:
                    cands[b].append(a)
    rows: Dict[int, Row] = {}
    key = {v: (d, v) for v, d in to_bs.items()}.__getitem__
    for u in sorted(alive):
        row = cands[u]
        if row:
            rows[u] = tuple(heapq.nsmallest(params.max_neighbours_K, row,
                                            key=key))
        else:
            rows[u] = DIRECT if to_bs[u] <= reach else ISOLATED
    return NeighbourTable(rows=rows)


def refresh_table(table: NeighbourTable, locs: LocationTable,
                  params: RegionParams, dead: Set[int]) -> NeighbourTable:
    """The table with the dead nodes removed from the network.

    A table that lists none of them is returned itself; any other is
    rebuilt over its surviving rows' nodes. The input table is never
    modified.
    """
    unknown = dead - locs.entries.keys()
    if unknown:
        raise TopologyError(f"dead set contains unknown ids: {sorted(unknown)}")
    if dead.isdisjoint(table.rows):
        return table
    return compute_neighbour_table(locs, params, set(table.rows) - dead)


def parse_location_file(text: str) -> LocationTable:
    """Parse comma-separated `id , x , y` lines into a LocationTable.

    The base station location is not part of the file; callers supply it
    from the scenario configuration.
    """
    table = LocationTable()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise TopologyError(f"line {lineno}: expected `id , x , y`, got {raw!r}")
        try:
            node = int(parts[0])
            x = float(parts[1])
            y = float(parts[2])
        except ValueError as exc:
            raise TopologyError(f"line {lineno}: non-numeric field in {raw!r}") from exc
        if node < 0:
            raise TopologyError(f"line {lineno}: negative node id {node}")
        try:
            where = Location(x, y)
        except TopologyError as exc:
            raise TopologyError(f"line {lineno}: {exc} in {raw!r}") from exc
        if node in table.entries:
            raise TopologyError(f"line {lineno}: duplicate id {node}")
        table.entries[node] = where
    return table


def emit_location_file(locs: LocationTable) -> str:
    """`id , x , y` lines; ``repr`` floats parse back to the same values."""
    return "".join(f"{i} , {p.x!r} , {p.y!r}\n"
                   for i, p in sorted(locs.entries.items()))


def emit_neighbour_table(table: NeighbourTable, k: int) -> str:
    """Render a table as tab-separated text, one line per node.

    DIRECT rows emit k zeros, ISOLATED rows k dashes; short rows are padded
    with dashes so every line has k marker columns.
    """
    lines = []
    for node in sorted(table.rows):
        row = table.rows[node]
        if row == DIRECT:
            cols = ["0"] * k
        elif row == ISOLATED:
            cols = ["-"] * k
        else:
            cols = [str(v) for v in row] + ["-"] * (k - len(row))
        lines.append("\t".join([str(node)] + cols))
    return "".join(line + "\n" for line in lines)
