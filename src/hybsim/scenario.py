"""Run configuration: the flat `key = value` scenario file and defaults.

Every radio/energy/topology knob has a key whose default is the headline
parameter set (2000 m x 2000 m field, 25 nodes, 8 packets/s of 512-byte
CBR traffic, 350 m radio range at -80 dBm, 10 J batteries, 0.001 mJ sleep
threshold). Unknown keys are rejected so typos fail loudly. These field
defaults are the only ones: the radio, energy and region types have none,
and are built from a scenario.
"""

import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from .radio import RadioParams, EnergyCoefficients, frame_airtime
from .topology import (Location, LocationTable, RegionParams,
                       parse_location_file)

PROTOCOLS = ("hyb", "aodv", "dsr")

# sim_time * packet_rate. Engine.run holds the event list (~290 B per event)
# while it matches sensors; each sensed event then keeps ~230 B plus ~19 B
# per sensing node until the run ends (tracemalloc, Python 3.11).
MAX_EVENTS = 1_000_000
MAX_RETRIES = 100  # per discovery or hop; each floods or doubles a backoff
# s, the longest discovery timeout or data backoff. A run adds delays one
# after another, so delays near the largest float (~1.8e308) carry the
# clock to inf and stamp records there; no run chains enough delays of at
# most 1e30 s to come near it. The bound still admits the default backoff
# doubled MAX_RETRIES - 1 times (0.01 * 2**99, ~6.3e27 s).
MAX_DELAY = 1e30


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


@dataclass
class Scenario:
    topology_size: Tuple[float, float] = (2000.0, 2000.0)
    node_count: int = 25
    placement: str = "uniform"          # "uniform" or a location-file path
    bs_location: Tuple[float, float] = (1000.0, 1000.0)
    sim_time: float = 300.0             # 5 simulated minutes
    packet_rate: float = 8.0            # events per second (CBR)
    packet_size: int = 512              # bytes of sensed data
    sensing_radius: float = 250.0
    protocol: str = "hyb"
    seed: int = 1

    # radio
    radio_range: float = 350.0          # m
    reception_threshold: float = -80.0  # dBm
    bandwidth: float = 2_000_000.0      # bits/s
    path_loss_exponent: float = 2.0
    reference_distance: float = 1.0     # m

    # energy
    elec: float = 50e-9                 # J/bit
    amp: float = 100e-12                # J/bit/m^2
    initial_energy: float = 10.0        # J
    energy_threshold: float = 1e-6      # J (0.001 mJ)
    control_bits: int = 320             # bits, a 40-byte control frame

    # neighbourhood region
    band_halfwidth_M: float = 250.0
    vertical_extent_N: Optional[float] = None   # None = unbounded
    max_neighbours_K: int = 3

    # hyb knobs
    wait_t: float = 0.1
    dedup_ttl: float = 5.0
    refresh_period: float = 30.0
    liveness: str = "ground_truth"      # or "reported"

    # baseline knobs
    discovery_timeout: float = 1.0
    discovery_retries: int = 2
    data_retries: int = 3
    retry_backoff: float = 0.01

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        w, h = self.topology_size
        if not (0 < w < math.inf and 0 < h < math.inf):
            raise ScenarioError("topology_size must be positive and finite")
        if self.placement != "uniform":
            # the one read of the file per scenario; see placed_nodes
            self._placed = read_placement(self.placement)
            nodes = self._placed.entries
            if not nodes:
                raise ScenarioError("location file holds no nodes")
            if len(nodes) != self.node_count:
                raise ScenarioError(f"node_count is {self.node_count}, but the "
                                    f"location file holds {len(nodes)} nodes")
            for n, p in nodes.items():  # coordinates are finite and >= 0
                if p.x > w or p.y > h:
                    raise ScenarioError(f"node {n} at {p.x!r},{p.y!r} lies "
                                        f"outside topology_size {w!r}x{h!r}")
        if self.node_count < 1:
            raise ScenarioError("node_count must be >= 1")
        for name in ("sim_time", "packet_rate", "refresh_period"):
            if not 0 < getattr(self, name) < math.inf:
                raise ScenarioError(f"{name} must be positive and finite")
        # a hyb table refresh counts as an event, and so always moves the clock
        rate = max(self.packet_rate, 1 / self.refresh_period)
        if self.sim_time * rate > MAX_EVENTS:
            raise ScenarioError(f"sim_time * packet_rate or sim_time / "
                                f"refresh_period exceeds {MAX_EVENTS} events")
        if self.packet_size <= 0:
            raise ScenarioError("packet_size must be positive")
        if not self.sensing_radius >= 0:  # NaN too; infinite senses everywhere
            raise ScenarioError("sensing_radius must be non-negative")
        if self.protocol not in PROTOCOLS:
            raise ScenarioError(f"unknown protocol {self.protocol!r}")
        if self.liveness not in ("ground_truth", "reported"):
            raise ScenarioError(f"unknown liveness mode {self.liveness!r}")
        bx, by = self.bs_location
        if not (0 <= bx < math.inf and 0 <= by < math.inf):
            raise ScenarioError("bs_location must be non-negative and finite")
        for name in ("control_bits", "wait_t", "dedup_ttl", "discovery_timeout",
                     "retry_backoff"):
            if not getattr(self, name) >= 0:
                # a negative delay would schedule an event in the past mid-run
                raise ScenarioError(f"{name} must be non-negative")
        for name in ("discovery_retries", "data_retries"):
            if not 0 <= getattr(self, name) <= MAX_RETRIES:
                raise ScenarioError(f"{name} must be in [0, {MAX_RETRIES}]")
        if not self.discovery_timeout <= MAX_DELAY:
            raise ScenarioError(f"discovery_timeout exceeds {MAX_DELAY:g} s")
        # data_retries is in range by now, so the power fits in a float
        if not self.retry_backoff * 2 ** (self.data_retries - 1) <= MAX_DELAY:
            raise ScenarioError("retry_backoff * 2 ** (data_retries - 1) "
                                f"exceeds {MAX_DELAY:g} s")
        for name in ("initial_energy", "energy_threshold"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN too
                raise ScenarioError(f"{name} must be non-negative and finite")
        try:  # the radio, energy and region checks live with those types
            self.radio_params()
            self.energy_coefficients()
            self.region_params()
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if frame_airtime(self.radio_params(), self.payload_bits) > self.refresh_period:
            # refreshes repeat until the last frame ends: at most one per frame
            raise ScenarioError("a data frame's airtime exceeds refresh_period")

    @property
    def payload_bits(self) -> int:
        return self.packet_size * 8

    def radio_params(self) -> RadioParams:
        return RadioParams(
            path_loss_exponent=self.path_loss_exponent,
            reference_distance=self.reference_distance,
            reception_threshold=self.reception_threshold,
            radio_range=self.radio_range,
            bandwidth=self.bandwidth,
        )

    def energy_coefficients(self) -> EnergyCoefficients:
        return EnergyCoefficients(elec=self.elec, amp=self.amp)

    def region_params(self) -> RegionParams:
        return RegionParams(
            band_halfwidth_M=self.band_halfwidth_M,
            vertical_extent_N=self.vertical_extent_N,
            max_neighbours_K=self.max_neighbours_K,
            radio_range=self.radio_range,
        )

    def bs(self) -> Location:
        return Location(*self.bs_location)

    def placed_nodes(self) -> LocationTable:
        """A copy of the location file's nodes, as ``validate`` read them."""
        return LocationTable(dict(self._placed.entries))


def read_placement(path: str) -> LocationTable:
    """The nodes of a location file, as ``parse_location_file`` reads them;
    a file that cannot be read or parsed is a ScenarioError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_location_file(fh.read())
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"placement {path!r}: {exc}") from exc


# key -> annotated type; int, str and float values convert with that type
_TYPES = {f.name: f.type for f in fields(Scenario)}
_PAIR_KEYS = {"topology_size": "x", "bs_location": ","}


def parse_scenario(text: str) -> Scenario:
    """Parse `key = value` lines (# comments, blank lines allowed)."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _TYPES:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _convert(key, val)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    placement = values.get("placement", "uniform")
    if placement != "uniform" and "node_count" not in values:
        values["node_count"] = len(read_placement(placement).entries)
    return Scenario(**values)


def parse_pair(text: str, sep: str) -> Tuple[float, float]:
    """Two floats joined by ``sep``; ValueError on any other text."""
    first, second = map(float, text.split(sep))
    return first, second


def _convert(key, val):
    if key in _PAIR_KEYS:
        return parse_pair(val, _PAIR_KEYS[key])
    if key == "vertical_extent_N":
        return None if val.lower() in ("unbounded", "none") else float(val)
    return _TYPES[key](val)


def emit_scenario(sc: Scenario) -> str:
    """Render a scenario back to file form (round-trips via parse_scenario).

    Floats are written with ``repr``, the shortest text that parses back to
    the same value.
    """
    lines = []
    for f in fields(Scenario):
        v = getattr(sc, f.name)
        if f.name in _PAIR_KEYS:
            v = f"{v[0]!r}{_PAIR_KEYS[f.name]}{v[1]!r}"
        elif f.name == "vertical_extent_N":
            v = "unbounded" if v is None else repr(v)
        elif f.name == "placement" and ("#" in v or v.strip().splitlines() != [v]):
            raise ScenarioError(f"placement {v!r} cannot be written to a file")
        lines.append(f"{f.name} = {v}")
    return "".join(line + "\n" for line in lines)
