"""Per-node state machine of the hybrid single-hop/multi-hop protocol.

A node that senses (or receives) fresh data first passes the energy gate,
then the duplicate buffer, then tries to deliver straight to the base
station if the link budget and its battery allow it; otherwise it forwards
to the least-used feasible neighbour from its base-station-computed row.
There are no retransmissions: a busy channel moves the packet to the next
candidate until candidates or the waiting budget run out.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .radio import (EnergyState, RadioParams, EnergyCoefficients,
                    is_alive, link_feasible, tx_energy)
from .topology import Location, Row

DEFAULT_DEDUP_TTL = 5.0   # s
DEFAULT_WAIT_T = 0.1      # s, waiting budget before a congested packet dies
DEFAULT_PAYLOAD_BITS = 4096  # 512-byte data packet

# Action kinds
SEND_DIRECT = "SEND_DIRECT"
FORWARD = "FORWARD"
DROP = "DROP"

# Drop reasons: every fate of an undelivered packet, in runs.csv order
ASLEEP = "ASLEEP"
DUPLICATE = "DUPLICATE"
NO_ROUTE = "NO_ROUTE"
CONGESTION = "CONGESTION"
DROP_REASONS = (ASLEEP, DUPLICATE, NO_ROUTE, CONGESTION)


@dataclass(frozen=True)
class Action:
    kind: str
    neighbour: Optional[int] = None
    reason: Optional[str] = None


@dataclass
class DataPacket:
    event_id: str
    origin: int
    payload_bits: int = DEFAULT_PAYLOAD_BITS
    visited: List[int] = field(default_factory=list)
    created_at: float = 0.0

    def __post_init__(self):
        if not self.visited:
            self.visited = [self.origin]
        assert self.origin in self.visited
        assert len(set(self.visited)) == len(self.visited)

    @property
    def hops(self) -> int:
        return len(self.visited) - 1


@dataclass
class DedupBuffer:
    """Event ids seen in the last ``ttl`` seconds.

    ``record`` is called at non-decreasing times, and it moves the id it
    records to the end, so expiries rise from the front to the back: the
    purge at each ``record`` pops expired entries from the front only.
    """

    ttl: float = DEFAULT_DEDUP_TTL
    entries: "OrderedDict[str, float]" = field(default_factory=OrderedDict)

    def contains(self, event_id: str, now: float) -> bool:
        expiry = self.entries.get(event_id)
        return expiry is not None and expiry >= now

    def record(self, event_id: str, now: float) -> None:
        entries = self.entries
        while entries and next(iter(entries.values())) < now:
            entries.popitem(last=False)
        entries.pop(event_id, None)
        entries[event_id] = now + self.ttl


@dataclass
class HybNodeState:
    id: int
    location: Location
    energy: EnergyState
    linked: Tuple[int, ...] = ()   # row members the link reaches, in row order
    use_count: Dict[int, int] = field(default_factory=dict)
    dedup: DedupBuffer = field(default_factory=DedupBuffer)
    # payload bits -> energy of a direct send, None when the link fails
    direct_cost: Dict[int, Optional[float]] = field(default_factory=dict)

    def set_row(self, row: Row, ctx: "HybContext") -> None:
        """Install a row from the base station.

        Locations and the radio never change, so whether the link reaches
        each member is decided here, once per row.
        """
        if isinstance(row, str):
            self.use_count = {}
            self.linked = ()
        else:
            self.use_count = {v: self.use_count.get(v, 0) for v in row}
            here = self.location
            self.linked = tuple(
                v for v in row
                if link_feasible(ctx.radio, here.dist(ctx.location_of(v))))


@dataclass(frozen=True)
class HybContext:
    """Engine-side facts the state machine needs but does not own."""

    bs_location: Location
    radio: RadioParams
    energy_coeff: EnergyCoefficients
    location_of: Callable[[int], Location]
    alive: Callable[[int], bool]   # liveness oracle for neighbour selection
    wait_t: float = DEFAULT_WAIT_T


def single_hop_feasible(state: HybNodeState, ctx: HybContext,
                        payload_bits: int = DEFAULT_PAYLOAD_BITS) -> bool:
    """Direct delivery is on when the link closes and the battery covers it.

    The link test and the cost depend only on the node's location, so they
    are worked out once per payload size; the battery is read every time.
    """
    try:
        cost = state.direct_cost[payload_bits]
    except KeyError:
        d = state.location.dist(ctx.bs_location)
        cost = (tx_energy(ctx.energy_coeff, payload_bits, d)
                if link_feasible(ctx.radio, d) else None)
        state.direct_cost[payload_bits] = cost
    return (cost is not None
            and state.energy.residual >= state.energy.threshold + cost)


def best_neighbour(state: HybNodeState, packet: DataPacket,
                   ctx: HybContext,
                   exclude: Set[int] = frozenset()) -> Optional[int]:
    """Least-used feasible candidate, ties broken by row position.

    Candidates out of link range (left out of ``state.linked`` by
    ``set_row``), already on the packet's path, already attempted for this
    packet (``exclude``) or dead are skipped.
    """
    best: Optional[int] = None
    best_count = math.inf
    visited = packet.visited
    for v in state.linked:  # row order encodes proximity to the base station
        if v in visited or v in exclude or not ctx.alive(v):
            continue
        count = state.use_count[v]
        if count < best_count:
            best, best_count = v, count
    return best


def _route(state: HybNodeState, packet: DataPacket, ctx: HybContext) -> Action:
    if single_hop_feasible(state, ctx, packet.payload_bits):
        return Action(SEND_DIRECT)
    nxt = best_neighbour(state, packet, ctx)
    if nxt is None:
        return Action(DROP, reason=NO_ROUTE)
    return Action(FORWARD, neighbour=nxt)


def _gate(state: HybNodeState, packet: DataPacket,
          now: float) -> Optional[Action]:
    """The energy gate, then the duplicate buffer: the DROP for a node that
    must not handle the packet, else None, with the event recorded. The
    gate reads the node's own battery, whatever ``ctx.alive`` believes."""
    if not is_alive(state.energy):
        return Action(DROP, reason=ASLEEP)
    if state.dedup.contains(packet.event_id, now):
        return Action(DROP, reason=DUPLICATE)
    state.dedup.record(packet.event_id, now)
    return None


def on_sense(state: HybNodeState, packet: DataPacket, ctx: HybContext,
             now: float) -> Action:
    """Handle a locally sensed event."""
    return _gate(state, packet, now) or _route(state, packet, ctx)


def on_receive(state: HybNodeState, packet: DataPacket, ctx: HybContext,
               now: float) -> Action:
    """Handle a data packet forwarded to this node.

    On the fresh path the node appends itself to the packet's route before
    choosing the next action, so the hop is recorded exactly once.
    """
    dropped = _gate(state, packet, now)
    if dropped is not None:
        return dropped
    packet.visited.append(state.id)
    return _route(state, packet, ctx)


def on_busy_channel(state: HybNodeState, packet: DataPacket, ctx: HybContext,
                    attempted: Set[int], now: float) -> Action:
    """React to a failed channel grab: next candidate or give up.

    ``attempted`` holds every neighbour already tried for this packet; a
    candidate is never retried. Past the waiting budget the packet dies as
    CONGESTION, before that with no candidate left as NO_ROUTE.
    """
    if now - packet.created_at >= ctx.wait_t:
        return Action(DROP, reason=CONGESTION)
    nxt = best_neighbour(state, packet, ctx, exclude=attempted)
    if nxt is None:
        return Action(DROP, reason=NO_ROUTE)
    return Action(FORWARD, neighbour=nxt)


def note_forward(state: HybNodeState, neighbour: int) -> None:
    """Record an executed FORWARD for load balancing."""
    state.use_count[neighbour] = state.use_count.get(neighbour, 0) + 1
