"""Per-node state machine of the hybrid single-hop/multi-hop protocol.

A node that senses (or receives) fresh data first passes the energy gate,
then the duplicate buffer, then tries to deliver straight to the base
station if the link budget and its battery allow it; otherwise it forwards
to the least-used feasible neighbour from its base-station-computed row.
There are no retransmissions: a busy channel moves the packet to the next
candidate until candidates or the waiting budget run out.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from .radio import (EnergyState, RadioParams, EnergyCoefficients,
                    is_alive, link_feasible, tx_energy)
from .topology import Location, Row

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


class Action(NamedTuple):
    kind: str
    neighbour: Optional[int] = None
    reason: Optional[str] = None


# every decision but a FORWARD; HybContext.forwards holds those
_DIRECT = Action(SEND_DIRECT)
_DROPS = {reason: Action(DROP, reason=reason) for reason in DROP_REASONS}


@dataclass(slots=True)
class DataPacket:
    event_id: str
    origin: int
    created_at: float = 0.0
    visited: List[int] = field(init=False)  # the path so far, origin first
    terminal: bool = False                  # delivered or dropped
    attempted: Set[int] = field(default_factory=set)  # hyb: tried this hop
    retry_count: int = 0                    # baselines: retries at this hop
    route: Optional[Tuple[object, ...]] = None  # dsr: route from the holder on

    def __post_init__(self):
        self.visited = [self.origin]

    @property
    def hops(self) -> int:
        return len(self.visited) - 1


@dataclass(slots=True)
class DedupBuffer:
    """Event ids seen in the last ``ttl`` seconds.

    ``record`` is called at non-decreasing times, and it moves the id it
    records to the end, so expiries rise from the front to the back: the
    purge at each ``record`` pops expired entries from the front only.
    """

    ttl: float
    entries: Dict[str, float] = field(default_factory=dict)  # insertion order

    def contains(self, event_id: str, now: float) -> bool:
        expiry = self.entries.get(event_id)
        return expiry is not None and expiry >= now

    def record(self, event_id: str, now: float) -> None:
        entries = self.entries
        while entries and next(iter(entries.values())) < now:
            del entries[next(iter(entries))]
        entries.pop(event_id, None)
        entries[event_id] = now + self.ttl


@dataclass(slots=True)
class HybNodeState:
    id: int
    energy: EnergyState
    dedup: DedupBuffer
    linked: Tuple[int, ...] = ()   # row members the link reaches, in row order
    use_count: Dict[int, int] = field(default_factory=dict)
    # energy of a direct send to the base station, None when the link fails
    direct_cost: Optional[float] = None

    def set_row(self, row: Row, ctx: "HybContext") -> None:
        """Install a row from the base station.

        Locations and the radio never change, so whether the link reaches
        each member, and the direct send's cost, are decided here, once per
        row. A marker row has no members.
        """
        members = () if isinstance(row, str) else row
        self.use_count = {v: self.use_count.get(v, 0) for v in members}
        here = ctx.location_of(self.id)
        self.linked = tuple(
            v for v in members
            if link_feasible(ctx.radio, here.dist(ctx.location_of(v))))
        d = here.dist(ctx.bs_location)
        self.direct_cost = (tx_energy(ctx.energy_coeff, ctx.payload_bits, d)
                            if link_feasible(ctx.radio, d) else None)


@dataclass(frozen=True)
class HybContext:
    """Engine-side facts the state machine needs but does not own, and the
    run's FORWARD decisions, one per neighbour, built when first made."""

    bs_location: Location
    radio: RadioParams
    energy_coeff: EnergyCoefficients
    location_of: Callable[[int], Location]
    alive: Callable[[int], bool]   # liveness oracle for neighbour selection
    payload_bits: int              # the size of every data frame
    wait_t: float                  # s, waiting budget of a congested packet
    forwards: Dict[int, Action] = field(default_factory=dict, compare=False)


def single_hop_feasible(state: HybNodeState) -> bool:
    """Direct delivery is on when the link closes and the battery covers it.

    ``set_row`` decides the link and the cost; the battery is read anew.
    """
    cost = state.direct_cost
    return (cost is not None
            and state.energy.residual >= state.energy.threshold + cost)


def best_neighbour(state: HybNodeState, packet: DataPacket,
                   ctx: HybContext) -> Optional[int]:
    """Least-used feasible candidate, ties broken by row position.

    Candidates out of link range (left out of ``state.linked`` by
    ``set_row``), already attempted at this hop (``packet.attempted``) or
    dead are skipped. A row lists only nodes strictly closer to the base
    station than its holder, so no member is on the packet's path.
    """
    best: Optional[int] = None
    best_count = math.inf
    attempted, alive, use = packet.attempted, ctx.alive, state.use_count
    for v in state.linked:  # row order encodes proximity to the base station
        if v in attempted or not alive(v):
            continue
        count = use[v]
        if count < best_count:
            best, best_count = v, count
    return best


def _route(state: HybNodeState, packet: DataPacket, ctx: HybContext) -> Action:
    if single_hop_feasible(state):
        return _DIRECT
    return _forward(state, packet, ctx)


def _forward(state: HybNodeState, packet: DataPacket,
             ctx: HybContext) -> Action:
    nxt = best_neighbour(state, packet, ctx)
    if nxt is None:
        return _DROPS[NO_ROUTE]
    if nxt not in ctx.forwards:
        ctx.forwards[nxt] = Action(FORWARD, nxt)
    return ctx.forwards[nxt]


def _gate(state: HybNodeState, packet: DataPacket,
          now: float) -> Optional[Action]:
    """The energy gate, then the duplicate buffer: the DROP for a node that
    must not handle the packet, else None, with the event recorded. The
    gate reads the node's own battery, whatever ``ctx.alive`` believes."""
    if not is_alive(state.energy):
        return _DROPS[ASLEEP]
    if state.dedup.contains(packet.event_id, now):
        return _DROPS[DUPLICATE]
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
                    now: float) -> Action:
    """React to a failed channel grab: next candidate or give up.

    ``packet.attempted`` holds every neighbour already tried at this hop; a
    candidate is never retried. Past the waiting budget the packet dies as
    CONGESTION, before that with no candidate left as NO_ROUTE.
    """
    if now - packet.created_at >= ctx.wait_t:
        return _DROPS[CONGESTION]
    return _forward(state, packet, ctx)


def note_forward(state: HybNodeState, neighbour: int) -> None:
    """Record an executed FORWARD for load balancing."""
    state.use_count[neighbour] = state.use_count.get(neighbour, 0) + 1
