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
from functools import partial
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from . import engine as eng
from .engine import (ASLEEP, BS, BUSY, CONFIG, CONGESTION, DATA, DROP_REASONS,
                     DUPLICATE, NO_ROUTE, NO_RX, OK, REPORT, RETRY_GAP,
                     DataPacket)
from .radio import (EnergyState, RadioParams, EnergyCoefficients,
                    is_alive, link_feasible, tx_energy)
from .topology import Location, Row

# Action kinds
SEND_DIRECT = "SEND_DIRECT"
FORWARD = "FORWARD"
DROP = "DROP"


class Action(NamedTuple):
    kind: str
    neighbour: Optional[int] = None
    reason: Optional[str] = None


# every decision but a FORWARD; HybContext.forwards holds those
_DIRECT = Action(SEND_DIRECT)
_DROPS = {reason: Action(DROP, reason=reason) for reason in DROP_REASONS}


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
    asleep: Callable[[int], bool]  # death oracle for neighbour selection
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
    attempted, asleep, use = packet.attempted, ctx.asleep, state.use_count
    for v in state.linked:  # row order encodes proximity to the base station
        if v in attempted or asleep(v):
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
    gate reads the node's own battery, whatever ``ctx.asleep`` believes."""
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


class HybRunner:
    """Engine adapter for the hybrid protocol state machine; it keeps the
    runner contract in ``engine.Engine``'s docstring but never broadcasts."""

    def __init__(self, engine: "eng.Engine"):
        self.e = engine
        sc = engine.sc
        self.region = sc.region_params()
        locs = engine.locs
        self.states: Dict[int, HybNodeState] = {
            i: HybNodeState(id=i, energy=battery,  # shared battery
                            dedup=DedupBuffer(ttl=sc.dedup_ttl))
            for i, battery in engine.nodes.items()}
        # base-station knowledge, fed by residual reports
        self.bs_known_residual: Dict[int, float] = {
            i: sc.initial_energy for i in engine.nodes}
        self.neighbour_table = None  # configure builds it
        asleep = (engine.asleep.__contains__ if sc.liveness == "ground_truth"
                  else self._bs_asleep)
        self.ctx = HybContext(
            bs_location=locs.base_station, radio=engine.radio,
            energy_coeff=engine.coeff, location_of=locs.entries.__getitem__,
            asleep=asleep, payload_bits=sc.payload_bits, wait_t=sc.wait_t)

    # -------------------------------------------------------------- phases

    def configure(self) -> None:
        """Location upload, table computation, table dissemination."""
        e = self.e
        for n in sorted(e.nodes):
            e.send_oob_control(CONFIG, n, BS)
        alive = e.nodes.keys() - e.asleep.keys()
        self.neighbour_table = eng.compute_neighbour_table(e.locs, self.region, alive)
        self._install({})
        e.schedule(e.now + e.sc.refresh_period, self._bs_refresh)

    def _bs_asleep(self, node: int) -> bool:
        # the base station's belief: the last residual node reported
        # is below the energy threshold
        return self.bs_known_residual[node] < self.e.sc.energy_threshold

    def _bs_refresh(self) -> None:
        e = self.e
        dead = {n for n in self.bs_known_residual if self._bs_asleep(n)}
        old = self.neighbour_table
        self.neighbour_table = eng.refresh_table(old, e.locs, self.region, dead)
        self._install(old.rows)
        if e.pending:  # keep refreshing only while work remains
            e.schedule(e.now + e.sc.refresh_period, self._bs_refresh)

    def _install(self, old: Dict[int, Row]) -> None:
        # changed rows go to their states; every live node gets a CONFIG
        e, rows = self.e, self.neighbour_table.rows
        for n in sorted(rows):
            if rows[n] != old.get(n):
                self.states[n].set_row(rows[n], self.ctx)
            if n not in e.asleep:
                e.send_oob_control(CONFIG, BS, n)

    # -------------------------------------------------------------- traffic

    def on_sense(self, node: int, event_id: str) -> None:
        pkt = self.e.new_packet(event_id, node)
        action = on_sense(self.states[node], pkt, self.ctx, self.e.now)
        self._act(node, pkt, action)

    def _act(self, node: int, pkt: DataPacket, action: Action) -> None:
        kind, rx, reason = action
        if kind == DROP:
            self.e.drop(pkt, reason, node)
            return
        if kind == SEND_DIRECT:
            rx = BS
        else:
            note_forward(self.states[node], rx)
            pkt.attempted.add(rx)
        self.e.send_unicast(DATA, node, rx, event_id=pkt.event_id,
                            on_result=partial(self._result, node, pkt))

    def _result(self, node: int, pkt: DataPacket, trans, outcome: str) -> None:
        e = self.e
        if outcome == BUSY or outcome == NO_RX:
            # the next candidate is picked now, counted when its retry runs
            action = on_busy_channel(self.states[node], pkt, self.ctx, e.now)
            if action.kind == DROP:
                e.drop(pkt, action.reason, node)
            else:
                e.schedule(e.now + RETRY_GAP,
                           partial(self._act, node, pkt, action))
        elif outcome == OK:
            if trans.rx == BS:
                e.deliver(pkt, node)
                # every live node on the path reports its residual
                for n in pkt.visited:
                    if n not in e.asleep:
                        e.send_oob_control(REPORT, n, BS)
                        self.bs_known_residual[n] = e.nodes[n].residual
            else:
                self._relay(trans.rx, pkt)
        else:  # ASLEEP, or a COLLISION: no frame lost on the air is resent
            e.drop(pkt, ASLEEP if outcome == ASLEEP else CONGESTION, node)

    def _relay(self, node: int, pkt: DataPacket) -> None:
        pkt.attempted = set()
        action = on_receive(self.states[node], pkt, self.ctx, self.e.now)
        self._act(node, pkt, action)
