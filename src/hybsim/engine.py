"""Deterministic discrete-event core: clock, channel, traffic, run loop.

The channel abstracts 802.11 DCF to instantaneous request/clear arbitration
plus airtime reservation: a unicast is granted only when its receiver is
idle and hears no ongoing transmission, broadcasts carrier-sense at the
transmitter and collide per receiver. Frames that overlap in time at a
common receiver above the reception threshold are lost and counted as
collisions. Identical (scenario, seed) pairs replay to byte-identical
event logs.
"""

import hashlib
import heapq
import math
import random
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from .radio import (EnergyState, RadioParams, frame_airtime, is_alive,
                    link_bounds, link_feasible, received_power, rx_energy,
                    tx_energy)
from .scenario import Scenario
from .topology import Grid, Location, LocationTable
# perfbench/tracer.py wraps the two table builders here by name
from .topology import compute_neighbour_table, refresh_table

BS = "BS"          # base station pseudo-id in logs and addressing
BROADCAST = "*"

# frame kinds that appear in the event log and count as signals
DATA = "DATA"
RREQ = "RREQ"
RREP = "RREP"
REPORT = "REPORT"
CONFIG = "CONFIG"
FRAME_KINDS = (DATA, RREQ, RREP, REPORT, CONFIG)
COLL = "COLL"      # per-receiver collision record, not a transmitted frame

# arbitration results
GRANT = "GRANT"
BUSY = "BUSY"
COLLISION = "COLLISION"
NO_RX = "NO_RX"
OK = "OK"
SENT = "SENT"

# Drop reasons: every fate of an undelivered packet, in runs.csv order
ASLEEP = "ASLEEP"
DUPLICATE = "DUPLICATE"
NO_ROUTE = "NO_ROUTE"
CONGESTION = "CONGESTION"
DROP_REASONS = (ASLEEP, DUPLICATE, NO_ROUTE, CONGESTION)

RETRY_GAP = 1.6e-4  # s between successive channel grabs for one packet
TEXT_BLOCK = 4096   # writes joined into one block of a TextBuffer
# reachability grid cell width, as a share of outer: at the hyb-2000
# density a third and a quarter built masks fastest, a half and a sixth
# 5-30% slower (fewer whole cells, or more cells per query)
REACH_CELL = 1 / 3


def substream(seed: int, name: str) -> random.Random:
    """Independent deterministic RNG stream derived from the master seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def place_nodes(scenario: Scenario) -> LocationTable:
    """Node placement: location file when configured, else seeded uniform."""
    if scenario.placement != "uniform":
        locs = scenario.placed_nodes()
    else:
        rng = substream(scenario.seed, "placement")
        w, h = scenario.topology_size
        locs = LocationTable()
        for i in range(scenario.node_count):
            locs.entries[i] = Location(rng.uniform(0, w), rng.uniform(0, h))
    locs.base_station = scenario.bs()
    return locs


def generate_events(scenario: Scenario) -> List[Tuple[float, str, Location]]:
    """CBR event stream: one environmental event per 1/rate seconds at a
    uniformly random point; every node within sensing radius senses it."""
    rng = substream(scenario.seed, "traffic")
    w, h = scenario.topology_size
    rate = scenario.packet_rate
    return [(k / rate, f"ev{k}", Location(rng.uniform(0, w), rng.uniform(0, h)))
            for k in range(int(scenario.sim_time * rate))]


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
class Transmission:
    kind: str
    tx: object                 # node id or BS
    rx: object                 # node id, BS or BROADCAST
    start: float
    end: float
    event_id: str = "-"
    payload: object = None
    on_result: Optional[Callable] = None
    cancelled: bool = False
    # the frames that share air time with this one, from its _begin to its
    # _frame_end; see Engine._begin
    overlaps: Optional[List["Transmission"]] = None
    # the sender's reach mask with its own bit, set by _begin: whom the
    # frame reaches, its sender included
    reach: int = 0


class TextBuffer:
    """Text written in many short pieces, such as the event log's records,
    held once: every TEXT_BLOCK pieces are joined into one block."""

    def __init__(self) -> None:
        self._blocks: List[str] = []
        self._pending: List[str] = []

    def write(self, text: str) -> None:
        pending = self._pending
        pending.append(text)
        if len(pending) == TEXT_BLOCK:
            self._blocks.append("".join(pending))
            pending.clear()

    def getvalue(self) -> str:
        """The text so far, kept as the only block; writes may follow."""
        self._blocks.append("".join(self._pending))
        self._pending.clear()
        text = "".join(self._blocks)
        self._blocks = [text]
        return text


class Reachability:
    """Who hears whom among a run's endpoints, one endpoint at a time.

    ``where`` lists the endpoints' locations in bit order: endpoint i owns
    bit i of every mask."""

    def __init__(self, where: List[Location], radio: RadioParams) -> None:
        self.radio = radio
        self.inner, self.outer = link_bounds(radio)
        self.xs = [p.x for p in where]
        self.ys = [p.y for p in where]
        self.grid = Grid(dict(enumerate(where)), self.outer * REACH_CELL)

    def mask(self, i: int) -> int:
        """The mask of the endpoints that endpoint i's frame reaches, i
        itself excluded.

        One query of the grid: its whole cells lie within the inner link
        bound, so they hold only endpoints i reaches; its edge cells get
        the exact test; the mask is read once from its members' binary
        digits."""
        xs, ys, radio = self.xs, self.ys, self.radio
        xa, ya = xs[i], ys[i]
        inner, outer = self.inner, self.outer
        hypot = math.hypot
        whole, edge = self.grid.split(xa, ya, inner, outer)
        digits = bytearray(b"0") * len(xs)  # bit j is digits[~j]
        for j in whole:
            digits[~j] = 49  # "1"
        for j in edge:
            d = hypot(xa - xs[j], ya - ys[j])
            if d <= inner or (d < outer and link_feasible(radio, d)):
                digits[~j] = 49
        digits[~i] = 48  # "0"
        return int(digits, 2)


@dataclass(slots=True)
class Tally:
    """The paper's metrics, counted where the engine writes the records
    that ``metrics.collect`` would tally them from."""
    signals: int = 0       # frame records: unicast, SENT, CONFIG and REPORT
    collisions: int = 0    # COLLISION unicasts and COLL records
    hop_sum: int = 0       # over deliveries
    last_terminal: float = 0.0  # the latest now of a drop or a delivery
    delivered_ids: Set[str] = field(default_factory=set)


class Engine:
    """Single run of one scenario under one protocol, whose runner is
    ``RUNNERS[scenario.protocol](engine)``. The runner contract:

    The engine calls a runner only through ``configure()``, once at t = 0;
    ``on_sense(node, event_id)``, per node sensing an event;
    ``on_broadcast_received(node, trans)``, per live receiver of a
    broadcast frame that is not jammed there and holds no copy of the
    frame's flood ``trans.event_id``: the engine keeps each flood's mask,
    the endpoints that sent a frame of it or were handed a copy; and the
    callbacks a runner hands to ``send_unicast`` and ``schedule``. No call
    carries the current time: ``Engine.now`` is the one clock, handlers
    read it, and every send, drop and delivery happens at it. Every
    ``send_unicast`` call, which returns nothing, fires its
    ``on_result(trans, outcome)`` exactly once: ASLEEP, BUSY or NO_RX at
    once with ``trans`` None, BUSY with the frame a stronger grab
    cancelled, or OK, COLLISION or NO_RX at frame end; a deferred send
    reports only when its retry resolves. A runner reads only the engine's
    ``sc``, ``nodes``, ``asleep``, ``now`` and ``pending`` (the hybrid one
    also ``locs``, ``radio`` and ``coeff``), no private member, and calls
    only ``schedule``, ``jitter``, ``new_packet``, ``drop``, ``deliver``
    and the three ``send_*`` methods.

    An engine keeps fewer than 30 instance attributes: from 30 on, CPython
    3.11 no longer shares their keys, and every ``self.x`` load slows."""

    recent = ()  # perfbench/tracer.py reads len(eng.recent); no history kept

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.radio = scenario.radio_params()
        self.coeff = scenario.energy_coefficients()
        self.locs = place_nodes(scenario)
        self.rng_jitter = substream(scenario.seed, "jitter")

        # each node's battery; asleep maps each node that died, BS never, to
        # its time of death, in order of death: 0 for one that starts drained
        self.nodes: Dict[int, EnergyState] = {
            i: scenario.battery() for i in sorted(self.locs.entries)}
        self.asleep: Dict[int, float] = {
            i: 0.0 for i, b in self.nodes.items() if not is_alive(b)}

        # static topology: who hears whom, for every node and for BS.
        # _ids lists every endpoint in bit order, ascending node id then BS,
        # and _index[x] is x's position there, so x owns bit 1 << _index[x].
        # _hears[i] is the mask of the endpoints endpoint i's frame reaches,
        # made by _mask on its first read, so only endpoints that send
        # hold a mask.
        self._sense_grid = Grid(self.locs.entries, scenario.sensing_radius)
        self._ids: List[object] = [*self.nodes, BS]
        self._index = {x: i for i, x in enumerate(self._ids)}
        self._reach = Reachability([self.loc(x) for x in self._ids],
                                   self.radio)
        self._hears: List[Optional[int]] = [None] * len(self._ids)
        self._heard_by: Dict[object, List[Tuple[object, int]]] = {}

        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable]] = []
        self._seq = 0
        self.log_buffer = TextBuffer()  # the event log
        self.active: Dict[object, Transmission] = {}  # by transmitter
        # flood event id -> mask of the endpoints holding it; see _frame_end
        self._flooded: Dict[str, int] = {}
        # a frame's size, and so its airtime, follows from its kind: DATA
        # frames carry the payload, every other frame is a control frame
        control = scenario.control_bits
        self._frames: Dict[str, Tuple[int, float]] = {}  # kind -> (bits, s)
        for kind in FRAME_KINDS:
            bits = scenario.payload_bits if kind == DATA else control
            self._frames[kind] = (bits, frame_airtime(self.radio, bits))
        # (transmit, receive) energy of a broadcast, a control frame always
        self._broadcast_cost = (
            tx_energy(self.coeff, control, self.radio.radio_range),
            rx_energy(self.coeff, control))

        self.generated = 0
        self.delivered = 0
        self.dropped: Dict[str, int] = dict.fromkeys(DROP_REASONS, 0)
        self.tally = Tally()

        self.protocol = RUNNERS[scenario.protocol](self)

    # ------------------------------------------------------------------ clock

    def schedule(self, time: float, fn: Callable) -> None:
        if time < self.now - 1e-12:
            raise RuntimeError(f"event scheduled in the past: {time} < {self.now}")
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._seq += 1

    @property
    def pending(self) -> int:
        """The number of queued events not yet run."""
        return len(self._heap)

    def jitter(self, scale: float) -> float:
        # bit for bit what rng_jitter.uniform(0.0, scale) returns
        return scale * self.rng_jitter.random()

    # ------------------------------------------------------------------ energy

    def charge(self, node: object, amount: float) -> None:
        """Drain ``amount`` joules from ``node``'s battery, the one place
        that drains one; the residual clamps at zero. Every charged copy of
        a frame comes here, so the body makes no further call."""
        if node == BS:
            return  # the sink is mains powered
        if amount < 0:
            raise ValueError("amount must be non-negative")
        battery = self.nodes[node]
        # max(0.0, left) to the bit, NaN included
        left = battery.residual - amount
        battery.residual = left if left > 0.0 else 0.0
        # not radio.is_alive(battery), inlined
        if battery.residual < battery.threshold and node not in self.asleep:
            self.asleep[node] = self.now

    def loc(self, node: object) -> Location:
        return self.locs.base_station if node == BS else self.locs.entries[node]

    def dist(self, a: object, b: object) -> float:
        return self.loc(a).dist(self.loc(b))

    # ------------------------------------------------------------------ log

    def log(self, time: float, kind: str, tx: object, rx: object,
            event_id: str, outcome: str) -> None:
        self.log_buffer.write(
            f"{time:.6f} {kind} {tx} {rx} {event_id} {outcome}\n")

    # ------------------------------------------------------------------ channel

    def transmitting(self, node: object) -> Optional[Transmission]:
        return self.active.get(node)  # unused here; perfbench/tracer.py wraps it

    def arbitrate(self, tx: object, rx: object, now: float) -> str:
        """Receiver-side channel grab for a unicast starting at ``now``.

        BUSY when the receiver is transmitting or hears an earlier ongoing
        transmission; two same-instant grabs for one receiver are decided
        by received power. COLLISION is never returned here: interference
        between granted frames is resolved at frame end.
        """
        if rx in self.asleep:
            return NO_RX
        if rx in self.active:
            return BUSY
        mine = 1 << self._index[rx]
        for t in self.active.values():
            if t.start < now and t.reach & mine:  # rx hears or sends t
                return BUSY
        # same-instant contest on this receiver: higher power wins
        for t in list(self.active.values()):
            if t.rx != rx or t.start != now:
                continue
            p_old = received_power(self.radio, self.dist(t.tx, rx))
            p_new = received_power(self.radio, self.dist(tx, rx))
            if p_new > p_old:
                self._cancel(t)
            else:
                return BUSY
        return GRANT

    def _cancel(self, trans: Transmission) -> None:
        trans.cancelled = True
        del self.active[trans.tx]
        trans.on_result(trans, BUSY)

    def _begin(self, trans: Transmission) -> None:
        # Pair the frame with every frame on the air that shares air time
        # with it. The test is strict, so a frame that ends as another
        # begins, zero-airtime frames included, overlaps nothing there. A
        # frame that overlaps trans but begins later pairs itself with trans
        # then: trans stays in active until its own _frame_end, and no frame
        # that begins after that time can overlap it.
        tx, active = trans.tx, self.active
        if tx in active:
            raise RuntimeError(f"node {tx} already holds the channel")
        start, end = trans.start, trans.end
        overlaps = trans.overlaps = []
        for g in active.values():
            if g.start < end and g.end > start:
                g.overlaps.append(trans)
                overlaps.append(g)
        active[tx] = trans
        i = self._index[tx]
        trans.reach = self._mask(i) | 1 << i
        self.schedule(end, lambda: self._frame_end(trans))

    def send_unicast(self, kind: str, tx: object, rx: object, *,
                     on_result: Callable, event_id: str = "-", payload=None,
                     defer_jitter: float = 0.0) -> None:
        """Send one frame of ``kind`` from ``tx`` to ``rx`` at ``now``. The
        one report of its fate is ``on_result(trans, outcome)``, fired
        exactly once: ASLEEP, BUSY or NO_RX at once with ``trans`` None;
        BUSY with ``trans`` itself when a stronger same-instant grab for
        ``rx`` cancels the frame; OK, COLLISION or NO_RX at frame end.

        A drained ``tx`` sends nothing (ASLEEP). A node holds one frame at a
        time, so while ``tx`` is on the air the send waits until RETRY_GAP
        after its own frame ends, plus up to ``defer_jitter`` s when that is
        non-zero, and reports only when that retry resolves. Otherwise the
        receiver arbitrates; a grant occupies the channel for the frame
        airtime.
        """
        if tx in self.asleep:
            on_result(None, ASLEEP)
            return
        own = self.active.get(tx)
        if own is not None:
            retry = own.end + RETRY_GAP
            if defer_jitter:
                retry += self.jitter(defer_jitter)
            self.schedule(retry, partial(
                self.send_unicast, kind, tx, rx, on_result=on_result,
                event_id=event_id, payload=payload, defer_jitter=defer_jitter))
            return
        verdict = self.arbitrate(tx, rx, self.now)
        if verdict != GRANT:
            on_result(None, verdict)
            return
        now, air = self.now, self._frames[kind][1]
        self._begin(Transmission(kind, tx, rx, now, now + air, event_id,
                                 payload, on_result))

    def send_broadcast(self, kind: str, tx: object, *, payload,
                       event_id: str) -> None:
        """Carrier-sense broadcast of a control frame: defers while the
        transmitter hears an ongoing transmission, then occupies the
        channel; copies are handed to the protocol per receiver at frame
        end. Each copy carries ``payload``. ``event_id`` names the frame's
        flood: no endpoint is handed a flood it sent or was handed before."""
        if tx in self.asleep:
            return  # the node drained while the frame was pending
        mine = 1 << self._index[tx]
        busy_until = -1.0  # no frame ends before 0
        for t in self.active.values():
            if t.reach & mine and t.end > busy_until:
                busy_until = t.end
        if busy_until >= 0.0:  # tx sends or hears a frame on the air
            retry = busy_until + self.jitter(1e-3)
            self.schedule(retry, partial(self.send_broadcast, kind, tx,
                                         payload=payload, event_id=event_id))
            return
        now, air = self.now, self._frames[kind][1]
        self._begin(Transmission(kind, tx, BROADCAST, now, now + air,
                                 event_id, payload))

    def send_oob_control(self, kind: str, tx: object, rx: object) -> None:
        """Zero-airtime control frame (residual reports, configuration).

        Charged and counted as a signal but never contends for the channel.
        A drained ``tx`` sends nothing, as in ``send_unicast``. Callers send
        only to live receivers: ``BS``, or a node just found not ``asleep``.
        """
        if tx in self.asleep:
            return
        bits = self._frames[kind][0]
        self.charge(tx, tx_energy(self.coeff, bits, self.dist(tx, rx)))
        self.charge(rx, rx_energy(self.coeff, bits))
        self.log(self.now, kind, tx, rx, "-", OK)
        self.tally.signals += 1

    def _jam_mask(self, trans: Transmission) -> int:
        # every other frame that shares air time with trans and was not
        # cancelled jams its own sender and every endpoint that hears it
        jammed = 0
        for g in trans.overlaps:
            if not g.cancelled:
                jammed |= g.reach
        return jammed

    def _interfered(self, trans: Transmission, receiver: object) -> bool:
        return bool(self._jam_mask(trans) & 1 << self._index[receiver])

    def _mask(self, i: int) -> int:
        # endpoint i's reach mask, built on its first read and kept
        mask = self._hears[i]
        if mask is None:
            mask = self._hears[i] = self._reach.mask(i)
        return mask

    def _receivers(self, tx: object) -> List[Tuple[object, int]]:
        # (endpoint, bit) per endpoint tx reaches, in bit order, asleep or
        # not; kept from tx's first broadcast on
        if tx not in self._heard_by:
            ids, found = self._ids, []
            mask = self._mask(self._index[tx])
            digits = f"{mask:b}"[::-1]  # bit i is digits[i]
            i = digits.find("1")
            while i >= 0:
                found.append((ids[i], 1 << i))
                i = digits.find("1", i + 1)
            self._heard_by[tx] = found
        return self._heard_by[tx]

    def _frame_end(self, trans: Transmission) -> None:
        if trans.cancelled:
            trans.overlaps = None
            return
        del self.active[trans.tx]
        # transmit cost is charged on completion; a cancelled reservation
        # never put energy on the air
        tx, r = trans.tx, trans.rx
        if r == BROADCAST:
            tx_cost, cost = self._broadcast_cost
            self.charge(tx, tx_cost)
            # the SENT record and each COLL record: the bytes log() writes
            stamp, event_id = f"{trans.start:.6f} ", trans.event_id
            write = self.log_buffer.write
            write(f"{stamp}{trans.kind} {tx} {BROADCAST} {event_id} {SENT}\n")
            # One jammed mask serves every receiver: a frame that a
            # receiver's handler begins, or cancels, starts at trans.end,
            # so it never overlaps trans. A copy of a flood its receiver
            # holds is charged but needs no handler. A receiver is looked
            # up in asleep at its turn: no handler here drains another node.
            jammed = self._jam_mask(trans)
            trans.overlaps = None
            held = self._flooded.get(event_id, 0) | 1 << self._index[tx]
            head = f"{stamp}{COLL} {tx} "
            tail = f" {event_id} {COLLISION}\n"
            charge, asleep = self.charge, self.asleep
            received = self.protocol.on_broadcast_received
            lost = 0
            for r, bit in self._receivers(tx):
                if r in asleep:
                    continue
                if bit & jammed:
                    write(f"{head}{r}{tail}")
                    lost += 1
                else:
                    charge(r, cost)
                    if not bit & held:
                        held |= bit
                        received(r, trans)
            self._flooded[event_id] = held
            tally = self.tally  # the SENT record and each COLL record
            tally.signals += 1
            tally.collisions += lost
            return

        bits = self._frames[trans.kind][0]
        self.charge(tx, tx_energy(self.coeff, bits, self.dist(tx, r)))
        collided = self._interfered(trans, r)
        trans.overlaps = None
        outcome = (NO_RX if r in self.asleep
                   else COLLISION if collided else OK)
        self.log(trans.start, trans.kind, tx, r, trans.event_id, outcome)
        tally = self.tally
        tally.signals += 1
        if outcome == COLLISION:
            tally.collisions += 1
        if outcome == OK:
            self.charge(r, rx_energy(self.coeff, bits))
        trans.on_result(trans, outcome)

    # ------------------------------------------------------------------ packets

    def new_packet(self, event_id: str, origin: int) -> DataPacket:
        self.generated += 1
        return DataPacket(event_id, origin, self.now)

    def _resolve(self, pkt: DataPacket) -> Tally:
        # mark pkt's one fate; the tally keeps the latest time of any fate,
        # since drain lets now step back by up to 1e-12 s
        if pkt.terminal:
            raise RuntimeError("packet already resolved")
        pkt.terminal = True
        tally = self.tally
        if self.now > tally.last_terminal:
            tally.last_terminal = self.now
        return tally

    def drop(self, pkt: DataPacket, reason: str, node: object) -> None:
        self._resolve(pkt)
        self.dropped[reason] += 1
        self.log(self.now, "DROP", node, "-", pkt.event_id, reason)

    def deliver(self, pkt: DataPacket, last_tx: object) -> None:
        tally = self._resolve(pkt)
        self.delivered += 1
        tally.hop_sum += pkt.hops
        tally.delivered_ids.add(pkt.event_id)
        self.log(self.now, "DELIVER", last_tx, BS, pkt.event_id, f"hops={pkt.hops}")

    # ------------------------------------------------------------------ run

    def run(self) -> str:
        """Execute the configured run and return the event log text.

        Every event is matched to its sensors, and every sense jitter drawn,
        before the first event runs, in event order and ascending node id
        within an event. The sensing callbacks themselves reach the heap
        through one feed entry per event, each queued when the one before it
        runs; see ``_feed``.
        """
        self.protocol.configure()
        sensed, jitter = [], array("d")
        for t, event_id, where in generate_events(self.sc):
            nodes = self.sensors(where)
            if nodes:
                sensed.append((t, event_id, nodes))
                jitter.extend([self.jitter(1e-3) for _ in nodes])
        if sensed:
            self._feed(sensed, jitter, 0, self._seq, 0)
        self._seq += len(sensed) + len(jitter)
        self.drain()
        return self.log_buffer.getvalue()

    def sensors(self, where: Location) -> List[int]:
        """Nodes within sensing radius of ``where``, in ascending id order
        so that the jitter stream is drawn in a fixed order."""
        radius, entries = self.sc.sensing_radius, self.locs.entries
        x, y, hypot = where.x, where.y, math.hypot
        # whole cells lie within the radius; edge cells get the exact test
        found, edge = self._sense_grid.split(x, y, radius, radius)
        for n in edge:
            p = entries[n]
            if hypot(p.x - x, p.y - y) <= radius:  # p.dist(where), inlined
                found.append(n)
        found.sort()
        return found

    def _feed(self, sensed: List[Tuple[float, str, List[int]]],
              jitter: array, k: int, seq: int, j: int) -> None:
        """Queue the feed entry of sensed event ``k``: at the event's time
        it queues the event's sensing callbacks, then the feed entry of
        event ``k + 1``.

        ``run`` reserves one sequence number per event, ``seq`` for event
        ``k``, just before one per sensor: the block that scheduling every
        callback up front would have taken, so ties at one instant break
        as if it had. Jitter is never negative, so a feed entry pops ahead
        of its own callbacks. Event ``k``'s jitters start at ``jitter[j]``.
        """
        t, event_id, nodes = sensed[k]

        def fire() -> None:
            heap, sense = self._heap, self.protocol.on_sense
            for i, n in enumerate(nodes):
                at = t + jitter[j + i]
                heapq.heappush(heap, (at, seq + 1 + i,
                                      partial(sense, n, event_id)))
            if k + 1 < len(sensed):
                self._feed(sensed, jitter, k + 1, seq + len(nodes) + 1,
                           j + len(nodes))
        heapq.heappush(self._heap, (t, seq, fire))

    def drain(self) -> None:
        """Pop and execute queued events until none is left."""
        heap, pop = self._heap, heapq.heappop
        while heap:
            time, _, fn = pop(heap)
            if time < self.now - 1e-12:
                raise RuntimeError("queue time went backwards")
            self.now = time
            fn()



# each runner module imports this one, so the table follows every class
from .hyb import HybRunner
from .baselines import AodvRunner, DsrRunner

RUNNERS = {"hyb": HybRunner, "aodv": AodvRunner, "dsr": DsrRunner}
