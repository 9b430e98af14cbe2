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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from . import hyb
from .hyb import (ASLEEP, CONGESTION, DROP, DROP_REASONS, SEND_DIRECT, Action,
                  DataPacket, DedupBuffer, HybContext, HybNodeState)
from .radio import (EnergyState, frame_airtime, is_alive, link_bounds,
                    link_feasible, received_power, rx_energy, tx_energy)
from .scenario import Scenario
from .topology import (Grid, Location, LocationTable, Row,
                       compute_neighbour_table, refresh_table)

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

RETRY_GAP = 1.6e-4  # s between successive channel grabs for one packet
TEXT_BLOCK = 4096   # writes joined into one block of a TextBuffer


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
    # _hears[tx] | _bit[tx], set by _begin: whom the frame reaches, its
    # sender included
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


@dataclass(slots=True)
class NodeRec:
    energy: EnergyState
    death_time: Optional[float] = None  # None exactly while in Engine.awake


class Engine:
    """Single run of one scenario under one protocol."""

    recent = ()  # perfbench/tracer.py reads len(eng.recent); no history kept

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.radio = scenario.radio_params()
        self.coeff = scenario.energy_coefficients()
        self.locs = place_nodes(scenario)
        self.rng_jitter = substream(scenario.seed, "jitter")

        self.nodes: Dict[int, NodeRec] = {}
        for i in sorted(self.locs.entries):
            battery = scenario.battery()  # one that starts drained died at 0
            self.nodes[i] = NodeRec(battery, None if is_alive(battery) else 0.0)

        # static topology: who hears whom, for every node and for BS.
        # _ids lists every endpoint in bit order, ascending node id then BS;
        # _bit[x] is x's bit and _hears[x] the mask of the endpoints x's
        # frame reaches. The grid sweep, the base station one of its points,
        # hands over each unordered pair of nearby endpoints once;
        # link_feasible decides every distance between the bounds that do
        # not settle it. math.hypot of the negated differences is
        # bit-identical, so one distance serves both directions.
        inner, outer = link_bounds(self.radio)
        hypot, radio = math.hypot, self.radio
        self._sense_grid = Grid(self.locs.entries, scenario.sensing_radius)
        self._ids: List[object] = [*self.nodes, BS]
        self._bit: Dict[object, int] = {
            x: 1 << i for i, x in enumerate(self._ids)}
        bit = self._bit
        hears = self._hears = dict.fromkeys(self._ids, 0)
        points = {**self.locs.entries, BS: self.locs.base_station}
        for (a, xa, ya), later in Grid(points, outer).sweep():
            bit_a, mask = bit[a], 0
            for b, xb, yb in later:
                d = hypot(xa - xb, ya - yb)
                if d <= inner or (d < outer and link_feasible(radio, d)):
                    mask |= bit[b]
                    hears[b] |= bit_a
            hears[a] |= mask
        # BS never sleeps; charge removes a node the moment it dies
        self.awake: Set[object] = {BS, *(n for n, rec in self.nodes.items()
                                         if rec.death_time is None)}
        self._heard_by: Dict[object, List[Tuple[object, int]]] = {}

        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable]] = []
        self._seq = 0
        self.log_buffer = TextBuffer()  # the event log
        self.active: Dict[object, Transmission] = {}  # by transmitter
        # the OR of t.reach over active: whom a frame on the air reaches,
        # its senders included
        self._on_air = 0
        # flood event id -> mask of the endpoints holding it; see _frame_end
        self._flooded: Dict[str, int] = {}
        # a frame's size follows from its kind: DATA frames carry the
        # payload, every other frame is a control frame
        control = scenario.control_bits
        self._frame_bits = dict.fromkeys(FRAME_KINDS, control)
        self._frame_bits[DATA] = scenario.payload_bits
        # (transmit, receive) energy of a broadcast, a control frame always
        self._broadcast_cost = (
            tx_energy(self.coeff, control, self.radio.radio_range),
            rx_energy(self.coeff, control))

        self.generated = 0
        self.delivered = 0
        self.dropped: Dict[str, int] = dict.fromkeys(DROP_REASONS, 0)

        if scenario.protocol == "hyb":
            self.protocol = HybRunner(self)
        else:
            from .baselines import AodvRunner, DsrRunner
            cls = AodvRunner if scenario.protocol == "aodv" else DsrRunner
            self.protocol = cls(self)

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
        rec = self.nodes[node]
        battery = rec.energy
        # max(0.0, left) to the bit, NaN included
        left = battery.residual - amount
        battery.residual = left if left > 0.0 else 0.0
        # not radio.is_alive(battery), inlined
        if battery.residual < battery.threshold and node in self.awake:
            self.awake.remove(node)
            self._heard_by.clear()  # a list _frame_end is walking stays whole
            rec.death_time = self.now

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
        if rx not in self.awake:
            return NO_RX
        if rx in self.active:
            return BUSY
        mine = self._bit[rx]
        if self._on_air & mine:  # rx hears or sends a frame on the air
            for t in self.active.values():
                if t.start < now and t.reach & mine:
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

    def _remove(self, trans: Transmission) -> None:
        # take trans off the air and rebuild the on-air mask without it
        del self.active[trans.tx]
        on_air = 0
        for t in self.active.values():
            on_air |= t.reach
        self._on_air = on_air

    def _cancel(self, trans: Transmission) -> None:
        trans.cancelled = True
        self._remove(trans)
        trans.on_result(trans, BUSY, self.now)

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
        trans.reach = self._hears[tx] | self._bit[tx]
        self._on_air |= trans.reach
        self.schedule(end, lambda: self._frame_end(trans))

    def send_unicast(self, kind: str, tx: object, rx: object, now: float, *,
                     on_result: Callable, event_id: str = "-", payload=None,
                     defer_jitter: float = 0.0) -> None:
        """Send one frame of ``kind`` from ``tx`` to ``rx`` at ``now``. The
        one report of its fate is ``on_result(trans, outcome, t)``, fired
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
        if tx not in self.awake:
            on_result(None, ASLEEP, now)
            return
        own = self.active.get(tx)
        if own is not None:
            retry = own.end + RETRY_GAP
            if defer_jitter:
                retry += self.jitter(defer_jitter)
            self.schedule(retry, lambda: self.send_unicast(
                kind, tx, rx, retry, event_id=event_id, payload=payload,
                on_result=on_result, defer_jitter=defer_jitter))
            return
        verdict = self.arbitrate(tx, rx, now)
        if verdict != GRANT:
            on_result(None, verdict, now)
            return
        air = frame_airtime(self.radio, self._frame_bits[kind])
        self._begin(Transmission(kind, tx, rx, now, now + air, event_id,
                                 payload, on_result))

    def send_broadcast(self, kind: str, tx: object, now: float, *,
                       payload, event_id: str) -> None:
        """Carrier-sense broadcast of a control frame: defers while the
        transmitter hears an ongoing transmission, then occupies the
        channel; copies are handed to the protocol per receiver at frame
        end. Each copy carries ``payload``. ``event_id`` names the frame's
        flood: no endpoint is handed a flood it sent or was handed before."""
        if tx not in self.awake:
            return  # the node drained while the frame was pending
        mine = self._bit[tx]
        if self._on_air & mine:  # tx sends or hears a frame on the air
            busy_until = 0.0
            for t in self.active.values():
                if t.reach & mine and t.end > busy_until:
                    busy_until = t.end
            retry = busy_until + self.jitter(1e-3)
            self.schedule(retry, lambda: self.send_broadcast(
                kind, tx, retry, payload=payload, event_id=event_id))
            return
        air = frame_airtime(self.radio, self._frame_bits[kind])
        self._begin(Transmission(kind, tx, BROADCAST, now, now + air,
                                 event_id, payload))

    def send_oob_control(self, kind: str, tx: object, rx: object,
                         now: float) -> None:
        """Zero-airtime control frame (residual reports, configuration).

        Charged and counted as a signal but never contends for the channel.
        A drained ``tx`` sends nothing, as in ``send_unicast``. Callers send
        only to awake receivers: ``BS``, or a node just found in ``awake``.
        """
        if tx not in self.awake:
            return
        bits = self._frame_bits[kind]
        self.charge(tx, tx_energy(self.coeff, bits, self.dist(tx, rx)))
        self.charge(rx, rx_energy(self.coeff, bits))
        self.log(now, kind, tx, rx, "-", OK)

    def _jam_mask(self, trans: Transmission) -> int:
        # every other frame that shares air time with trans and was not
        # cancelled jams its own sender and every endpoint that hears it
        jammed = 0
        for g in trans.overlaps:
            if not g.cancelled:
                jammed |= g.reach
        return jammed

    def _interfered(self, trans: Transmission, receiver: object) -> bool:
        return bool(self._jam_mask(trans) & self._bit[receiver])

    def _receivers(self, tx: object) -> List[Tuple[object, int]]:
        # (endpoint, bit) per awake endpoint tx reaches, in bit order; kept
        # from tx's first broadcast until charge records a death
        if tx not in self._heard_by:
            awake, heard = self.awake, self._hears[tx]
            self._heard_by[tx] = [(r, 1 << i) for i, r in enumerate(self._ids)
                                  if heard >> i & 1 and r in awake]
        return self._heard_by[tx]

    def _frame_end(self, trans: Transmission) -> None:
        if trans.cancelled:
            trans.overlaps = None
            return
        self._remove(trans)
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
            # holds is charged but needs no handler.
            jammed = self._jam_mask(trans)
            trans.overlaps = None
            held = self._flooded.get(event_id, 0) | self._bit[tx]
            head = f"{stamp}{COLL} {tx} "
            tail = f" {event_id} {COLLISION}\n"
            end, charge = trans.end, self.charge
            received = self.protocol.on_broadcast_received
            for r, bit in self._receivers(tx):
                if bit & jammed:
                    write(f"{head}{r}{tail}")
                else:
                    charge(r, cost)
                    if not bit & held:
                        held |= bit
                        received(r, trans, end)
            self._flooded[event_id] = held
            return

        bits = self._frame_bits[trans.kind]
        self.charge(tx, tx_energy(self.coeff, bits, self.dist(tx, r)))
        collided = self._interfered(trans, r)
        trans.overlaps = None
        outcome = (NO_RX if r not in self.awake
                   else COLLISION if collided else OK)
        self.log(trans.start, trans.kind, tx, r, trans.event_id, outcome)
        if outcome == OK:
            self.charge(r, rx_energy(self.coeff, bits))
        trans.on_result(trans, outcome, trans.end)

    # ------------------------------------------------------------------ packets

    def new_packet(self, event_id: str, origin: int, now: float) -> DataPacket:
        self.generated += 1
        return DataPacket(event_id, origin, now)

    def drop(self, pkt: DataPacket, reason: str, node: object, now: float) -> None:
        if pkt.terminal:
            raise RuntimeError("packet already resolved")
        pkt.terminal = True
        self.dropped[reason] += 1
        self.log(now, "DROP", node, "-", pkt.event_id, reason)

    def deliver(self, pkt: DataPacket, last_tx: object, now: float) -> None:
        if pkt.terminal:
            raise RuntimeError("packet already resolved")
        pkt.terminal = True
        self.delivered += 1
        self.log(now, "DELIVER", last_tx, BS, pkt.event_id, f"hops={pkt.hops}")

    # ------------------------------------------------------------------ run

    def run(self) -> str:
        """Execute the configured run and return the event log text.

        Every event is matched to its sensors, and every sense jitter drawn,
        before the first event runs, in event order and ascending node id
        within an event. The sensing callbacks themselves reach the heap
        through one feed entry per event, each queued when the one before it
        runs; see ``_feed``.
        """
        self.protocol.configure(0.0)
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
        return sorted(n for n in self._sense_grid.near(where.x, where.y, radius)
                      if entries[n].dist(where) <= radius)

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
                                      partial(sense, n, event_id, at)))
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


class HybRunner:
    """Engine adapter for the hybrid protocol state machine; it keeps the
    runner contract of ``baselines._BaseRunner`` but never broadcasts."""

    def __init__(self, engine: Engine):
        self.e = engine
        sc = engine.sc
        self.region = sc.region_params()
        locs = engine.locs
        self.states: Dict[int, HybNodeState] = {}
        for i, rec in engine.nodes.items():
            self.states[i] = HybNodeState(
                id=i, energy=rec.energy,  # shared battery
                dedup=DedupBuffer(ttl=sc.dedup_ttl))
        # base-station knowledge, fed by residual reports
        self.bs_known_residual: Dict[int, float] = {
            i: sc.initial_energy for i in engine.nodes}
        self.neighbour_table = None  # configure builds it
        if sc.liveness == "ground_truth":
            alive = engine.awake.__contains__
        else:
            alive = self._bs_alive
        self.ctx = HybContext(
            bs_location=locs.base_station, radio=engine.radio,
            energy_coeff=engine.coeff, location_of=locs.entries.__getitem__,
            alive=alive, payload_bits=sc.payload_bits, wait_t=sc.wait_t)

    # -------------------------------------------------------------- phases

    def configure(self, now: float) -> None:
        """Location upload, table computation, table dissemination."""
        e = self.e
        for n in sorted(e.nodes):
            e.send_oob_control(CONFIG, n, BS, now)
        alive = {n for n in e.nodes if n in e.awake}
        self.neighbour_table = compute_neighbour_table(e.locs, self.region, alive)
        self._install(now, {})
        e.schedule(now + e.sc.refresh_period, self._bs_refresh)

    def _bs_alive(self, node: int) -> bool:
        # the base station's belief: the last residual node reported
        # is at or above the energy threshold
        return self.bs_known_residual[node] >= self.e.sc.energy_threshold

    def _bs_refresh(self) -> None:
        e = self.e
        now = e.now
        dead = {n for n in self.bs_known_residual if not self._bs_alive(n)}
        old = self.neighbour_table
        self.neighbour_table = refresh_table(old, e.locs, self.region, dead)
        self._install(now, old.rows)
        if e.pending:  # keep refreshing only while work remains
            e.schedule(now + e.sc.refresh_period, self._bs_refresh)

    def _install(self, now: float, old: Dict[int, Row]) -> None:
        # changed rows go to their states; every awake node gets a CONFIG
        e, rows = self.e, self.neighbour_table.rows
        for n in sorted(rows):
            if rows[n] != old.get(n):
                self.states[n].set_row(rows[n], self.ctx)
            if n in e.awake:
                e.send_oob_control(CONFIG, BS, n, now)

    # -------------------------------------------------------------- traffic

    def on_sense(self, node: int, event_id: str, now: float) -> None:
        pkt = self.e.new_packet(event_id, node, now)
        action = hyb.on_sense(self.states[node], pkt, self.ctx, now)
        self._act(node, pkt, action, now)

    def _act(self, node: int, pkt: DataPacket, action: Action, now: float) -> None:
        kind, rx, reason = action
        if kind == DROP:
            self.e.drop(pkt, reason, node, now)
            return
        if kind == SEND_DIRECT:
            rx = BS
        else:
            hyb.note_forward(self.states[node], rx)
            pkt.attempted.add(rx)
        self.e.send_unicast(DATA, node, rx, now, event_id=pkt.event_id,
                            on_result=partial(self._result, node, pkt))

    def _result(self, node: int, pkt: DataPacket, trans, outcome: str,
                now: float) -> None:
        e = self.e
        if outcome == BUSY or outcome == NO_RX:
            # the next candidate is picked now, counted when its retry runs
            action = hyb.on_busy_channel(self.states[node], pkt, self.ctx, now)
            if action.kind == DROP:
                e.drop(pkt, action.reason, node, now)
            else:
                retry = now + RETRY_GAP
                e.schedule(retry, partial(self._act, node, pkt, action, retry))
        elif outcome == OK:
            if trans.rx == BS:
                e.deliver(pkt, node, now)
                # every awake node on the path reports its residual
                for n in pkt.visited:
                    if n in e.awake:
                        e.send_oob_control(REPORT, n, BS, now)
                        self.bs_known_residual[n] = e.nodes[n].energy.residual
            else:
                self._relay(trans.rx, pkt, now)
        else:  # ASLEEP, or a COLLISION: no frame lost on the air is resent
            e.drop(pkt, ASLEEP if outcome == ASLEEP else CONGESTION, node, now)

    def _relay(self, node: int, pkt: DataPacket, now: float) -> None:
        pkt.attempted = set()
        action = hyb.on_receive(self.states[node], pkt, self.ctx, now)
        self._act(node, pkt, action, now)
