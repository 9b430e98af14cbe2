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
import io
import math
import random
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from . import hyb
from .hyb import (ASLEEP, CONGESTION, DROP, DROP_REASONS, SEND_DIRECT, Action,
                  DataPacket, DedupBuffer, HybContext, HybNodeState)
from .radio import (EnergyState, deduct, frame_airtime, is_alive,
                    link_bounds, link_feasible, received_power, rx_energy,
                    tx_energy)
from .scenario import Scenario, ScenarioError
from .topology import (Grid, Location, LocationTable, compute_neighbour_table,
                       parse_location_file, refresh_table)

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
DEFERRED = "DEFERRED"
OK = "OK"
SENT = "SENT"

RETRY_GAP = 1.6e-4  # s between successive channel grabs for one packet


def substream(seed: int, name: str) -> random.Random:
    """Independent deterministic RNG stream derived from the master seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def place_nodes(scenario: Scenario) -> LocationTable:
    """Node placement: location file when configured, else seeded uniform."""
    if scenario.placement != "uniform":
        with open(scenario.placement, "r", encoding="utf-8") as fh:
            locs = parse_location_file(fh.read())
        if not locs.entries:
            raise ScenarioError("location file holds no nodes")
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
    bits: int
    start: float
    end: float
    event_id: str = "-"
    payload: object = None
    cancelled: bool = False
    on_result: Optional[Callable] = None
    # the frames that share air time with this one, from its _begin to its
    # _frame_end; see Engine._begin
    overlaps: Optional[List["Transmission"]] = None


@dataclass
class PacketCtx:
    """One originated packet intent and its bookkeeping."""

    packet: DataPacket
    terminal: bool = False
    attempted: Set[int] = field(default_factory=set)  # hyb: tried this hop
    retry_count: int = 0                              # baselines: per-hop retries
    route: Optional[Tuple[object, ...]] = None        # dsr: route from the holder on


@dataclass
class NodeRec:
    id: int
    location: Location
    energy: EnergyState
    death_time: Optional[float] = None


class Engine:
    """Single run of one scenario under one protocol."""

    recent = ()  # perfbench/tracer.py reads len(eng.recent); no history kept

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.radio = scenario.radio_params()
        self.coeff = scenario.energy_coefficients()
        self.region = scenario.region_params()
        self.locs = place_nodes(scenario)
        self.bs_loc = self.locs.base_station
        self.rng_jitter = substream(scenario.seed, "jitter")

        self.nodes: Dict[int, NodeRec] = {}
        for i in sorted(self.locs.entries):
            self.nodes[i] = NodeRec(
                id=i, location=self.locs.entries[i],
                energy=scenario.battery())

        # static topology: who hears whom, for every node and for BS.
        # _ids lists every endpoint in bit order, ascending node id then BS;
        # _bit[x] is x's bit and _hears[x] the mask of the endpoints x's
        # frame reaches. The grid sweep hands over each unordered pair of
        # nearby nodes once; link_feasible decides every distance between
        # the bounds that do not settle it. math.hypot of the negated
        # differences is bit-identical, so one distance serves both
        # directions.
        inner, outer = link_bounds(self.radio)
        hypot, radio = math.hypot, self.radio
        self._sense_grid = Grid(self.locs.entries, scenario.sensing_radius)
        self._ids: List[object] = [*self.nodes, BS]
        self._bit: Dict[object, int] = {
            x: 1 << i for i, x in enumerate(self._ids)}
        bit = self._bit
        hears = self._hears = dict.fromkeys(self._ids, 0)
        for (a, xa, ya), later in Grid(self.locs.entries, outer).sweep():
            bit_a, mask = bit[a], 0
            for b, xb, yb in later:
                d = hypot(xa - xb, ya - yb)
                if d <= inner or (d < outer and link_feasible(radio, d)):
                    mask |= bit[b]
                    hears[b] |= bit_a
            hears[a] |= mask
        for n, rec in self.nodes.items():
            if link_feasible(radio, rec.location.dist(self.bs_loc)):
                hears[n] |= bit[BS]
                hears[BS] |= bit[n]
        # BS never sleeps; charge removes a node the moment it dies
        self.awake: Set[object] = {BS, *(n for n, rec in self.nodes.items()
                                         if is_alive(rec.energy))}

        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable]] = []
        self._seq = 0
        self.log_buffer = io.StringIO()  # the event log, written once
        self.active: Dict[object, Transmission] = {}  # by transmitter
        # the OR of _hears[t.tx] | _bit[t.tx] over active: whom a frame on
        # the air reaches, its senders included
        self._on_air = 0

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

    def jitter(self, scale: float) -> float:
        # bit for bit what rng_jitter.uniform(0.0, scale) returns
        return scale * self.rng_jitter.random()

    # ------------------------------------------------------------------ energy

    def charge(self, node: object, amount: float) -> None:
        if node == BS:
            return  # the sink is mains powered
        rec = self.nodes[node]
        battery = rec.energy
        deduct(battery, amount)
        if not is_alive(battery) and node in self.awake:
            self.awake.remove(node)
            rec.death_time = self.now

    def loc(self, node: object) -> Location:
        return self.bs_loc if node == BS else self.nodes[node].location

    def dist(self, a: object, b: object) -> float:
        return self.loc(a).dist(self.loc(b))

    # ------------------------------------------------------------------ log

    def log(self, time: float, kind: str, tx: object, rx: object,
            event_id: str, outcome: str) -> None:
        self.log_buffer.write(
            f"{time:.6f} {kind} {tx} {rx} {event_id} {outcome}\n")

    # ------------------------------------------------------------------ channel

    def transmitting(self, node: object) -> Optional[Transmission]:
        return self.active.get(node)

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
        hears, mine = self._hears, self._bit[rx]
        if self._on_air & mine:  # rx hears or sends a frame on the air
            for t in self.active.values():
                if t.start < now and hears[t.tx] & mine:
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
        hears, bit, on_air = self._hears, self._bit, 0
        for t in self.active.values():
            on_air |= hears[t.tx] | bit[t.tx]
        self._on_air = on_air

    def _cancel(self, trans: Transmission) -> None:
        trans.cancelled = True
        self._remove(trans)
        if trans.on_result is not None:
            trans.on_result(trans, BUSY, self.now)

    def _begin(self, trans: Transmission) -> None:
        # Pair the frame with every frame on the air that shares air time
        # with it. The test is strict, so a frame that ends as another
        # begins, zero-airtime frames included, overlaps nothing there. A
        # frame that overlaps trans but begins later pairs itself with trans
        # then: trans stays in active until its own _frame_end, and no frame
        # that begins after that time can overlap it.
        if trans.tx in self.active:
            raise RuntimeError(f"node {trans.tx} already holds the channel")
        start, end = trans.start, trans.end
        overlaps = trans.overlaps = []
        for g in self.active.values():
            if g.start < end and g.end > start:
                g.overlaps.append(trans)
                overlaps.append(g)
        self.active[trans.tx] = trans
        self._on_air |= self._hears[trans.tx] | self._bit[trans.tx]
        self.schedule(end, lambda: self._frame_end(trans))

    def send_unicast(self, kind: str, tx: object, rx: object, bits: int,
                     now: float, event_id: str = "-", payload=None,
                     on_result: Optional[Callable] = None,
                     defer_jitter: float = 0.0) -> str:
        """Send one frame from ``tx`` to ``rx`` at ``now``.

        A drained ``tx`` sends nothing (ASLEEP). A node holds one frame at a
        time, so while ``tx`` is on the air the send waits until RETRY_GAP
        after its own frame ends, plus up to ``defer_jitter`` s when that is
        non-zero (DEFERRED). Otherwise the receiver arbitrates; a grant
        occupies the channel for the frame airtime. ``on_result(trans,
        outcome, t)`` fires exactly once: OK / COLLISION / NO_RX at frame
        end; at once, with ``trans`` None, ASLEEP / BUSY / NO_RX; or BUSY
        with ``trans`` itself when a stronger same-instant grab for ``rx``
        cancels the frame before it ends.
        """
        if tx not in self.awake:
            if on_result is not None:
                on_result(None, ASLEEP, now)
            return ASLEEP
        own = self.transmitting(tx)
        if own is not None:
            retry = own.end + RETRY_GAP
            if defer_jitter:
                retry += self.jitter(defer_jitter)
            self.schedule(retry, lambda: self.send_unicast(
                kind, tx, rx, bits, retry, event_id, payload, on_result,
                defer_jitter))
            return DEFERRED
        verdict = self.arbitrate(tx, rx, now)
        if verdict in (BUSY, NO_RX):
            if on_result is not None:
                on_result(None, verdict, now)
            return verdict
        air = frame_airtime(self.radio, bits)
        trans = Transmission(kind=kind, tx=tx, rx=rx, bits=bits,
                             start=now, end=now + air, event_id=event_id,
                             payload=payload, on_result=on_result)
        self._begin(trans)
        return GRANT

    def send_broadcast(self, kind: str, tx: object, bits: int, now: float,
                       payload=None, event_id: str = "-") -> None:
        """Carrier-sense broadcast: defers while the transmitter hears an
        ongoing transmission, then occupies the channel; copies are handed
        to the protocol per receiver at frame end."""
        if tx not in self.awake:
            return  # the node drained while the frame was pending
        hears, mine = self._hears, self._bit[tx]
        if self._on_air & mine:  # tx sends or hears a frame on the air
            busy_until = 0.0
            for t in self.active.values():
                if (t.tx == tx or hears[t.tx] & mine) and t.end > busy_until:
                    busy_until = t.end
            retry = busy_until + self.jitter(1e-3)
            self.schedule(retry, lambda: self.send_broadcast(
                kind, tx, bits, retry, payload=payload, event_id=event_id))
            return
        air = frame_airtime(self.radio, bits)
        trans = Transmission(kind=kind, tx=tx, rx=BROADCAST, bits=bits,
                             start=now, end=now + air, event_id=event_id,
                             payload=payload)
        self._begin(trans)

    def send_oob_control(self, kind: str, tx: object, rx: object,
                         now: float) -> None:
        """Zero-airtime control frame (residual reports, configuration).

        Charged and counted as a signal but never contends for the channel.
        A drained ``tx`` sends nothing, as in ``send_unicast``.
        """
        if tx not in self.awake:
            return
        bits = self.sc.control_bits
        self.charge(tx, tx_energy(self.coeff, bits, self.dist(tx, rx)))
        if rx in self.awake:
            self.charge(rx, rx_energy(self.coeff, bits))
        self.log(now, kind, tx, rx, "-", OK)

    def _jam_mask(self, trans: Transmission) -> int:
        # every other frame that shares air time with trans and was not
        # cancelled jams its own sender and every endpoint that hears it
        hears, bit, jammed = self._hears, self._bit, 0
        for g in trans.overlaps:
            if not g.cancelled:
                jammed |= hears[g.tx] | bit[g.tx]
        return jammed

    def _interfered(self, trans: Transmission, receiver: object) -> bool:
        return bool(self._jam_mask(trans) & self._bit[receiver])

    def _frame_end(self, trans: Transmission) -> None:
        if trans.cancelled:
            trans.overlaps = None
            return
        self._remove(trans)
        # transmit cost is charged on completion; a cancelled reservation
        # never put energy on the air
        cost_dist = (self.radio.radio_range if trans.rx == BROADCAST
                     else self.dist(trans.tx, trans.rx))
        self.charge(trans.tx, tx_energy(self.coeff, trans.bits, cost_dist))

        if trans.rx == BROADCAST:
            self.log(trans.start, trans.kind, trans.tx, BROADCAST,
                     trans.event_id, SENT)
            # One jammed mask serves every receiver. A frame that a
            # receiver's handler begins, or cancels, starts at trans.end,
            # so it never overlaps trans.
            jammed = self._jam_mask(trans)
            trans.overlaps = None
            # the receivers in ascending bit order: node ids, then BS
            awake, ids, heard = self.awake, self._ids, self._hears[trans.tx]
            receivers = []
            while heard:
                low = heard & -heard
                r = ids[low.bit_length() - 1]
                if r in awake:
                    receivers.append((r, low & jammed))
                heard ^= low
            cost = rx_energy(self.coeff, trans.bits)
            head = f"{trans.start:.6f} {COLL} {trans.tx} "
            tail = f" {trans.event_id} {COLLISION}\n"
            write, charge = self.log_buffer.write, self.charge
            received = self.protocol.on_broadcast_received
            for r, hit in receivers:
                if hit:
                    write(f"{head}{r}{tail}")  # what log() would write
                else:
                    charge(r, cost)
                    received(r, trans, trans.end)
            return

        r = trans.rx
        collided = self._interfered(trans, r)
        trans.overlaps = None
        outcome = (NO_RX if r not in self.awake
                   else COLLISION if collided else OK)
        self.log(trans.start, trans.kind, trans.tx, r, trans.event_id, outcome)
        if outcome == OK:
            self.charge(r, rx_energy(self.coeff, trans.bits))
        if trans.on_result is not None:
            trans.on_result(trans, outcome, trans.end)

    # ------------------------------------------------------------------ packets

    def new_packet(self, event_id: str, origin: int, now: float) -> PacketCtx:
        self.generated += 1
        pkt = DataPacket(event_id=event_id, origin=origin,
                         payload_bits=self.sc.payload_bits, created_at=now)
        return PacketCtx(packet=pkt)

    def drop(self, ctx: PacketCtx, reason: str, node: object, now: float) -> None:
        if ctx.terminal:
            raise RuntimeError("packet already resolved")
        ctx.terminal = True
        self.dropped[reason] += 1
        self.log(now, "DROP", node, "-", ctx.packet.event_id, reason)

    def deliver(self, ctx: PacketCtx, last_tx: object, now: float) -> None:
        if ctx.terminal:
            raise RuntimeError("packet already resolved")
        ctx.terminal = True
        self.delivered += 1
        self.log(now, "DELIVER", last_tx, BS, ctx.packet.event_id,
                 f"hops={ctx.packet.hops}")
        self.protocol.on_delivered(ctx, now)

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
        text = self.log_buffer.getvalue()
        self.log_buffer.close()  # the returned text is the only copy
        return text

    def sensors(self, where: Location) -> List[int]:
        """Nodes within sensing radius of ``where``, in ascending id order
        so that the jitter stream is drawn in a fixed order."""
        radius = self.sc.sensing_radius
        return sorted(n for n in self._sense_grid.near(where.x, where.y, radius)
                      if self.nodes[n].location.dist(where) <= radius)

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
            heap = self._heap
            for i, n in enumerate(nodes):
                heapq.heappush(heap, (t + jitter[j + i], seq + 1 + i,
                                      self._make_sense(n, event_id)))
            if k + 1 < len(sensed):
                self._feed(sensed, jitter, k + 1, seq + len(nodes) + 1,
                           j + len(nodes))
        heapq.heappush(self._heap, (t, seq, fire))

    def drain(self) -> None:
        """Pop and execute queued events until none is left."""
        heap = self._heap
        while heap:
            time, _, fn = heapq.heappop(heap)
            if time < self.now - 1e-12:
                raise RuntimeError("queue time went backwards")
            self.now = time
            fn()

    def _make_sense(self, node: int, event_id: str) -> Callable:
        return lambda: self.protocol.on_sense(node, event_id, self.now)


class HybRunner:
    """Engine adapter for the hybrid protocol state machine."""

    def __init__(self, engine: Engine):
        self.e = engine
        sc = engine.sc
        self.states: Dict[int, HybNodeState] = {}
        for i, rec in engine.nodes.items():
            self.states[i] = HybNodeState(
                id=i, location=rec.location, energy=rec.energy,  # shared battery
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
            bs_location=engine.bs_loc, radio=engine.radio,
            energy_coeff=engine.coeff,
            location_of=lambda v: engine.nodes[v].location,
            alive=alive, wait_t=sc.wait_t)

    # -------------------------------------------------------------- phases

    def configure(self, now: float) -> None:
        """Location upload, table computation, table dissemination."""
        e = self.e
        for n in sorted(e.nodes):
            e.send_oob_control(CONFIG, n, BS, now)
        alive = {n for n in e.nodes if n in e.awake}
        self.neighbour_table = compute_neighbour_table(e.locs, e.region, alive)
        for n in sorted(alive):
            self.states[n].set_row(self.neighbour_table.rows[n], self.ctx)
            e.send_oob_control(CONFIG, BS, n, now)
        e.schedule(now + e.sc.refresh_period, self._bs_refresh)

    def _bs_alive(self, node: int) -> bool:
        # the base station's belief: the last residual node reported
        # is at or above the energy threshold
        return self.bs_known_residual[node] >= self.e.sc.energy_threshold

    def _bs_refresh(self) -> None:
        e = self.e
        now = e.now
        dead = {n for n in self.bs_known_residual if not self._bs_alive(n)}
        self.neighbour_table = refresh_table(
            self.neighbour_table, e.locs, e.region, dead)
        for n in sorted(self.neighbour_table.rows):
            self.states[n].set_row(self.neighbour_table.rows[n], self.ctx)
            if n in e.awake:
                e.send_oob_control(CONFIG, BS, n, now)
        if e._heap:  # keep refreshing only while work remains
            e.schedule(now + e.sc.refresh_period, self._bs_refresh)

    # -------------------------------------------------------------- traffic

    def on_sense(self, node: int, event_id: str, now: float) -> None:
        ctx = self.e.new_packet(event_id, node, now)
        action = hyb.on_sense(self.states[node], ctx.packet, self.ctx, now)
        self._act(node, ctx, action, now)

    def _act(self, node: int, ctx: PacketCtx, action: Action, now: float) -> None:
        e = self.e
        if action.kind == DROP:
            e.drop(ctx, action.reason, node, now)
            return
        rx = BS
        if action.kind != SEND_DIRECT:
            rx = action.neighbour
            hyb.note_forward(self.states[node], rx)
            ctx.attempted.add(rx)
        e.send_unicast(DATA, node, rx, ctx.packet.payload_bits, now,
                       event_id=ctx.packet.event_id,
                       on_result=lambda trans, outcome, t: self._result(
                           node, ctx, trans, outcome, t))

    def _result(self, node: int, ctx: PacketCtx, trans, outcome: str,
                now: float) -> None:
        e = self.e
        if outcome == OK:
            if trans.rx == BS:
                e.deliver(ctx, node, now)
            else:
                self._relay(trans.rx, ctx, now)
            return
        if outcome == ASLEEP:
            e.drop(ctx, ASLEEP, node, now)
            return
        if outcome == COLLISION:
            # the model never retransmits a frame lost on the air
            e.drop(ctx, CONGESTION, node, now)
            return
        # BUSY / NO_RX: move on to the next candidate
        action = hyb.on_busy_channel(self.states[node], ctx.packet, self.ctx,
                                     ctx.attempted, now)
        if action.kind == DROP:
            e.drop(ctx, action.reason, node, now)
            return
        retry = now + RETRY_GAP
        e.schedule(retry, lambda: self._act(node, ctx, action, retry))

    def _relay(self, node: int, ctx: PacketCtx, now: float) -> None:
        ctx.attempted = set()
        action = hyb.on_receive(self.states[node], ctx.packet, self.ctx, now)
        self._act(node, ctx, action, now)

    # -------------------------------------------------------------- reports

    def on_delivered(self, ctx: PacketCtx, now: float) -> None:
        e = self.e
        for n in ctx.packet.visited:
            if n not in e.awake:
                continue
            e.send_oob_control(REPORT, n, BS, now)
            self.bs_known_residual[n] = e.nodes[n].energy.residual
