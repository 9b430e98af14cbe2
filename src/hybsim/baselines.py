"""Simplified on-demand baselines over the same radio/MAC substrate.

Both baselines discover routes by flooding a route request, get a reply
from the sink, and then unicast data with bounded retransmission. The
AODV-like variant keeps hop-by-hop routing state (next hop toward the
sink, reverse paths toward requesters); the DSR-like variant carries full
source routes in the reply and in every data packet, and lets nodes on
the reply path snoop routes into a cache. Sequence-number subtleties,
HELLO beacons and route-error propagation are deliberately absent: the
baselines only need to produce realistic control traffic, hop counts and
retransmissions for comparison.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from .hyb import ASLEEP, CONGESTION, NO_ROUTE, DataPacket
from . import engine as eng
from .engine import BS, DATA, OK, RREP, RREQ

DEFER_JITTER = 1e-3  # s, spread of a send deferred behind the sender's own frame


@dataclass
class DiscoveryState:
    """Per-node route discovery bookkeeping shared by both baselines."""

    pending: List[DataPacket] = field(default_factory=list)
    disc_attempts: int = 0  # floods so far; non-zero exactly while one runs
    rreq_counter: int = 0


class _BaseRunner:
    """Shared discovery/retransmission skeleton for both baselines, and
    the runner contract, written once.

    The engine calls a runner only through ``configure(now)``, once at
    t = 0; ``on_sense(node, event_id, now)``, per node sensing an event;
    ``on_broadcast_received(node, trans, now)``, per awake receiver of a
    broadcast frame that is not jammed there and holds no copy of the
    frame's flood ``trans.event_id``: the engine keeps each flood's mask,
    the endpoints that sent a frame of it or were handed a copy; and the
    callbacks a runner hands to ``send_unicast`` and ``schedule``. Every
    ``send_unicast`` call, which returns nothing, fires its ``on_result``
    exactly once: ASLEEP, BUSY or NO_RX at once with ``trans`` None, BUSY
    with the frame a stronger grab cancelled, or OK, COLLISION or NO_RX at
    frame end; a deferred send reports only when its retry resolves. A runner
    reads only the engine's ``sc``, ``nodes``, ``awake``, ``now`` and
    ``pending`` (the hybrid one also ``locs``, ``radio`` and ``coeff``), no
    private member, and calls only ``schedule``, ``jitter``, ``new_packet``,
    ``drop``, ``deliver`` and the three ``send_*`` methods.

    A baseline supplies its ``node_state`` class and two hooks:
    ``_best_route(node)``, the route to the sink known at ``node`` or None,
    on which an originated packet is sent as its ``route``; and
    ``_learn_route(node, trans)``, which records the route a reply carries
    to ``node`` and returns ``(next_hop, payload)`` for the reply's next
    hop, or None where the reply path ends. ``_send_data`` (re)transmits a
    packet toward its next hop, ``_give_up`` ends one out of retries,
    ``_relay`` passes on a received one and ``_rreq_payload(node)`` builds
    the body of a route request ``node`` originates.
    """

    def __init__(self, engine_: "eng.Engine"):
        self.e = engine_
        self.states = {n: self.node_state() for n in engine_.nodes}

    def configure(self, now: float) -> None:
        pass  # on-demand protocols have no configuration phase

    # ---------------------------------------------------------------- origin

    def on_sense(self, node, event_id: str, now: float) -> None:
        e = self.e
        pkt = e.new_packet(event_id, node, now)
        if node not in e.awake:
            e.drop(pkt, ASLEEP, node, now)
            return
        pkt.route = self._best_route(node)
        if pkt.route is None:
            self._await_route(node, pkt, now)
        else:
            self._send_data(node, pkt, now)

    # ---------------------------------------------------------------- data

    def on_data_received(self, node, pkt, now) -> None:
        if node in pkt.visited:
            self.e.drop(pkt, NO_ROUTE, node, now)  # routing loop guard
            return
        pkt.visited.append(node)
        pkt.retry_count = 0
        self._relay(node, pkt, now)

    def _relay(self, node, pkt, now) -> None:
        self._send_data(node, pkt, now)

    def _data_result(self, node, pkt, trans, outcome, now) -> None:
        e = self.e
        if outcome == OK:
            if trans.rx == BS:
                e.deliver(pkt, node, now)
            else:
                self.on_data_received(trans.rx, pkt, now)
            return
        if outcome == ASLEEP:
            e.drop(pkt, ASLEEP, node, now)
            return
        # BUSY / COLLISION / NO_RX: bounded retransmission with backoff
        pkt.retry_count += 1
        if pkt.retry_count <= e.sc.data_retries:
            delay = e.sc.retry_backoff * (2 ** (pkt.retry_count - 1))
            retry = now + delay + e.jitter(1e-3)
            e.schedule(retry, lambda: self._send_data(node, pkt, retry))
        else:
            self._give_up(node, pkt, now)

    def _transmit_data(self, node, rx, pkt, now) -> None:
        self.e.send_unicast(
            DATA, node, rx, now, event_id=pkt.event_id,
            defer_jitter=DEFER_JITTER,
            on_result=lambda trans, outcome, t: self._data_result(
                node, pkt, trans, outcome, t))

    # ------------------------------------------------------------ discovery

    def _await_route(self, node, pkt, now) -> None:
        """Queue a packet at its origin; flood unless a discovery runs."""
        st = self.states[node]
        st.pending.append(pkt)
        if not st.disc_attempts:
            self._flood(node, now)

    def _flood(self, node, now) -> None:
        e = self.e
        st = self.states[node]
        st.disc_attempts += 1
        st.rreq_counter += 1
        e.send_broadcast(RREQ, node, now, payload=self._rreq_payload(node),
                         event_id=f"rq{node}.{st.rreq_counter}")
        deadline = now + e.sc.discovery_timeout
        e.schedule(deadline, lambda: self._discovery_timeout(node, deadline))

    def _discovery_timeout(self, node, now) -> None:
        st = self.states[node]
        if not st.disc_attempts:
            return  # its discovery has ended
        if self._best_route(node) is not None:
            self._route_available(node, now)
            return
        if st.disc_attempts <= self.e.sc.discovery_retries:
            self._flood(node, now)
            return
        st.disc_attempts = 0
        for pkt in st.pending:
            self.e.drop(pkt, NO_ROUTE, node, now)
        st.pending = []

    def _route_available(self, node, now) -> None:
        """Flush queued packets once a route to the sink exists."""
        st = self.states[node]
        route = self._best_route(node)
        st.disc_attempts = 0
        pending, st.pending = st.pending, []
        for pkt in pending:
            pkt.route = route
            self._send_data(node, pkt, now)

    def _rreq_payload(self, node):
        """The body of a route request ``node`` originates: its origin."""
        return node

    def _rebroadcast(self, node, trans, payload, now) -> None:
        e = self.e
        retry = now + e.jitter(5e-3)
        e.schedule(retry, partial(e.send_broadcast, RREQ, node, retry,
                                  payload=payload, event_id=trans.event_id))

    # --------------------------------------------------------------- replies

    def _send_rrep(self, frm, to, payload, now) -> None:
        self.e.send_unicast(RREP, frm, to, now, payload=payload,
                            on_result=self._rrep_result,
                            defer_jitter=DEFER_JITTER)

    def _rrep_result(self, trans, outcome, now) -> None:
        if outcome != OK:
            return  # a lost reply is recovered by the discovery retry
        node = trans.rx
        onward = self._learn_route(node, trans)
        self._route_available(node, now)
        if onward is not None:
            self._send_rrep(node, *onward, now)


@dataclass
class AodvNodeState(DiscoveryState):
    route: Optional[Tuple[object, int]] = None   # (next hop, transmissions to sink)
    reverse: Dict[int, object] = field(default_factory=dict)


class AodvRunner(_BaseRunner):
    """Hop-by-hop on-demand routing with route request flooding."""

    node_state = AodvNodeState
    # defined here, not only inherited: the benchmark's tracer wraps the
    # handlers found in each runner class's own namespace
    on_sense = _BaseRunner.on_sense

    def _best_route(self, node) -> Optional[Tuple[object, int]]:
        return self.states[node].route

    def _send_data(self, node, pkt, now) -> None:
        # the next hop is read per attempt, never from pkt.route
        st = self.states[node]
        if st.route is None:
            if node == pkt.origin:
                self._await_route(node, pkt, now)
            else:
                self.e.drop(pkt, NO_ROUTE, node, now)
            return
        self._transmit_data(node, st.route[0], pkt, now)

    def _give_up(self, node, pkt, now) -> None:
        self.states[node].route = None  # the link is deemed broken
        self.e.drop(pkt, CONGESTION, node, now)

    def on_broadcast_received(self, node, trans, now) -> None:
        origin = trans.payload
        if node == BS:
            self._send_rrep(BS, trans.tx, (origin, 0), now)
            return
        self.states[node].reverse[origin] = trans.tx
        self._rebroadcast(node, trans, origin, now)

    def _learn_route(self, node, trans):
        origin, route_len = trans.payload
        st = self.states[node]
        my_len = route_len + 1
        if st.route is None or my_len < st.route[1]:
            st.route = (trans.tx, my_len)
        nxt = st.reverse.get(origin)
        if nxt is None:
            return None
        return nxt, (origin, my_len)


@dataclass
class DsrNodeState(DiscoveryState):
    cache: List[Tuple[object, ...]] = field(default_factory=list)  # path to sink


class DsrRunner(_BaseRunner):
    """Source routing: replies carry the full path, data carries it too.

    A cached route and a packet's ``route`` both start at the node holding
    them, so the next hop is always ``route[1]``.
    """

    node_state = DsrNodeState
    # defined here, not only inherited: the benchmark's tracer wraps the
    # handlers found in each runner class's own namespace
    on_sense = _BaseRunner.on_sense

    # ---------------------------------------------------------------- cache

    def _best_route(self, node) -> Optional[Tuple[object, ...]]:
        best = None
        for route in self.states[node].cache:
            if best is None or len(route) < len(best):
                best = route
        return best

    def _cache(self, node, route: Tuple[object, ...]) -> None:
        st = self.states[node]
        if route not in st.cache:
            st.cache.append(route)

    def _purge(self, node, bad) -> None:
        st = self.states[node]
        st.cache = [r for r in st.cache if bad not in r]

    # ---------------------------------------------------------------- data

    def _rreq_payload(self, node) -> Tuple[object, ...]:
        return (node,)  # the route record

    def _send_data(self, node, pkt, now) -> None:
        self._transmit_data(node, pkt.route[1], pkt, now)

    def _give_up(self, node, pkt, now) -> None:
        self._purge(node, pkt.route[1])
        self.e.drop(pkt, CONGESTION, node, now)

    def _relay(self, node, pkt, now) -> None:
        # forwarding is stateless; snoop the tail of the carried route
        pkt.route = pkt.route[1:]
        self._cache(node, pkt.route)
        self._send_data(node, pkt, now)

    # ------------------------------------------------------------ discovery

    def on_broadcast_received(self, node, trans, now) -> None:
        record = trans.payload
        if node == BS:
            self._send_rrep(BS, record[-1], record + (BS,), now)
            return
        self._rebroadcast(node, trans, record + (node,), now)

    def _learn_route(self, node, trans):
        route = trans.payload
        idx = route.index(node)
        self._cache(node, route[idx:])
        if idx == 0:
            return None
        return route[idx - 1], trans.payload
