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

from . import engine as eng
from .engine import (ASLEEP, BS, CONGESTION, DATA, NO_ROUTE, OK, RREP, RREQ,
                     DataPacket)

DEFER_JITTER = 1e-3  # s, spread of a send deferred behind the sender's own frame


@dataclass
class DiscoveryState:
    """Per-node route discovery bookkeeping shared by both baselines."""

    pending: List[DataPacket] = field(default_factory=list)
    disc_attempts: int = 0  # floods so far; non-zero exactly while one runs
    rreq_counter: int = 0


class _BaseRunner:
    """Shared discovery/retransmission skeleton for both baselines; it
    keeps the runner contract written in ``engine.Engine``'s docstring.

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

    def configure(self) -> None:
        pass  # on-demand protocols have no configuration phase

    # ---------------------------------------------------------------- origin

    def on_sense(self, node, event_id: str) -> None:
        e = self.e
        pkt = e.new_packet(event_id, node)
        if node in e.asleep:
            e.drop(pkt, ASLEEP, node)
            return
        pkt.route = self._best_route(node)
        if pkt.route is None:
            self._await_route(node, pkt)
        else:
            self._send_data(node, pkt)

    # ---------------------------------------------------------------- data

    def on_data_received(self, node, pkt) -> None:
        if node in pkt.visited:
            self.e.drop(pkt, NO_ROUTE, node)  # routing loop guard
            return
        pkt.visited.append(node)
        pkt.retry_count = 0
        self._relay(node, pkt)

    def _relay(self, node, pkt) -> None:
        self._send_data(node, pkt)

    def _data_result(self, node, pkt, trans, outcome) -> None:
        e = self.e
        if outcome == OK:
            if trans.rx == BS:
                e.deliver(pkt, node)
            else:
                self.on_data_received(trans.rx, pkt)
            return
        if outcome == ASLEEP:
            e.drop(pkt, ASLEEP, node)
            return
        # BUSY / COLLISION / NO_RX: bounded retransmission with backoff
        pkt.retry_count += 1
        if pkt.retry_count <= e.sc.data_retries:
            delay = e.sc.retry_backoff * (2 ** (pkt.retry_count - 1))
            e.schedule(e.now + delay + e.jitter(1e-3),
                       partial(self._send_data, node, pkt))
        else:
            self._give_up(node, pkt)

    def _transmit_data(self, node, rx, pkt) -> None:
        self.e.send_unicast(DATA, node, rx, event_id=pkt.event_id,
                            defer_jitter=DEFER_JITTER,
                            on_result=partial(self._data_result, node, pkt))

    # ------------------------------------------------------------ discovery

    def _await_route(self, node, pkt) -> None:
        """Queue a packet at its origin; flood unless a discovery runs."""
        st = self.states[node]
        st.pending.append(pkt)
        if not st.disc_attempts:
            self._flood(node)

    def _flood(self, node) -> None:
        e = self.e
        st = self.states[node]
        st.disc_attempts += 1
        st.rreq_counter += 1
        e.send_broadcast(RREQ, node, payload=self._rreq_payload(node),
                         event_id=f"rq{node}.{st.rreq_counter}")
        e.schedule(e.now + e.sc.discovery_timeout,
                   partial(self._discovery_timeout, node))

    def _discovery_timeout(self, node) -> None:
        st = self.states[node]
        if not st.disc_attempts:
            return  # its discovery has ended
        if self._best_route(node) is not None:
            self._route_available(node)
            return
        if st.disc_attempts <= self.e.sc.discovery_retries:
            self._flood(node)
            return
        st.disc_attempts = 0
        for pkt in st.pending:
            self.e.drop(pkt, NO_ROUTE, node)
        st.pending = []

    def _route_available(self, node) -> None:
        """Flush queued packets once a route to the sink exists."""
        st = self.states[node]
        route = self._best_route(node)
        st.disc_attempts = 0
        pending, st.pending = st.pending, []
        for pkt in pending:
            pkt.route = route
            self._send_data(node, pkt)

    def _rreq_payload(self, node):
        """The body of a route request ``node`` originates: its origin."""
        return node

    def _rebroadcast(self, node, trans, payload) -> None:
        e = self.e
        e.schedule(e.now + e.jitter(5e-3),
                   partial(e.send_broadcast, RREQ, node, payload=payload,
                           event_id=trans.event_id))

    # --------------------------------------------------------------- replies

    def _send_rrep(self, frm, to, payload) -> None:
        self.e.send_unicast(RREP, frm, to, payload=payload,
                            on_result=self._rrep_result,
                            defer_jitter=DEFER_JITTER)

    def _rrep_result(self, trans, outcome) -> None:
        if outcome != OK:
            return  # a lost reply is recovered by the discovery retry
        node = trans.rx
        onward = self._learn_route(node, trans)
        self._route_available(node)
        if onward is not None:
            self._send_rrep(node, *onward)


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

    def _send_data(self, node, pkt) -> None:
        # the next hop is read per attempt, never from pkt.route
        st = self.states[node]
        if st.route is None:
            if node == pkt.origin:
                self._await_route(node, pkt)
            else:
                self.e.drop(pkt, NO_ROUTE, node)
            return
        self._transmit_data(node, st.route[0], pkt)

    def _give_up(self, node, pkt) -> None:
        self.states[node].route = None  # the link is deemed broken
        self.e.drop(pkt, CONGESTION, node)

    def on_broadcast_received(self, node, trans) -> None:
        origin = trans.payload
        if node == BS:
            self._send_rrep(BS, trans.tx, (origin, 0))
            return
        self.states[node].reverse[origin] = trans.tx
        self._rebroadcast(node, trans, origin)

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

    def _send_data(self, node, pkt) -> None:
        self._transmit_data(node, pkt.route[1], pkt)

    def _give_up(self, node, pkt) -> None:
        self._purge(node, pkt.route[1])
        self.e.drop(pkt, CONGESTION, node)

    def _relay(self, node, pkt) -> None:
        # forwarding is stateless; snoop the tail of the carried route
        pkt.route = pkt.route[1:]
        self._cache(node, pkt.route)
        self._send_data(node, pkt)

    # ------------------------------------------------------------ discovery

    def on_broadcast_received(self, node, trans) -> None:
        record = trans.payload
        if node == BS:
            self._send_rrep(BS, record[-1], record + (BS,))
            return
        self._rebroadcast(node, trans, record + (node,))

    def _learn_route(self, node, trans):
        route = trans.payload
        idx = route.index(node)
        self._cache(node, route[idx:])
        if idx == 0:
            return None
        return route[idx - 1], trans.payload
