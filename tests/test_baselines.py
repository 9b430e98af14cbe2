"""Route discovery and data forwarding tests for the two baselines."""

import math
from functools import partial

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hybsim.engine import BS, Engine
from hybsim.metrics import collect
from hybsim.scenario import MAX_RETRIES, Scenario

from helpers import write_points
from oracles import record_deliveries
from test_engine import log_lines, run_at


def make_engine(tmp_path, points, protocol, bs=(0.0, 0.0), **kw):
    sc = Scenario(placement=write_points(tmp_path, points),
                  node_count=len(points), bs_location=bs,
                  protocol=protocol, **kw)
    return Engine(sc)


def lines(engine, kind, outcome=None):
    out = []
    for raw in log_lines(engine):
        parts = raw.split()
        if parts[1] == kind and (outcome is None or parts[5] == outcome):
            out.append(parts)
    return out


# 0 at 600 m needs 1 at 300 m to relay toward the sink at the origin
LINE2 = {0: (600.0, 0.0), 1: (300.0, 0.0)}
LINE3 = {0: (900.0, 0.0), 1: (600.0, 0.0), 2: (300.0, 0.0)}


@pytest.mark.parametrize("protocol", ["aodv", "dsr"])
class TestDiscoveryAndDelivery:
    def test_two_hop_delivery(self, tmp_path, protocol):
        e = make_engine(tmp_path, LINE2, protocol)
        delivered = record_deliveries(e)
        e.protocol.on_sense(0, "ev0")
        e.drain()
        assert e.delivered == 1
        assert delivered == [("ev0", [0, 1])]
        assert lines(e, "DELIVER")[0][5] == "hops=1"

    def test_flood_suppression(self, tmp_path, protocol):
        # every node rebroadcasts a given route request at most once
        e = make_engine(tmp_path, LINE3, protocol)
        e.protocol.on_sense(0, "ev0")
        e.drain()
        sent = lines(e, "RREQ", "SENT")
        pairs = [(p[2], p[4]) for p in sent]
        assert len(pairs) == len(set(pairs))
        assert {p[2] for p in sent if p[4] == "rq0.1"} == {"0", "1", "2"}

    def test_route_reused_without_new_flood(self, tmp_path, protocol):
        e = make_engine(tmp_path, LINE2, protocol)
        e.protocol.on_sense(0, "ev0")
        e.drain()
        floods = len(lines(e, "RREQ", "SENT"))
        run_at(e, e.now + 1.0, partial(e.protocol.on_sense, 0, "ev1"))
        assert len(lines(e, "RREQ", "SENT")) == floods
        assert e.delivered == 2

    def test_unreachable_origin_drops_no_route(self, tmp_path, protocol):
        e = make_engine(tmp_path, {0: (600.0, 0.0)}, protocol)
        e.protocol.on_sense(0, "ev0")
        e.drain()
        assert e.dropped["NO_ROUTE"] == 1
        # initial flood plus the configured number of retries
        assert len(lines(e, "RREQ", "SENT")) == 1 + e.sc.discovery_retries

    def test_timeout_after_its_discovery_ended_floods_nothing(
            self, tmp_path, protocol):
        # the reply ends the discovery long before its timeout fires; the
        # route is then forgotten, so only the ended discovery keeps that
        # timeout from flooding again
        e = make_engine(tmp_path, LINE2, protocol)
        st0 = e.protocol.states[0]

        def forget_route():
            assert e.delivered == 1 and st0.disc_attempts == 0
            if protocol == "aodv":
                st0.route = None
            else:
                st0.cache = []
        e.protocol.on_sense(0, "ev0")
        e.schedule(e.sc.discovery_timeout / 2, forget_route)
        e.drain()
        assert e.now >= e.sc.discovery_timeout  # the timeout has fired
        assert {p[4] for p in lines(e, "RREQ", "SENT")} == {"rq0.1"}
        assert st0.disc_attempts == 0

    def test_fresh_flood_after_retries_run_out(self, tmp_path, protocol):
        e = make_engine(tmp_path, {0: (600.0, 0.0)}, protocol)
        floods = 1 + e.sc.discovery_retries
        e.protocol.on_sense(0, "ev0")
        e.drain()
        assert e.dropped["NO_ROUTE"] == 1
        assert e.protocol.states[0].disc_attempts == 0

        def sense():
            e.protocol.on_sense(0, "ev1")
            return e.protocol.states[0].disc_attempts
        assert run_at(e, e.now + 1.0, sense) == 1
        assert e.dropped["NO_ROUTE"] == 2
        sent = [p[4] for p in lines(e, "RREQ", "SENT") if p[2] == "0"]
        assert sent == [f"rq0.{k}" for k in range(1, 2 * floods + 1)]

    def test_dead_next_hop_exhausts_retries(self, tmp_path, protocol):
        e = make_engine(tmp_path, LINE2, protocol)
        e.protocol.on_sense(0, "ev0")
        e.drain()
        assert e.delivered == 1
        e.charge(1, 100.0)
        run_at(e, e.now + 1.0, partial(e.protocol.on_sense, 0, "ev1"))
        assert e.dropped["CONGESTION"] == 1

    def test_dead_next_hop_at_the_retry_cap(self, tmp_path, protocol):
        # the backoff doubles per retry; past 1024 retries 2 ** k overflowed
        e = make_engine(tmp_path, LINE2, protocol, data_retries=MAX_RETRIES)
        e.protocol.on_sense(0, "ev0")
        e.drain()
        e.charge(1, 100.0)
        run_at(e, e.now + 1.0, partial(e.protocol.on_sense, 0, "ev1"))
        assert e.dropped["CONGESTION"] == 1
        assert math.isfinite(e.now)

    def test_loop_free_paths(self, tmp_path, protocol):
        e = make_engine(tmp_path, LINE3, protocol)
        delivered = record_deliveries(e)
        e.protocol.on_sense(0, "ev0")
        e.drain()
        for _, path in delivered:
            assert len(path) == len(set(path))


class TestAodvState:
    def test_routes_point_toward_sink(self, tmp_path):
        e = make_engine(tmp_path, LINE3, "aodv")
        e.protocol.on_sense(0, "ev0")
        e.drain()
        st = e.protocol.states
        assert st[2].route[0] == BS
        assert st[1].route == (2, 2)
        assert st[0].route == (1, 3)

    def test_reverse_routes_recorded(self, tmp_path):
        e = make_engine(tmp_path, LINE3, "aodv")
        e.protocol.on_sense(0, "ev0")
        e.drain()
        assert e.protocol.states[1].reverse[0] == 0
        assert e.protocol.states[2].reverse[0] == 1

    def test_give_up_invalidates_route(self, tmp_path):
        e = make_engine(tmp_path, LINE2, "aodv")
        e.protocol.on_sense(0, "ev0")
        e.drain()
        assert e.protocol.states[0].route is not None
        e.charge(1, 100.0)
        run_at(e, e.now + 1.0, partial(e.protocol.on_sense, 0, "ev1"))
        assert e.protocol.states[0].route is None


class TestDsrState:
    def test_reply_path_fills_caches(self, tmp_path):
        e = make_engine(tmp_path, LINE3, "dsr")
        e.protocol.on_sense(0, "ev0")
        e.drain()
        st = e.protocol.states
        assert (0, 1, 2, BS) in st[0].cache
        assert (1, 2, BS) in st[1].cache
        assert (2, BS) in st[2].cache

    def test_shortest_cached_route_preferred(self, tmp_path):
        e = make_engine(tmp_path, LINE3, "dsr")
        e.protocol._cache(0, (0, 1, 2, BS))
        e.protocol._cache(0, (0, 2, BS))
        assert e.protocol._best_route(0) == (0, 2, BS)

    def test_give_up_purges_routes_through_dead_hop(self, tmp_path):
        e = make_engine(tmp_path, LINE2, "dsr")
        e.protocol.on_sense(0, "ev0")
        e.drain()
        assert e.protocol._best_route(0) is not None
        e.charge(1, 100.0)
        run_at(e, e.now + 1.0, partial(e.protocol.on_sense, 0, "ev1"))
        assert e.protocol._best_route(0) is None

    def test_no_cache_holds_a_route_twice(self):
        e = Engine(Scenario(protocol="dsr", node_count=30, sim_time=10.0,
                            seed=5))
        e.run()
        caches = [st.cache for st in e.protocol.states.values()]
        assert any(len(route) > 2 for cache in caches for route in cache)
        for cache in caches:
            assert len(set(cache)) == len(cache)

    def test_delivered_path_matches_source_route(self, tmp_path):
        e = make_engine(tmp_path, LINE3, "dsr")
        delivered = record_deliveries(e)
        e.protocol.on_sense(0, "ev0")
        e.drain()
        assert delivered == [("ev0", [0, 1, 2])]


class TestPacketConservation:
    @pytest.mark.parametrize("protocol", ["aodv", "dsr"])
    def test_full_run_accounts_for_every_packet(self, tmp_path, protocol):
        sc = Scenario(protocol=protocol, node_count=30, sim_time=10.0, seed=5)
        e = Engine(sc)
        log = e.run()
        report = collect(log)
        assert report.generated == e.generated
        assert report.delivered + report.dropped_total() == report.generated


class Forgetful(dict):
    """A flood-mask table that keeps nothing, so the engine hands every
    clean receiver its copy."""

    def __setitem__(self, key, value):
        pass


class TestHeardBeforeSkip:
    """``_frame_end`` hands a broadcast copy only to the receivers outside
    its flood's mask. With the engine's mask disabled, a first-copy filter
    the test owns, keyed by event id and counting each frame's sender as
    holding the flood, must write the same log."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(protocol=st.sampled_from(["aodv", "dsr"]),
           nodes=st.integers(2, 30), seed=st.integers(0, 10 ** 6),
           sim_time=st.sampled_from([0.5, 1.0, 3.0]),
           size=st.sampled_from([700.0, 2000.0]),
           initial=st.sampled_from([10.0, 0.2, 0.05, 0.01]),
           control_bits=st.sampled_from([0, 320]))
    # a dense field where nodes die mid-flood
    @example(protocol="dsr", nodes=30, seed=1, sim_time=3.0, size=700.0,
             initial=0.05, control_bits=320)
    def test_log_equals_handing_every_copy(self, protocol, nodes, seed,
                                           sim_time, size, initial,
                                           control_bits):
        sc = Scenario(protocol=protocol, node_count=nodes, seed=seed,
                      sim_time=sim_time, topology_size=(size, size),
                      bs_location=(size / 2, size / 2),
                      initial_energy=initial, control_bits=control_bits)

        def run(skip):
            e = Engine(sc)
            if not skip:
                e._flooded = Forgetful()
                handler, holders = e.protocol.on_broadcast_received, {}

                def first_copy(node, trans):
                    held = holders.setdefault(trans.event_id, set())
                    held.add(trans.tx)
                    if node not in held:
                        held.add(node)
                        handler(node, trans)
                e.protocol.on_broadcast_received = first_copy
            log = e.run()
            assert e.generated == e.delivered + sum(e.dropped.values())
            return log
        assert run(skip=True) == run(skip=False)
