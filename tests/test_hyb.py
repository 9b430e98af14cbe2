"""Unit tests for the hybrid protocol's per-node state machine."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybsim import hyb
from hybsim.hyb import (ASLEEP, CONGESTION, DROP, DUPLICATE, FORWARD,
                        NO_ROUTE, SEND_DIRECT, DataPacket, DedupBuffer,
                        HybContext, HybNodeState, best_neighbour, note_forward,
                        on_busy_channel, on_receive, on_sense,
                        single_hop_feasible)
from hybsim.radio import tx_energy
from hybsim.scenario import Scenario
from hybsim.topology import DIRECT, ISOLATED, Location

BS = Location(0.0, 0.0)
# a west-east line: 1 and 2 are relays between 3 and the base station
POINTS = {1: Location(300.0, 0.0), 2: Location(320.0, 40.0),
          3: Location(600.0, 0.0), 4: Location(900.0, 0.0)}
SCENARIO = Scenario()


def make_ctx(dead=(), wait_t=0.1, residual=10.0):
    return HybContext(
        bs_location=BS, radio=SCENARIO.radio_params(),
        energy_coeff=SCENARIO.energy_coefficients(),
        location_of=POINTS.__getitem__,
        asleep=lambda v: v in dead, charge=dict.fromkeys(POINTS, residual),
        threshold=SCENARIO.energy_threshold, payload_bits=4096,
        wait_t=wait_t)


def make_state(node, row):
    st = HybNodeState(id=node, dedup=DedupBuffer(ttl=5.0))
    st.set_row(row, make_ctx())
    return st


def make_packet(origin, event_id="ev0", created_at=0.0, attempted=()):
    return DataPacket(event_id=event_id, origin=origin, created_at=created_at,
                      attempted=set(attempted))


class TestDedupBuffer:
    def test_fresh_id_absent(self):
        buf = DedupBuffer(ttl=5.0)
        assert not buf.contains("ev0", 0.0)

    def test_recorded_id_present_until_ttl(self):
        buf = DedupBuffer(ttl=5.0)
        buf.record("ev0", 1.0)
        assert buf.contains("ev0", 5.9)
        assert buf.contains("ev0", 6.0)
        assert not buf.contains("ev0", 6.1)

    def test_rerecord_extends(self):
        buf = DedupBuffer(ttl=5.0)
        buf.record("ev0", 0.0)
        buf.record("ev0", 4.0)
        assert buf.contains("ev0", 8.0)

    def test_record_at_an_ids_expiry_keeps_it(self):
        # "a" expires at 5.0; recording "b" then must not purge it
        buf = DedupBuffer(ttl=5.0)
        buf.record("a", 0.0)
        buf.record("b", 5.0)
        assert buf.contains("a", 5.0)

    @settings(max_examples=200, deadline=None)
    @given(ttl=st.sampled_from([0.0, 0.5, 1.0, 5.0]),
           calls=st.lists(st.tuples(
               st.booleans(), st.sampled_from(["ev0", "ev1", "ev2", "ev3"]),
               st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])), max_size=60))
    def test_purge_keeps_every_answer_and_no_expired_entry(self, ttl, calls):
        # a never-purged dict is the reference; time only moves forward
        buf, kept, now = DedupBuffer(ttl=ttl), {}, 0.0
        for record, event_id, step in calls:
            now += step
            if record:
                buf.record(event_id, now)
                kept[event_id] = now + ttl
                assert all(t >= now for t in buf.entries.values())
            else:
                want = event_id in kept and kept[event_id] >= now
                assert buf.contains(event_id, now) == want


class TestSingleHopFeasible:
    def test_in_range_with_energy(self):
        assert single_hop_feasible(make_state(1, DIRECT), make_ctx())

    def test_out_of_range(self):
        assert not single_hop_feasible(make_state(3, (1, 2)), make_ctx())

    def test_battery_must_cover_the_send(self):
        ctx = make_ctx()
        cost = tx_energy(ctx.energy_coeff, 4096, POINTS[1].dist(BS))
        thr = ctx.threshold
        assert thr == 1e-6
        st = make_state(1, DIRECT)
        assert single_hop_feasible(st, make_ctx(residual=thr + cost))
        assert not single_hop_feasible(st, make_ctx(residual=thr + cost * 0.99))

    def test_decision_follows_a_battery_drained_after_caching(self):
        st = make_state(1, DIRECT)
        ctx = make_ctx()
        assert single_hop_feasible(st, ctx)
        cost = st.direct_cost
        assert cost == tx_energy(ctx.energy_coeff, 4096, POINTS[1].dist(BS))
        ctx.charge[1] = ctx.threshold + cost / 2
        assert not single_hop_feasible(st, ctx)
        assert st.direct_cost == cost

    def test_out_of_range_is_cached_as_no_link(self):
        st = make_state(3, (1, 2))
        assert st.direct_cost is None
        assert not single_hop_feasible(st, make_ctx())

    def test_cost_uses_the_contexts_payload_size(self):
        ctx = replace(make_ctx(), payload_bits=8192)
        st = make_state(1, DIRECT)
        st.set_row(DIRECT, ctx)
        assert st.direct_cost == tx_energy(ctx.energy_coeff, 8192,
                                           POINTS[1].dist(BS))

    def test_link_test_is_hyb_link_feasible(self, monkeypatch):
        # the direct link, like the row's, is decided by the module's own
        # link_feasible; 1 is 300 m from the base station
        monkeypatch.setattr(hyb, "link_feasible", lambda radio, d: d < 290.0)
        st = make_state(1, DIRECT)
        assert st.direct_cost is None
        assert not single_hop_feasible(st, make_ctx())


class TestBestNeighbour:
    def test_least_used_wins(self):
        st = make_state(3, (1, 2))
        st.use_count[1] = 2
        assert best_neighbour(st, make_packet(3), make_ctx()) == 2

    def test_tie_broken_by_row_order(self):
        st = make_state(3, (1, 2))
        assert best_neighbour(st, make_packet(3), make_ctx()) == 1

    def test_excluded_skipped(self):
        st = make_state(3, (1, 2))
        assert best_neighbour(st, make_packet(3, attempted={1}), make_ctx()) == 2

    def test_dead_skipped(self):
        st = make_state(3, (1, 2))
        assert best_neighbour(st, make_packet(3), make_ctx(dead=(1,))) == 2

    def test_out_of_link_range_skipped(self):
        # 4 -> 1 is 600 m, far beyond the radio range
        st = make_state(4, (1,))
        assert best_neighbour(st, make_packet(4), make_ctx()) is None

    def test_member_the_link_misses_is_never_chosen(self):
        # 4 -> 1 is 600 m: link_feasible fails, so 1 is never picked, not
        # even when 3, the only other member, is busier or excluded
        st = make_state(4, (1, 3))
        assert st.linked == (3,)
        st.use_count[3] = 5
        assert best_neighbour(st, make_packet(4), make_ctx()) == 3
        assert best_neighbour(st, make_packet(4, attempted={3}),
                              make_ctx()) is None

    def test_link_test_is_hyb_link_feasible(self, monkeypatch):
        # the cached link facts come from the module's own link_feasible
        monkeypatch.setattr(hyb, "link_feasible", lambda radio, d: d < 290.0)
        st = make_state(3, (1, 2))   # 1 is 300 m away, 2 is 282.8 m
        assert st.linked == (2,)
        assert best_neighbour(st, make_packet(3), make_ctx()) == 2

    def test_set_row_refreshes_the_cached_candidates(self):
        st = make_state(4, (3,))
        ctx = make_ctx()
        assert best_neighbour(st, make_packet(4), ctx) == 3
        st.set_row((1,), ctx)
        assert st.linked == ()
        assert best_neighbour(st, make_packet(4), ctx) is None
        st.set_row((2, 3), ctx)   # 4 -> 2 is 581 m
        assert st.linked == (3,)
        assert best_neighbour(st, make_packet(4), ctx) == 3
        st.set_row(DIRECT, ctx)
        assert st.linked == ()

    def test_marker_rows_have_no_neighbour(self):
        assert best_neighbour(make_state(3, DIRECT), make_packet(3),
                              make_ctx()) is None
        assert best_neighbour(make_state(3, ISOLATED), make_packet(3),
                              make_ctx()) is None


class TestOnSense:
    def test_direct_when_feasible(self):
        action = on_sense(make_state(1, DIRECT), make_packet(1), make_ctx(), 0.0)
        assert action.kind == SEND_DIRECT

    def test_forward_when_out_of_bs_range(self):
        action = on_sense(make_state(3, (1, 2)), make_packet(3), make_ctx(), 0.0)
        assert action.kind == FORWARD
        assert action.neighbour == 1

    def test_asleep_gate(self):
        st = make_state(1, DIRECT)
        action = on_sense(st, make_packet(1), make_ctx(residual=0.0), 0.0)
        assert (action.kind, action.reason) == (DROP, ASLEEP)

    def test_a_residual_at_the_threshold_passes_the_gate(self):
        threshold = SCENARIO.energy_threshold
        at = make_ctx(residual=threshold)
        action = on_sense(make_state(3, (1, 2)), make_packet(3), at, 0.0)
        assert (action.kind, action.neighbour) == (FORWARD, 1)
        below = make_ctx(residual=math.nextafter(threshold, 0.0))
        action = on_sense(make_state(3, (1, 2)), make_packet(3), below, 0.0)
        assert (action.kind, action.reason) == (DROP, ASLEEP)

    def test_duplicate_within_ttl(self):
        st = make_state(1, DIRECT)
        assert on_sense(st, make_packet(1), make_ctx(), 0.0).kind == SEND_DIRECT
        dup = on_sense(st, make_packet(1), make_ctx(), 3.0)
        assert (dup.kind, dup.reason) == (DROP, DUPLICATE)

    def test_same_event_after_ttl_is_fresh(self):
        st = make_state(1, DIRECT)
        on_sense(st, make_packet(1), make_ctx(), 0.0)
        assert on_sense(st, make_packet(1), make_ctx(), 10.0).kind == SEND_DIRECT

    def test_no_route(self):
        action = on_sense(make_state(3, ISOLATED), make_packet(3),
                          make_ctx(), 0.0)
        assert (action.kind, action.reason) == (DROP, NO_ROUTE)


class TestOnReceive:
    def test_appends_self_to_path(self):
        st = make_state(1, DIRECT)
        pkt = make_packet(3)
        action = on_receive(st, pkt, make_ctx(), 0.0)
        assert action.kind == SEND_DIRECT
        assert pkt.visited == [3, 1]
        assert pkt.hops == 1

    def test_duplicate_does_not_extend_path(self):
        st = make_state(1, DIRECT)
        st.dedup.record("ev0", 0.0)
        pkt = make_packet(3)
        action = on_receive(st, pkt, make_ctx(), 1.0)
        assert (action.kind, action.reason) == (DROP, DUPLICATE)
        assert pkt.visited == [3]


class TestOnBusyChannel:
    def test_moves_to_next_candidate(self):
        st = make_state(3, (1, 2))
        action = on_busy_channel(st, make_packet(3, attempted={1}), make_ctx(),
                                 0.01)
        assert action.kind == FORWARD
        assert action.neighbour == 2

    def test_congestion_after_wait_budget(self):
        st = make_state(3, (1, 2))
        pkt = make_packet(3, created_at=0.0, attempted={1})
        action = on_busy_channel(st, pkt, make_ctx(wait_t=0.1), 0.1)
        assert (action.kind, action.reason) == (DROP, CONGESTION)

    def test_no_route_when_candidates_exhausted(self):
        st = make_state(3, (1, 2))
        action = on_busy_channel(st, make_packet(3, attempted={1, 2}),
                                 make_ctx(), 0.01)
        assert (action.kind, action.reason) == (DROP, NO_ROUTE)


class TestAction:
    """Every decision is an immutable record with ``kind``, ``neighbour``
    and ``reason``: the runner reads all three, and a benchmark tracer
    that wraps the decision functions reads ``kind``."""

    def decisions(self):
        ctx = make_ctx()
        forward = on_sense(make_state(3, (1, 2)), make_packet(3), ctx, 0.0)
        direct = on_sense(make_state(1, DIRECT), make_packet(1), ctx, 0.0)
        no_route = on_sense(make_state(3, ISOLATED), make_packet(3), ctx, 0.0)
        return forward, direct, no_route

    def test_fields(self):
        forward, direct, no_route = self.decisions()
        assert (forward.kind, forward.neighbour, forward.reason) == (
            FORWARD, 1, None)
        assert (direct.kind, direct.neighbour, direct.reason) == (
            SEND_DIRECT, None, None)
        assert (no_route.kind, no_route.neighbour, no_route.reason) == (
            DROP, None, NO_ROUTE)

    @pytest.mark.parametrize("field", ["kind", "neighbour", "reason"])
    def test_immutable(self, field):
        for action in self.decisions():
            with pytest.raises(AttributeError):
                setattr(action, field, None)
        assert self.decisions() == self.decisions()

    def test_one_forward_per_neighbour_per_context(self):
        # a run builds each neighbour's FORWARD once, in its context
        ctx = make_ctx()
        first = on_sense(make_state(3, (1, 2)), make_packet(3), ctx, 0.0)
        second = on_receive(make_state(3, (1,)), make_packet(4), ctx, 0.0)
        other = on_sense(make_state(3, (1, 2)), make_packet(3), make_ctx(),
                         0.0)
        assert first.neighbour == second.neighbour == other.neighbour == 1
        assert first is second
        assert other is not first and other == first


class TestUseCount:
    def test_note_forward_increments(self):
        st = make_state(3, (1, 2))
        note_forward(st, 1)
        note_forward(st, 1)
        note_forward(st, 2)
        assert st.use_count == {1: 2, 2: 1}

    def test_set_row_keeps_counts_for_surviving_entries(self):
        st = make_state(3, (1, 2))
        note_forward(st, 1)
        st.set_row((1,), make_ctx())
        assert st.use_count == {1: 1}

    def test_forward_to_a_neighbour_the_row_dropped_is_counted(self):
        # a busy-channel retry chosen under one row can run after a refresh
        # installed a row without its neighbour; the forward still counts,
        # and the count comes back when the neighbour rejoins the row
        st = make_state(3, (1, 2))
        st.set_row((2,), make_ctx())
        note_forward(st, 1)
        assert st.use_count == {2: 0, 1: 1}
        st.set_row((1, 2), make_ctx())
        assert st.use_count == {1: 1, 2: 0}

    def test_alternation_balances_load(self):
        st = make_state(3, (1, 2))
        ctx = make_ctx()
        for k in range(6):
            pkt = make_packet(3, event_id=f"ev{k}", created_at=float(k))
            action = on_sense(st, pkt, ctx, float(k))
            assert action.kind == FORWARD
            note_forward(st, action.neighbour)
        assert st.use_count == {1: 3, 2: 3}


class TestDataPacket:
    def test_origin_seeds_path(self):
        pkt = make_packet(3)
        assert pkt.visited == [3]
        assert pkt.hops == 0
