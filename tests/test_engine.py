"""Discrete-event core tests: RNG streams, placement, traffic, channel."""

import math
import random
import struct
import tempfile
from functools import partial

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hybsim.engine import (ASLEEP, BROADCAST, BS, BUSY, COLLISION, CONFIG,
                           DATA, GRANT, NO_RX, OK, REPORT, RETRY_GAP, RREP,
                           RREQ, Engine, Transmission, generate_events,
                           place_nodes, substream)
from hybsim.hyb import HybNodeState
from hybsim.metrics import collect
from hybsim.radio import frame_airtime, link_feasible
from hybsim.scenario import Scenario
from hybsim.topology import compute_neighbour_table, refresh_table

from helpers import write_points
from oracles import (brute_force_interfered, eager_run, record_charges,
                     record_deliveries)


def make_engine(tmp_path, points, bs, **kw):
    sc = Scenario(placement=write_points(tmp_path, points),
                  node_count=len(points), bs_location=bs, **kw)
    return Engine(sc)


def log_lines(engine):
    """The records an engine has logged so far, one string each."""
    return engine.log_buffer.getvalue().splitlines()


def run_at(engine, time, fn):
    """Run ``fn`` as an event at simulated ``time``, then drain the queue;
    returns what ``fn`` returned. Calls made at a time other than 0 take
    this path, the one a run takes, so the engine's clock reads ``time``
    while ``fn`` runs."""
    out = []
    engine.schedule(time, lambda: out.append(fn()))
    engine.drain()
    return out[0]


class Recorder:
    """Collects (outcome, time) pairs from unicast result callbacks, the
    time read from the engine's clock."""

    def __init__(self, engine):
        self.engine = engine
        self.results = []

    def __call__(self, trans, outcome):
        self.results.append((outcome, self.engine.now))


def ignore(trans, outcome):
    """A unicast result callback that keeps nothing."""


def granted(e, tx, rx):
    """The frame on the air from ``tx``, asserted to go to ``rx``: what a
    granted unicast leaves behind."""
    trans = e.active[tx]
    assert trans.rx == rx
    return trans


class TestSubstream:
    def test_deterministic(self):
        a = [substream(1, "placement").random() for _ in range(5)]
        b = [substream(1, "placement").random() for _ in range(5)]
        assert a == b

    def test_streams_independent(self):
        assert substream(1, "placement").random() != substream(1, "traffic").random()
        assert substream(1, "placement").random() != substream(2, "placement").random()


class TestPlacement:
    def test_uniform_in_bounds(self):
        sc = Scenario(node_count=50, topology_size=(800.0, 600.0), seed=9)
        locs = place_nodes(sc)
        assert len(locs.entries) == 50
        for p in locs.entries.values():
            assert 0 <= p.x <= 800 and 0 <= p.y <= 600

    def test_uniform_deterministic(self):
        sc = Scenario(node_count=10, seed=4)
        assert place_nodes(sc).entries == place_nodes(sc).entries

    def test_location_file_placement(self, tmp_path):
        path = write_points(tmp_path, {0: (10, 20), 1: (30, 40)})
        sc = Scenario(placement=path, node_count=2)
        locs = place_nodes(sc)
        assert locs.entries[1].x == 30
        assert locs.base_station == sc.bs()


class TestTraffic:
    def test_cbr_schedule(self):
        sc = Scenario(sim_time=2.0, packet_rate=8.0)
        events = generate_events(sc)
        assert len(events) == 16
        assert [t for t, _, _ in events] == [k / 8.0 for k in range(16)]
        assert len({eid for _, eid, _ in events}) == 16

    def test_positions_deterministic(self):
        sc = Scenario(sim_time=1.0, seed=3)
        assert generate_events(sc) == generate_events(sc)


class TestArbitration:
    """Unicast channel grabs driven directly against a quiet engine."""

    POINTS = {0: (500.0, 610.0),   # 110 m above the receiver
              1: (500.0, 465.0),   # 35 m below it: much stronger
              2: (500.0, 500.0),   # the receiver
              3: (700.0, 500.0)}   # bystander in range of 2

    def make(self, tmp_path):
        return make_engine(tmp_path, self.POINTS, (1500.0, 1500.0))

    def test_grant_on_idle_channel(self, tmp_path):
        e = self.make(tmp_path)
        rec = Recorder(e)
        e.send_unicast("DATA", 0, 2, on_result=rec)
        granted(e, 0, 2)
        assert rec.results == []
        e.drain()
        assert rec.results == [(OK, pytest.approx(2.048e-3))]

    def test_busy_when_receiver_transmitting(self, tmp_path):
        e = self.make(tmp_path)
        e.send_unicast("DATA", 2, 3, on_result=ignore)
        granted(e, 2, 3)
        rec = Recorder(e)
        e.schedule(1e-3, lambda: e.send_unicast("DATA", 0, 2,
                                                on_result=rec))
        e.drain()
        assert rec.results == [(BUSY, 1e-3)]

    def test_busy_when_receiver_hears_ongoing_frame(self, tmp_path):
        e = self.make(tmp_path)
        e.send_unicast("DATA", 1, 2, on_result=ignore)
        granted(e, 1, 2)
        rec = Recorder(e)
        e.schedule(1e-3, lambda: e.send_unicast("DATA", 3, 0,
                                                on_result=rec))
        e.drain()
        # 0 hears 1's ongoing frame (dist 145 m), so the grab fails
        assert rec.results[0] == (BUSY, 1e-3)

    def test_same_instant_power_contest(self, tmp_path):
        e = self.make(tmp_path)
        weak, strong = Recorder(e), Recorder(e)
        e.send_unicast("DATA", 0, 2, on_result=weak)
        first = granted(e, 0, 2)           # on the air before the strong grab
        assert weak.results == []
        e.send_unicast("DATA", 1, 2, on_result=strong)
        granted(e, 1, 2)
        assert first.cancelled and 0 not in e.active
        assert weak.results == [(BUSY, 0.0)]        # cancelled by the winner
        e.drain()
        assert weak.results == [(BUSY, 0.0)]        # and nothing more
        assert strong.results[0][0] == OK

    def test_same_instant_weaker_loses_without_preempting(self, tmp_path):
        e = self.make(tmp_path)
        strong, weak = Recorder(e), Recorder(e)
        e.send_unicast("DATA", 1, 2, on_result=strong)
        granted(e, 1, 2)
        e.send_unicast("DATA", 0, 2, on_result=weak)
        assert weak.results == [(BUSY, 0.0)] and 0 not in e.active
        e.drain()
        assert weak.results == [(BUSY, 0.0)]
        assert strong.results[0][0] == OK

    def test_same_instant_equal_power_first_grab_holds(self, tmp_path):
        # two senders 100 m either side of the receiver: a tie keeps the first
        e = make_engine(tmp_path, {0: (0.0, 0.0), 1: (200.0, 0.0),
                                   2: (100.0, 0.0)}, (1500.0, 1500.0))
        first, second = Recorder(e), Recorder(e)
        e.send_unicast("DATA", 0, 2, on_result=first)
        granted(e, 0, 2)
        e.send_unicast("DATA", 1, 2, on_result=second)
        assert second.results == [(BUSY, 0.0)] and 1 not in e.active
        e.drain()
        assert second.results == [(BUSY, 0.0)]
        assert first.results[0][0] == OK

    def test_no_rx_when_receiver_asleep(self, tmp_path):
        e = self.make(tmp_path)
        e.charge(2, 10.0)
        rec = Recorder(e)
        e.send_unicast("DATA", 0, 2, on_result=rec)
        assert rec.results == [(NO_RX, 0.0)] and e.active == {}

    def test_transmitter_channel_exclusivity_enforced(self, tmp_path):
        e = self.make(tmp_path)
        e.send_unicast("DATA", 0, 2, on_result=ignore)
        own = granted(e, 0, 2)
        rec = Recorder(e)
        e.send_unicast("DATA", 0, 3, on_result=rec)
        assert list(e.active.values()) == [own]  # the second frame waits
        assert rec.results == []
        with pytest.raises(RuntimeError, match="already holds the channel"):
            e._begin(Transmission(kind="DATA", tx=0, rx=3, start=0.0,
                                  end=1.0))
        e.drain()
        assert [outcome for outcome, _ in rec.results] == [OK]

    def test_send_while_on_air_starts_after_own_frame(self, tmp_path):
        e = self.make(tmp_path)
        e.send_unicast("DATA", 0, 2, on_result=ignore)
        own = granted(e, 0, 2)
        rng_state = e.rng_jitter.getstate()
        starts = []
        e.send_unicast(
            "DATA", 0, 3,
            on_result=lambda trans, outcome: starts.append(
                (trans.start, outcome)))
        assert list(e.active.values()) == [own] and starts == []
        e.drain()
        assert starts == [(own.end + RETRY_GAP, OK)]
        assert e.rng_jitter.getstate() == rng_state   # no jitter drawn

    def test_deferral_jitter_bounds_the_start(self, tmp_path):
        e = self.make(tmp_path)
        j = 1e-3
        e.send_unicast("DATA", 0, 2, on_result=ignore)
        own = granted(e, 0, 2)
        earliest = own.end + RETRY_GAP
        starts = []
        e.send_unicast(
            "DATA", 0, 3, defer_jitter=j,
            on_result=lambda trans, outcome: starts.append(trans.start))
        assert list(e.active.values()) == [own] and starts == []
        e.drain()
        assert len(starts) == 1
        assert earliest <= starts[0] < earliest + j

    def test_drained_sender_sends_nothing(self, tmp_path):
        e = self.make(tmp_path)
        e.charge(0, 10.0)
        rec = Recorder(e)
        e.send_unicast("DATA", 0, 2, on_result=rec)
        assert rec.results == [(ASLEEP, 0.0)]
        assert list(e.active.values()) == []
        e.drain()
        assert log_lines(e) == []

    def test_drained_sender_sends_no_control_frame(self, tmp_path):
        e = self.make(tmp_path)
        e.charge(0, 10.0)
        residual = {n: battery.residual for n, battery in e.nodes.items()}
        e.send_oob_control(CONFIG, 0, BS)
        e.send_oob_control(REPORT, 0, 2)
        assert log_lines(e) == []
        assert {n: battery.residual
                for n, battery in e.nodes.items()} == residual

    def test_nodes_drained_from_the_start_upload_nothing(self):
        log = Engine(Scenario(node_count=5, sim_time=2,
                              initial_energy=0.0)).run()
        records = [line.split() for line in log.splitlines()]
        assert records
        assert all(kind == "DROP" and outcome == ASLEEP
                   for _, kind, _, _, _, outcome in records)

    @pytest.mark.parametrize("knob", [{"initial_energy": 0.0},
                                      {"energy_threshold": 20.0}])
    def test_nodes_drained_from_the_start_die_at_zero(self, knob):
        # every node is in asleep, stamped 0, from t = 0 on
        e = Engine(Scenario(node_count=5, sim_time=2, **knob))
        assert e.asleep == dict.fromkeys(e.nodes, 0.0)
        e.run()
        assert e.asleep == dict.fromkeys(e.nodes, 0.0)


class TestHiddenTerminal:
    # two senders out of carrier range whose frames overlap at both receivers
    POINTS = {0: (100.0, 100.0), 1: (250.0, 100.0),
              2: (400.0, 100.0), 3: (250.0, 200.0)}

    def test_simultaneous_frames_all_lost(self, tmp_path):
        e = make_engine(tmp_path, self.POINTS, (1500.0, 1500.0))
        a, b = Recorder(e), Recorder(e)
        e.send_unicast("DATA", 0, 1, on_result=a)
        e.send_unicast("DATA", 2, 3, on_result=b)
        granted(e, 0, 1)
        granted(e, 2, 3)
        e.drain()
        assert a.results[0][0] == COLLISION
        assert b.results[0][0] == COLLISION
        report = collect(e.log_buffer.getvalue())
        assert report.collisions == 2
        assert report.signals == 2


class TestInterference:
    # 0 and 2 cannot hear each other; 1 hears both
    POINTS = {0: (0.0, 100.0), 1: (300.0, 100.0), 2: (600.0, 100.0)}

    def test_answer_follows_frames_begun_between_calls(self, tmp_path):
        e = make_engine(tmp_path, self.POINTS, (1500.0, 1500.0))
        e.protocol.on_broadcast_received = lambda *a: None
        e.send_unicast("DATA", 0, 1, on_result=ignore)
        first = granted(e, 0, 1)
        assert not e._interfered(first, 1)

        def broadcast():
            # 2 does not hear 0
            e.send_broadcast("RREQ", 2, payload=None, event_id="f0")
            assert len(e.active) == 2
            assert e._interfered(first, 1)
            return e._interfered(first, 0)
        assert run_at(e, 1e-3, broadcast) is False  # 0 does not hear 2

    def test_cancelled_frame_stops_jamming_between_calls(self, tmp_path):
        # 0 -> 1 is on the air; 2 -> 3 overlaps it and 1 hears 2. A
        # same-instant grab by 4, much closer to 3, then cancels 2's frame
        # without beginning one: only 0's frame stays on the air.
        points = {0: (0.0, 100.0), 1: (300.0, 100.0), 2: (600.0, 100.0),
                  3: (900.0, 100.0), 4: (1000.0, 100.0)}
        e = make_engine(tmp_path, points, (1500.0, 1500.0))
        e.send_unicast("DATA", 0, 1, on_result=ignore)
        first = granted(e, 0, 1)

        def jam_then_cancel():
            e.send_unicast("RREP", 2, 3, on_result=ignore)
            jammer = granted(e, 2, 3)
            assert e._interfered(first, 1)
            assert e.arbitrate(4, 3, 1e-3) == GRANT
            assert jammer.cancelled and e.active == {0: first}
            assert first.overlaps == [jammer]
            return e._interfered(first, 1)
        assert run_at(e, 1e-3, jam_then_cancel) is False


# start times that are exact sums of frame airtimes, so that some frames end
# at the very instant another begins
AIRTIMES = [frame_airtime(Scenario().radio_params(), bits)
            for bits in (320, 4096)]
STARTS = {0.0}
for _ in range(2):
    STARTS |= {t + air for t in STARTS for air in AIRTIMES}
STARTS = sorted(STARTS)
COORD = st.one_of(st.floats(0.0, 700.0), st.sampled_from([0.0, 350.0, 700.0]))
FULL = Scenario().initial_energy


@st.composite
def frame_scripts(draw):
    """A few nodes, a base station and the frames they try to send.

    Each send is (start, kind, tx, rx): an RREQ is broadcast by ``tx``, a
    DATA or RREP frame unicast to ``rx``. Senders and receivers may be the
    base station. Sends are scheduled in list order, so several at one
    start time contend in that order. A frame's size follows from its kind:
    DATA frames are 4096 bits, control frames 320 bits or, with zero
    airtime, 0. Every node starts with the same battery; below a full one,
    nodes die mid-script: a broadcast costs its sender ~4 mJ, a received
    4096-bit frame 0.2 mJ, a 320-bit one 0.016 mJ.
    """
    n = draw(st.integers(2, 6))
    pts = [(draw(COORD), draw(COORD)) for _ in range(n)]
    who = st.sampled_from(list(range(n)) + [BS])
    sends = draw(st.lists(st.tuples(st.sampled_from(STARTS),
                                    st.sampled_from([RREQ, DATA, RREP]),
                                    who, who),
                          min_size=1, max_size=12))
    battery = draw(st.sampled_from([FULL, 5e-3, 3e-4, 5e-5]))
    control_bits = draw(st.sampled_from([320, 0]))
    return pts, (draw(COORD), draw(COORD)), sends, battery, control_bits


class TestInterferenceOracle:
    """Every frame's fate at each receiver against brute force.

    A unicast asks ``_interfered``; a broadcast resolves all its receivers
    at once, so its fate at each live endpoint that hears it, a ``COLL``
    record or an ``on_broadcast_received`` call, is checked instead.
    """

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=frame_scripts())
    # coincident starts: both broadcasts reach 1 together
    @example(case=([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)], (300.0, 300.0),
                   [(0.0, RREQ, 0, 0), (0.0, RREQ, 2, 2)], FULL, 320))
    # 1 starts a frame of its own as 0's broadcast begins to reach it
    @example(case=([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)], (300.0, 300.0),
                   [(0.0, RREQ, 0, 0), (0.0, DATA, 1, 2)], FULL, 320))
    # 2 begins exactly when 0's frame ends: no overlap at 1
    @example(case=([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)], (300.0, 300.0),
                   [(0.0, RREQ, 0, 0), (AIRTIMES[0], RREQ, 2, 2)], FULL, 320))
    # the base station as sender: its broadcast jams 2's frame at 1; as
    # receiver: 1's broadcast and 0's frame to it jam each other there
    @example(case=([(350.0, 0.0), (350.0, 600.0), (650.0, 600.0)],
                   (350.0, 300.0),
                   [(0.0, RREQ, BS, BS), (0.0, DATA, 2, 1),
                    (2 * AIRTIMES[1], DATA, 0, BS),
                    (2 * AIRTIMES[1], RREQ, 1, 1)], FULL, 320))
    # 2 wins the same-instant contest for 1 and cancels 0's frame, which
    # must not jam 4, the one receiver of 3's broadcast that hears 0
    @example(case=([(300.0, 0.0), (500.0, 0.0), (600.0, 0.0), (100.0, 300.0),
                    (100.0, 0.0)], (1500.0, 1500.0),
                   [(0.0, RREQ, 3, 3), (0.0, DATA, 0, 1), (0.0, DATA, 2, 1)],
                   FULL, 320))
    # a 0-bit broadcast begins while 0's frame is on the air: both jam 1
    @example(case=([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)], (300.0, 300.0),
                   [(0.0, DATA, 0, 1), (AIRTIMES[1] / 2, RREQ, 2, 2)],
                   FULL, 0))
    # 2's 0-bit broadcast ends at the instant 0's frame begins, while both
    # are on the air: no overlap, and 1 receives both
    @example(case=([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)], (300.0, 300.0),
                   [(0.0, RREQ, 2, 2), (0.0, DATA, 0, 1)], FULL, 0))
    # 1 dies sending a data frame to 0 and 0 receiving it; the base
    # station's second broadcast, whose receivers were listed at its first,
    # must reach neither
    @example(case=([(0.0, 0.0), (300.0, 0.0)], (0.0, 300.0),
                   [(0.0, RREQ, BS, BS), (2 * AIRTIMES[0], DATA, 1, 0),
                    (2 * AIRTIMES[0] + 2 * AIRTIMES[1], RREQ, BS, BS)],
                   2e-4, 320))
    def test_every_answer_matches_brute_force(self, case):
        pts, bs, sends, battery, control_bits = case
        with tempfile.TemporaryDirectory() as tmp:
            e = make_engine(tmp, dict(enumerate(pts)), bs,
                            initial_energy=battery, control_bits=control_bits)
        received = []  # hyb has no broadcast handler of its own
        e.protocol.on_broadcast_received = (
            lambda node, trans: received.append(node))
        where = dict(enumerate(pts))
        where[BS] = bs

        def audible(tx, at):
            d = math.hypot(where[tx][0] - where[at][0],
                           where[tx][1] - where[at][1])
            return link_feasible(e.radio, d)

        frames = []
        begin, interfered = e._begin, e._interfered

        def recording_begin(trans):
            frames.append(trans)
            begin(trans)

        def checked_interfered(trans, receiver):
            got = interfered(trans, receiver)
            assert got == brute_force_interfered(frames, trans, receiver,
                                                 audible)
            return got

        frame_end = e._frame_end

        def checked_frame_end(trans):
            if trans.rx != BROADCAST or trans.cancelled:
                frame_end(trans)
                return
            ends = sorted(n for n in where if n != BS) + [BS]  # bit order
            receivers = [r for r in ends if r != trans.tx and r not in e.asleep
                         and audible(trans.tx, r)]
            mark = len(e.log_buffer.getvalue())
            received.clear()
            frame_end(trans)
            collided = [r for r in receivers
                        if f" COLL {trans.tx} {r} " in
                        e.log_buffer.getvalue()[mark:]]
            assert collided == [
                r for r in receivers
                if brute_force_interfered(frames, trans, r, audible)]
            assert received == [r for r in receivers if r not in collided]

        e._begin, e._interfered = recording_begin, checked_interfered
        e._frame_end = checked_frame_end
        for i, (t, kind, tx, rx) in enumerate(sends):
            if kind == RREQ:  # each broadcast a flood of its own
                e.schedule(t, partial(e.send_broadcast, RREQ, tx,
                                      payload=None, event_id=f"f{i}"))
            elif rx != tx:
                e.schedule(t, partial(e.send_unicast, kind, tx, rx,
                                      on_result=ignore))
        e.drain()
        assert all(t.overlaps is None for t in frames)

    def test_no_resolved_frame_keeps_an_overlap_list(self):
        # a collision storm at 75 nodes
        e = Engine(Scenario(protocol="aodv", node_count=75, seed=1,
                            sim_time=5.0))
        frames, begin = [], e._begin

        def recording_begin(trans):
            frames.append(trans)
            begin(trans)
        e._begin = recording_begin
        log = e.run()
        assert log.count(" COLL ") > 1000
        assert all(t.overlaps is None for t in frames)


class TestBroadcast:
    POINTS = {0: (100.0, 100.0), 1: (250.0, 100.0), 2: (400.0, 100.0)}

    def test_broadcast_reaches_in_range_nodes(self, tmp_path):
        e = make_engine(tmp_path, self.POINTS, (1500.0, 1500.0))
        heard = []
        e.protocol.on_broadcast_received = (
            lambda node, trans: heard.append(node))
        e.send_broadcast("RREQ", 0, payload=None, event_id="f0")
        e.drain()
        assert sorted(heard) == [1, 2]   # 300 m away is still in range

    def test_base_station_does_not_receive_its_own_broadcast(self, tmp_path):
        # 0 and 1 hear the base station, 2 is 360.6 m away from it
        e = make_engine(tmp_path, self.POINTS, (100.0, 300.0))
        heard = []
        e.protocol.on_broadcast_received = (
            lambda node, trans: heard.append(node))
        e.send_broadcast("RREQ", BS, payload=None, event_id="f0")
        e.drain()
        assert heard == [0, 1]
        assert not any(" COLL BS BS " in line for line in log_lines(e))

    def test_carrier_sense_defers_behind_active_frame(self, tmp_path):
        e = make_engine(tmp_path, self.POINTS, (1500.0, 1500.0))
        e.protocol.on_broadcast_received = lambda *a: None
        e.send_unicast("DATA", 1, 2, on_result=ignore)
        granted(e, 1, 2)
        # 0 hears 1: must defer
        e.send_broadcast("RREQ", 0, payload=None, event_id="f0")
        e.drain()
        sent = [l for l in log_lines(e) if " RREQ " in l and l.endswith("SENT")]
        assert len(sent) == 1
        assert float(sent[0].split()[0]) >= 2.048e-3

    def test_carrier_sense_defers_behind_a_zero_airtime_frame_at_0(
            self, tmp_path):
        # a frame that takes no air time still holds the channel until its
        # end event runs, even when that end is 0.0
        e = make_engine(tmp_path, self.POINTS, (1500.0, 1500.0),
                        control_bits=0)
        e.protocol.on_broadcast_received = lambda *a: None
        e.send_broadcast("RREQ", 1, payload=None, event_id="f0")
        assert e.active[1].end == 0.0
        e.send_broadcast("RREQ", 0, payload=None, event_id="f1")  # 0 hears 1
        assert list(e.active) == [1]
        e.drain()
        sent = [l.split() for l in log_lines(e) if l.endswith("SENT")]
        assert [(s[2], float(s[0]) > 0.0) for s in sent] == [
            ("1", False), ("0", True)]

    def test_overlapping_broadcast_copy_collides(self, tmp_path):
        # 0 and 2 cannot hear each other; both broadcasts overlap at 1
        points = {0: (0.0, 100.0), 1: (350.0, 100.0), 2: (700.0, 100.0)}
        e = make_engine(tmp_path, points, (1500.0, 1500.0))
        e.protocol.on_broadcast_received = lambda *a: None
        e.send_broadcast("RREQ", 0, payload=None, event_id="f0")
        e.send_broadcast("RREQ", 2, payload=None, event_id="f1")
        e.drain()
        coll = [l for l in log_lines(e) if " COLL 0 1 " in l or " COLL 2 1 " in l]
        assert len(coll) == 2

    def test_dead_receiver_gets_no_copy_and_no_collision(self, tmp_path):
        # 1 hears 0 and 2, which cannot hear each other; 3 hears only 0
        points = {0: (0.0, 100.0), 1: (350.0, 100.0), 2: (700.0, 100.0),
                  3: (0.0, 400.0)}
        e = make_engine(tmp_path, points, (1500.0, 1500.0))
        heard = []
        e.protocol.on_broadcast_received = (
            lambda node, trans: heard.append(node))
        e.send_broadcast("RREQ", 0, payload=None, event_id="f0")
        e.drain()
        assert heard == [1, 3]
        e.charge(1, 100.0)
        heard.clear()
        mark = len(e.log_buffer.getvalue())
        # had 1 lived, both copies would have collided there
        run_at(e, 1.0, lambda: (
            e.send_broadcast("RREQ", 0, payload=None, event_id="f1"),
            e.send_broadcast("RREQ", 2, payload=None, event_id="f2")))
        assert heard == [3]
        assert " COLL " not in e.log_buffer.getvalue()[mark:]

    # the engine's flood rule: each endpoint is handed a flood at most once,
    # and never a flood it sent a frame of

    LINE = {0: (0.0, 100.0), 1: (350.0, 100.0), 2: (700.0, 100.0)}

    def record_copies(self, e):
        """Stub the broadcast handler; returns the (receiver, sender,
        flood) of every copy handed to it."""
        heard = []
        e.protocol.on_broadcast_received = (
            lambda node, trans: heard.append(
                (node, trans.tx, trans.event_id)))
        return heard

    def test_two_frames_of_one_flood_hand_one_copy(self, tmp_path):
        # 1 hears 0 and 2, whose frames do not overlap
        e = make_engine(tmp_path, self.LINE, (1500.0, 1500.0))
        heard = self.record_copies(e)
        e.send_broadcast("RREQ", 0, payload=None, event_id="q")
        e.drain()
        run_at(e, 1.0, partial(e.send_broadcast, "RREQ", 2, payload=None,
                               event_id="q"))
        assert heard == [(1, 0, "q")]
        assert len([l for l in log_lines(e) if l.endswith(" q SENT")]) == 2

    def test_flood_never_returns_to_its_sender(self, tmp_path):
        # 1 passes 0's flood on once, to 0 and 2
        e = make_engine(tmp_path, self.LINE, (1500.0, 1500.0))
        heard, relayed = [], []

        def relay(node, trans):
            heard.append((node, trans.tx))
            if node == 1 and not relayed:
                relayed.append(e.now)
                e.send_broadcast("RREQ", 1, payload=None,
                                 event_id=trans.event_id)
        e.protocol.on_broadcast_received = relay
        e.send_broadcast("RREQ", 0, payload=None, event_id="q")
        e.drain()
        assert heard == [(1, 0), (2, 1)]

    def test_jammed_receiver_takes_a_later_clean_frame(self, tmp_path):
        # 0's and 2's frames collide at 1; 2's later frame of 0's flood
        # reaches 1 alone
        e = make_engine(tmp_path, self.LINE, (1500.0, 1500.0))
        heard = self.record_copies(e)
        e.send_broadcast("RREQ", 0, payload=None, event_id="q")
        e.send_broadcast("RREQ", 2, payload=None, event_id="x")
        e.drain()
        assert heard == []
        assert len([l for l in log_lines(e) if " COLL " in l]) == 2
        run_at(e, 1.0, partial(e.send_broadcast, "RREQ", 2, payload=None,
                               event_id="q"))
        assert heard == [(1, 2, "q")]

    def test_floods_do_not_mask_each_other(self, tmp_path):
        e = make_engine(tmp_path, self.POINTS, (1500.0, 1500.0))
        heard = self.record_copies(e)
        e.send_broadcast("RREQ", 0, payload=None, event_id="q")
        e.drain()
        run_at(e, 1.0, partial(e.send_broadcast, "RREQ", 0, payload=None,
                               event_id="r"))
        assert heard == [(1, 0, "q"), (2, 0, "q"), (1, 0, "r"), (2, 0, "r")]


class TestEnergyAccounting:
    def test_charges_ledger_and_death(self, tmp_path):
        e = make_engine(tmp_path, {0: (100.0, 100.0)}, (1500.0, 1500.0),
                        initial_energy=1e-4)
        charges = record_charges(e)
        cost = 6e-5
        e.charge(0, cost)
        assert 0 not in e.asleep
        e.now = 2.5
        e.charge(0, cost)
        assert e.asleep == {0: 2.5}
        assert charges[0] == [cost, cost]
        assert e.nodes[0].residual == 0.0  # clamped, not negative

    def test_charge_preserves_initial(self, tmp_path):
        e = make_engine(tmp_path, {0: (100.0, 100.0)}, (1500.0, 1500.0))
        e.charge(0, 3.25)
        assert e.nodes[0].residual == pytest.approx(6.75)
        # energy used is read against the scenario's starting charge
        assert e.sc.initial_energy - e.nodes[0].residual == 3.25

    def test_negative_charge_rejected(self, tmp_path):
        e = make_engine(tmp_path, {0: (100.0, 100.0)}, (1500.0, 1500.0))
        with pytest.raises(ValueError):
            e.charge(0, -0.1)
        assert e.nodes[0].residual == 10.0

    def test_charged_down_to_the_threshold_stays_awake(self, tmp_path):
        e = make_engine(tmp_path, {0: (100.0, 100.0)}, (1500.0, 1500.0),
                        initial_energy=0.75, energy_threshold=0.25)
        e.charge(0, 0.5)
        assert e.nodes[0].residual == 0.25
        assert e.asleep == {}
        e.now = 1.5
        e.charge(0, 1e-9)
        assert e.asleep == {0: 1.5}
        e.now = 2.0
        e.charge(0, 1e-9)   # a dead node dies once
        assert e.asleep == {0: 1.5}

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(protocol=st.sampled_from(["hyb", "aodv", "dsr"]),
           nodes=st.integers(2, 15), seed=st.integers(0, 10 ** 6),
           initial=st.sampled_from([2e-4, 1e-3, 4e-3, 2e-2]),
           threshold=st.sampled_from([0.0, 1e-6, 1e-4]))
    def test_asleep_follows_every_charge(self, protocol, nodes, seed,
                                         initial, threshold):
        e = Engine(Scenario(protocol=protocol, node_count=nodes, seed=seed,
                            sim_time=1.0, topology_size=(700.0, 700.0),
                            bs_location=(350.0, 350.0),
                            initial_energy=initial,
                            energy_threshold=threshold))
        charge = e.charge
        deaths = []

        # the nodes that start drained died at 0, before any charge
        deaths = [n for n, battery in e.nodes.items()
                  if battery.residual < battery.threshold]

        def checked_charge(node, amount):
            before = dict(e.asleep)
            charge(node, amount)
            assert set(e.asleep) == {
                n for n, battery in e.nodes.items()
                if battery.residual < battery.threshold}
            # no stored time ever changes
            assert {n: e.asleep[n] for n in before} == before
            new = [n for n in e.asleep if n not in before]
            if new:
                assert new == [node] and e.asleep[node] == e.now
                deaths.append(node)

        e.charge = checked_charge
        e.run()
        # asleep lists the nodes in the order charge killed them
        assert list(e.asleep) == deaths

    def test_bs_is_mains_powered(self, tmp_path):
        e = make_engine(tmp_path, {0: (100.0, 100.0)}, (1500.0, 1500.0))
        e.charge(BS, 100.0)  # no-op, never raises
        assert e.asleep == {}

    def test_hyb_states_share_the_engine_battery(self):
        # the hybrid state machine decides on the battery the engine charges
        e = Engine(Scenario(protocol="hyb", node_count=25, sim_time=20.0, seed=1))
        e.run()
        for n, battery in e.nodes.items():
            assert e.protocol.states[n].energy is battery


class TestHybRunner:
    # 0 reaches the sink only through 1 or 2, which it tries in that order
    POINTS = {0: (0.0, 600.0), 1: (0.0, 300.0), 2: (20.0, 300.0)}

    def test_sender_drained_before_its_busy_retry_drops_asleep(self, tmp_path):
        e = make_engine(tmp_path, self.POINTS, (0.0, 0.0))
        e.protocol.configure()
        e.send_unicast("DATA", 1, BS, on_result=ignore)
        granted(e, 1, BS)
        e.protocol.on_sense(0, "ev0")   # 1 is busy: retry toward 2
        e.charge(0, 100.0)
        e.drain()
        drops = [line.split() for line in log_lines(e) if " DROP " in line]
        assert drops == [[f"{RETRY_GAP:.6f}", "DROP", "0", "-", "ev0", ASLEEP]]
        assert e.dropped[ASLEEP] == 1

    # 0's row is (1, 2, 3). While 1 sends to the sink, 1 is busy and 2 and
    # 3 hear its frame, so every grab 0 makes returns BUSY until it ends.
    ROW3 = {0: (0.0, 600.0), 1: (0.0, 300.0), 2: (20.0, 300.0),
            3: (40.0, 300.0)}

    def busy_row(self, tmp_path):
        e = make_engine(tmp_path, self.ROW3, (0.0, 0.0))
        e.protocol.configure()
        assert e.protocol.neighbour_table.rows[0] == (1, 2, 3)
        e.send_unicast(DATA, 1, BS, on_result=ignore)
        granted(e, 1, BS)
        grabs, arbitrate = [], e.arbitrate

        def recording(tx, rx, now):
            verdict = arbitrate(tx, rx, now)
            grabs.append((rx, now, verdict,
                          dict(e.protocol.states[tx].use_count)))
            return verdict
        e.arbitrate = recording
        return e, grabs

    def test_busy_retry_candidate_is_picked_at_the_busy_instant(self, tmp_path):
        # ev1 is decided between ev0's BUSY and ev0's retry. It sees ev0's
        # next candidate, 2, still uncounted, and picks it. ev0's retry then
        # goes to 2 as picked at the BUSY, though 3 is by then less used.
        e, grabs = self.busy_row(tmp_path)
        sense = e.protocol.on_sense
        half = RETRY_GAP / 2
        e.schedule(0.0, lambda: sense(0, "ev0"))
        e.schedule(half, lambda: sense(0, "ev1"))
        e.drain()
        assert [(rx, now) for rx, now, _, _ in grabs] == [
            (1, 0.0), (2, half), (2, RETRY_GAP), (3, half + RETRY_GAP),
            (3, RETRY_GAP + RETRY_GAP), (1, half + RETRY_GAP + RETRY_GAP)]
        assert {verdict for _, _, verdict, _ in grabs} == {BUSY}
        assert e.protocol.states[0].use_count == {1: 2, 2: 2, 3: 2}

    def test_busy_retry_candidate_is_counted_when_the_retry_runs(self, tmp_path):
        e, grabs = self.busy_row(tmp_path)
        e.protocol.on_sense(0, "ev0")
        # 1 was tried and counted; 2 is picked but not yet counted
        assert e.protocol.states[0].use_count == {1: 1, 2: 0, 3: 0}
        e.drain()
        # each grab sees its own candidate counted, and no later one
        assert [(rx, now, counts) for rx, now, _, counts in grabs] == [
            (1, 0.0, {1: 1, 2: 0, 3: 0}),
            (2, RETRY_GAP, {1: 1, 2: 1, 3: 0}),
            (3, RETRY_GAP + RETRY_GAP, {1: 1, 2: 1, 3: 1})]

    def test_each_busy_schedules_one_heap_entry(self, tmp_path):
        # a BUSY's one effect is its retry's heap entry: the candidate the
        # retry will try is not counted yet
        e, _ = self.busy_row(tmp_path)
        send, steps = e.send_unicast, []
        counts = e.protocol.states[0].use_count

        def recording(kind, tx, rx, *, on_result, **kw):
            before, seq, fired = list(e._heap), e._seq, []

            def reported(trans, outcome):
                fired.append(outcome)
                on_result(trans, outcome)
            send(kind, tx, rx, on_result=reported, **kw)
            kept = {id(entry) for entry in before}
            steps.append((fired, e._seq - seq, [
                entry[0] for entry in e._heap if id(entry) not in kept],
                dict(counts)))
        e.send_unicast = recording
        e.protocol.on_sense(0, "ev0")
        e.drain()
        # the last BUSY leaves no candidate: the packet drops, unscheduled
        assert steps == [
            ([BUSY], 1, [RETRY_GAP], {1: 1, 2: 0, 3: 0}),
            ([BUSY], 1, [RETRY_GAP + RETRY_GAP], {1: 1, 2: 1, 3: 0}),
            ([BUSY], 0, [], {1: 1, 2: 1, 3: 1})]
        assert e.dropped["NO_ROUTE"] == 1

    def test_refresh_installs_only_changed_rows(self, monkeypatch):
        e = Engine(Scenario(protocol="hyb", node_count=75, seed=1,
                            sim_time=1.0))
        hyb_runner = e.protocol
        hyb_runner.configure()
        installed, set_row = [], HybNodeState.set_row

        def recording(state, row, ctx):
            installed.append(state.id)
            set_row(state, row, ctx)
        monkeypatch.setattr(HybNodeState, "set_row", recording)

        def configs():
            return sum(1 for line in log_lines(e) if f" {CONFIG} BS " in line)
        sent = configs()
        hyb_runner._bs_refresh()  # no node has died: every row is the same
        assert installed == []
        assert configs() == sent + len(e.nodes)
        old = dict(hyb_runner.neighbour_table.rows)
        victim = next(n for n, row in old.items()
                      if any(isinstance(other, tuple) and n in other
                             for other in old.values()))
        hyb_runner.bs_known_residual[victim] = 0.0
        hyb_runner._bs_refresh()
        new = hyb_runner.neighbour_table.rows
        assert installed == [n for n in sorted(new) if new[n] != old[n]]
        assert 0 < len(installed) < len(new)
        assert configs() == sent + 2 * len(e.nodes) - 1

    def test_refresh_is_rescheduled_only_while_work_remains(self):
        e = Engine(Scenario(protocol="hyb", node_count=5, sim_time=1.0))
        runner = e.protocol
        runner.configure()
        e._heap.clear()  # the first refresh, run by hand below
        runner._bs_refresh()
        assert e.pending == 0
        e.schedule(e.now, lambda: None)
        runner._bs_refresh()
        assert e.pending == 2

    def test_reported_liveness_holds_a_residual_at_the_threshold(self):
        # the base station believes a node alive while its last report is
        # at or above the threshold: the test radio.is_alive applies
        e = Engine(Scenario(protocol="hyb", node_count=3, sim_time=1.0,
                            liveness="reported"))
        runner, threshold = e.protocol, e.sc.energy_threshold
        runner.bs_known_residual[0] = threshold
        runner.bs_known_residual[1] = math.nextafter(threshold, 0.0)
        assert not runner.ctx.asleep(0) and runner.ctx.asleep(1)

    def test_tables_are_built_through_the_engine_module(self, monkeypatch):
        # perfbench/tracer.py counts the builds by wrapping these two names
        # in the engine module, so HybRunner must look them up there
        calls = []
        for build in (compute_neighbour_table, refresh_table):
            def counted(*args, _build=build):
                calls.append(_build.__name__)
                return _build(*args)
            monkeypatch.setattr(f"hybsim.engine.{build.__name__}", counted)
        e = Engine(Scenario(protocol="hyb", node_count=20, sim_time=2.0,
                            seed=1, refresh_period=0.5))
        e.run()
        assert calls[0] == "compute_neighbour_table"
        assert calls[1:] and set(calls[1:]) == {"refresh_table"}


class EngineProxy:
    """Stands in for the engine a runner holds. It records the name of each
    engine member the runner reads, and wraps the result callback of each
    unicast the runner sends so as to count its reports."""

    def __init__(self, engine):
        self._engine = engine
        self.read = set()
        self.reports = []  # per send_unicast call, its on_result's firings

    def __getattr__(self, name):
        self.read.add(name)
        if name == "send_unicast":
            return self._send_unicast
        return getattr(self._engine, name)

    def _send_unicast(self, *args, on_result, **kw):
        fired = [0]
        self.reports.append(fired)

        def counted(trans, outcome):
            fired[0] += 1
            on_result(trans, outcome)
        self._engine.send_unicast(*args, on_result=counted, **kw)


class TestRunnerContract:
    """The runner contract in ``engine.Engine``'s docstring, held by every
    runner over whole runs: the engine members it reads, and one report
    per unicast."""

    # the members the contract lets a runner read or call
    ALLOWED = {"sc", "nodes", "asleep", "now", "pending", "locs", "radio",
               "coeff", "schedule", "jitter", "new_packet", "drop", "deliver",
               "send_unicast", "send_broadcast", "send_oob_control"}

    @pytest.mark.parametrize("protocol,battery,liveness", [
        *((p, b, "ground_truth") for p in ("hyb", "aodv", "dsr")
          for b in (FULL, 0.05)),
        ("hyb", 0.05, "reported")])
    def test_runner_keeps_the_contract(self, protocol, battery, liveness):
        e = Engine(Scenario(protocol=protocol, node_count=60, sim_time=20,
                            seed=1, initial_energy=battery,
                            liveness=liveness))
        proxy = e.protocol.e = EngineProxy(e)
        e.run()
        assert proxy.read <= self.ALLOWED, proxy.read - self.ALLOWED
        assert proxy.reports
        assert [n for [n] in proxy.reports if n != 1] == []


class TestJitter:
    @settings(max_examples=200, deadline=None)
    @given(scale=st.floats(0.0, 1e300), seed=st.integers(0, 2**32))
    @example(scale=0.0, seed=1)
    @example(scale=5e-324, seed=1)
    @example(scale=1e-3, seed=1)
    @example(scale=5e-3, seed=1)
    @example(scale=1.0, seed=1)
    @example(scale=1e300, seed=1)
    def test_draw_is_uniform_bit_for_bit(self, scale, seed):
        e = Engine(Scenario(node_count=2, seed=seed))
        e.rng_jitter.random()  # start away from a fresh stream
        clone = random.Random()
        clone.setstate(e.rng_jitter.getstate())
        for _ in range(3):
            got, want = e.jitter(scale), clone.uniform(0.0, scale)
            assert struct.pack("<d", got) == struct.pack("<d", want)


class TestScheduler:
    def test_rejects_past_events(self, tmp_path):
        e = make_engine(tmp_path, {0: (100.0, 100.0)}, (1500.0, 1500.0))
        e.now = 5.0
        with pytest.raises(RuntimeError):
            e.schedule(4.0, lambda: None)

    def test_fifo_within_same_timestamp(self, tmp_path):
        e = make_engine(tmp_path, {0: (100.0, 100.0)}, (1500.0, 1500.0))
        order = []
        e.schedule(1.0, lambda: order.append("a"))
        e.schedule(1.0, lambda: order.append("b"))
        e.schedule(0.5, lambda: order.append("c"))
        e.drain()
        assert order == ["c", "a", "b"]


def sensing_scenario(protocol, nodes, seed, rate, events, radius, refresh):
    return Scenario(protocol=protocol, node_count=nodes, seed=seed,
                    packet_rate=rate, sim_time=events / rate,
                    topology_size=(600.0, 600.0), bs_location=(300.0, 300.0),
                    sensing_radius=radius, refresh_period=refresh)


# events 0.5 ms apart: each event's 1 ms sense-jitter window overlaps the next
OVERLAPPING_WINDOWS = dict(protocol="hyb", nodes=12, seed=3, rate=2000.0,
                           events=30, radius=250.0, refresh=30.0)
# table refreshes every 0.3 s between events 2 s apart: a refresh finds
# only the next event's feed entry queued while later events are still to
# be sensed
REFRESH_BETWEEN_EVENTS = dict(protocol="hyb", nodes=8, seed=1, rate=0.5,
                              events=5, radius=250.0, refresh=0.3)


class TestLazySensing:
    """Sensing callbacks fed to the heap as the run reaches them give the
    same log as scheduling every one of them before the run starts."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.fixed_dictionaries(dict(
        protocol=st.sampled_from(["hyb", "aodv", "dsr"]),
        nodes=st.integers(1, 15), seed=st.integers(0, 10 ** 6),
        rate=st.sampled_from([0.5, 8.0, 1000.0, 2500.0]),
        events=st.integers(1, 30),
        radius=st.sampled_from([0.0, 60.0, 250.0, 1000.0]),
        refresh=st.sampled_from([0.05, 0.3, 30.0]))))
    @example(case=OVERLAPPING_WINDOWS)
    @example(case=dict(OVERLAPPING_WINDOWS, protocol="aodv", rate=1000.0))
    @example(case=dict(OVERLAPPING_WINDOWS, protocol="dsr"))
    @example(case=REFRESH_BETWEEN_EVENTS)
    def test_log_matches_eager_schedule(self, case):
        sc = sensing_scenario(**case)
        want = eager_run(Engine(sc), generate_events(sc))
        assert Engine(sc).run() == want

    def test_overlapping_case_interleaves_events(self):
        e = Engine(sensing_scenario(**OVERLAPPING_WINDOWS))
        order = []
        on_sense = e.protocol.on_sense

        def recording(node, event_id):
            order.append(int(event_id[2:]))
            on_sense(node, event_id)
        e.protocol.on_sense = recording
        e.run()
        assert order != sorted(order)

    def test_refresh_case_refreshes_past_the_last_event(self):
        sc = sensing_scenario(**REFRESH_BETWEEN_EVENTS)
        e = Engine(sc)
        refreshes = []
        refresh = e.protocol._bs_refresh

        def recording():
            refreshes.append(e.now)
            refresh()
        e.protocol._bs_refresh = recording
        e.run()
        last_event = generate_events(sc)[-1][0]
        assert max(refreshes) > last_event
        # one refresh per period, with none missing between the events
        period = sc.refresh_period
        assert refreshes == pytest.approx(
            [period * (k + 1) for k in range(len(refreshes))])
        assert not e._heap

    def test_callback_tied_with_a_refresh_runs_after_it(self):
        # every sense jitter equals refresh_period, so each sensing
        # callback of the event at 0 falls on the first refresh's instant.
        # configure queued that refresh before any callback, so it runs
        # first, as in the eager schedule.
        sc = Scenario(protocol="hyb", node_count=3, seed=1, packet_rate=1.0,
                      sim_time=1.0, topology_size=(600.0, 600.0),
                      bs_location=(300.0, 300.0), sensing_radius=1000.0,
                      packet_size=8, refresh_period=5e-4)
        lazy, eager = Engine(sc), Engine(sc)
        for e in (lazy, eager):
            e.jitter = lambda scale: sc.refresh_period
        log = lazy.run()
        assert log == eager_run(eager, generate_events(sc))
        at = [line.split()[1] for line in log.splitlines()
              if line.startswith(f"{sc.refresh_period:.6f} ")]
        assert at.index("DATA") > at.index("CONFIG") == 0


class TestLazyReachability:
    """An endpoint's reach mask is built when it first begins a frame, so
    a run leaves masks with the endpoints that sent and with no other."""

    def test_only_endpoints_that_began_a_frame_hold_a_mask(self):
        # 300 nodes at the density of 2000 on the default 2000 m square;
        # the hybrid protocol puts only DATA frames on the air
        side = 2000.0 * math.sqrt(300 / 2000)
        e = Engine(Scenario(protocol="hyb", node_count=300, seed=1,
                            sim_time=10.0, topology_size=(side, side),
                            bs_location=(side / 2, side / 2)))
        assert e._hears == [None] * len(e._ids)
        log = e.run()
        sent = {line.split()[2] for line in log.splitlines()
                if line.split()[1] == DATA}
        assert 50 < len(sent) < len(e._ids) / 2
        assert {str(x) for x in e._ids
                if e._hears[e._index[x]] is not None} == sent

    def test_each_mask_is_built_once(self):
        # a flood reads its senders' masks on every frame and broadcast
        e = Engine(Scenario(protocol="aodv", node_count=60, seed=1,
                            sim_time=2.0))
        built, mask = [], e._reach.mask

        def counted(i):
            built.append(i)
            return mask(i)
        e._reach.mask = counted
        log = e.run()
        assert log.count(f" {BROADCAST} ") > 2 * len(built) > 0
        assert sorted(built) == [i for i, m in enumerate(e._hears)
                                 if m is not None]


@pytest.mark.parametrize("protocol", ["hyb", "aodv", "dsr"])
def test_engine_keeps_fewer_than_30_attributes(protocol):
    # from 30 on, CPython 3.11 stops sharing an instance's attribute keys,
    # and every self.x load in the engine's hot paths slows
    e = Engine(Scenario(protocol=protocol, node_count=5, sim_time=1.0))
    e.run()
    assert len(vars(e)) < 30, sorted(vars(e))


class TestPacketResolution:
    """A packet resolves once; the check is an exception, so ``python -O``
    keeps it."""

    @pytest.mark.parametrize("first", ["drop", "deliver"])
    @pytest.mark.parametrize("second", ["drop", "deliver"])
    def test_second_resolution_raises(self, tmp_path, first, second):
        e = make_engine(tmp_path, {0: (1000.0, 1200.0)}, (1000.0, 1000.0))
        ctx = e.new_packet("ev0", 0)
        resolve = {"drop": lambda: e.drop(ctx, ASLEEP, 0),
                   "deliver": lambda: e.deliver(ctx, 0)}
        resolve[first]()
        with pytest.raises(RuntimeError, match="already resolved"):
            resolve[second]()

    def test_tally_keeps_the_latest_fate_when_the_clock_steps_back(
            self, tmp_path):
        # drain lets now step back by up to 1e-12 s, so the latest terminal
        # time is a max, not the last fate's time
        e = make_engine(tmp_path, {0: (1000.0, 1200.0)}, (1000.0, 1000.0))
        first, second = e.new_packet("ev0", 0), e.new_packet("ev1", 0)
        e.now = 2.0
        e.drop(first, ASLEEP, 0)
        e.now = 2.0 - 1e-12
        e.deliver(second, 0)
        assert e.tally.last_terminal == 2.0
        assert (e.tally.hop_sum, e.tally.delivered_ids) == (0, {"ev1"})


class TestSingleNodeRun:
    """One node 300 m from the sink: everything delivers directly."""

    def make_scenario(self, tmp_path):
        return Scenario(placement=write_points(tmp_path, {0: (1000.0, 1300.0)}),
                        node_count=1, sim_time=5.0, sensing_radius=3000.0)

    def test_every_event_delivered_with_zero_hops(self, tmp_path):
        e = Engine(self.make_scenario(tmp_path))
        delivered = record_deliveries(e)
        log = e.run()
        report = collect(log)
        assert report.generated == 40
        assert report.delivered == 40
        assert report.avg_hop_count == 0.0
        assert len(delivered) == 40
        assert all(path == [0] for _, path in delivered)

    def test_exact_signal_budget(self, tmp_path):
        # location upload + table push + one periodic table refresh, then
        # one data frame and one residual report per event
        log = Engine(self.make_scenario(tmp_path)).run()
        report = collect(log)
        assert report.signals == 3 + 40 + 40
        assert report.collisions == 0

    def test_log_replay_is_byte_identical(self, tmp_path):
        sc = self.make_scenario(tmp_path)
        assert Engine(sc).run() == Engine(sc).run()
