"""Discrete-event core tests: RNG streams, placement, traffic, channel."""

import math
import random
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hybsim.engine import (BROADCAST, BS, BUSY, COLLISION, CONFIG, DEFERRED,
                           GRANT, NO_RX, OK, REPORT, RETRY_GAP, Engine,
                           Transmission, generate_events, place_nodes,
                           substream)
from hybsim.hyb import ASLEEP
from hybsim.metrics import collect
from hybsim.radio import RadioParams, frame_airtime, link_feasible
from hybsim.scenario import Scenario

from oracles import (brute_force_interfered, eager_run, record_charges,
                     record_deliveries)


def write_points(tmp_path, points):
    path = tmp_path / "nodes.txt"
    path.write_text("".join(f"{i} , {x!r} , {y!r}\n"
                            for i, (x, y) in sorted(points.items())))
    return str(path)


def make_engine(tmp_path, points, bs, **kw):
    sc = Scenario(placement=write_points(tmp_path, points),
                  node_count=len(points), bs_location=bs, **kw)
    return Engine(sc)


def log_lines(engine):
    """The records an engine has logged so far, one string each."""
    return engine.log_buffer.getvalue().splitlines()


class Recorder:
    """Collects (outcome, time) pairs from unicast result callbacks."""

    def __init__(self):
        self.results = []

    def __call__(self, trans, outcome, t):
        self.results.append((outcome, t))


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
        rec = Recorder()
        assert e.send_unicast("DATA", 0, 2, 4096, 0.0, on_result=rec) == GRANT
        e.drain()
        assert rec.results == [(OK, pytest.approx(2.048e-3))]

    def test_busy_when_receiver_transmitting(self, tmp_path):
        e = self.make(tmp_path)
        assert e.send_unicast("DATA", 2, 3, 4096, 0.0) == GRANT
        rec = Recorder()
        e.schedule(1e-3, lambda: e.send_unicast("DATA", 0, 2, 4096, 1e-3,
                                                on_result=rec))
        e.drain()
        assert rec.results == [(BUSY, 1e-3)]

    def test_busy_when_receiver_hears_ongoing_frame(self, tmp_path):
        e = self.make(tmp_path)
        assert e.send_unicast("DATA", 1, 2, 4096, 0.0) == GRANT
        rec = Recorder()
        e.schedule(1e-3, lambda: e.send_unicast("DATA", 3, 0, 4096, 1e-3,
                                                on_result=rec))
        e.drain()
        # 0 hears 1's ongoing frame (dist 145 m), so the grab fails
        assert rec.results[0] == (BUSY, 1e-3)

    def test_same_instant_power_contest(self, tmp_path):
        e = self.make(tmp_path)
        weak, strong = Recorder(), Recorder()
        assert e.send_unicast("DATA", 0, 2, 4096, 0.0, on_result=weak) == GRANT
        assert e.send_unicast("DATA", 1, 2, 4096, 0.0, on_result=strong) == GRANT
        e.drain()
        assert weak.results == [(BUSY, 0.0)]        # cancelled by the winner
        assert strong.results[0][0] == OK

    def test_same_instant_weaker_loses_without_preempting(self, tmp_path):
        e = self.make(tmp_path)
        strong, weak = Recorder(), Recorder()
        assert e.send_unicast("DATA", 1, 2, 4096, 0.0, on_result=strong) == GRANT
        assert e.send_unicast("DATA", 0, 2, 4096, 0.0, on_result=weak) == BUSY
        e.drain()
        assert weak.results == [(BUSY, 0.0)]
        assert strong.results[0][0] == OK

    def test_no_rx_when_receiver_asleep(self, tmp_path):
        e = self.make(tmp_path)
        e.charge(2, 10.0)
        rec = Recorder()
        assert e.send_unicast("DATA", 0, 2, 4096, 0.0, on_result=rec) == NO_RX
        assert rec.results == [(NO_RX, 0.0)]

    def test_transmitter_channel_exclusivity_enforced(self, tmp_path):
        e = self.make(tmp_path)
        assert e.send_unicast("DATA", 0, 2, 4096, 0.0) == GRANT
        own = list(e.active.values())[0]
        assert e.send_unicast("DATA", 0, 3, 4096, 0.0) == DEFERRED
        assert list(e.active.values()) == [own]  # the second frame waits
        with pytest.raises(RuntimeError, match="already holds the channel"):
            e._begin(Transmission(kind="DATA", tx=0, rx=3, bits=4096,
                                  start=0.0, end=1.0))

    def test_send_while_on_air_starts_after_own_frame(self, tmp_path):
        e = self.make(tmp_path)
        assert e.send_unicast("DATA", 0, 2, 4096, 0.0) == GRANT
        own_end = list(e.active.values())[0].end
        rng_state = e.rng_jitter.getstate()
        starts = []
        assert e.send_unicast(
            "DATA", 0, 3, 4096, 0.0,
            on_result=lambda trans, outcome, t: starts.append(
                (trans.start, outcome))) == DEFERRED
        e.drain()
        assert starts == [(own_end + RETRY_GAP, OK)]
        assert e.rng_jitter.getstate() == rng_state   # no jitter drawn

    def test_deferral_jitter_bounds_the_start(self, tmp_path):
        e = self.make(tmp_path)
        j = 1e-3
        assert e.send_unicast("DATA", 0, 2, 4096, 0.0) == GRANT
        earliest = list(e.active.values())[0].end + RETRY_GAP
        starts = []
        assert e.send_unicast(
            "DATA", 0, 3, 4096, 0.0, defer_jitter=j,
            on_result=lambda trans, outcome, t: starts.append(trans.start)) == DEFERRED
        e.drain()
        assert len(starts) == 1
        assert earliest <= starts[0] < earliest + j

    def test_drained_sender_sends_nothing(self, tmp_path):
        e = self.make(tmp_path)
        e.charge(0, 10.0)
        rec = Recorder()
        assert e.send_unicast("DATA", 0, 2, 4096, 0.0, on_result=rec) == ASLEEP
        assert rec.results == [(ASLEEP, 0.0)]
        assert list(e.active.values()) == []
        e.drain()
        assert log_lines(e) == []

    def test_drained_sender_sends_no_control_frame(self, tmp_path):
        e = self.make(tmp_path)
        e.charge(0, 10.0)
        residual = {n: rec.energy.residual for n, rec in e.nodes.items()}
        e.send_oob_control(CONFIG, 0, BS, 0.0)
        e.send_oob_control(REPORT, 0, 2, 0.0)
        assert log_lines(e) == []
        assert {n: rec.energy.residual
                for n, rec in e.nodes.items()} == residual

    def test_nodes_drained_from_the_start_upload_nothing(self):
        log = Engine(Scenario(node_count=5, sim_time=2,
                              initial_energy=0.0)).run()
        records = [line.split() for line in log.splitlines()]
        assert records
        assert all(kind == "DROP" and outcome == ASLEEP
                   for _, kind, _, _, _, outcome in records)


class TestHiddenTerminal:
    # two senders out of carrier range whose frames overlap at both receivers
    POINTS = {0: (100.0, 100.0), 1: (250.0, 100.0),
              2: (400.0, 100.0), 3: (250.0, 200.0)}

    def test_simultaneous_frames_all_lost(self, tmp_path):
        e = make_engine(tmp_path, self.POINTS, (1500.0, 1500.0))
        a, b = Recorder(), Recorder()
        assert e.send_unicast("DATA", 0, 1, 4096, 0.0, on_result=a) == GRANT
        assert e.send_unicast("DATA", 2, 3, 4096, 0.0, on_result=b) == GRANT
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
        assert e.send_unicast("DATA", 0, 1, 4096, 0.0) == GRANT
        first = list(e.active.values())[0]
        assert not e._interfered(first, 1)
        e.send_broadcast("RREQ", 2, 320, 1e-3)   # 2 does not hear 0
        assert len(e.active) == 2
        assert e._interfered(first, 1)
        assert not e._interfered(first, 0)       # 0 does not hear 2

    def test_cancelled_frame_stops_jamming_between_calls(self, tmp_path):
        # 0 -> 1 is on the air; 2 -> 3 overlaps it and 1 hears 2. A
        # same-instant grab by 4, much closer to 3, then cancels 2's frame
        # without beginning one: only 0's frame stays on the air.
        points = {0: (0.0, 100.0), 1: (300.0, 100.0), 2: (600.0, 100.0),
                  3: (900.0, 100.0), 4: (1000.0, 100.0)}
        e = make_engine(tmp_path, points, (1500.0, 1500.0))
        assert e.send_unicast("DATA", 0, 1, 4096, 0.0) == GRANT
        first = list(e.active.values())[0]
        assert e.send_unicast("DATA", 2, 3, 320, 1e-3) == GRANT
        jammer = list(e.active.values())[1]
        assert e._interfered(first, 1)
        assert e.arbitrate(4, 3, 1e-3) == GRANT
        assert jammer.cancelled and e.active == {0: first}
        assert first.overlaps == [jammer]
        assert not e._interfered(first, 1)


# start times that are exact sums of frame airtimes, so that some frames end
# at the very instant another begins
AIRTIMES = [frame_airtime(RadioParams(), bits) for bits in (320, 4096)]
STARTS = {0.0}
for _ in range(2):
    STARTS |= {t + air for t in STARTS for air in AIRTIMES}
STARTS = sorted(STARTS)
COORD = st.one_of(st.floats(0.0, 700.0), st.sampled_from([0.0, 350.0, 700.0]))


@st.composite
def frame_scripts(draw):
    """A few nodes, a base station and the frames they try to send.

    Each send is (start, broadcast?, tx, rx, bits); senders and receivers
    may be the base station. Sends are scheduled in list order, so several
    at one start time contend in that order.
    """
    n = draw(st.integers(2, 6))
    pts = [(draw(COORD), draw(COORD)) for _ in range(n)]
    who = st.sampled_from(list(range(n)) + [BS])
    sends = draw(st.lists(st.tuples(st.sampled_from(STARTS), st.booleans(),
                                    who, who, st.sampled_from([0, 320, 4096])),
                          min_size=1, max_size=12))
    return pts, (draw(COORD), draw(COORD)), sends


class TestInterferenceOracle:
    """Every frame's fate at each receiver against brute force.

    A unicast asks ``_interfered``; a broadcast resolves all its receivers
    at once, so its fate at each awake endpoint that hears it, a ``COLL``
    record or an ``on_broadcast_received`` call, is checked instead.
    """

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=frame_scripts())
    # coincident starts: both broadcasts reach 1 together
    @example(case=([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)], (300.0, 300.0),
                   [(0.0, True, 0, 0, 320), (0.0, True, 2, 2, 320)]))
    # 1 starts a frame of its own as 0's broadcast begins to reach it
    @example(case=([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)], (300.0, 300.0),
                   [(0.0, True, 0, 0, 320), (0.0, False, 1, 2, 4096)]))
    # 2 begins exactly when 0's frame ends: no overlap at 1
    @example(case=([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)], (300.0, 300.0),
                   [(0.0, True, 0, 0, 320), (AIRTIMES[0], True, 2, 2, 320)]))
    # the base station as sender: its broadcast jams 2's frame at 1; as
    # receiver: 1's broadcast and 0's frame to it jam each other there
    @example(case=([(350.0, 0.0), (350.0, 600.0), (650.0, 600.0)],
                   (350.0, 300.0),
                   [(0.0, True, BS, BS, 320), (0.0, False, 2, 1, 4096),
                    (2 * AIRTIMES[1], False, 0, BS, 4096),
                    (2 * AIRTIMES[1], True, 1, 1, 320)]))
    # 2 wins the same-instant contest for 1 and cancels 0's frame, which
    # must not jam 4, the one receiver of 3's broadcast that hears 0
    @example(case=([(300.0, 0.0), (500.0, 0.0), (600.0, 0.0), (100.0, 300.0),
                    (100.0, 0.0)], (1500.0, 1500.0),
                   [(0.0, True, 3, 3, 320), (0.0, False, 0, 1, 4096),
                    (0.0, False, 2, 1, 4096)]))
    # a 0-bit broadcast begins while 0's frame is on the air: both jam 1
    @example(case=([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)], (300.0, 300.0),
                   [(0.0, True, 0, 0, 320), (AIRTIMES[0] / 2, True, 2, 2, 0)]))
    # 2's 0-bit broadcast ends at the instant 0's begins, while both are on
    # the air: no overlap, and 1 receives both
    @example(case=([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)], (300.0, 300.0),
                   [(0.0, True, 2, 2, 0), (0.0, True, 0, 0, 320)]))
    def test_every_answer_matches_brute_force(self, case):
        pts, bs, sends = case
        with tempfile.TemporaryDirectory() as tmp:
            e = make_engine(Path(tmp), dict(enumerate(pts)), bs)
        received = []  # hyb has no broadcast handler of its own
        e.protocol.on_broadcast_received = (
            lambda node, trans, now: received.append(node))
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
            receivers = [r for r in ends if r != trans.tx and r in e.awake
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
        for t, broadcast, tx, rx, bits in sends:
            if broadcast:
                e.schedule(t, lambda t=t, tx=tx, bits=bits:
                           e.send_broadcast("RREQ", tx, bits, t))
            elif rx != tx:
                e.schedule(t, lambda t=t, tx=tx, rx=rx, bits=bits:
                           e.send_unicast("DATA", tx, rx, bits, t))
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
            lambda node, trans, now: heard.append(node))
        e.send_broadcast("RREQ", 0, 320, 0.0)
        e.drain()
        assert sorted(heard) == [1, 2]   # 300 m away is still in range

    def test_base_station_does_not_receive_its_own_broadcast(self, tmp_path):
        # 0 and 1 hear the base station, 2 is 360.6 m away from it
        e = make_engine(tmp_path, self.POINTS, (100.0, 300.0))
        heard = []
        e.protocol.on_broadcast_received = (
            lambda node, trans, now: heard.append(node))
        e.send_broadcast("RREQ", BS, 320, 0.0)
        e.drain()
        assert heard == [0, 1]
        assert not any(" COLL BS BS " in line for line in log_lines(e))

    def test_carrier_sense_defers_behind_active_frame(self, tmp_path):
        e = make_engine(tmp_path, self.POINTS, (1500.0, 1500.0))
        e.protocol.on_broadcast_received = lambda *a: None
        assert e.send_unicast("DATA", 1, 2, 4096, 0.0) == GRANT
        e.send_broadcast("RREQ", 0, 320, 0.0)   # 0 hears 1: must defer
        e.drain()
        sent = [l for l in log_lines(e) if " RREQ " in l and l.endswith("SENT")]
        assert len(sent) == 1
        assert float(sent[0].split()[0]) >= 2.048e-3

    def test_overlapping_broadcast_copy_collides(self, tmp_path):
        # 0 and 2 cannot hear each other; both broadcasts overlap at 1
        points = {0: (0.0, 100.0), 1: (350.0, 100.0), 2: (700.0, 100.0)}
        e = make_engine(tmp_path, points, (1500.0, 1500.0))
        e.protocol.on_broadcast_received = lambda *a: None
        e.send_broadcast("RREQ", 0, 320, 0.0)
        e.send_broadcast("RREQ", 2, 320, 0.0)
        e.drain()
        coll = [l for l in log_lines(e) if " COLL 0 1 " in l or " COLL 2 1 " in l]
        assert len(coll) == 2


class TestEnergyAccounting:
    def test_charges_ledger_and_death(self, tmp_path):
        e = make_engine(tmp_path, {0: (100.0, 100.0)}, (1500.0, 1500.0),
                        initial_energy=1e-4)
        charges = record_charges(e)
        cost = 6e-5
        e.charge(0, cost)
        assert e.nodes[0].death_time is None
        e.now = 2.5
        e.charge(0, cost)
        assert e.nodes[0].death_time == 2.5
        assert 0 not in e.awake
        assert charges[0] == [cost, cost]
        assert e.nodes[0].energy.residual == 0.0  # clamped, not negative

    def test_charged_down_to_the_threshold_stays_awake(self, tmp_path):
        e = make_engine(tmp_path, {0: (100.0, 100.0)}, (1500.0, 1500.0),
                        initial_energy=0.75, energy_threshold=0.25)
        e.charge(0, 0.5)
        assert e.nodes[0].energy.residual == 0.25
        assert 0 in e.awake and e.nodes[0].death_time is None
        e.now = 1.5
        e.charge(0, 1e-9)
        assert 0 not in e.awake and e.nodes[0].death_time == 1.5
        e.now = 2.0
        e.charge(0, 1e-9)   # a dead node dies once
        assert e.nodes[0].death_time == 1.5

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(protocol=st.sampled_from(["hyb", "aodv", "dsr"]),
           nodes=st.integers(2, 15), seed=st.integers(0, 10 ** 6),
           initial=st.sampled_from([2e-4, 1e-3, 4e-3, 2e-2]),
           threshold=st.sampled_from([0.0, 1e-6, 1e-4]))
    def test_awake_follows_every_charge(self, protocol, nodes, seed,
                                        initial, threshold):
        e = Engine(Scenario(protocol=protocol, node_count=nodes, seed=seed,
                            sim_time=1.0, topology_size=(700.0, 700.0),
                            bs_location=(350.0, 350.0),
                            initial_energy=initial,
                            energy_threshold=threshold))
        charge = e.charge
        deaths = []

        def checked_charge(node, amount):
            before = {n: rec.death_time for n, rec in e.nodes.items()}
            charge(node, amount)
            assert e.awake == {BS} | {
                n for n, rec in e.nodes.items()
                if rec.energy.residual >= rec.energy.threshold}
            for n, rec in e.nodes.items():
                if rec.death_time != before[n]:
                    assert before[n] is None and n == node
                    assert rec.death_time == e.now
                    deaths.append(n)

        e.charge = checked_charge
        e.run()
        assert sorted(deaths) == sorted(set(e.nodes) - e.awake)

    def test_bs_is_mains_powered(self, tmp_path):
        e = make_engine(tmp_path, {0: (100.0, 100.0)}, (1500.0, 1500.0))
        e.charge(BS, 100.0)  # no-op, never raises
        assert BS in e.awake

    def test_hyb_states_share_the_engine_battery(self):
        # the hybrid state machine decides on the battery the engine charges
        e = Engine(Scenario(protocol="hyb", node_count=25, sim_time=20.0, seed=1))
        e.run()
        for n, rec in e.nodes.items():
            assert e.protocol.states[n].energy is rec.energy


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

        def recording(node, event_id, now):
            order.append(int(event_id[2:]))
            on_sense(node, event_id, now)
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


class TestPacketResolution:
    """A packet resolves once; the check is an exception, so ``python -O``
    keeps it."""

    @pytest.mark.parametrize("first", ["drop", "deliver"])
    @pytest.mark.parametrize("second", ["drop", "deliver"])
    def test_second_resolution_raises(self, tmp_path, first, second):
        e = make_engine(tmp_path, {0: (1000.0, 1200.0)}, (1000.0, 1000.0))
        ctx = e.new_packet("ev0", 0, 0.0)
        resolve = {"drop": lambda: e.drop(ctx, ASLEEP, 0, 0.0),
                   "deliver": lambda: e.deliver(ctx, 0, 0.0)}
        resolve[first]()
        with pytest.raises(RuntimeError, match="already resolved"):
            resolve[second]()


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
