"""Golden event-log digests: pin what every protocol writes, byte for byte.

Each case runs one scenario (defaults apart from protocol, node count, seed
and 60 simulated seconds) and compares the SHA-256 of the full event log
with the digest recorded when the case was added. A change that alters any
record, its order or its formatting fails here, so speed-ups of the engine,
the topology or the protocols must leave every digest as it is.

At 25 nodes every AODV and DSR route is one hop long, so the two baselines
write the same log there.

A second table pins runs with small batteries (75 nodes, seed 1, 60 s),
where nodes drain mid-run and still hold data packets or route replies to
send. With 0.05 J the two baselines happen to write the same log as well:
the field drains within the first half minute, and the few routes found
in that time lead both to the same frames. hyb with 0.05 J is the one
case whose base station drops dead rows from the neighbour table at a
refresh; a test below shows that it does.

A third table pins the baselines' collision storm (125 nodes, seed 1,
10 s). There RREQ floods make each frame share its air time with ~8 others
on average.

A fourth table pins hyb with ``liveness = reported`` (75 nodes, seed 1,
60 s), where neighbour selection trusts the base station's last residual
reports instead of the batteries. With full 10 J batteries no node drains
in a minute and the log equals the ground-truth one, so these runs use
batteries small enough for nodes to die mid-run.

A fifth table pins a hand-made location file whose node pairs, and nodes
and the base station, sit exactly one radio range apart or one ulp either
side of it. There a row (``dist <= radio_range``) and the power test of
``link_feasible`` disagree: a node one ulp beyond the range hears its
neighbour but may not list it.

A sixth table pins the edges of broadcast resolution (seed 1). Each case
has a test that shows it reaches what it is there for:

- aodv at 125 nodes, 10 s, ``control_bits = 0``: route requests and
  replies take no air time, so frames begin at the very instant another
  frame ends, where the strict overlap test keeps them apart, and
  zero-length frames fall strictly inside data frames;
- aodv and dsr at 125 nodes, 10 s, 0.05 J batteries: every node dies,
  nearly all of them as the sender of a route request whose copies are
  still being handed out. The two baselines write the same log there: the
  three packets delivered before the field is drained each go straight
  from their origin to the base station, where AODV's next hop and DSR's
  source route send the same frame. Their receiver lists keep the dead:
  a receiver is skipped at frame end because it is in ``asleep``;
- aodv at 200 nodes, 1 s: each frame overlaps ~13 others on average,
  against ~8 in the 125-node storm;
- dsr at 200 nodes, 1 s: the same dense flood, where a node tests whether
  it is on a request's route record before it checks the request for a
  duplicate.

On every case of that table a further test checks, after each frame
enters or leaves the air, each frame's ``reach``.

A seventh table pins hyb's busy-channel path (500 nodes in a 1000 m x
1000 m field, the density of 2000 nodes in the default field; seed 1,
10 s). Every sensing node of an event contends for the same few relays at
once, so nearly every channel grab returns BUSY: with the base station at
the default (1000, 1000), a corner of this field, 18,246 grabs are BUSY
against 445 granted, and each BUSY picks the packet's next candidate and
schedules its retry. Packets end as NO_ROUTE when their candidates run out
and as CONGESTION past the waiting budget. With the base station at the
field's centre some relays also see an event twice and drop it as a
DUPLICATE. A test below counts the grabs.

Every digest test also holds the report the engine counted while writing
the log against the one ``metrics.collect`` parses from it: they must agree
field by field, so the counts that ``metrics.compare`` reports from are
checked on every case above.
"""

import hashlib
import math
from collections import Counter, defaultdict

import pytest

from hybsim import engine
from hybsim.engine import BROADCAST, Engine
from hybsim.scenario import Scenario

from helpers import counted_and_parsed

SIM_TIME = 60.0


def _digest(e: Engine) -> str:
    """Run ``e`` and return its log's SHA-256, once the report the engine
    counted has matched, field by field, the one collect parses from it."""
    log, counted, parsed = counted_and_parsed(e)
    assert counted == parsed
    return hashlib.sha256(log.encode()).hexdigest()


GOLDEN = {
    ("hyb", 25, 1): "171716c65757c38af3df2e2a8d99e931a2af6997f4e2a92b750c4dc827918ce2",
    ("hyb", 25, 2): "97cd210f602f2fc0b3f4824404d6f8c78b2d1c8c678bed84693ffe7c9dff1579",
    ("hyb", 75, 1): "5dfe93cd620df15da834cec4c93398a16c12628b226bd0bf8932b11fc7559ad0",
    ("hyb", 75, 2): "c72182aa0cef30dab4257f8b1da650bb592407700ecdc276d1c2df216d947316",
    ("aodv", 25, 1): "9685de853d9b07edf6edd89cad3d7f90ec08a20555b9e58be11c7f45f3bac0d9",
    ("aodv", 25, 2): "935432727204ecd9358f0ea7608b580bad3e6ef62168f75e97c510816d640344",
    ("aodv", 75, 1): "ea79d59adb4fe83661d48540d6e6d4dfb76e859ca786ea386da3b1b42c895d8c",
    ("aodv", 75, 2): "ba2713cfa033c9377a4ec4d2e750c14d2a7665945de5b07d3dac963547c8e5de",
    ("dsr", 25, 1): "9685de853d9b07edf6edd89cad3d7f90ec08a20555b9e58be11c7f45f3bac0d9",
    ("dsr", 25, 2): "935432727204ecd9358f0ea7608b580bad3e6ef62168f75e97c510816d640344",
    ("dsr", 75, 1): "14bb5b991a75eb91f81a3fa8df4da69eca44a74b0ae105b53247fb65f39ca89b",
    ("dsr", 75, 2): "c9e2ccf276de030c9be213abf448e5093b0b504d8d0e514cf208bb5a4b0ce2ba",
    ("hyb", 500, 1): "7bd10e1951596ae10d84647fa287f398e1e81046379f21cd81068fd473b81627",
}

# (protocol, initial_energy) -> digest, at 75 nodes, seed 1
DRAINED = {
    ("aodv", 0.05): "be48cd95af52a0ae3d041c111041af16fba21fdce61d187c8caba10174a9ba62",
    ("aodv", 0.2): "1994e48b10517dce1fa57cca8b3a4fcb9c42d86909155cdc3124983d3fe000c3",
    ("dsr", 0.05): "be48cd95af52a0ae3d041c111041af16fba21fdce61d187c8caba10174a9ba62",
    ("dsr", 0.2): "20364bf48446b402d3edd207a6acc8ea14cafa9c975ee6062fe2a6ab70a730b5",
    ("hyb", 0.05): "0539522c87034797abee4e4a7dea137db0712f67f38d635772c71a5eaa1d5885",
    ("hyb", 0.2): "1e6d36dc1c879144584f879161b96d5e761fb92655f6e1cab28d935f86db3d93",
}

# protocol -> digest, at 125 nodes, seed 1, 10 s
STORM = {
    "aodv": "327022f702881185bdd20d8a441ad7d88b5e60b1d62b8dd7b4f3cfa1a72e6f64",
    "dsr": "4c7ccdbece00024bfedeeb7dcfdd6816d5289a5389cb6424d9ea2ade2a4e2cc1",
}

# initial_energy -> digest, hyb at 75 nodes, seed 1, reported liveness
REPORTED = {
    0.2: "e26f827d2b8dc417ec86c89b0d73082cf061bd3813e8c985680db793b75f8838",
    1.0: "f06de042cc4a01c340933a823a3d4dc7aaf1bc6c599d6e238b4d58d809bd12cb",
}

# bs_location -> digest, hyb at 500 nodes in 1000 m x 1000 m, seed 1, 10 s
BUSY_STORM = {
    (1000.0, 1000.0): "325b2d2d0d66e0259c9600aa20a9eae598fc34dcdd80a450c6a9624efbb956cd",
    (500.0, 500.0): "777270204a9ff26ae6205a41ce87aac125f29b2721c74d043f5f306a339bf5bb",
}


def _up(v):
    return math.nextafter(v, math.inf)


def _down(v):
    return math.nextafter(v, 0.0)


# the base station sits at (700, 0); the radio range is the default 350 m
EDGE_BS = (700.0, 0.0)
EDGE_POINTS = [
    (700.0, 350.0), (700.0, _down(350.0)),    # range and -1 ulp to BS
    (350.0, 0.0), (_down(350.0), 0.0),        # range and +1 ulp to BS
    (1050.0, 0.0), (_down(1050.0), 0.0),      # range and -4 ulp to BS
    (910.0, 280.0),                           # a 210-280-350 triangle to BS
    (700.0, 700.0),                           # range and +1 ulp to the first two
    (700.0, _down(700.0)),                    # -2 ulp to (700, 350)
    (0.0, 0.0), (1400.0, 0.0),
    (1120.0, 560.0), (350.0, 350.0), (1050.0, 350.0),
    (700.0, 1050.0), (350.0, 700.0), (1050.0, 700.0),
    (520.0, 10.0), (520.0, _down(360.0)),     # -1 ulp apart
    (520.0, _up(360.0)),                      # +1 ulp from (520, 10)
]

# protocol -> digest, on EDGE_POINTS, seed 1, 60 s
EDGE = {
    "aodv": "be51acf0fd2dc42c459302b1ab218441d43eb9140d37fe0216f7be1c03e653a7",
    "hyb": "8625f0221ece3ee8dbf1a962709f24401024e7f4ac865ce7e64c4c240396ffa5",
}


@pytest.mark.parametrize("protocol,nodes,seed", sorted(GOLDEN))
def test_event_log_digest(protocol, nodes, seed):
    sc = Scenario(protocol=protocol, node_count=nodes, seed=seed,
                  sim_time=SIM_TIME)
    assert _digest(Engine(sc)) == GOLDEN[protocol, nodes, seed]


@pytest.mark.parametrize("protocol,initial_energy", sorted(DRAINED))
def test_drained_battery_log_digest(protocol, initial_energy):
    sc = Scenario(protocol=protocol, node_count=75, seed=1, sim_time=SIM_TIME,
                  initial_energy=initial_energy)
    assert _digest(Engine(sc)) == DRAINED[protocol, initial_energy]


def test_drained_hyb_case_refreshes_out_dead_rows(monkeypatch):
    dropped, refresh = [], engine.refresh_table

    def recording(table, locs, params, dead):
        dropped.append(dead & table.rows.keys())
        return refresh(table, locs, params, dead)
    monkeypatch.setattr(engine, "refresh_table", recording)
    Engine(Scenario(protocol="hyb", node_count=75, seed=1, sim_time=SIM_TIME,
                    initial_energy=0.05)).run()
    assert any(dropped)


@pytest.mark.parametrize("protocol", sorted(STORM))
def test_collision_storm_log_digest(protocol):
    sc = Scenario(protocol=protocol, node_count=125, seed=1, sim_time=10.0)
    assert _digest(Engine(sc)) == STORM[protocol]


@pytest.mark.parametrize("initial_energy", sorted(REPORTED))
def test_reported_liveness_log_digest(initial_energy):
    sc = Scenario(protocol="hyb", node_count=75, seed=1, sim_time=SIM_TIME,
                  initial_energy=initial_energy, liveness="reported")
    assert _digest(Engine(sc)) == REPORTED[initial_energy]


@pytest.mark.parametrize("protocol", sorted(EDGE))
def test_range_edge_log_digest(protocol, tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("".join(f"{i} , {x!r} , {y!r}\n"
                            for i, (x, y) in enumerate(EDGE_POINTS)))
    sc = Scenario(protocol=protocol, placement=str(path),
                  node_count=len(EDGE_POINTS), bs_location=EDGE_BS,
                  topology_size=(1400.0, 1050.0), sim_time=SIM_TIME)
    assert _digest(Engine(sc)) == EDGE[protocol]


# case -> (scenario settings, digest); seed 1
FLOOD = {
    "aodv-zero-airtime": (dict(protocol="aodv", node_count=125, sim_time=10.0,
                               control_bits=0),
                          "4f2ebbedd6e53fc4f1aee9111d29ad7ac4c0a379e5073577fc07a6f59d109204"),
    "aodv-drained": (dict(protocol="aodv", node_count=125, sim_time=10.0,
                          initial_energy=0.05),
                     "64b1d40847724b14edde682c7e177e0ddc8c7ccc6d365877905e228e66c2958e"),
    "dsr-drained": (dict(protocol="dsr", node_count=125, sim_time=10.0,
                         initial_energy=0.05),
                    "64b1d40847724b14edde682c7e177e0ddc8c7ccc6d365877905e228e66c2958e"),
    "aodv-200": (dict(protocol="aodv", node_count=200, sim_time=1.0),
                 "2ccbdcaace0c79caf1b3d1291eef7fb5433891bfea462dd94c23e8f06e6597e7"),
    "dsr-200": (dict(protocol="dsr", node_count=200, sim_time=1.0),
                "2583698dd0929a9ac03faf095310880709bef0758191edfb3c8ef138f05ef34b"),
}


def _flood_engine(case):
    return Engine(Scenario(seed=1, **FLOOD[case][0]))


def _mask_and_bit(e, x):
    """Endpoint x's reach mask, as its first frame built it, and its bit."""
    i = e._index[x]
    return e._hears[i], 1 << i


@pytest.mark.parametrize("case", sorted(FLOOD))
def test_flood_edge_log_digest(case):
    assert _digest(_flood_engine(case)) == FLOOD[case][1]


@pytest.mark.parametrize("case", sorted(FLOOD))
def test_flood_keeps_every_reach(case):
    # after every change to active, each frame on the air reaches what its
    # sender's masks say
    e = _flood_engine(case)
    calls = Counter()

    def checked(name):
        fn = getattr(e, name)

        def wrapper(trans):
            fn(trans)
            for t in e.active.values():
                hears, bit = _mask_and_bit(e, t.tx)
                assert t.reach == hears | bit
            calls[name] += 1
        setattr(e, name, wrapper)
    for name in ("_begin", "_frame_end", "_cancel"):
        checked(name)
    e.run()
    assert calls["_begin"] > 1000
    assert calls["_frame_end"] > 1000


def test_zero_airtime_case_reaches_the_strict_overlap_edges():
    e = _flood_engine("aodv-zero-airtime")
    frames, begin = [], e._begin

    def recording(trans):
        frames.append(trans)
        begin(trans)
    e._begin = recording
    e.run()

    def share_an_endpoint(g, t):
        (hears_g, bit_g), (hears_t, bit_t) = (_mask_and_bit(e, g.tx),
                                              _mask_and_bit(e, t.tx))
        return bool((hears_g | bit_g) & hears_t
                    or (hears_t | bit_t) & hears_g)

    ends = defaultdict(list)
    touching = inside = 0
    for t in frames:
        # frames that end at the instant t begins: the strict test keeps
        # them apart, though one of the two takes no air time
        touching += sum(1 for g in ends[t.start]
                        if (g.start == g.end or t.start == t.end)
                        and share_an_endpoint(g, t))
        ends[t.end].append(t)
    # zero-length frames strictly inside a longer frame do overlap it
    longer = sorted((g.start, g.end) for g in frames if g.start != g.end)
    k, latest = 0, -math.inf
    for at in sorted(t.start for t in frames if t.start == t.end):
        while k < len(longer) and longer[k][0] < at:
            latest = max(latest, longer[k][1])
            k += 1
        inside += latest > at
    assert touching > 100
    assert inside > 100


@pytest.mark.parametrize("case", ["aodv-drained", "dsr-drained"])
def test_drained_case_kills_every_node_mid_flood(case):
    e = _flood_engine(case)
    current = []
    frame_end, charge = e._frame_end, e.charge
    senders_killed = []

    def tracking_frame_end(trans):
        current.append(trans)
        frame_end(trans)
        current.pop()

    def tracking_charge(node, amount):
        was_asleep = node in e.asleep
        charge(node, amount)
        if (not was_asleep and node in e.asleep and current
                and current[-1].rx == BROADCAST and current[-1].tx == node):
            senders_killed.append(current[-1])
    e._frame_end, e.charge = tracking_frame_end, tracking_charge
    log = e.run()
    assert set(e.asleep) == set(e.nodes)
    # most die paying for a route request whose copies then go out
    assert len(senders_killed) > len(e.nodes) // 2
    assert all(t.kind == "RREQ" for t in senders_killed)
    assert " COLL " in log
    # a receiver list keeps every endpoint its sender reaches, the dead
    # among them: asleep alone says who is dead
    assert e._heard_by
    for tx, receivers in e._heard_by.items():
        hears, _ = _mask_and_bit(e, tx)
        assert receivers == [(x, 1 << i) for i, x in enumerate(e._ids)
                             if hears >> i & 1]


def test_dense_case_has_longer_overlap_lists():
    e = _flood_engine("aodv-200")
    frames, overlaps, begin = [], {}, e._begin

    def counting(trans):
        frames.append(trans)  # kept alive, so that no id is reused
        overlaps[id(trans)] = 0
        for g in e.active.values():
            if g.start < trans.end and g.end > trans.start:
                overlaps[id(g)] += 1
                overlaps[id(trans)] += 1
        begin(trans)
    e._begin = counting
    e.run()
    # the 125-node storm averages ~8 overlapping frames per frame
    assert sum(overlaps.values()) / len(overlaps) > 10


def _busy_storm_engine(bs):
    return Engine(Scenario(protocol="hyb", node_count=500, seed=1,
                           topology_size=(1000.0, 1000.0), bs_location=bs,
                           sim_time=10.0))


@pytest.mark.parametrize("bs", sorted(BUSY_STORM))
def test_busy_storm_log_digest(bs):
    assert _digest(_busy_storm_engine(bs)) == BUSY_STORM[bs]


def test_busy_storm_case_retries_far_more_than_it_sends():
    e = _busy_storm_engine((1000.0, 1000.0))
    verdicts, arbitrate = Counter(), e.arbitrate

    def counting(tx, rx, now):
        verdict = arbitrate(tx, rx, now)
        verdicts[verdict] += 1
        return verdict
    e.arbitrate = counting
    e.run()
    assert verdicts == {engine.BUSY: 18246, engine.GRANT: 445}
    assert e.dropped["NO_ROUTE"] > 5000 and e.dropped["CONGESTION"] > 100


def test_busy_storm_centre_case_drops_duplicates():
    e = _busy_storm_engine((500.0, 500.0))
    e.run()
    assert e.dropped["DUPLICATE"] > 0
