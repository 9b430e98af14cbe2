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
in that time lead both to the same frames.

A third table pins the baselines' collision storm (125 nodes, seed 1,
10 s). There RREQ floods keep ~63 frames in the engine's recent-frame
window at each interference check on average, against ~18 at 75 nodes.

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
"""

import hashlib
import math

import pytest

from hybsim.engine import Engine
from hybsim.scenario import Scenario

SIM_TIME = 60.0

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
    log = Engine(sc).run()
    assert hashlib.sha256(log.encode()).hexdigest() == GOLDEN[protocol, nodes, seed]


@pytest.mark.parametrize("protocol,initial_energy", sorted(DRAINED))
def test_drained_battery_log_digest(protocol, initial_energy):
    sc = Scenario(protocol=protocol, node_count=75, seed=1, sim_time=SIM_TIME,
                  initial_energy=initial_energy)
    log = Engine(sc).run()
    assert hashlib.sha256(log.encode()).hexdigest() == DRAINED[protocol, initial_energy]


@pytest.mark.parametrize("protocol", sorted(STORM))
def test_collision_storm_log_digest(protocol):
    sc = Scenario(protocol=protocol, node_count=125, seed=1, sim_time=10.0)
    log = Engine(sc).run()
    assert hashlib.sha256(log.encode()).hexdigest() == STORM[protocol]


@pytest.mark.parametrize("initial_energy", sorted(REPORTED))
def test_reported_liveness_log_digest(initial_energy):
    sc = Scenario(protocol="hyb", node_count=75, seed=1, sim_time=SIM_TIME,
                  initial_energy=initial_energy, liveness="reported")
    log = Engine(sc).run()
    assert hashlib.sha256(log.encode()).hexdigest() == REPORTED[initial_energy]


@pytest.mark.parametrize("protocol", sorted(EDGE))
def test_range_edge_log_digest(protocol, tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("".join(f"{i} , {x!r} , {y!r}\n"
                            for i, (x, y) in enumerate(EDGE_POINTS)))
    sc = Scenario(protocol=protocol, placement=str(path),
                  node_count=len(EDGE_POINTS), bs_location=EDGE_BS,
                  topology_size=(1400.0, 1050.0), sim_time=SIM_TIME)
    log = Engine(sc).run()
    assert hashlib.sha256(log.encode()).hexdigest() == EDGE[protocol]
