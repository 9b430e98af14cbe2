"""The benchmark's workloads, the scenarios each builds, and its metrics.

Every workload is one call of ``hybsim.metrics.compare`` over a set of
protocols and node counts, followed by ``runs_csv`` and ``summary_csv``.
All scenario knobs other than protocol, node count, simulated time and seed
keep their defaults: a 2000 m x 2000 m field, 8 events/s and 350 m range.
"""

from dataclasses import asdict, dataclass
from typing import Tuple

# A measured run repeats its workload in several child processes. Child k
# runs scenario seed ``seed + SEED_STRIDE * k``: the first child runs the
# given seed itself, and the panels of two seeds below the stride share no
# scenario. A median over placements keeps a seed's figures close to the
# next seed's, which a single placement does not: aodv-125 writes from 167 k
# to 475 k records over the 104 placements in references.json.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocols: Tuple[str, ...]
    node_counts: Tuple[int, ...]
    sim_time: float

    def scenario_seed(self, seed: int, k: int) -> int:
        return seed + SEED_STRIDE * k

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "Workload":
        return cls(data["name"], data["why"], tuple(data["protocols"]),
                   tuple(data["node_counts"]), float(data["sim_time"]))


WORKLOADS = {w.name: w for w in (
    Workload("hyb-2000",
             "set-up and topology bound: 2000-node reachability, three "
             "neighbour-table builds and event matching; the MAC idles",
             ("hyb",), (2000,), 60.0),
    Workload("aodv-125",
             "MAC and log bound: RREQ flooding makes ~72 k frames and ~211 k "
             "collisions; set-up and topology cost ~0.02 s",
             ("aodv",), (125,), 20.0),
    Workload("paper-sweep",
             "the paper's comparison, hyb/aodv/dsr x 25/50/75 nodes x 60 s: "
             "small n, where per-frame and per-node overheads show",
             ("hyb", "aodv", "dsr"), (25, 50, 75), 60.0),
)}

# (metric name, unit) of every end-to-end metric, in report order
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# (metric name, unit) of every per-layer metric, in report order
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("topology.build.calls", "count"),
    ("topology.build.self_s", "s"),
    ("topology.refresh.calls", "count"),
    ("topology.pair_checks", "count"),
    ("topology.refresh.changed_ratio", "ratio"),
    ("engine.init.self_s", "s"),
    ("engine.place.self_s", "s"),
    ("engine.traffic.self_s", "s"),
    ("engine.sense_match.self_s", "s"),
    ("engine.drain.self_s", "s"),
    ("engine.schedule.calls", "count"),
    ("engine.heap.peak", "events"),
    ("engine.mac.arbitrate.calls", "count"),
    ("engine.mac.arbitrate.self_s", "s"),
    ("engine.mac.busy_ratio", "ratio"),
    ("engine.mac.transmitting.calls", "count"),
    ("engine.mac.transmitting.self_s", "s"),
    ("engine.mac.broadcast.calls", "count"),
    ("engine.mac.broadcast.defer_ratio", "ratio"),
    ("engine.mac.frame_end.calls", "count"),
    ("engine.mac.frame_end.self_s", "s"),
    ("engine.mac.interfered.calls", "count"),
    ("engine.mac.interfered.self_s", "s"),
    ("engine.mac.interfered.scan_len", "frames"),
    ("engine.mac.interfered.hit_ratio", "ratio"),
    ("engine.charge.calls", "count"),
    ("engine.charge.self_s", "s"),
    ("engine.log.calls", "count"),
    ("engine.log.self_s", "s"),
    ("engine.log.bytes", "B"),
    ("radio.link_checks", "count"),
    ("hyb.decide.calls", "count"),
    ("hyb.decide.self_s", "s"),
    ("hyb.best_neighbour.calls", "count"),
    ("hyb.best_neighbour.self_s", "s"),
    ("hyb.busy_retries", "count"),
    ("hyb.direct_ratio", "ratio"),
    ("baselines.on_sense.calls", "count"),
    ("baselines.on_broadcast.calls", "count"),
    ("baselines.on_broadcast.self_s", "s"),
    ("baselines.data_share", "ratio"),
    ("baselines.data_retries", "count"),
    ("metrics.collect.self_s", "s"),
    ("metrics.collect.lines", "count"),
    ("trace.overhead_ratio", "ratio"),
)
