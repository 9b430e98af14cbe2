"""Spans and counters around hybsim's layers, recorded from outside it.

The tracer replaces functions and methods of the ``hybsim`` modules with
wrappers for the length of one run and puts the originals back afterwards;
the package itself carries no instrumentation. A wrapper reads the clock and
counts, nothing more: it draws no randomness and schedules nothing, so a
traced run writes the same event log as an untraced one.

Spans live in four parallel arrays (name id, parent span, start, end) and
are written out once, when the run ends. A layer's self time is the sum of
its spans' durations minus the part of each span its child spans cover.
Calls too hot to wrap are counted from sizes: a neighbour-table build over
an alive set A evaluates ``eligible`` |A|^2 times, and ``Engine.__init__``
evaluates ``link_feasible`` n^2 times for n nodes.
"""

import pickle
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

from hybsim import baselines, engine, hyb, metrics, topology
from hybsim.engine import BUSY, FRAME_KINDS, NO_RX
from hybsim.hyb import FORWARD, SEND_DIRECT


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and counters for one run of a workload."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._current = [-1]
        self.counts: Counter = Counter()

    # ------------------------------------------------------------ recording

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that every call records one span called ``name``."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        current, clock = self._current, time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(current[0])
            ends.append(0.0)
            current[0] = i
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                current[0] = parents[i]
        return traced

    def install(self, patches: Patches) -> None:
        """Wrap every traced layer boundary of hybsim."""
        span, counts = self.span, self.counts
        Engine = engine.Engine

        def wrap(owner, attr, name, observe=None):
            traced = span(name, vars(owner)[attr])
            patches.set(owner, attr, observe(traced) if observe else traced)

        def engine_init(fn):
            def observed(eng, scenario):
                fn(eng, scenario)
                counts["radio.link_checks"] += len(eng.nodes) ** 2
            return observed

        def build(fn):
            def observed(locs, params, alive):
                counts["topology.pair_checks"] += len(alive) ** 2
                return fn(locs, params, alive)
            return observed

        def refresh(fn):
            def observed(table, locs, params, dead):
                new = fn(table, locs, params, dead)
                counts["refresh.rows"] += len(new.rows)
                counts["refresh.changed"] += sum(
                    1 for n, row in new.rows.items() if table.rows.get(n) != row)
                return new
            return observed

        def arbitrate(fn):
            def observed(eng, tx, rx, now):
                verdict = fn(eng, tx, rx, now)
                if verdict == BUSY or verdict == NO_RX:
                    counts["arbitrate.busy"] += 1
                return verdict
            return observed

        def broadcast(fn):
            def observed(eng, *args, **kwargs):
                seq, active = eng._seq, len(eng.active)
                fn(eng, *args, **kwargs)
                # a deferral schedules a retry and takes no channel
                if eng._seq != seq and len(eng.active) == active:
                    counts["broadcast.defer"] += 1
            return observed

        def interfered(fn):
            def observed(eng, trans, receiver):
                counts["interfered.scanned"] += len(eng.recent)
                hit = fn(eng, trans, receiver)
                if hit:
                    counts["interfered.hits"] += 1
                return hit
            return observed

        def decide(key):
            def observe(fn):
                def observed(*args):
                    action = fn(*args)
                    counts[key] += 1
                    if action.kind == SEND_DIRECT:
                        counts["decide.direct"] += 1
                    elif action.kind == FORWARD:
                        counts["decide.forward"] += 1
                    return action
                return observed
            return observe

        def collect(fn):
            def observed(log_text):
                counts["metrics.collect.lines"] += log_text.count("\n")
                return fn(log_text)
            return observed

        wrap(Engine, "__init__", "engine.init", engine_init)
        wrap(Engine, "run", "engine.run")
        wrap(Engine, "drain", "engine.drain")
        wrap(Engine, "arbitrate", "engine.mac.arbitrate", arbitrate)
        wrap(Engine, "transmitting", "engine.mac.transmitting")
        wrap(Engine, "send_broadcast", "engine.mac.broadcast", broadcast)
        wrap(Engine, "_frame_end", "engine.mac.frame_end")
        wrap(Engine, "_interfered", "engine.mac.interfered", interfered)
        wrap(Engine, "charge", "engine.charge")
        wrap(Engine, "log", "engine.log")
        wrap(engine, "place_nodes", "engine.place")
        wrap(engine, "generate_events", "engine.traffic")
        wrap(engine.HybRunner, "configure", "engine.configure")
        wrap(baselines._BaseRunner, "configure", "engine.configure")
        # refresh_table reaches the build through topology's own global
        wrap(engine, "compute_neighbour_table", "topology.build", build)
        wrap(topology, "compute_neighbour_table", "topology.build", build)
        wrap(engine, "refresh_table", "topology.refresh", refresh)
        wrap(hyb, "on_sense", "hyb.decide", decide("decide.sense"))
        wrap(hyb, "on_receive", "hyb.decide", decide("decide.receive"))
        wrap(hyb, "on_busy_channel", "hyb.decide", decide("hyb.busy_retries"))
        wrap(hyb, "best_neighbour", "hyb.best_neighbour")
        for runner in (baselines.AodvRunner, baselines.DsrRunner):
            wrap(runner, "on_sense", "baselines.on_sense")
            wrap(runner, "on_broadcast_received", "baselines.on_broadcast")
        wrap(metrics, "collect", "metrics.collect", collect)

        schedule = vars(Engine)["schedule"]

        def counted_schedule(eng, when, fn):
            schedule(eng, when, fn)
            counts["engine.schedule.calls"] += 1
            if len(eng._heap) > counts["engine.heap.peak"]:
                counts["engine.heap.peak"] = len(eng._heap)
        patches.set(Engine, "schedule", counted_schedule)

        link_feasible = vars(hyb)["link_feasible"]

        def counted_link(params, distance):
            counts["radio.link_checks"] += 1
            return link_feasible(params, distance)
        patches.set(hyb, "link_feasible", counted_link)

    def count_frames(self, log_text: str) -> None:
        """Tally the simulated frame counts of one finished event log."""
        counts = self.counts
        for line in log_text.splitlines():
            _, kind, _, _, _, outcome = line.split(" ")
            if kind in FRAME_KINDS:
                counts["frames"] += 1
                if kind == "DATA":
                    counts["frames.data"] += 1
                    if outcome != "OK":
                        counts["baselines.data_retries"] += 1
        counts["engine.log.bytes"] += len(log_text)

    # ------------------------------------------------------------- results

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """Calls and self seconds per span name."""
        covered = array("d", bytes(8 * len(self.name)))
        for p, s, e in zip(self.parent, self.start, self.end):
            if p >= 0:
                covered[p] += e - s
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for k, s, e, c in zip(self.name, self.start, self.end, covered):
            calls[k] += 1
            own[k] += e - s - c
        return {n: (calls[k], own[k]) for k, n in enumerate(self.names)}

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric except trace.overhead_ratio."""
        spans = self.self_times()
        c = self.counts

        def calls(name):
            return spans.get(name, (0, 0.0))[0]

        def self_s(name):
            return spans.get(name, (0, 0.0))[1]

        decided = c["decide.sense"] + c["decide.receive"] + c["hyb.busy_retries"]
        routed = c["decide.direct"] + c["decide.forward"]
        return {
            "topology.build.calls": calls("topology.build"),
            "topology.build.self_s": self_s("topology.build"),
            "topology.refresh.calls": calls("topology.refresh"),
            "topology.pair_checks": c["topology.pair_checks"],
            "topology.refresh.changed_ratio": _ratio(c["refresh.changed"],
                                                     c["refresh.rows"]),
            "engine.init.self_s": self_s("engine.init"),
            "engine.place.self_s": self_s("engine.place"),
            "engine.traffic.self_s": self_s("engine.traffic"),
            # Engine.run minus configure, generate_events and drain
            "engine.sense_match.self_s": self_s("engine.run"),
            "engine.drain.self_s": self_s("engine.drain"),
            "engine.schedule.calls": c["engine.schedule.calls"],
            "engine.heap.peak": c["engine.heap.peak"],
            "engine.mac.arbitrate.calls": calls("engine.mac.arbitrate"),
            "engine.mac.arbitrate.self_s": self_s("engine.mac.arbitrate"),
            "engine.mac.busy_ratio": _ratio(c["arbitrate.busy"],
                                            calls("engine.mac.arbitrate")),
            "engine.mac.transmitting.calls": calls("engine.mac.transmitting"),
            "engine.mac.transmitting.self_s": self_s("engine.mac.transmitting"),
            "engine.mac.broadcast.calls": calls("engine.mac.broadcast"),
            "engine.mac.broadcast.defer_ratio": _ratio(
                c["broadcast.defer"], calls("engine.mac.broadcast")),
            "engine.mac.frame_end.calls": calls("engine.mac.frame_end"),
            "engine.mac.frame_end.self_s": self_s("engine.mac.frame_end"),
            "engine.mac.interfered.calls": calls("engine.mac.interfered"),
            "engine.mac.interfered.self_s": self_s("engine.mac.interfered"),
            "engine.mac.interfered.scan_len": _ratio(
                c["interfered.scanned"], calls("engine.mac.interfered")),
            "engine.mac.interfered.hit_ratio": _ratio(
                c["interfered.hits"], calls("engine.mac.interfered")),
            "engine.charge.calls": calls("engine.charge"),
            "engine.charge.self_s": self_s("engine.charge"),
            "engine.log.calls": calls("engine.log"),
            "engine.log.self_s": self_s("engine.log"),
            "engine.log.bytes": c["engine.log.bytes"],
            "radio.link_checks": c["radio.link_checks"],
            "hyb.decide.calls": decided,
            "hyb.decide.self_s": self_s("hyb.decide"),
            "hyb.best_neighbour.calls": calls("hyb.best_neighbour"),
            "hyb.best_neighbour.self_s": self_s("hyb.best_neighbour"),
            "hyb.busy_retries": c["hyb.busy_retries"],
            "hyb.direct_ratio": _ratio(c["decide.direct"], routed),
            "baselines.on_sense.calls": calls("baselines.on_sense"),
            "baselines.on_broadcast.calls": calls("baselines.on_broadcast"),
            "baselines.on_broadcast.self_s": self_s("baselines.on_broadcast"),
            "baselines.data_share": _ratio(c["frames.data"], c["frames"]),
            "baselines.data_retries": c["baselines.data_retries"],
            "metrics.collect.self_s": self_s("metrics.collect"),
            "metrics.collect.lines": c["metrics.collect.lines"],
        }

    def write(self, path: str) -> None:
        """Write every span: names, then name id, parent, start and end."""
        with open(path, "wb") as fh:
            pickle.dump({"run_id": self.run_id, "names": self.names,
                         "name": self.name, "parent": self.parent,
                         "start": self.start, "end": self.end}, fh,
                        protocol=pickle.HIGHEST_PROTOCOL)


def load_spans(path: str) -> dict:
    """Read a span file written by ``Tracer.write`` (benchmark output only)."""
    with open(path, "rb") as fh:
        return pickle.load(fh)
