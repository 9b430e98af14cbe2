"""Memory held by a run: the event log is held once, in joined blocks, and
read lazily, reachability is exactly one int per sender (its reach mask;
no endpoint's bit is stored), and sensing callbacks reach the heap only as
the run gets to them."""

import heapq
import math
import tracemalloc
from types import SimpleNamespace

import pytest

from hybsim import engine as engine_module
from hybsim.engine import Engine, generate_events
from hybsim.metrics import collect
from hybsim.scenario import Scenario

# Peak traced allocation across Engine.run() and collect(), per character
# of log text. On this storm, on Python 3.11, an io.StringIO log, which keeps
# every write as its own string, reads 3.87; a log joined into blocks every
# TEXT_BLOCK records reads 2.26: its blocks and the text joined from them,
# then collect's working set.
MAX_PEAK_PER_LOG_CHAR = 3.0

# Peak traced allocation of 50,000 short records written through
# Engine.log and read back once, per character of their text. On Python
# 3.11 an io.StringIO log reads 3.61 and the block buffer 2.00: the blocks
# and the one string joined from them.
MAX_LOG_PEAK_PER_CHAR = 2.3

# Peak traced allocation of Engine(...) plus run() for hyb at 1000 nodes and
# 10 s, seed 1. Set-valued reachability and every sensing callback scheduled
# up front peak at 10.3-10.8 MB on Python 3.10-3.13; bitmasks and lazily fed
# callbacks at 3.6-4.3 MB. On Python 3.11 a StringIO log with per-node
# records that carry instance dicts reads 3.27 MB, a block log with slotted
# records 2.52 MB.
MAX_HYB_1000_PEAK = 4_000_000

# Peak traced allocation of Engine(...) alone for hyb at 20,000 nodes over
# that at 5,000, both at the density of 2000 nodes on 2000 x 2000 m, seed 1.
# With a reach mask and a bit of n bits for every endpoint, set-up grows
# with n squared: 9.7 and 98.2 MB, 10.1 x, on Python 3.11. Built on demand,
# set-up holds no mask: 4.8 and 19.1 MB, 4.0 x.
MAX_SET_UP_GROWTH_5K_TO_20K = 5.0


def test_run_and_collect_peak_is_a_small_multiple_of_the_log():
    # 125 aodv nodes flood route requests from the first second: ~33 k records
    engine = Engine(Scenario(protocol="aodv", node_count=125, seed=1,
                             sim_time=1.0))
    tracemalloc.start()
    try:
        log = engine.run()
        collect(log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.count("\n") > 20_000
    assert peak < MAX_PEAK_PER_LOG_CHAR * len(log), \
        f"peak {peak} B is {peak / len(log):.2f} x the {len(log)} B log"


def test_log_is_held_about_once():
    e = Engine(Scenario(node_count=5, seed=1))
    tracemalloc.start()
    try:
        for k in range(50_000):
            e.log(k * 1e-3, "DROP", k % 5, "-", f"ev{k}", "NO_ROUTE")
        text = e.log_buffer.getvalue()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 50_000
    assert peak < MAX_LOG_PEAK_PER_CHAR * len(text), \
        f"peak {peak} B is {peak / len(text):.2f} x the {len(text)} B log"


def test_hyb_1000_set_up_and_run_peak():
    sc = Scenario(protocol="hyb", node_count=1000, seed=1, sim_time=10.0)
    tracemalloc.start()
    try:
        Engine(sc).run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MAX_HYB_1000_PEAK, f"peak {peak} B"


def test_set_up_peak_grows_linearly_with_node_count():
    peaks = []
    for n in (5_000, 20_000):
        side = 2000.0 * math.sqrt(n / 2000)
        sc = Scenario(protocol="hyb", node_count=n, seed=1,
                      topology_size=(side, side),
                      bs_location=(side / 2, side / 2))
        tracemalloc.start()
        try:
            Engine(sc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < MAX_SET_UP_GROWTH_5K_TO_20K * peaks[0], \
        f"peaks {peaks} B"


@pytest.mark.parametrize("protocol", ["hyb", "aodv"])
def test_first_pop_sees_only_configure_and_the_first_event(monkeypatch,
                                                           protocol):
    sc = Scenario(protocol=protocol, node_count=80, seed=2, sim_time=3.0)
    e = Engine(sc)
    configured = []
    configure = e.protocol.configure

    def counting_configure():
        configure()
        configured.append(len(e._heap))
    e.protocol.configure = counting_configure

    first_pop = []

    def heappop(heap):
        if not first_pop:
            first_pop.append(len(heap))
        return heapq.heappop(heap)
    monkeypatch.setattr(engine_module, "heapq", SimpleNamespace(
        heappush=heapq.heappush, heappop=heappop))
    e.run()

    sensed = [n for _, _, where in generate_events(sc)
              if (n := len(e.sensors(where)))]
    assert sum(sensed) > 10 * sensed[0]  # the bound below says something
    assert first_pop[0] <= configured[0] + sensed[0]
