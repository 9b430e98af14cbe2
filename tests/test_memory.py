"""Memory held by a run: the event log is written once and read lazily."""

import tracemalloc

from hybsim.engine import Engine
from hybsim.metrics import collect
from hybsim.scenario import Scenario

# Peak traced allocation across Engine.run() and collect(), per character
# of log text. A list of per-record strings, joined and then split again,
# costs about 8; one text buffer read a block at a time costs about 4.4 on
# this storm, and less on longer logs.
MAX_PEAK_PER_LOG_CHAR = 6.0


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
