"""Building blocks shared by several test modules."""

from dataclasses import replace
from pathlib import Path

from hybsim import metrics
from hybsim.topology import Location, LocationTable, emit_location_file


def write_points(directory, points):
    """Write ``points`` (node id -> (x, y)) as ``nodes.txt`` in
    ``directory``, through ``emit_location_file``, and return its path."""
    locs = LocationTable({i: Location(x, y) for i, (x, y) in points.items()})
    path = Path(directory) / "nodes.txt"
    path.write_text(emit_location_file(locs))
    return str(path)


def counted_and_parsed(engine):
    """Run ``engine``; return its log, the report the engine counted and the
    one ``collect`` parses from the log, which takes the counted energy, as
    the log holds none."""
    log = engine.run()
    counted = metrics.counted_report(engine)
    parsed = replace(metrics.collect(log),
                     energy_consumed=counted.energy_consumed)
    return log, counted, parsed


def count_engines(monkeypatch):
    """Record the scenario of every engine ``hybsim.metrics`` builds from
    now on; returns the list the scenarios are appended to."""
    made, build = [], metrics.Engine

    def counting(scenario):
        made.append(scenario)
        return build(scenario)
    monkeypatch.setattr(metrics, "Engine", counting)
    return made
