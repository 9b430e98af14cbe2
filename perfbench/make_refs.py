"""Regenerate perfbench/references.json, the correctness gate's references.

    python3 perfbench/make_refs.py --seeds 0-12 [--jobs 2]

For every workload and every benchmark seed in the range, runs each scenario
seed that a measurement of that seed can reach (``PANEL`` runs) and stores
the SHA-256 of its event logs, of its CSV output, its record count and the
paper's four simulated metrics. Existing entries are kept unless they are
regenerated. Run it only on a commit whose logs are known to be right: the
references define what every later commit must reproduce byte for byte.
"""

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import harness
from spec import WORKLOADS

# runs a 30-second measurement of each workload can start on a 2-CPU machine,
# with room to spare
PANEL = {"hyb-2000": 5, "aodv-125": 8, "paper-sweep": 16}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-12",
                        help="inclusive range of benchmark seeds, A-B")
    parser.add_argument("--jobs", type=int, default=1,
                        help="child processes at a time")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    refs = harness.load_references()
    todo = [(w, w.scenario_seed(s, k)) for w in WORKLOADS.values()
            for s in seeds for k in range(PANEL[w.name])]

    def one(job):
        workload, sc_seed = job
        return job, harness.run_child(workload, sc_seed, False, 0,
                                      timeout=600)

    failed = 0
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for (workload, sc_seed), result in pool.map(one, todo):
            if result["problems"]:
                failed += 1
                print(f"{workload.name} {sc_seed}: {result['problems']}",
                      file=sys.stderr)
                continue
            refs.setdefault(workload.name, {})[str(sc_seed)] = {
                k: result[k] for k in harness.REFERENCE_KEYS}
            print(f"{workload.name} {sc_seed} wall_s={result['wall_s']:.3f} "
                  f"setup_s={result['setup_s']:.3f} records={result['records']}",
                  flush=True)
    with open(harness.REFERENCES, "w", encoding="utf-8") as fh:
        fh.write(dumps(refs))
    return 1 if failed else 0


def dumps(refs: dict) -> str:
    """JSON with one line per scenario seed, in seed order."""
    blocks = []
    for name, table in refs.items():
        entries = sorted(table.items(), key=lambda kv: int(kv[0]))
        lines = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entry)}"
                           for seed, entry in entries)
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
