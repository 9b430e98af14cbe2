"""The hybsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

The first form measures one workload for S seconds and prints, as its last
line, one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The second runs every workload untraced and then traced, and prints every
metric by name with its unit. It reads the package from the src/ directory
beside perfbench/ and writes only under perfbench/out/.
"""

import argparse
import json
import sys

import harness
from spec import WORKLOADS


def _check_package() -> None:
    """Fail before measuring when the package sources are not there."""
    src = harness.ROOT / "src"
    if not (src / "hybsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no hybsim package under {src}")


def measure_one(workload: str, seed: int, seconds: float, traced: bool,
                references: dict, env: dict) -> dict:
    m = harness.measure(WORKLOADS[workload], seed, seconds, traced, references)
    result = harness.report(m, env)
    harness.record(m, result, env, seconds)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    _check_package()
    references = harness.load_references()
    env = harness.environment()
    if args.workload:
        result = measure_one(args.workload, args.seed, args.seconds,
                             bool(args.trace), references, env)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for traced in (False, True):
                one = measure_one(name, args.seed, args.seconds, traced,
                                  references, env)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                result["metrics"].update(
                    {f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
