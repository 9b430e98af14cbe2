"""Measured runs of one workload, the correctness gate, and the report.

Load model: a closed loop with one client. Each run of the workload happens
in a fresh child process, and the next starts when the previous one has
ended, so that two runs never share the machine's two CPUs. A measurement
keeps starting runs until ``seconds`` have passed, and always makes one.
"""

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from spec import END_TO_END, LAYER_METRICS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
# what a reference pins for each scenario seed
REFERENCE_KEYS = ("log_sha256", "csv_sha256", "records", "paper")

# A benchmark invocation must end within 180 s: no run starts after
# LAST_START_S, and no child may outlive HARD_LIMIT_S.
LAST_START_S = 110.0
HARD_LIMIT_S = 170.0


def load_references(path: Path = REFERENCES) -> Dict[str, Dict[str, dict]]:
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload: Workload, seed: int, traced: bool, run_id: int,
              timeout: float, spans_out: Optional[Path] = None) -> dict:
    """Run the workload once in a child process and return its report."""
    cmd = [sys.executable, str(CHILD), json.dumps(workload.to_json()),
           str(seed), "1" if traced else "0", str(run_id)]
    if spans_out is not None:
        cmd.append(str(spans_out))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"seed": seed, "problems": [f"timed out after {timeout:.0f} s"]}
    if proc.returncode != 0:
        return {"seed": seed, "problems": [
            f"child exited with {proc.returncode}: {proc.stderr[-2000:]}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def gate(result: dict, reference: Optional[dict]) -> List[str]:
    """Every reason a run counts as failed: its own problems, and any
    difference from the reference held for its scenario seed. A faster run
    whose log changed is a failure, never a win."""
    problems = list(result["problems"])
    if reference is not None and "log_sha256" in result:
        for key in REFERENCE_KEYS:
            if result[key] != reference[key]:
                problems.append(f"{key} differs from the reference for "
                                f"scenario seed {result['seed']}")
    return problems


def environment() -> dict:
    """Facts about the machine and the code, kept beside every result so
    that figures from a busy machine or another commit can be told apart."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the checkout is not a git repository
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hybsim").glob("*.py")):
        source.update(path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1m": os.getloadavg()[0],
            "git_commit": commit,
            "source_sha256": source.hexdigest()}


def highest_percentile(n: int) -> Optional[int]:
    """Highest of p50/p90/p95/p99 with at least ten of n samples beyond it."""
    best = None
    for p in (50, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


class Measurement:
    """The runs of one workload at one seed, and what they show."""

    def __init__(self, workload: Workload, seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.runs: List[dict] = []          # untraced
        self.traced_runs: List[dict] = []
        self.failures: List[str] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.runs) + len(self.traced_runs)

    def add(self, result: dict, reference: Optional[dict],
            traced: bool = False, extra: List[str] = ()) -> None:
        problems = gate(result, reference) + list(extra)
        result["failed"] = bool(problems)
        if problems:
            self.failed += 1
            self.failures += [f"scenario seed {result['seed']}: {p}"
                              for p in problems]
        (self.traced_runs if traced else self.runs).append(result)

    def _ok(self, runs: List[dict]) -> List[dict]:
        return [r for r in runs if not r["failed"]]

    def end_to_end(self) -> Dict[str, float]:
        ok = self._ok(self.runs)
        if not ok:
            return {}
        return {
            "wall_s": statistics.median(r["wall_s"] for r in ok),
            "setup_s": statistics.median(r["setup_s"] for r in ok),
            "records_per_s": statistics.median(r["records"] / r["run_s"]
                                               for r in ok),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        }

    def per_layer(self) -> Dict[str, float]:
        """Counts from the traced runs, which must agree exactly; self times
        as their median; the overhead as traced over untraced wall time."""
        traced, plain = self._ok(self.traced_runs), self._ok(self.runs)
        if not traced or not plain:
            return {}
        layers = dict(traced[0]["layers"])
        for name, unit in LAYER_METRICS:
            if name not in layers:
                continue
            values = [r["layers"][name] for r in traced]
            if unit == "s":
                layers[name] = statistics.median(values)
            elif any(v != values[0] for v in values):
                self.failures.append(f"{name} differs between traced runs")
        layers["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain))
        return layers


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            references: Dict[str, Dict[str, dict]],
            out_dir: Path = OUT) -> Measurement:
    """Run the workload until ``seconds`` have passed.

    Untraced, run k uses scenario seed ``workload.scenario_seed(seed, k)``.
    Traced, every round runs the given seed twice, untraced then traced, and
    the two logs must agree; spans of traced runs go to ``out_dir``.
    """
    refs = references.get(workload.name, {})
    m = Measurement(workload, seed, traced)
    start = time.perf_counter()
    if traced:
        out_dir.mkdir(parents=True, exist_ok=True)
        for old in out_dir.glob(f"spans-{workload.name}-*.pkl"):
            old.unlink()

    def left():
        return HARD_LIMIT_S - (time.perf_counter() - start)

    k = 0
    while True:
        if traced:
            plain = run_child(workload, seed, False, 2 * k, left())
            m.add(plain, refs.get(str(seed)))
            spans = out_dir / f"spans-{workload.name}-r{2 * k + 1}.pkl"
            result = run_child(workload, seed, True, 2 * k + 1, left(), spans)
            agree = [] if result.get("log_sha256") == plain.get("log_sha256") \
                else ["traced log differs from the untraced log"]
            m.add(result, refs.get(str(seed)), traced=True, extra=agree)
        else:
            sc_seed = workload.scenario_seed(seed, k)
            m.add(run_child(workload, sc_seed, False, k, left()),
                  refs.get(str(sc_seed)))
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= LAST_START_S or left() <= 0:
            return m


def report(m: Measurement, env: dict) -> dict:
    """Print the human-readable report and return the result object."""
    name = m.workload.name
    print(f"# {name} seed={m.seed} trace={int(m.traced)} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    if m.traced:
        units = dict(LAYER_METRICS)
        metrics = m.per_layer()
    else:
        units = dict(END_TO_END)
        metrics = m.end_to_end()
    for metric, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{name:<12} {metric:<34} {shown} {units[metric]}")
    n = len([r for r in m.runs if not r["failed"]])
    if not m.traced and n:
        p = highest_percentile(n)
        walls = sorted(r["wall_s"] for r in m.runs if not r["failed"])
        tail = (f"p{p} {statistics.quantiles(walls, n=100)[p - 1]:.6f} s"
                if p else "no percentile above the median has 10 samples beyond it")
        print(f"{name:<12} {'wall_s samples':<34} {n:>16d} runs ({tail})")
    failed_share = m.failed / m.attempted
    print(f"{name:<12} {'failed_share':<34} {failed_share:>16.6f} ratio "
          f"({m.failed} of {m.attempted} runs)")
    for failure in m.failures:
        print(f"FAILED {name}: {failure}", file=sys.stderr)
    correct = not m.failures and bool(metrics) and len(metrics) == len(units)
    return {"correct": correct, "attempted": m.attempted, "failed": m.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def record(m: Measurement, result: dict, env: dict, seconds: float,
           out_dir: Path = OUT) -> None:
    """Append the result, its runs and the environment to results.jsonl."""
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = [{k: v for k, v in r.items() if k != "layers"}
            for r in m.runs + m.traced_runs]
    entry = {"time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
             "workload": m.workload.name, "seed": m.seed, "seconds": seconds,
             "trace": m.traced, "environment": env,
             "loadavg_1m_end": os.getloadavg()[0], "result": result,
             "runs": runs}
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
