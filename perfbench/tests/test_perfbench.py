"""Tests of the benchmark itself, on workloads small enough to take a second."""

import hashlib
import json
import re
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from hybsim import Engine, Scenario  # noqa: E402
from spec import END_TO_END, LAYER_METRICS, WORKLOADS, Workload  # noqa: E402
from tracer import Tracer, load_spans  # noqa: E402

# every protocol, so that every traced layer is entered
TINY = Workload("tiny", "every protocol at 12 nodes", ("hyb", "aodv", "dsr"),
                (12,), 3.0)
TINY_AODV = Workload("tiny-aodv", "one engine, one log", ("aodv",), (12,), 3.0)


def _printed(text: str, name: str, unit: str) -> bool:
    pattern = rf"^\S+\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b"
    return re.search(pattern, text, re.MULTILINE) is not None


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


def test_every_metric_is_printed_with_its_unit(tmp_path, capsys):
    env = harness.environment()
    plain = harness.measure(TINY, 1, 0, False, {}, out_dir=tmp_path)
    result = harness.report(plain, env)
    traced = harness.measure(TINY, 1, 0, True, {}, out_dir=tmp_path)
    traced_result = harness.report(traced, env)
    out = capsys.readouterr().out
    for name, unit in END_TO_END + LAYER_METRICS:
        assert _printed(out, name, unit), name
    assert _printed(out, "failed_share", "ratio")
    assert result["correct"] and traced_result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(END_TO_END)
    assert ({k: v["unit"] for k, v in traced_result["metrics"].items()}
            == dict(LAYER_METRICS))


def test_altered_log_is_caught_by_the_digest_gate(capsys):
    result = harness.run_child(TINY_AODV, 1, False, 0, timeout=60)
    log = Engine(Scenario(protocol="aodv", node_count=12, sim_time=3.0,
                          seed=1)).run()
    assert result["log_sha256"] == hashlib.sha256(log.encode()).hexdigest()
    reference = {k: result[k] for k in harness.REFERENCE_KEYS}

    altered_log = log.replace(" OK\n", " COLLISION\n", 1)
    assert altered_log != log
    altered = dict(result, log_sha256=hashlib.sha256(altered_log.encode()).hexdigest())

    m = harness.Measurement(TINY_AODV, 1, False)
    m.add(dict(result), reference)
    m.add(altered, reference)
    assert (m.failed, m.attempted) == (1, 2)
    report = harness.report(m, {})
    assert not report["correct"] and report["failed"] == 1
    assert "failed_share" in capsys.readouterr().out


def test_traced_and_untraced_logs_agree(tmp_path):
    m = harness.measure(TINY, 2, 0, True, {}, out_dir=tmp_path)
    assert m.failures == [] and m.failed == 0
    [plain], [traced] = m.runs, m.traced_runs
    assert traced["log_sha256"] == plain["log_sha256"]
    assert traced["csv_sha256"] == plain["csv_sha256"]
    spans = load_spans(str(tmp_path / "spans-tiny-r1.pkl"))
    assert spans["run_id"] == 1
    assert len(spans["name"]) == len(spans["start"]) == len(spans["end"])
    assert spans["names"][spans["name"][0]] == "run"


def test_self_time_subtracts_the_time_children_cover():
    tracer = Tracer(run_id=0)
    tracer.names = ["root", "child", "grandchild"]
    tracer.name = array("i", [0, 1, 2, 1])
    tracer.parent = array("i", [-1, 0, 1, 0])
    tracer.start = array("d", [0.0, 1.0, 2.0, 6.0])
    tracer.end = array("d", [10.0, 4.0, 3.0, 7.0])
    assert tracer.self_times() == {"root": (1, 6.0), "child": (2, 3.0),
                                   "grandchild": (1, 1.0)}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = ["--workload", "hyb-2000", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable] + spec["command"][1:] + args,
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
