"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import hybsim
from hybsim.engine import RUNNERS, Engine
from hybsim.scenario import PROTOCOLS, Scenario

SOURCES = sorted(Path(hybsim.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so a run check written as one
    # would vanish; every check in the package raises instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def _defs(tree):
    """Every function, method and lambda in ``tree``, nested ones too."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.Lambda))]


def _params(fn):
    args = fn.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs,
             args.vararg, args.kwarg]
    return {arg.arg for arg in every if arg is not None}


def _members(tree, cls):
    """name -> FunctionDef of each method of class ``cls`` in ``tree``."""
    [body] = [node.body for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == cls]
    return {node.name: node for node in body
            if isinstance(node, ast.FunctionDef)}


def test_the_engine_clock_is_the_only_time_source():
    # Engine.now is the one owner of the current time: no runner handler,
    # callback or deferred retry, and no send or packet method of the
    # engine, takes the time as an argument
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    engine = trees["engine.py"]
    methods = _members(engine, "Engine")
    hyb_runner = _members(trees["hyb.py"], "HybRunner")
    checked = [*_defs(trees["baselines.py"]),
               *(fn for method in hyb_runner.values() for fn in _defs(method)),
               *(methods[name] for name in (
                   "send_unicast", "send_broadcast", "send_oob_control",
                   "new_packet", "drop", "deliver"))]
    timed = [f"{getattr(fn, 'name', 'lambda')}:{fn.lineno}"
             for fn in checked if _params(fn) & {"now", "t"}]
    assert len(checked) > 40 and not timed, timed
    # what keeps a time argument: the tracer's arbitrate observer, records
    # stamped with their frame's start, the queue, and hyb's pure decisions
    kept = {"arbitrate": "now", "log": "time", "schedule": "time"}
    assert all(time in _params(methods[name]) for name, time in kept.items())
    decisions = {node.name: node for node in trees["hyb.py"].body
                 if isinstance(node, ast.FunctionDef)}
    assert all("now" in _params(decisions[name])
               for name in ("on_sense", "on_receive", "on_busy_channel"))


def test_the_runner_table_lists_every_protocol_in_order():
    assert tuple(RUNNERS) == PROTOCOLS


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_the_engine_builds_the_runner_its_table_names(protocol):
    run = Engine(Scenario(protocol=protocol, node_count=5, sim_time=1))
    assert type(run.protocol) is RUNNERS[protocol]


def test_only_the_runner_table_imports_a_protocol_module():
    # the engine knows no protocol: hyb.py, baselines.py and metrics.py
    # take the packet and the drop reasons from it, and the one import of
    # a runner module is the table at the foot of engine.py, after every
    # class there, since each runner module imports the engine
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = {alias.name.split(".")[-1] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = ({alias.name for alias in node.names}
                           if node.module in (None, "hybsim")
                           else {node.module.split(".")[-1]})
            else:
                continue
            if modules & {"hyb", "baselines"}:
                found.append((name, node.lineno,
                              [alias.name for alias in node.names]))
    last_class = max(node.end_lineno for node in trees["engine.py"].body
                     if isinstance(node, ast.ClassDef))
    assert sorted(names for _, _, names in found) == [
        ["AodvRunner", "DsrRunner"], ["HybRunner"]], found
    assert all(name == "engine.py" and line > last_class
               for name, line, _ in found), found
