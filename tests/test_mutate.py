"""tools/mutate.py's mutant generation, on literal snippets, and the test
order and per-test time limit of its suite runs."""

import ast
import importlib.util
import subprocess
import sys
import time
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parents[1] / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

SNIPPET = """\
def f(a, b, n):
    if a < b and n >= 0:
        return n + 1
    elif a == b or n != 0:
        return f"{n - 1}é"
    return "é" > b, a <= b, n - 1, n + 2, 0 < n < 9
"""


def mutants():
    return mutate.generate(SNIPPET, "snippet.py")


def test_every_operator_is_mutated_once():
    got = sorted((m.line, m.change) for m in mutants())
    assert got == sorted([
        (2, "if test -> True"), (2, "and -> or"), (2, "drop and operand 1"),
        (2, "drop and operand 2"), (2, "< -> <="),
        (2, ">= -> >"), (3, "+ 1 -> - 1"), (4, "if test -> True"),
        (4, "or -> and"), (4, "drop or operand 1"), (4, "drop or operand 2"),
        (4, "== -> !="), (4, "!= -> =="),
        (6, "> -> >="), (6, "<= -> <"), (6, "- 1 -> + 1"),
        (6, "< -> <= at comparison 1"), (6, "< -> <= at comparison 2")])


def test_each_mutant_replaces_only_its_span():
    lines = SNIPPET.splitlines(keepends=True)
    for m in mutants():
        text = m.apply(SNIPPET)
        ast.parse(text)
        assert text != SNIPPET
        # everything outside the mutated lines is untouched
        out = text.splitlines(keepends=True)
        assert out[:m.line - 1] == lines[:m.line - 1]
        assert out[len(out) - (len(lines) - m.end_line):] == lines[m.end_line:]


def test_applied_text():
    by_change = {(m.line, m.change): m for m in mutants()}
    assert by_change[(2, "if test -> True")].apply(SNIPPET).splitlines()[1] \
        == "    if True:"
    assert by_change[(2, ">= -> >")].apply(SNIPPET).splitlines()[1] \
        == "    if a < b and (n > 0):"
    assert by_change[(6, "- 1 -> + 1")].apply(SNIPPET).splitlines()[5] \
        == '    return "é" > b, a <= b, (n + 1), n + 2, 0 < n < 9'
    assert by_change[(6, "< -> <= at comparison 2")].apply(SNIPPET) \
        .splitlines()[5].endswith(", (0 < n <= 9)")
    # a span after a non-ASCII character: offsets count UTF-8 bytes
    assert by_change[(6, "<= -> <")].apply(SNIPPET).splitlines()[5] \
        == '    return "é" > b, (a < b), n - 1, n + 2, 0 < n < 9'


def test_a_two_operand_bool_op_loses_either_operand():
    by_change = {(m.line, m.change): m for m in mutants()}
    assert by_change[(2, "drop and operand 1")].apply(SNIPPET) \
        .splitlines()[1] == "    if (n >= 0):"
    assert by_change[(2, "drop and operand 2")].apply(SNIPPET) \
        .splitlines()[1] == "    if (a < b):"
    assert by_change[(4, "drop or operand 2")].apply(SNIPPET) \
        .splitlines()[3] == "    elif (a == b):"
    # an operand may itself be a bool op; three operands only swap
    nested = mutate.generate("x = a and (b or c)\ny = a or b or c\n", "n.py")
    assert sorted((m.line, m.change, m.replacement) for m in nested) == [
        (1, "and -> or", "(a or (b or c))"),
        (1, "drop and operand 1", "(b or c)"),
        (1, "drop and operand 2", "(a)"),
        (1, "drop or operand 1", "(c)"),
        (1, "drop or operand 2", "(b)"),
        (1, "or -> and", "(b and c)"),
        (2, "or -> and", "(a and b and c)")]


def test_changed_lines_reads_the_new_side_of_a_diff():
    diff = ("--- a/src/x.py\n+++ b/src/x.py\n@@ -3,2 +3,3 @@\n"
            "@@ -10 +11 @@\n@@ -20,4 +22,0 @@\n"
            "--- a/src/y.py\n+++ /dev/null\n@@ -1,5 +0,0 @@\n")
    assert mutate.changed_lines(diff) == {"src/x.py": {3, 4, 5, 11}}


def test_conftest_collects_the_golden_digests_first(tmp_path):
    # a tree of three test files: the digests move ahead, the rest keep
    # their collected order, and no test is added or lost
    tests = tmp_path / "tests"
    tests.mkdir()
    for name, count in (("test_a.py", 2), ("test_golden_logs.py", 2),
                        ("test_z.py", 1)):
        (tests / name).write_text("".join(
            f"def test_{k}():\n    pass\n" for k in range(count)))
    (tmp_path / "conftest.py").write_text(mutate.conftest())
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider"], cwd=tmp_path, capture_output=True,
        text=True, check=True).stdout
    assert [line for line in out.splitlines() if "::" in line] == [
        "tests/test_golden_logs.py::test_0", "tests/test_golden_logs.py::test_1",
        "tests/test_a.py::test_0", "tests/test_a.py::test_1",
        "tests/test_z.py::test_0"]
    assert (Path(__file__).parents[1] / mutate.FIRST).is_file()


def test_conftest_fails_an_endless_test_and_stops_the_run(tmp_path):
    # one pytest process, as a mutant's suite run starts it: the endless
    # test fails at the limit, although it catches every Exception, and -x
    # ends the run there
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "def test_endless():\n"
        "    while True:\n"
        "        try:\n"
        "            pass\n"
        "        except Exception:\n"
        "            pass\n\n"
        "def test_after():\n"
        "    pass\n")
    (tmp_path / "conftest.py").write_text(mutate.conftest(limit=0.5))
    t0 = time.monotonic()
    run = subprocess.run(mutate.PYTEST, cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert time.monotonic() - t0 < 30
    assert run.returncode == 1
    assert "test ran past 0.5 s" in run.stdout
    assert "1 failed" in run.stdout and "passed" not in run.stdout
    assert 0 < mutate.TEST_LIMIT < mutate.TIMEOUT
