"""tools/mutate.py's mutant generation, on literal snippets; no suite runs."""

import ast
import importlib.util
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
        (2, "if test -> True"), (2, "and -> or"), (2, "< -> <="),
        (2, ">= -> >"), (3, "+ 1 -> - 1"), (4, "if test -> True"),
        (4, "or -> and"), (4, "== -> !="), (4, "!= -> =="),
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


def test_changed_lines_reads_the_new_side_of_a_diff():
    diff = ("--- a/src/x.py\n+++ b/src/x.py\n@@ -3,2 +3,3 @@\n"
            "@@ -10 +11 @@\n@@ -20,4 +22,0 @@\n"
            "--- a/src/y.py\n+++ /dev/null\n@@ -1,5 +0,0 @@\n")
    assert mutate.changed_lines(diff) == {"src/x.py": {3, 4, 5, 11}}
