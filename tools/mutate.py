"""One-operator mutation testing for src/hybsim, standard library only.

Each mutant changes one operator in one module: ``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``, ``and`` and ``or`` swap; an ``if`` test becomes
``True``; ``+ 1`` and ``- 1`` on integers swap. A mutant replaces only the
source span of the node it changes. Mutants run one at a time, in a
temporary copy of the tree, as ``python -m pytest -x -q -p no:cacheprovider``
with a limit of TIMEOUT seconds and of MEMORY bytes of address space per
process, since a mutant can keep ``drain`` from ending while its log grows.
A run past its time is ended with every process it started. A
``conftest.py`` written to the copy's root runs the golden log digests
first: they take seconds and fail on most mutants, among them many that
make a longer test run endless. A mutant the suite fails on is killed; one
it passes survives. The working tree is never written, and the copy is
removed. It needs a POSIX system.

    python tools/mutate.py                       # every mutant
    python tools/mutate.py --since HEAD~1        # lines changed since a rev
    python tools/mutate.py --sample 20 --seed 3  # a seeded sample

It prints one line per mutant, then the killed, survived and timed-out
counts per module. It exits 0 whatever the score: a report, not a gate.
"""

import argparse
import ast
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "hybsim"
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
TIMEOUT = 180.0  # s per suite run; an unmutated tier-1 run takes ~35 s
MEMORY = 1 << 30  # address space per process; tier-1 peaks at ~120 MB RSS
FIRST = "tests/test_golden_logs.py"
# appended to the copy's root conftest.py: FIRST's tests move ahead of the
# rest, and the set of tests and their order otherwise stay as collected
CONFTEST = f"""
def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: not item.nodeid.startswith("{FIRST}::"))
"""
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                 ".pytest_cache", "*.egg-info", "out")

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And,
         ast.Add: ast.Sub, ast.Sub: ast.Add}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!=", ast.And: "and", ast.Or: "or",
           ast.Add: "+ 1", ast.Sub: "- 1"}


def order(m: "Mutant"):
    return m.path, m.line, m.col, m.change


@dataclass(frozen=True)
class Mutant:
    path: str          # relative to the tree root
    line: int          # 1-based line of the node the mutant replaces
    col: int           # UTF-8 byte offset of its start in that line
    end_line: int
    end_col: int
    replacement: str   # the text that replaces the node's span
    change: str        # what changed, such as "< -> <="

    def apply(self, source: str) -> str:
        """``source`` with this mutant's span replaced."""
        lines = source.encode("utf-8").splitlines(keepends=True)
        start = sum(map(len, lines[:self.line - 1])) + self.col
        end = sum(map(len, lines[:self.end_line - 1])) + self.end_col
        data = b"".join(lines)
        return (data[:start] + self.replacement.encode("utf-8")
                + data[end:]).decode("utf-8")


def _in_fstring(tree: ast.AST) -> Set[int]:
    # ids of nodes inside f-strings, whose spans are not reliable to splice
    inside: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            inside.update(id(n) for n in ast.walk(node))
    return inside


def generate(source: str, path: str) -> List[Mutant]:
    """Every one-operator mutant of ``source``, in source order."""
    tree = ast.parse(source)
    skip = _in_fstring(tree)
    out: List[Mutant] = []

    def emit(node: ast.AST, replacement: str, change: str) -> None:
        out.append(Mutant(path, node.lineno, node.col_offset, node.end_lineno,
                          node.end_col_offset, replacement, change))

    def swap(op: ast.AST):
        new = SWAPS[type(op)]()
        return new, f"{SYMBOLS[type(op)]} -> {SYMBOLS[type(new)]}"

    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    ops = list(node.ops)
                    ops[k], change = swap(op)
                    if len(ops) > 1:
                        change += f" at comparison {k + 1}"
                    new = ast.Compare(node.left, ops, node.comparators)
                    emit(node, f"({ast.unparse(new)})", change)
        elif isinstance(node, ast.BoolOp):
            op, change = swap(node.op)
            emit(node, f"({ast.unparse(ast.BoolOp(op, node.values))})", change)
        elif isinstance(node, ast.If):
            emit(node.test, "True", "if test -> True")
        elif (isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub)
              and isinstance(node.right, ast.Constant)
              and type(node.right.value) is int and node.right.value == 1):
            op, change = swap(node.op)
            new = ast.BinOp(node.left, op, node.right)
            emit(node, f"({ast.unparse(new)})", change)
    out.sort(key=order)
    return out


def changed_lines(diff: str) -> Dict[str, Set[int]]:
    """Path -> lines of the new side that a unified diff adds or changes."""
    lines: Dict[str, Set[int]] = {}
    path: Optional[str] = None
    for row in diff.splitlines():
        if row.startswith("+++ "):
            name = row[4:]
            path = name[2:] if name.startswith("b/") else None
        hunk = re.match(r"@@ -\S+ \+(\d+)(?:,(\d+))? @@", row)
        if hunk and path is not None:
            first, count = int(hunk.group(1)), int(hunk.group(2) or 1)
            lines.setdefault(path, set()).update(range(first, first + count))
    return lines


def touches(mutant: Mutant, lines: Set[int]) -> bool:
    return any(mutant.line <= n <= mutant.end_line for n in lines)


def collect(root: Path) -> List[Mutant]:
    mutants: List[Mutant] = []
    for file in sorted((root / PACKAGE).glob("*.py")):
        rel = file.relative_to(root).as_posix()
        mutants += generate(file.read_text(encoding="utf-8"), rel)
    return mutants


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run_suite(tree: Path) -> str:
    """"passed", "failed" or "timeout" for the suite in ``tree``."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree / "src"))
    # a session of its own, so that the benchmark children some tests
    # start end with the suite
    proc = subprocess.Popen(PYTEST, cwd=tree, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True, preexec_fn=_limit_memory)
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        return "timeout"
    return "passed" if code == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--since", metavar="REV",
                        help="mutate only lines changed since REV")
    parser.add_argument("--sample", type=int, metavar="N",
                        help="run a seeded sample of N mutants")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    mutants = collect(ROOT)
    if args.since:
        diff = subprocess.run(
            ["git", "diff", "-U0", args.since, "--", PACKAGE.as_posix()],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
        changed = changed_lines(diff)
        mutants = [m for m in mutants if touches(m, changed.get(m.path, set()))]
    if args.sample is not None and args.sample < len(mutants):
        mutants = sorted(random.Random(args.seed).sample(mutants, args.sample),
                         key=order)
    tally: Dict[str, Counter] = {}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        with open(tree / "conftest.py", "a", encoding="utf-8") as fh:
            fh.write(CONFTEST)
        if mutants and run_suite(tree) != "passed":
            print("the unmutated suite does not pass; no mutant was run")
            return 0
        verdicts = {"failed": "killed", "passed": "survived",
                    "timeout": "timed-out"}
        for m in mutants:
            file = tree / m.path
            original = file.read_text(encoding="utf-8")
            file.write_text(m.apply(original), encoding="utf-8")
            try:
                verdict = verdicts[run_suite(tree)]
            finally:
                file.write_text(original, encoding="utf-8")
            tally.setdefault(m.path, Counter())[verdict] += 1
            print(f"{verdict:9} {m.path}:{m.line}:{m.col} {m.change}",
                  flush=True)
    for path, counts in sorted(tally.items()):
        print(f"{path}: killed {counts['killed']}, survived "
              f"{counts['survived']}, timed out {counts['timed-out']}")
    print(f"{len(mutants)} mutants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
