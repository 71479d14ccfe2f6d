"""Operator mutation run over modules of src/ditkin, standard library only.

Run from the repository root as

    python tests/mutate.py src/ditkin/classifier.py src/ditkin/approx_identity.py
    python tests/mutate.py src/ditkin/weights.py --tests tests/test_weights.py --sample 20 --seed 3

A site is one comparison, arithmetic or boolean operator in a module's syntax
tree (`ast`): each `and` or `or` between two operands, and each `not`.  Its
mutant swaps that one operator for its partner in SWAPS (`and` for `or` and
back), or drops it (a `not`), in the source text, so every other line and
column stays as it was.  Each mutant is written into a temporary copy of
`src/` and `tests/`, and the tests run there under pytest with `-x`: the
`--tests` paths, or by default the mutated module's own
`tests/test_<module>.py` when there is one and then, if those pass, all of
`tests/`.  Most mutants die in the first, shorter run, and the verdict is
the one the whole suite gives.  Each run has the hypothesis seed `--seed`
and a timeout: `--timeout` seconds, or by default ten times the wall time
of the unmutated run of the whole suite and at least a minute.  Each test
in a run has a tenth of that (by default the unmutated run's wall time and
at least 6 s), past which pytest's faulthandler ends the run as a failure,
so a mutant that loops without end in a test costs that test's limit.
After every run its process group is killed, so no process that a test
started outlives it.  A failing run or a timeout kills the mutant; a
passing run means it survived, and no test checks the result that the
operator decides.  A mutant listed in
EQUIVALENT (by module, the code on its line and the swap) computes the same
results as the original, so it is reported with its reason and not run; an
entry of a named module that matches no site is stale (its code was
rewritten), and the run lists it and exits 1 before running anything.
`--sample N` runs N sites drawn with `--seed` instead of all of them.  The
run prints one line per site and a summary, and exits 1 when a mutant
outside EQUIVALENT survives.  Ctrl-C stops the current test run and removes
the copy.  The file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from itertools import pairwise
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.And: ast.Or, ast.Or: ast.And, ast.Not: None,  # None: the mutant drops the operator
}
SYMBOLS = {
    None: "", ast.And: "and", ast.Or: "or", ast.Not: "not",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Div: "/", ast.Mod: "%",
    ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&", ast.BitOr: "|",
}

# (module file, enclosing class and function, the operator's line with the swap marked and
# without its comment) -> why the mutant computes the same results
EQUIVALENT = {
    ("algebra.py", "EventuallyConstant._set", "if g {> -> >=} 1:"):
        "g is a gcd with den >= 1, and dividing by g = 1 changes nothing",
    ("algebra.py", "EventuallyConstant._on", "if len(ends) {> -> >=} m:"):
        "ends holds the m own ends up to its last end, so len(ends) == m means ends are those own ends, and "
        "counting them gives each run its own numerator and then the one past, the same values",
    ("algebra.py", "EventuallyConstant._on",
     "vals = [*map(vals.__getitem__, counts), *repeat(self.tail_num, len(ends) {- -> +} cut)]"):
        "the extra entries repeat the tail: map in _pointwise stops at the shorter operand, and where both "
        "run long their extra results equal the result's tail, which _set drops",
    ("algebra.py", "element_from_obj", "if len(keys) {< -> <=} len(values):"):
        "with as many keys as values the keys are the values in order, so the lookup returns the same numerators",
    ("algebra.py", "RuleBased.tail_sup", "i = min(end, -(-(start {- -> +} 1) // _BLOCK) * _BLOCK)"):
        "i moves to a later block boundary or to end: whole blocks pass from the block maxima to the "
        "head slice, and the window [start, end] and its max stay the same",
    ("algebra.py", "RuleBased.tail_sup", "i = min(end, -(-(start - 1) {// -> *} _BLOCK) * _BLOCK)"):
        "i becomes (start - 1) * _BLOCK**2 or end, a later block boundary or end: the same window, as above",
    ("algebra.py", "_max_ratio", "if abs(p) * bq {> -> >=} bp * q:"):
        "p * bq == bp * q means |p|/q equals the best ratio, and both pairs are in lowest terms, so the "
        "pair taken is the same",
    ("weights.py", "Interleave._leaf_data", "if n {< -> <=} start:"):
        "at n == start the slice head[start - 1 : start - 1] and range(start, start) are both empty",
    ("weights.py", "Interleave._leaf_data",
     "head[n - 1 : start {- -> +} 1 : lcm] = [a + b * j for j in range(n, start, lcm)]"):
        "head has start - 1 entries, so the slice stops there either way",
}

TIMEOUT_S = 300.0  # the unmutated run's timeout when --timeout is not given
TIMEOUT_FACTOR, MIN_TIMEOUT_S = 10, 60.0  # the default per-mutant timeout, from the unmutated run's wall time
MEMORY_LIMIT = 2 << 30  # address space of each test run, so a mutant that allocates without end fails alone


class Site:
    """One operator of a module: where it is, its expression and its mutated source."""

    def __init__(self, path: Path, line: int, col: int, scope: str, code: str, expr: str, old: type, mutated: bytes):
        self.path, self.line, self.col, self.scope, self.code = path, line, col, scope, code
        self.expr, self.old, self.mutated = expr, old, mutated

    @property
    def swap(self) -> str:
        return f"{SYMBOLS[self.old]} -> {SYMBOLS[SWAPS[self.old]]}"

    @property
    def equivalent(self) -> str | None:
        return EQUIVALENT.get((self.path.name, self.scope, self.code))

    def __str__(self) -> str:
        return f"{self.path.name}:{self.line}:{self.col}  `{self.expr}`  {self.swap}"


def _scopes(tree: ast.AST) -> dict[int, str]:
    """The dotted names of the enclosing classes and functions, by node id."""
    scopes: dict[int, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            scopes[id(child)] = inner
            visit(child, inner)

    visit(tree, "")
    return scopes


def _operators(tree: ast.AST):
    """(expression node, left operand, operator, right operand) for every operator outside
    a type annotation, which never runs; a unary operator has no left operand."""
    annotations = (getattr(n, k, None) for n in ast.walk(tree) for k in ("annotation", "returns"))
    skip = {id(n) for a in annotations if a is not None for n in ast.walk(a)}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                yield node, operands[i], op, operands[i + 1]
        elif isinstance(node, ast.BinOp):
            yield node, node.left, node.op, node.right
        elif isinstance(node, ast.AugAssign):
            yield node, node.target, node.op, node.value
        elif isinstance(node, ast.BoolOp):
            for left, right in pairwise(node.values):
                yield node, left, node.op, right
        elif isinstance(node, ast.UnaryOp):  # the operator comes first: its left operand is None
            yield node, None, node.op, node.operand


def sites(path: Path) -> list[Site]:
    """Every swappable operator of one module, in source order."""
    source = path.read_text()
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found, tree = [], ast.parse(source)
    scopes = _scopes(tree)
    for node, left, op, right in _operators(tree):
        if type(op) not in SWAPS:
            continue
        # the operator is the one token between its operands (or before a unary one's operand),
        # give or take brackets and comments
        if left is None:
            lo = starts[node.lineno - 1] + node.col_offset
        else:
            lo = starts[left.end_lineno - 1] + left.end_col_offset
        hi = starts[right.lineno - 1] + right.col_offset
        symbol = SYMBOLS[type(op)] + ("=" if isinstance(node, ast.AugAssign) else "")
        pattern = re.escape(symbol).replace(r"\ ", r"\s+").encode()
        match = re.search(rb"(?<![<>=!*/\w])" + pattern + rb"(?![<>=*/\w])", data[lo:hi])
        if match is None:
            raise ValueError(f"{path.name}:{node.lineno}: no {symbol!r} at the operator's place")
        new = SYMBOLS[SWAPS[type(op)]] + symbol[len(SYMBOLS[type(op)]):]
        mutated = data[: lo + match.start()] + new.encode() + data[lo + match.end():]
        line = data[: lo + match.start()].count(b"\n") + 1
        col = lo + match.start() - starts[line - 1] + 1
        marked = data[starts[line - 1] : lo + match.start()] + f"{{{symbol} -> {new}}}".encode()
        marked += data[lo + match.end() : starts[line]]
        code = marked.decode().split("  #")[0].strip()
        expr = data[starts[node.lineno - 1] + node.col_offset : starts[node.end_lineno - 1] + node.end_col_offset]
        expr = " ".join(expr.decode().split())
        found.append(Site(path, line, col, scopes[id(node)], code, expr, type(op), mutated))
    return sorted(found, key=lambda s: (s.line, s.col))


def stale_entries(paths: list[Path], found: list[Site]) -> list[tuple[str, str, str]]:
    """The EQUIVALENT entries of the modules in paths that match none of the sites found."""
    names, keys = {p.name for p in paths}, {(s.path.name, s.scope, s.code) for s in found}
    return [key for key in EQUIVALENT if key[0] in names and key not in keys]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(copy: Path, tests: list[str], seed: int, timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for the named tests in the copy; a test that runs past
    timeout / TIMEOUT_FACTOR seconds fails the run."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", f"--hypothesis-seed={seed}", *tests]
    cmd += ["-o", f"faulthandler_timeout={timeout / TIMEOUT_FACTOR}", "-o", "faulthandler_exit_on_timeout=true"]
    # the EQUIVALENT table's own test reads the source text, which every mutant changes
    cmd.append("--ignore=tests/test_mutate.py")
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no example saved by an earlier mutant's run
    proc = subprocess.Popen(
        cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True, preexec_fn=_limit_memory,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        # the whole group, after every run, and on Ctrl-C too, as the run has its own session:
        # a CLI test's process can outlive a run that faulthandler ends
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if code in (4, 5):  # a usage error or no test collected: the run says nothing about the mutant
        raise SystemExit(f"pytest exited {code} for {' '.join(tests)}")
    return "passed" if code == 0 else "failed"


def runs_for(module: Path, tests: list[str] | None) -> list[list[str]]:
    """The test paths of each run for a mutant of module, in order, a run only if the one before passed:
    the given tests, or else the module's own test file, when there is one, and then all of tests/."""
    if tests is not None:
        return [tests]
    own = f"tests/test_{module.stem}.py"
    return [[own], ["tests"]] if (ROOT / own).is_file() else [["tests"]]


def default_timeout(unmutated_s: float) -> float:
    """Seconds per mutant's test run when --timeout is not given, from the unmutated run's wall time."""
    return max(MIN_TIMEOUT_S, TIMEOUT_FACTOR * unmutated_s)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path, help="module files under src/ditkin")
    parser.add_argument(
        "--tests", nargs="+", help="test paths or node ids (default: the module's own test file, then tests)"
    )
    parser.add_argument("--seed", type=int, default=0, help="hypothesis seed, and the draw of --sample")
    parser.add_argument("--sample", type=int, help="run this many sites, drawn with --seed")
    parser.add_argument(
        "--timeout", type=float, help="seconds per test run (default: ten times the unmutated run, at least 60)"
    )
    args = parser.parse_args(argv)

    paths = [path.resolve() for path in args.modules]
    todo = [s for path in paths for s in sites(path)]
    stale = stale_entries(paths, todo)
    for module, scope, code in stale:
        print(f"stale EQUIVALENT entry, no site matches: {module} {scope} `{code}`")
    if stale:
        return 1
    if args.sample is not None:
        todo = sorted(random.Random(args.seed).sample(todo, min(args.sample, len(todo))), key=todo.index)
    counts = dict.fromkeys(("killed", "survived", "equivalent"), 0)
    with tempfile.TemporaryDirectory(prefix="ditkin-mutate-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        began = time.monotonic()
        unmutated = args.tests or ["tests"]
        if run_tests(copy, unmutated, args.seed, TIMEOUT_S if args.timeout is None else args.timeout) != "passed":
            raise SystemExit("the unmutated tests do not pass")
        unmutated_s = time.monotonic() - began
        timeout = default_timeout(unmutated_s) if args.timeout is None else args.timeout
        print(f"unmutated run {unmutated_s:.1f} s, timeout per mutant {timeout:.0f} s", flush=True)
        for site in todo:
            if site.equivalent:
                counts["equivalent"] += 1
                print(f"{site}  equivalent: {site.equivalent}", flush=True)
                continue
            ast.parse(site.mutated)  # still a module
            target = copy / site.path.relative_to(ROOT)
            original = target.read_bytes()
            target.write_bytes(site.mutated)
            began = time.monotonic()
            try:
                for tests in runs_for(site.path, args.tests):
                    if (outcome := run_tests(copy, tests, args.seed, timeout)) != "passed":
                        break
            finally:
                target.write_bytes(original)
            verdict = "survived" if outcome == "passed" else "killed"
            counts[verdict] += 1
            note = " by timeout" if outcome == "timeout" else ""
            print(f"{site}  {verdict}{note} ({time.monotonic() - began:.1f} s)", flush=True)
    print(f"{len(todo)} sites: " + ", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
