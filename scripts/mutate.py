#!/usr/bin/env python3
"""Mutation testing of the decider's modules, on the standard library alone.

Each mutant changes one site of one module, by one of these operators:

    cmp     swap a comparison: < and <=, > and >=, == and !=,
            is and is not, in and not in
    arith   swap + and - (a binary operation or an augmented assignment)
    bool    swap and and or
    const   an integer constant 0, 1 or 2, minus 1 and plus 1
    not     drop a ``not``
    raise   a ``raise`` becomes ``pass``
    return  an early ``return`` (not its function's last statement)
            becomes ``pass``
    if      an ``if`` or ``elif`` test becomes False: the branch is deleted

Annotations and f-strings (message texts) are not mutated.  A mutant is
the module's text with the site's span replaced; it must parse to the
mutated tree and compile, or the script stops.

A run copies the checkout once per worker into a temporary directory
and writes mutants only there, so the working tree is never written.
A run of the unmutated suite first records how long each test takes
(and, from its wall time less the tests' sum, pytest's start-up), and
a traced run which lines of the checkout's files outside ``tests/`` it
runs and whether it starts a subprocess in the checkout.  For each
mutant the script then makes one pytest run, with ``-x``: the tests that
run a line of the mutated span, fastest first, then the tests that
start a subprocess (the trace cannot see their lines); a span that no
test runs, such as a value computed at import, gets the whole suite.
The run names its tests by node id on pytest's command line, which runs
them in that order.  No other test can observe the mutant, so the
outcome is a whole-suite run's, at a fraction of its cost.  A mutant is
killed when its run fails or exceeds its time limit: twice pytest's
start-up plus the chosen tests' unmutated, untraced time, plus 10 s.
Load from other processes can push a surviving mutant over that limit,
so once every mutant has run, each one that timed out runs once more,
alone: it stays killed only when that run fails or times out too.
Every survivor must be listed in ``mutate_equivalents.json`` next to
this script, by its key, with the argument why it changes no verdict or,
for a fast path, the measurement that shows the path pays.  The run
exits 1 when a survivor is not listed.

A pytest run that times out, and every one in progress when the script
is stopped (Ctrl-C or SIGTERM), gets SIGTERM, which the plugin that
every run loads turns into KeyboardInterrupt: a test of this script
inside it then stops its own runs and removes its temporary directory.
``GRACE`` seconds later the run's process group gets SIGKILL.

    python scripts/mutate.py                  # the six decider modules, 2 workers
    python scripts/mutate.py fan poset -j 1   # some of them
    python scripts/mutate.py fan -k build_fan # the mutants of one function
    python scripts/mutate.py --list           # enumerate and compile, run no test

``--list`` prints every mutant's key and exits 1 when a listed
equivalent names no mutant of the modules enumerated.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("fan", "poset", "surface", "exactgeom", "verifier", "formats")
EQUIVALENTS = Path(__file__).with_name("mutate_equivalents.json")
GRACE = 5.0  # seconds a stopped run has to clean up before its process group is killed
OPERATORS = ("cmp", "arith", "bool", "const", "not", "raise", "return", "if")

_CMP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_BOOL = {ast.And: ast.Or, ast.Or: ast.And}
_SKIPPED_FIELDS = ("annotation", "returns")


class Mutant(NamedTuple):
    path: str  # the module, relative to the root
    line: int
    end: int  # the last line of the mutated span
    operator: str
    key: str  # "<file>:<function>: <line> => <mutated line>"
    source: str  # the whole mutated module


class Site(NamedTuple):
    parent: ast.AST
    field: str
    index: int | None  # position in the parent's list field, None for a single node
    node: ast.AST
    operator: str
    replacement: ast.AST


def _replacements(node: ast.AST, final_returns: set[int]):
    """(operator, replacement node) for each mutation of ``node`` itself."""
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            if type(op) in _CMP:
                ops = list(node.ops)
                ops[k] = _CMP[type(op)]()
                yield "cmp", ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
        yield "arith", ast.BinOp(node.left, _ARITH[type(node.op)](), node.right)
    elif isinstance(node, ast.AugAssign) and type(node.op) in _ARITH:
        yield "arith", ast.AugAssign(node.target, _ARITH[type(node.op)](), node.value)
    elif isinstance(node, ast.BoolOp):
        yield "bool", ast.BoolOp(_BOOL[type(node.op)](), node.values)
    elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1, 2):
        # -1 as the parser reads it back
        yield "const", ast.UnaryOp(ast.USub(), ast.Constant(1)) if node.value == 0 else ast.Constant(node.value - 1)
        yield "const", ast.Constant(node.value + 1)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not", node.operand
    elif isinstance(node, ast.Raise):
        yield "raise", ast.Pass()
    elif isinstance(node, ast.Return) and id(node) not in final_returns:
        yield "return", ast.Pass()


def _sites(tree: ast.Module) -> list[tuple[str, Site]]:
    """Every mutation site of a module, with its function's qualified name, in source order."""
    final_returns = {
        id(f.body[-1]) for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    out: list[tuple[str, Site]] = []

    def visit(parent: ast.AST, field: str, index: int | None, node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.JoinedStr):
            return
        for op, new in _replacements(node, final_returns):
            out.append((scope, Site(parent, field, index, node, op, new)))
        if isinstance(node, ast.If):
            out.append((scope, Site(node, "test", None, node.test, "if", ast.Constant(False))))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        for name, value in ast.iter_fields(node):
            if name in _SKIPPED_FIELDS:
                continue
            if isinstance(value, list):
                for k, child in enumerate(value):
                    if isinstance(child, ast.AST):
                        visit(node, name, k, child, scope)
            elif isinstance(value, ast.AST):
                visit(node, name, None, value, scope)

    for k, stmt in enumerate(tree.body):
        visit(tree, "body", k, stmt, "<module>")
    return out


def _offset(lines: list[str], lineno: int, col: int) -> int:
    """The character offset of an ast (line, UTF-8 byte column) position."""
    return sum(map(len, lines[: lineno - 1])) + len(lines[lineno - 1].encode()[:col].decode())


def _swap(site: Site, new: ast.AST) -> None:
    if site.index is None:
        setattr(site.parent, site.field, new)
    else:
        getattr(site.parent, site.field)[site.index] = new


def mutants(root: Path, path: str) -> list[Mutant]:
    """Every mutant of the module at ``root / path``, each checked to parse as intended and to compile."""
    source = (root / path).read_text()
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    original = ast.dump(tree)
    out = []
    for scope, site in _sites(tree):
        node = site.node
        _swap(site, site.replacement)
        expected = ast.dump(tree)
        _swap(site, node)
        start = _offset(lines, node.lineno, node.col_offset)
        end = _offset(lines, node.end_lineno, node.end_col_offset)
        text = ast.unparse(site.replacement)
        for candidate in (text, f"({text})"):
            mutated = source[:start] + candidate + source[end:]
            try:
                if ast.dump(ast.parse(mutated)) == expected:
                    break
            except SyntaxError:
                pass
        else:
            raise RuntimeError(f"{path}:{node.lineno}: cannot splice the {site.operator} mutant")
        if expected == original:
            raise RuntimeError(f"{path}:{node.lineno}: the {site.operator} mutant equals the source")
        compile(mutated, path, "exec")
        old_line = lines[node.lineno - 1].strip()
        new_line = mutated.splitlines()[node.lineno - 1].strip()
        key = f"{Path(path).name}:{scope}: {old_line} => {new_line}"
        out.append(Mutant(path, node.lineno, node.end_lineno, site.operator, key, mutated))
    return out


def module_path(name: str) -> str:
    """``fan`` -> ``src/plconvex/fan.py``; a path is kept as it is."""
    return name if name.endswith(".py") else f"src/plconvex/{name}.py"


def load_equivalents(file: Path) -> dict[str, str]:
    """Listed survivors, key -> argument; an absent file lists none."""
    if not file.exists():
        return {}
    return {entry["mutant"]: entry["why"] for entry in json.loads(file.read_text())}


# Loaded into pytest with -p.  It makes SIGTERM a KeyboardInterrupt, so a
# stopped run unwinds through its tests' cleanup.  With MUTATE_OUT set it
# writes to that file, per test, its time and whether it starts a
# subprocess in the checkout, whose lines it cannot see, and with
# MUTATE_TRACE set too, the lines it runs of the files under MUTATE_ROOT
# outside its tests/.
_PLUGIN = """
import json, os, signal, subprocess, sys, threading, time
import pytest

signal.signal(signal.SIGTERM, signal.default_int_handler)
ROOT, OUT, TRACE = os.path.join(os.environ["MUTATE_ROOT"], ""), os.environ.get("MUTATE_OUT"), os.environ.get("MUTATE_TRACE")
TESTS = os.path.join(ROOT, "tests", "")
runs = {}
spawned = []
if OUT:
    popen_init = subprocess.Popen.__init__

    def counting_init(self, *args, **kwargs):
        if os.path.join(os.path.abspath(kwargs.get("cwd") or os.getcwd()), "").startswith(ROOT):
            spawned.append(args)
        popen_init(self, *args, **kwargs)

    subprocess.Popen.__init__ = counting_init

@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not OUT:
        yield
        return
    lines = set()
    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local
    def tracer(frame, event, arg):
        file = frame.f_code.co_filename
        return local if file.startswith(ROOT) and not file.startswith(TESTS) else None
    if TRACE:
        threading.settrace(tracer)
        sys.settrace(tracer)
    started, children = time.perf_counter(), len(spawned)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)
        runs[item.nodeid] = [time.perf_counter() - started, sorted(lines), len(spawned) > children]

def pytest_sessionfinish(session):
    if OUT:
        with open(OUT, "w") as f:
            json.dump(runs, f)
"""


def _signal_groups(procs: list[subprocess.Popen], sig: int) -> None:
    for proc in procs:
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass  # no process of the group is left


def _end(procs: list[subprocess.Popen]) -> None:
    """Stop test runs, each the leader of its process group: SIGTERM, and SIGKILL to what is left ``GRACE`` seconds on."""
    _signal_groups(procs, signal.SIGTERM)
    deadline = time.monotonic() + GRACE
    for proc in procs:
        try:
            proc.wait(max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
    _signal_groups(procs, signal.SIGKILL)
    for proc in procs:
        proc.wait()


class _Runner:
    """Worker copies of the checkout, and the test runs in them."""

    def __init__(self, root: Path, tmp: Path, jobs: int, slack: float):
        self.tmp, self.slack = tmp, slack
        (tmp / "_mutate_plugin.py").write_text(_PLUGIN)
        self.copies: queue.Queue[Path] = queue.Queue()
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
        for k in range(jobs):
            dest = tmp / f"w{k}"
            shutil.copytree(root, dest, ignore=ignore)
            self.copies.put(dest)
        self.live: set[subprocess.Popen] = set()
        self.stopping = False
        self.startup = 0.0
        # node id -> (untraced time, lines run per file, whether it starts a subprocess)
        self.tests: dict[str, tuple[float, dict[str, set[int]], bool]] = {}

    def stop(self) -> None:
        """End every test run in progress, and each one started from now on."""
        self.stopping = True
        _end(list(self.live))

    def _pytest(self, copy: Path, args: list[str], limit: float | None, env: dict[str, str]) -> tuple[bool, bool]:
        """(passed, timed out) of ``pytest args`` in ``copy``, with the plugin loaded."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("MUTATE_")} | env
        env |= {"PYTHONPATH": f"{copy / 'src'}{os.pathsep}{self.tmp}", "PYTHONDONTWRITEBYTECODE": "1", "MUTATE_ROOT": str(copy)}
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "_mutate_plugin", *args]
        proc = subprocess.Popen(
            cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
        )
        self.live.add(proc)
        try:
            # live before stopping is read: stop() ends this run, or this run sees stopping
            return proc.wait(0 if self.stopping else limit) == 0, False
        except subprocess.TimeoutExpired:
            _end([proc])
            return False, True
        finally:
            self.live.discard(proc)

    def baseline(self) -> None:
        """Time each test of the unmutated suite, which must pass, and trace which lines each test runs."""
        copy = self.copies.get()
        try:
            times, trace = self.tmp / "times.json", self.tmp / "trace.json"
            started = time.perf_counter()
            if not self._pytest(copy, ["-x", "tests"], None, {"MUTATE_OUT": str(times)})[0]:
                raise SystemExit("the unmutated checkout fails its tests")
            wall = time.perf_counter() - started
            # tracing slows a test by how much of its work is Python lines, so
            # its limit comes from the untraced run
            self._pytest(copy, ["tests"], None, {"MUTATE_OUT": str(trace), "MUTATE_TRACE": "1"})
            seconds = {nodeid: run[0] for nodeid, run in json.loads(times.read_text()).items()}
            self.startup = wall - sum(seconds.values())
            for nodeid, (_, hits, spawns) in json.loads(trace.read_text()).items():
                lines: dict[str, set[int]] = {}
                for file, line in hits:
                    lines.setdefault(Path(file).relative_to(copy).as_posix(), set()).add(line)
                self.tests[nodeid] = seconds[nodeid], lines, spawns
        finally:
            self.copies.put(copy)

    def _stage(self, chosen: list[tuple[float, str]]) -> tuple[list[str], float]:
        """pytest's arguments and time limit to run the ``(time, node id)`` tests in order."""
        limit = 2 * (self.startup + sum(t for t, _ in chosen)) + self.slack
        return ["-x", *[nodeid for _, nodeid in chosen]], limit

    def outcome(self, mutant: Mutant) -> str:
        """'killed', 'timeout' or 'survived'.

        One run, with -x: the tests that run a line of the mutant's span,
        fastest first, then the tests that start a subprocess in the
        checkout, whose lines the trace cannot see.  No other test runs
        the mutated code.  A span that no test runs, such as a default
        value or a class attribute evaluated at import, gets the whole
        suite instead, fastest test first.
        """
        span = set(range(mutant.line, mutant.end + 1))
        chosen = sorted((t, nodeid) for nodeid, (t, lines, _) in self.tests.items() if span & lines.get(mutant.path, set()))
        if chosen:
            hit = {nodeid for _, nodeid in chosen}
            chosen += sorted((t, nodeid) for nodeid, (t, _, spawns) in self.tests.items() if spawns and nodeid not in hit)
        else:
            chosen = sorted((t, nodeid) for nodeid, (t, _, _) in self.tests.items())
        copy = self.copies.get()
        target = copy / mutant.path
        original = target.read_bytes()
        try:
            target.write_text(mutant.source)
            passed, timed_out = self._pytest(copy, *self._stage(chosen), {})
            return "timeout" if timed_out else "survived" if passed else "killed"
        finally:
            target.write_bytes(original)
            self.copies.put(copy)


def _status(status: str, m: Mutant, listed: dict[str, str]) -> str:
    """An outcome as the log prints it: a survivor says whether it is listed."""
    if status == "survived":
        return status + (" (listed)" if m.key in listed else " (NOT LISTED)")
    return status


def run(
    root: Path = ROOT,
    paths: list[str] | None = None,
    jobs: int = 2,
    slack: float = 10.0,
    equivalents: Path = EQUIVALENTS,
    match: str = "",
    log=lambda line: print(line, flush=True),
) -> dict[Mutant, str]:
    """Run every mutant of ``paths`` (default the six decider modules) whose key ``match`` finds; the outcome of each."""
    paths = paths or [module_path(m) for m in MODULES]
    listed = load_equivalents(equivalents)
    todo = [m for path in paths for m in mutants(root, path) if re.search(match, m.key)]
    results: dict[Mutant, str] = {}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        runner = _Runner(root, Path(tmp), jobs, slack)
        with ThreadPoolExecutor(jobs) as pool:
            try:
                runner.baseline()
                futures = [(m, pool.submit(runner.outcome, m)) for m in todo]
                for k, (m, future) in enumerate(futures, 1):
                    results[m] = future.result()
                    log(f"[{k}/{len(todo)}] {_status(results[m], m, listed):<21} {m.path}:{m.line} {m.operator:<6} {m.key}")
                # the pool has drained: each timeout runs again with no other run beside it
                timeouts = [m for m, status in results.items() if status == "timeout"]
                for k, m in enumerate(timeouts, 1):
                    results[m] = runner.outcome(m)
                    log(f"[re-run {k}/{len(timeouts)}] {_status(results[m], m, listed):<21} {m.path}:{m.line} {m.operator:<6} {m.key}")
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                runner.stop()
                raise
    return results


def summary(results: dict[Mutant, str], listed: dict[str, str]) -> tuple[str, list[Mutant]]:
    """A table of mutants, kills and survivors per module and operator; the survivors not listed."""
    rows: Counter = Counter()
    for m, status in results.items():
        for module in (Path(m.path).name, "total"):
            rows[module, m.operator, "mutants"] += 1
            rows[module, m.operator, "survived" if status == "survived" else "killed"] += 1
    modules = sorted({k[0] for k in rows} - {"total"}) + ["total"]
    width = max(map(len, modules))
    lines = [f"{'module':<{width}}  " + "  ".join(f"{op:>9}" for op in (*OPERATORS, "all"))]
    for module in modules:
        cells = []
        for op in (*OPERATORS, None):
            ops = OPERATORS if op is None else (op,)
            made = sum(rows[module, o, "mutants"] for o in ops)
            alive = sum(rows[module, o, "survived"] for o in ops)
            cells.append(f"{made - alive}/{made}" if made else "-")
        lines.append(f"{module:<{width}}  " + "  ".join(f"{c:>9}" for c in cells))
    timeouts = sum(status == "timeout" for status in results.values())
    lines.append(f"(cells are killed/mutants; {timeouts} of the kills are timeouts, each timed out twice, the second time alone)")
    unlisted = [m for m, s in results.items() if s == "survived" and m.key not in listed]
    return "\n".join(lines), unlisted


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("modules", nargs="*", help=f"module names or paths (default: {' '.join(MODULES)})")
    ap.add_argument("-j", "--jobs", type=int, default=2, help="worker processes (default 2)")
    ap.add_argument("-k", dest="match", default="", help="only the mutants whose key this regular expression finds, such as a function name")
    ap.add_argument("--list", action="store_true", help="enumerate and compile every mutant, run no test")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, signal.default_int_handler)  # a kill cleans up as Ctrl-C does
    paths = [module_path(m) for m in args.modules or MODULES]
    listed = load_equivalents(EQUIVALENTS)
    if args.list:
        keys = set()
        for path in paths:
            for m in mutants(ROOT, path):
                keys.add(m.key)
                print(f"{m.path}:{m.line} {m.operator:<6} {m.key}")
        names = {Path(p).name for p in paths}
        stale = [k for k in listed if k.split(":", 1)[0] in names and k not in keys]
        print(f"{len(keys)} distinct mutants; {len(stale)} listed equivalents name none of them")
        for k in stale:
            print(f"stale: {k}", file=sys.stderr)
        return 1 if stale else 0
    started = time.perf_counter()
    results = run(paths=paths, jobs=args.jobs, match=args.match)
    table, unlisted = summary(results, listed)
    print(table)
    print(f"{len(results)} mutants in {time.perf_counter() - started:.0f} s; {len(unlisted)} survivors not listed")
    for m in unlisted:
        print(f"survived: {m.path}:{m.line} {m.operator} {m.key}")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
