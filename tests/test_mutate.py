"""``scripts/mutate.py`` on a small fixture checkout: its mutants, its timeout, and a working tree it never writes."""

import hashlib
import importlib.util
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location("mutate", ROOT / "scripts" / "mutate.py")
mutate = importlib.util.module_from_spec(spec)
sys.modules["mutate"] = mutate
spec.loader.exec_module(mutate)

# every operator has a site here; the arith mutant of count, i -= 3, is the
# one that never ends (3 is no const site, so i += 3 has no i += 0 mutant)
CALC = '''"""A fixture module."""


def count(n):
    i = 0
    while i < n:
        i += 3
    return i


def sign(x):
    if x < 0 and x != 0:
        return -1
    if not x:
        raise ValueError(f"{x} has no sign")
    return 1
'''

TESTS = '''from toy.calc import count, sign


def test_count():
    assert count(3) == 3


def test_sign():
    assert (sign(-2), sign(5)) == (-1, 1)
'''


# a script outside src/, and a test that loads it by its path
TOOL = """def double(x):
    return 2 * x
"""

TOOL_TESTS = """import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("tool", Path(__file__).resolve().parent.parent / "scripts" / "tool.py")
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def test_double():
    assert tool.double(4) == 8
"""


# a test that, as a test of scripts/mutate.py does, owns a temporary
# directory and a child in a session of its own, and cleans both up on the
# way out; it says where they are once it has them, then waits
NESTED_TESTS = """import json, os, subprocess, sys, tempfile, time


def test_nested_run():
    out = os.environ["STAGE_OUT"]
    with tempfile.TemporaryDirectory(dir=os.path.dirname(out)) as tmp:
        child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"], start_new_session=True)
        try:
            with open(out + ".part", "w") as f:
                json.dump([child.pid, tmp, [os.environ.get(k) for k in ("MUTATE_STRAY", "STAGE_KEPT")]], f)
            os.replace(out + ".part", out)
            time.sleep(60)
        finally:
            child.kill()
            child.wait()
"""

# a test that ignores SIGTERM, and says so
STUBBORN_TESTS = """import json, os, signal, time


def test_stubborn():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    out = os.environ["STAGE_OUT"]
    with open(out + ".part", "w") as f:
        json.dump([], f)
    os.replace(out + ".part", out)
    time.sleep(60)
"""


@pytest.fixture
def checkout(tmp_path):
    root = tmp_path / "checkout"
    (root / "src" / "toy").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "toy" / "__init__.py").write_text("")
    (root / "src" / "toy" / "calc.py").write_text(CALC)
    (root / "tests" / "test_calc.py").write_text(TESTS)
    return root


def _digest(root):
    return {p.relative_to(root): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.rglob("*")) if p.is_file()}


def test_every_operator_yields_mutants_that_compile_and_differ(checkout):
    found = mutate.mutants(checkout, "src/toy/calc.py")
    assert {m.operator for m in found} == set(mutate.OPERATORS)
    for m in found:
        assert m.source != CALC
        compile(m.source, m.path, "exec")
    # the message f-string is not mutated; the early return is, the last one is not
    assert not any("has no sign" in m.key.split(" => ")[1] and m.operator == "const" for m in found)
    assert [m.line for m in found if m.operator == "return"] == [13]


# the outcome of each fixture mutant in a real run, but for the two that
# run for real below: one killed by a failing test, one by the time limit
REAL_RUNS = ("return -1 => pass", "i += 3 => i -= 3")
FAKED_OUTCOMES = {
    "i = 0 => i = -1": "killed",
    "i = 0 => i = 1": "killed",
    "while i < n: => while i <= n:": "killed",
    "if x < 0 and x != 0: => if False:": "killed",
    "if x < 0 and x != 0: => if x < 0 or x != 0:": "killed",
    "if x < 0 and x != 0: => if x <= 0 and x != 0:": "survived",
    "if x < 0 and x != 0: => if x < -1 and x != 0:": "survived",
    "if x < 0 and x != 0: => if x < 1 and x != 0:": "survived",
    "if x < 0 and x != 0: => if x < 0 and x == 0:": "killed",
    "if x < 0 and x != 0: => if x < 0 and x != -1:": "survived",
    "if x < 0 and x != 0: => if x < 0 and x != 1:": "survived",
    "return -1 => return -0": "killed",
    "return -1 => return -2": "killed",
    "if not x: => if False:": "survived",
    "if not x: => if x:": "killed",
    'raise ValueError(f"{x} has no sign") => pass': "survived",
    "return 1 => return 0": "killed",
    "return 1 => return 2": "killed",
}


def test_run_kills_by_failure_and_by_timeout_and_writes_no_file(checkout, tmp_path, monkeypatch):
    # two mutants run in pytest: one a failing test kills, and the hang,
    # which the time limit kills and then again when it runs alone; every
    # other outcome is the one a real run gives, faked.  A load spike is
    # staged on one survivor: its first run reports a timeout, so only its
    # re-run, alone, can tell that it survives
    outcome = mutate._Runner.outcome
    spiked, ran = [], []

    def staged(self, m):
        change = m.key.split(": ", 1)[1]
        if change in REAL_RUNS:
            ran.append(change)
            return outcome(self, m)
        if change == "if not x: => if False:" and not spiked:
            spiked.append(m)
            return "timeout"
        return FAKED_OUTCOMES[change]

    monkeypatch.setattr(mutate._Runner, "outcome", staged)
    before = _digest(checkout)
    log = []
    listed = tmp_path / "equivalents.json"
    listed.write_text('[{"mutant": "calc.py:sign: if not x: => if False:", "why": "a fixture survivor"}]')
    results = mutate.run(checkout, ["src/toy/calc.py"], jobs=2, slack=2.0, equivalents=listed, log=log.append)
    assert _digest(checkout) == before
    assert sorted(ran) == ["i += 3 => i -= 3", "i += 3 => i -= 3", "return -1 => pass"]
    status = {m.key.split(": ", 1)[1]: s for m, s in results.items()}
    assert set(status) == {*REAL_RUNS, *FAKED_OUTCOMES}
    # the hang times out again when it runs alone
    assert status["i += 3 => i -= 3"] == "timeout"
    assert list(status.values()).count("timeout") == 1
    assert spiked and status["if not x: => if False:"] == "survived"
    reruns = [line for line in log if line.startswith("[re-run ")]
    assert len(reruns) == 2 and "timeout" in reruns[0] and reruns[0].endswith("i += 3 => i -= 3")
    assert status["return -1 => pass"] == "killed"
    assert status["if x < 0 and x != 0: => if x < 0 and x == 0:"] == "killed"
    assert status["if x < 0 and x != 0: => if x < 0 or x != 0:"] == "killed"
    survivors = {k for k, s in status.items() if s == "survived"}
    assert "if not x: => if False:" in survivors
    assert len(log) == len(results) + len(reruns)
    assert [line.split("]")[0] for line in log[: len(results)]] == [f"[{k}/{len(results)}" for k in range(1, len(results) + 1)]
    # a survivor's line says whether it is listed
    assert reruns[1].startswith("[re-run 2/2] survived (listed) ")
    assert all(" survived (NOT LISTED) " in line for line in log if " survived " in line and "if not x: => if False:" not in line)
    table, unlisted = mutate.summary(results, {})
    assert {m.key.split(": ", 1)[1] for m in unlisted} == survivors
    assert table.splitlines()[-2].startswith("total")
    assert "; 1 of the kills are timeouts" in table.splitlines()[-1]
    # killed/mutants per operator, then over all of them, for the module and the total
    cells = {line.split()[0]: line.split()[1:] for line in table.splitlines()[1:-1]}
    want = []
    for ops in [(op,) for op in mutate.OPERATORS] + [mutate.OPERATORS]:
        made = [s for m, s in results.items() if m.operator in ops]
        want.append(f"{len(made) - made.count('survived')}/{len(made)}" if made else "-")
    assert cells == {"calc.py": want, "total": want}


def test_baseline_traces_every_file_outside_tests(checkout, tmp_path):
    # a script outside src/ is traced as a module under it is, so its
    # mutants get the tests that run their lines, not the whole suite; no
    # line of a test file is recorded
    (checkout / "scripts").mkdir()
    (checkout / "scripts" / "tool.py").write_text(TOOL)
    (checkout / "tests" / "test_tool.py").write_text(TOOL_TESTS)
    work = tmp_path / "work"
    work.mkdir()
    runner = mutate._Runner(checkout, work, 1, 2.0)
    runner.baseline()
    assert runner.tests["tests/test_tool.py::test_double"][1] == {"scripts/tool.py": {2}}
    assert set(runner.tests["tests/test_calc.py::test_count"][1]) == {"src/toy/calc.py"}
    assert set(runner.tests) == {"tests/test_calc.py::test_count", "tests/test_calc.py::test_sign", "tests/test_tool.py::test_double"}
    assert all(type(t) is float and t > 0 for t, _, _ in runner.tests.values())
    # a stage names its tests in order, and its limit is twice start-up and
    # their unmutated time, plus the slack
    args, limit = runner._stage([(1.5, "tests/test_tool.py::test_double"), (2.5, "tests/test_calc.py::test_sign")])
    assert args == ["-x", "tests/test_tool.py::test_double", "tests/test_calc.py::test_sign"]
    assert limit == 2 * (runner.startup + 4.0) + 2.0 and runner.startup > 0
    # a checkout whose own tests fail has no baseline
    (checkout / "tests" / "test_tool.py").write_text(TOOL_TESTS.replace("== 8", "== 9"))
    work = tmp_path / "failing"
    work.mkdir()
    with pytest.raises(SystemExit, match="fails its tests"):
        mutate._Runner(checkout, work, 1, 2.0).baseline()


def test_run_reraises_when_interrupted(checkout, tmp_path, monkeypatch):
    # an interrupt while results come in (Ctrl-C, or SIGTERM through main)
    # propagates; no test needs to run for that
    def interrupted(line):
        raise KeyboardInterrupt

    monkeypatch.setattr(mutate._Runner, "baseline", lambda self: None)
    monkeypatch.setattr(mutate._Runner, "outcome", lambda self, m: "killed")
    before = _digest(checkout)
    with pytest.raises(KeyboardInterrupt):
        mutate.run(checkout, ["src/toy/calc.py"], jobs=2, slack=2.0, equivalents=tmp_path / "none.json", log=interrupted)
    assert _digest(checkout) == before
    # an interrupt during the baseline stops the baseline's run too
    stopped = []

    def interrupted_baseline(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(mutate._Runner, "baseline", interrupted_baseline)
    monkeypatch.setattr(mutate._Runner, "stop", lambda self: stopped.append(self))
    with pytest.raises(KeyboardInterrupt):
        mutate.run(checkout, ["src/toy/calc.py"], jobs=2, slack=2.0, equivalents=tmp_path / "none.json", log=print)
    assert len(stopped) == 1


def _stop_while_running(checkout, tmp_path, name, text):
    """Start a run of the one test ``text`` in a worker copy and stop it once the test is running.

    Returns what the test wrote to STAGE_OUT, the run's (passed, timed
    out), the seconds stop() took, the runner and the run's arguments.
    """
    (checkout / "tests" / name).write_text(text)
    work = tmp_path / "work"
    work.mkdir()
    runner = mutate._Runner(checkout, work, 1, 2.0)
    out = tmp_path / "stage.json"
    ended = []
    args = (runner.copies.get(), [f"tests/{name}"], None, {"STAGE_OUT": str(out)})
    stage = threading.Thread(target=lambda: ended.append(runner._pytest(*args)))
    stage.start()
    deadline = time.monotonic() + 60
    while not out.exists() and stage.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    written = json.loads(out.read_text())
    started = time.monotonic()
    runner.stop()
    stopped = time.monotonic() - started
    stage.join(60)
    assert not stage.is_alive()
    return written, ended, stopped, runner, args


def test_stopped_run_cleans_up_its_nested_run(checkout, tmp_path, monkeypatch):
    # stop() sends SIGTERM, which the plugin makes a KeyboardInterrupt: the
    # test's cleanup runs, so its child in a session of its own (which a
    # SIGKILL to the run's process group never reaches) and its temporary
    # directory are gone when the run ends, well within the grace period
    monkeypatch.setenv("MUTATE_STRAY", "1")
    monkeypatch.setenv("STAGE_KEPT", "1")
    (pid, tmp, env), ended, stopped, runner, args = _stop_while_running(checkout, tmp_path, "test_nested.py", NESTED_TESTS)
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        pass
    else:
        os.kill(pid, signal.SIGKILL)
        pytest.fail(f"the nested child {pid} outlived its run")
    assert not Path(tmp).exists()
    assert ended == [(False, False)] and stopped < mutate.GRACE
    # a run sees the caller's environment less its MUTATE_ variables
    assert env == [None, "1"]
    # a run that starts once the runner is stopped ends at once, as a timeout
    started = time.monotonic()
    assert runner._pytest(*args) == (False, True) and time.monotonic() - started < 1


def test_run_that_ignores_sigterm_is_killed_after_the_grace_period(checkout, tmp_path, monkeypatch):
    monkeypatch.setattr(mutate, "GRACE", 0.2)
    _, ended, stopped, _, _ = _stop_while_running(checkout, tmp_path, "test_stubborn.py", STUBBORN_TESTS)
    assert ended == [(False, False)] and 0.2 <= stopped < 5


def test_startup_is_the_timed_run_less_its_tests(checkout, tmp_path, monkeypatch):
    # the baseline is two runs, timed and traced; pytest's start-up is the
    # timed run's wall time less the sum of its tests' times
    clock = [0.0]
    runs = []

    def fake(self, copy, args, limit, env):
        runs.append(args)
        clock[0] += 10.0
        Path(env["MUTATE_OUT"]).write_text(json.dumps({"tests/t.py::a": [1.0, [], False], "tests/t.py::b": [2.5, [], True]}))
        return True, False

    monkeypatch.setattr(mutate._Runner, "_pytest", fake)
    monkeypatch.setattr(mutate.time, "perf_counter", lambda: clock[0])
    work = tmp_path / "work"
    work.mkdir()
    runner = mutate._Runner(checkout, work, 1, 2.0)
    runner.baseline()
    assert runs == [["-x", "tests"], ["tests"]]
    assert runner.startup == 6.5
    assert runner.tests == {"tests/t.py::a": (1.0, {}, False), "tests/t.py::b": (2.5, {}, True)}


def test_outcome_is_one_run_of_the_hit_tests_then_the_blind_ones(checkout, tmp_path, monkeypatch):
    runs = []
    results = iter([(False, False), (True, False), (False, True), (True, False)])

    def fake(self, copy, args, limit, env):
        runs.append((args, limit))
        return next(results)

    monkeypatch.setattr(mutate._Runner, "_pytest", fake)
    work = tmp_path / "work"
    work.mkdir()
    runner = mutate._Runner(checkout, work, 1, 2.0)
    runner.startup = 0.5
    calc = "src/toy/calc.py"
    runner.tests = {
        "t::slow": (0.5, {calc: {6, 7}}, True),  # hits and spawns: run once, among the hits
        "t::fast": (0.125, {calc: {7}}, False),
        "t::spawn": (0.25, {}, True),
        "t::other": (0.0625, {calc: {12}}, False),
    }
    found = {m.key.split(": ", 1)[1]: m for m in mutate.mutants(checkout, calc)}
    hang, first = found["i += 3 => i -= 3"], found["i = 0 => i = -1"]
    assert [runner.outcome(m) for m in (hang, hang, hang, first)] == ["killed", "survived", "timeout", "survived"]
    # the hit tests fastest first, then the blind ones, one limit over both;
    # a line that no test runs gets the whole suite, fastest first
    assert runs[0] == (["-x", "t::fast", "t::slow", "t::spawn"], 2 * (0.5 + 0.875) + 2.0)
    assert runs[3] == (["-x", "t::other", "t::fast", "t::spawn", "t::slow"], 2 * (0.5 + 0.9375) + 2.0)
    assert (runner.copies.get() / calc).read_text() == CALC  # the worker copy is restored
