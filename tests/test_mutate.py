"""``scripts/mutate.py`` on a small fixture checkout: its mutants, its timeout, and a working tree it never writes."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location("mutate", ROOT / "scripts" / "mutate.py")
mutate = importlib.util.module_from_spec(spec)
sys.modules["mutate"] = mutate
spec.loader.exec_module(mutate)

# every operator has a site here; the arith mutant of count, i -= 1, never ends
CALC = '''"""A fixture module."""


def count(n):
    i = 0
    while i < n:
        i += 1
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


def test_run_kills_by_failure_and_by_timeout_and_writes_no_file(checkout, tmp_path):
    before = _digest(checkout)
    log = []
    results = mutate.run(checkout, ["src/toy/calc.py"], jobs=2, slack=2.0, equivalents=tmp_path / "none.json", log=log.append)
    assert _digest(checkout) == before
    status = {m.key.split(": ", 1)[1]: s for m, s in results.items()}
    assert status["i += 1 => i -= 1"] == "timeout"
    assert status["return -1 => pass"] == "killed"
    assert status["if x < 0 and x != 0: => if x < 0 and x == 0:"] == "killed"
    assert status["if x < 0 and x != 0: => if x < 0 or x != 0:"] == "killed"
    survivors = {k for k, s in status.items() if s == "survived"}
    assert "if not x: => if False:" in survivors
    assert len(log) == len(results)
    table, unlisted = mutate.summary(results, {})
    assert {m.key.split(": ", 1)[1] for m in unlisted} == survivors
    assert table.splitlines()[-2].startswith("total")
