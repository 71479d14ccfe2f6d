"""The mutation run's table of equivalent mutants names sites that exist."""

import signal
import subprocess
import time
from pathlib import Path

import pytest

import mutate

SRC = mutate.ROOT / "src" / "ditkin"


@pytest.mark.parametrize("module", sorted({key[0] for key in mutate.EQUIVALENT}))
def test_every_equivalent_entry_matches_a_site(module):
    path = SRC / module
    assert mutate.stale_entries([path], mutate.sites(path)) == []


def test_a_stale_entry_fails_the_run_before_any_mutant(monkeypatch, capsys):
    # errors.py has no operator, so any entry for it is stale
    monkeypatch.setitem(mutate.EQUIVALENT, ("errors.py", "Nowhere", "x {+ -> -} 1"), "code that is not there")
    assert mutate.main([str(SRC / "errors.py")]) == 1
    assert capsys.readouterr().out == "stale EQUIVALENT entry, no site matches: errors.py Nowhere `x {+ -> -} 1`\n"


@pytest.mark.parametrize("unmutated_s, timeout", [(0.5, 60.0), (6.0, 60.0), (7.5, 75.0), (24.0, 240.0)])
def test_default_timeout_is_ten_unmutated_runs_and_at_least_a_minute(unmutated_s, timeout):
    assert mutate.default_timeout(unmutated_s) == timeout


@pytest.mark.parametrize("argv, timeouts", [([], [300.0, 130.0]), (["--timeout", "45"], [45.0, 45.0])])
def test_the_mutants_timeout_comes_from_the_unmutated_run_unless_given(monkeypatch, capsys, argv, timeouts):
    # the unmutated run takes 13 s on a fake clock; the one mutant drawn then fails
    given, clock = [], iter(range(0, 1000, 13))
    monkeypatch.setattr(mutate, "time", type("Clock", (), {"monotonic": staticmethod(lambda: next(clock))}))

    def run_tests(copy, tests, seed, timeout):
        given.append(timeout)
        return "failed" if given[1:] else "passed"

    monkeypatch.setattr(mutate, "run_tests", run_tests)
    assert mutate.main([str(SRC / "classifier.py"), "--sample", "1", *argv]) == 0
    assert given == timeouts
    out = capsys.readouterr().out
    assert f"unmutated run 13.0 s, timeout per mutant {timeouts[1]:.0f} s" in out and "1 killed" in out


@pytest.mark.parametrize(
    "module, tests, runs",
    [
        ("weights.py", None, [["tests/test_weights.py"], ["tests"]]),
        ("approx_identity.py", None, [["tests/test_approx_identity.py"], ["tests"]]),
        ("errors.py", None, [["tests"]]),  # there is no tests/test_errors.py
        ("weights.py", ["tests/test_cli.py", "tests/test_golden.py"], [["tests/test_cli.py", "tests/test_golden.py"]]),
    ],
)
def test_a_mutant_runs_its_module_tests_first_unless_tests_are_given(module, tests, runs):
    assert mutate.runs_for(SRC / module, tests) == runs


@pytest.mark.parametrize("outcome, runs", [("passed", 3), ("failed", 2), ("timeout", 2)])
def test_the_whole_suite_runs_only_once_the_module_tests_pass(monkeypatch, capsys, outcome, runs):
    given = []

    def run_tests(copy, tests, seed, timeout):
        given.append(tests)
        return outcome if given[1:] else "passed"  # the unmutated run passes

    monkeypatch.setattr(mutate, "run_tests", run_tests)
    assert mutate.main([str(SRC / "classifier.py"), "--sample", "1", "--timeout", "60"]) == (outcome == "passed")
    assert given == [["tests"], ["tests/test_classifier.py"], ["tests"]][:runs]
    assert ("1 survived" if outcome == "passed" else "1 killed") in capsys.readouterr().out


class _Interrupted:
    """A test run that Ctrl-C interrupts while it is awaited, and that ends once killed."""

    pid = 4321

    def __init__(self, *args, **kwargs):
        pass

    def wait(self, timeout=None):
        if timeout is not None:
            raise KeyboardInterrupt
        return -signal.SIGKILL


def test_ctrl_c_kills_the_test_run_and_stops(monkeypatch, tmp_path):
    killed = []
    monkeypatch.setattr(subprocess, "Popen", _Interrupted)
    monkeypatch.setattr(mutate.os, "killpg", lambda pid, sig: killed.append((pid, sig)))
    with pytest.raises(KeyboardInterrupt):
        mutate.run_tests(tmp_path, ["tests"], 0, 60.0)
    assert killed == [(_Interrupted.pid, signal.SIGKILL)]


def _running(pid: int) -> bool:
    """Whether process pid still runs: neither gone nor a zombie."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_a_test_that_loops_ends_its_run_at_the_per_test_limit(tmp_path):
    # the test starts a child that sleeps, then loops: a run with a 20 s timeout has a 2 s limit per test,
    # so it fails within seconds, and the child goes with it
    (tmp_path / "test_loop.py").write_text(
        "import subprocess, sys\n"
        "def test_loops():\n"
        "    child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(600)'])\n"
        "    open('child.pid', 'w').write(str(child.pid))\n"
        "    while True:\n"
        "        pass\n"
    )
    began = time.monotonic()
    assert mutate.run_tests(tmp_path, ["test_loop.py"], 0, 20.0) == "failed"
    assert time.monotonic() - began < 10
    pid = int((tmp_path / "child.pid").read_text())
    while _running(pid) and time.monotonic() - began < 15:  # SIGKILL is sent, the child may not have died yet
        time.sleep(0.05)
    assert not _running(pid)


def test_ctrl_c_leaves_no_copy_behind(monkeypatch, tmp_path):
    copies = []

    def run_tests(copy, tests, seed, timeout):  # the unmutated run passes, and Ctrl-C comes in the mutant's
        copies.append(copy)
        if copies[1:]:
            raise KeyboardInterrupt
        return "passed"

    monkeypatch.setattr(mutate, "run_tests", run_tests)
    monkeypatch.setattr(mutate.tempfile, "tempdir", str(tmp_path))
    with pytest.raises(KeyboardInterrupt):
        mutate.main([str(SRC / "classifier.py"), "--sample", "1"])
    assert copies[0].parent == tmp_path and list(tmp_path.iterdir()) == []


def test_boolean_connectives_swap_and_a_not_is_dropped(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("def f(a, b, c):\n    return a or b and not c  # or not\n")
    found = {site.code: site for site in mutate.sites(path)}
    assert list(found) == [
        "return a {or -> and} b and not c",
        "return a or b {and -> or} not c",
        "return a or b and {not -> } c",
    ]
    mutated = [site.mutated.decode().splitlines()[1] for site in found.values()]
    assert mutated == ["    return a and b and not c  # or not", "    return a or b or not c  # or not",
                       "    return a or b and  c  # or not"]
    assert [site.swap for site in found.values()] == ["or -> and", "and -> or", "not -> "]
