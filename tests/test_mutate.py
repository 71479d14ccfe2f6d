"""The mutation run's table of equivalent mutants names sites that exist."""

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
