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
