"""Golden CLI outputs: stdout, stderr and exit code of every subcommand, byte for byte.

Each case runs `ditkin.cli.main` from tests/golden on a committed input under
tests/golden/inputs and compares stdout with tests/golden/<case>.out, stderr
with tests/golden/<case>.err (empty when that file is absent) and the exit
code with tests/golden/exit_codes.json.  Regenerate after an intended output
change with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from ditkin import Constant, DyadicDecay, Interleave, Linear, PrefixOverride, dyadic_counterexample, residual_norm
from ditkin.classifier import REPRO_CHECKS, repro_checks
from ditkin.cli import COMMANDS, main

import differential

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES = {
    "classify_json": ["classify", "odd_even.json"],
    "classify_table": ["classify", "odd_even.json", "--format", "table"],
    "classify_nested_json": ["classify", "nested.json"],
    "classify_linear_table": ["classify", "linear.json", "--format", "table"],
    "norm_dyadic_json": ["norm", "dyadic.json"],
    "norm_dyadic_table": ["norm", "dyadic.json", "--format", "table"],
    "norm_exact_json": ["norm", "exact.json"],
    "norm_exact_table": ["norm", "exact.json", "--format", "table"],
    "norm_divergent_json": ["norm", "divergent.json"],
    "residuals_dyadic_json": ["residuals", "dyadic.json"],
    "residuals_dyadic_table": ["residuals", "dyadic.json", "--format", "table"],
    "residuals_dyadic_csv": ["residuals", "dyadic.json", "--format", "csv"],
    "residuals_exact_json": ["residuals", "exact.json"],
    "residuals_exact_csv": ["residuals", "exact.json", "--format", "csv"],
    "select_ai_json": ["select-ai", "odd_even.json", "--count", "6"],
    "select_ai_table": ["select-ai", "odd_even.json", "--format", "table"],
    "select_ai_slack_json": ["select-ai", "nested.json", "--count", "5", "--slack", "1/3"],
    "select_ai_running_min_table": ["select-ai", "linear.json", "--format", "table"],
    "witness_finite_json": ["witness", "witness_finite.json"],
    "witness_finite_table": ["witness", "witness_finite.json", "--format", "table"],
    "witness_inf_json": ["witness", "witness_inf.json"],
    "witness_inf_table": ["witness", "witness_inf.json", "--format", "table"],
    "repro_table": ["repro-paper"],
    "repro_json": ["repro-paper", "--json"],
    "repro_format_json": ["repro-paper", "--format", "json"],
    "repro_mismatch_table": ["repro-paper", "--weights", "constant_one.json"],
    "repro_mismatch_json": ["repro-paper", "--weights", "constant_one.json", "--json"],
    "repro_divergent_table": ["repro-paper", "--weights", "linear.json"],
    "repro_divergent_json": ["repro-paper", "--weights", "linear.json", "--json"],
    "classify_weights_doc_json": ["classify", "dyadic.json"],  # a {"weights": ...} document
    "error_not_object": ["norm", "not_object.json"],
    "error_missing_field": ["norm", "witness_finite.json"],
}


def _argv(args: list[str]) -> list[str]:
    # relative to GOLDEN, so the paths that error messages echo are the same on every machine
    return [f"{INPUTS.name}/{a}" if a.endswith(".json") else a for a in args]


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(_argv(CASES[case]))
    captured = capsys.readouterr()
    assert code == _exit_codes()[case]
    assert captured.out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    err = GOLDEN / f"{case}.err"
    assert captured.err == (err.read_text(encoding="utf-8") if err.exists() else "")


def test_every_case_has_an_exit_code():
    assert set(_exit_codes()) == set(CASES)


def _format(args: list[str]) -> str:
    if "--json" in args:
        return "json"
    if "--format" in args:
        return args[args.index("--format") + 1]
    return next(iter(COMMANDS[args[0]].renderers))


def test_every_format_has_a_golden_case():
    codes = _exit_codes()
    rendered = {(args[0], _format(args)) for case, args in CASES.items() if codes[case] != 2}
    for name, cmd in COMMANDS.items():
        for fmt in cmd.renderers:
            assert (name, fmt) in rendered, f"no golden case renders {name} --format {fmt}"


class TestReproChecks:
    def test_builtin_pair_passes(self):
        w, _ = dyadic_counterexample()
        checks = repro_checks(w)
        assert [c["name"] for c in checks] == [name for name, _ in REPRO_CHECKS]
        assert all(c["pass"] and c["failures"] == [] for c in checks)

    def test_constant_weights_list_failures(self):
        # the jumps sit on odd indices, where the built-in weights are 1 too
        jump, self_terms, residual, norm = repro_checks(Constant(Fraction(1)))
        assert jump["pass"] and norm["pass"]
        assert not self_terms["pass"] and not residual["pass"]
        assert self_terms["failures"][0] == {"at": "k=2", "expected": "1/4", "computed": "1/8"}
        assert len(self_terms["failures"]) == 19
        assert residual["failures"][0] == {"at": "m=3", "expected": ">= 1/4", "computed": "3/16"}

    def test_an_exact_norm_other_than_one_fails(self):
        # the staircase's norm under constant weights 2 is its sup 1/2 plus twice its variation 1/2
        *_, norm = repro_checks(Constant(Fraction(2)))
        assert norm == {"name": REPRO_CHECKS[3][0], "pass": False,
                        "failures": [{"at": "norm", "expected": "1", "computed": "3/2"}]}

    def test_residual_bound_of_exactly_one_quarter_passes(self):
        # n/2 on even and 1/2 on odd indices, with alpha_4 = 1/2: the residual at
        # k = 4 is 1/8 + 1/16 + 1/16 = 1/4 exactly, and above 1/4 at every other 2^m
        w = PrefixOverride((Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 2)),
                           Interleave((Linear(0, Fraction(1, 2)), Constant(Fraction(1, 2)))))
        assert residual_norm(DyadicDecay(), w, 4).lo == Fraction(1, 4)
        jump, self_terms, residual, norm = repro_checks(w)
        assert residual["pass"] and not self_terms["pass"]

    def test_divergent_weights_report_an_evaluation_error(self):
        jump, self_terms, residual, norm = repro_checks(Linear(Fraction(0), Fraction(1)))
        assert len(jump["failures"]) == 19 and len(self_terms["failures"]) == 20
        for check in (residual, norm):
            (failure,) = check["failures"]
            assert failure["at"] == "evaluation" and "diverges" in failure["error"]


def test_differential_digest():
    """The digest that tests/differential.py prints over 600 seeded families.  A change that alters
    any result changes it: such a change updates the pin and says why."""
    assert differential.digest() == ("8e180af41e4bbddc6ea753a465252dbb2082f2866dbeb6225069c5bc2e68979c", 3808918)


def _regenerate() -> None:
    codes = {}
    os.chdir(GOLDEN)
    for case, args in sorted(CASES.items()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes[case] = main(_argv(args))
        (GOLDEN / f"{case}.out").write_text(out.getvalue(), encoding="utf-8")
        if err.getvalue():
            (GOLDEN / f"{case}.err").write_text(err.getvalue(), encoding="utf-8")
        else:
            (GOLDEN / f"{case}.err").unlink(missing_ok=True)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
