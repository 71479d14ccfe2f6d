"""End-to-end CLI behaviour: subcommands, formats, exit codes."""

import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ditkin.approx_identity import MAX_SELECTION_COUNT
from ditkin.cli import main

ODD_EVEN_WEIGHTS = {
    "family": "interleave",
    "modulus": 2,
    "parts": [
        {"family": "linear", "offset": "0", "slope": "1/2"},
        {"family": "constant", "value": "1"},
    ],
}


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def odd_even_weights_file(tmp_path):
    return write_json(tmp_path / "odd_even.json", ODD_EVEN_WEIGHTS)


class TestClassify:
    def test_constant_one(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json", {"family": "constant", "value": "1"})
        assert main(["classify", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["strong_ditkin"] is True
        assert out["dales_bound"] == "3"

    def test_odd_even_family(self, odd_even_weights_file, capsys):
        assert main(["classify", odd_even_weights_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bru_dales"] is False
        assert out["strong_ditkin"] is True

    def test_malformed_family_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json", {"family": "warped", "value": "1"})
        assert main(["classify", path]) == 2
        assert "family" in capsys.readouterr().err

    def test_a_family_tag_wins_over_a_weights_key(self, tmp_path, capsys):
        # only a document without a family tag is a wrapper whose weights are the family
        doc = {"family": "constant", "value": "1", "weights": {"family": "constant", "value": "2"}}
        assert main(["classify", write_json(tmp_path / "w.json", doc)]) == 0
        assert json.loads(capsys.readouterr().out)["classification"]["sup"] == "1"

    @pytest.mark.parametrize("doc", ["weights", ["weights"]], ids=["str", "list"])
    def test_a_document_that_is_not_an_object_is_an_input_error(self, tmp_path, capsys, doc):
        assert main(["classify", write_json(tmp_path / "w.json", doc)]) == 2
        assert capsys.readouterr().err == f"input error: weights: expected an object, got {type(doc).__name__}\n"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "nope.json")
        assert main(["classify", path]) == 2
        assert capsys.readouterr().err == f"input error: {path}: {os.strerror(errno.ENOENT)}\n"

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["classify", str(path)]) == 2
        assert ":1:" in capsys.readouterr().err

    def test_table_format(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json", {"family": "constant", "value": "1"})
        assert main(["classify", path, "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "strong_ditkin = True" in out
        assert "dales_bound = 3" in out


class TestNorm:
    def test_dyadic_odd_even_norm(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "in.json",
            {"weights": ODD_EVEN_WEIGHTS, "element": {"kind": "dyadic_decay"}},
        )
        assert main(["norm", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"exact": "1"}

    def test_exact_element(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "in.json",
            {
                "weights": {"family": "linear", "offset": "0", "slope": "1"},
                "element": {"kind": "eventually_constant", "prefix": ["1", "1/2"], "tail": "0"},
            },
        )
        assert main(["norm", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"exact": "5/2"}

    def test_divergent_variation_is_input_error(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "in.json",
            {
                "weights": {"family": "linear", "offset": "0", "slope": "1"},
                "element": {"kind": "dyadic_decay"},
            },
        )
        assert main(["norm", path]) == 2
        assert "diverges" in capsys.readouterr().err


class TestResiduals:
    def test_csv_rows(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "in.json",
            {
                "weights": ODD_EVEN_WEIGHTS,
                "element": {"kind": "dyadic_decay"},
                "indices": [2**m for m in range(1, 9)],
            },
        )
        assert main(["residuals", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n_k,residual_lo,residual_hi,alpha_next,alpha_self"
        assert len(lines) == 9
        assert all(line.endswith(",1/4") for line in lines[1:])

    def test_json_rows(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "in.json",
            {
                "weights": ODD_EVEN_WEIGHTS,
                "element": {"kind": "dyadic_decay"},
                "indices": [4],
            },
        )
        assert main(["residuals", path]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["n_k"] == 4
        assert row["alpha_self"] == "1/4"
        assert row["residual"] == {"exact": "1/2"}

    def test_bad_indices(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "in.json",
            {"weights": ODD_EVEN_WEIGHTS, "element": {"kind": "dyadic_decay"}, "indices": [0]},
        )
        assert main(["residuals", path]) == 2


class TestSelectAi:
    def test_running_min(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json", {"family": "linear", "offset": "0", "slope": "1"})
        assert main(["select-ai", path, "--count", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "running_min"
        assert out["indices"] == [1, 2, 3, 4, 5]

    def test_odd_even_family_with_slack(self, odd_even_weights_file, capsys):
        assert main(["select-ai", odd_even_weights_file, "--count", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["indices"] == [1, 3, 5, 7]
        assert main(["select-ai", odd_even_weights_file, "--count", "4", "--slack", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["indices"] == [1, 2, 3, 4]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_nonpositive_count_is_input_error(self, odd_even_weights_file, capsys, count):
        assert main(["select-ai", odd_even_weights_file, "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: --count: must be >= 1\n"

    @pytest.mark.parametrize("count", ["65537", "99999999999999999999"])
    def test_count_over_the_cap_is_input_error(self, odd_even_weights_file, capsys, count):
        assert main(["select-ai", odd_even_weights_file, "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: --count: must be at most 65536\n"

    def test_count_at_the_cap(self, odd_even_weights_file, capsys):
        assert main(["select-ai", odd_even_weights_file, "--count", str(MAX_SELECTION_COUNT)]) == 0
        indices = json.loads(capsys.readouterr().out)["indices"]
        assert indices[:3] == [1, 3, 5] and len(indices) == MAX_SELECTION_COUNT

    def test_least_count_and_slack_are_accepted(self, odd_even_weights_file, capsys):
        assert main(["select-ai", odd_even_weights_file, "--count", "1", "--slack", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["indices"], out["slack"]) == ([1], "0")

    @pytest.mark.parametrize(
        "weights",
        [ODD_EVEN_WEIGHTS, {"family": "linear", "offset": "0", "slope": "1"}],
        ids=["bounded", "divergent"],
    )
    @pytest.mark.parametrize(
        "slack", [["--slack", "-1"], ["--slack=-1/3"], ["--slack", "-1/3"]], ids=["-1", "-1/3", "spaced-1/3"]
    )
    def test_negative_slack_is_input_error(self, tmp_path, capsys, weights, slack):
        path = write_json(tmp_path / "w.json", weights)
        assert main(["select-ai", path] + slack) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: --slack: must be >= 0\n"


class TestWitness:
    def test_finite_point(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "in.json",
            {
                "weights": {"family": "constant", "value": "1"},
                "point": 3,
                "excluded": {"points": [1, 2, 4], "with_infinity": True},
            },
        )
        assert main(["witness", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["norm"] == "3"
        assert out["element"]["kind"] == "eventually_constant"

    def test_infinity_point(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "in.json",
            {
                "weights": {"family": "constant", "value": "1"},
                "point": "inf",
                "excluded": {"points": [1, 2, 3, 4, 5]},
            },
        )
        assert main(["witness", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["norm"] == "2"
        assert out["point"] == "inf"

    def test_far_point_costs_its_runs(self, tmp_path, capsys):
        # the witness 1 - delta_x is two runs however large x is
        path = write_json(
            tmp_path / "in.json",
            {"weights": {"family": "linear", "offset": "1", "slope": "1"}, "point": 10**9, "excluded": {}},
        )
        t0 = time.perf_counter()
        assert main(["witness", path]) == 0
        assert time.perf_counter() - t0 < 1
        out = capsys.readouterr().out
        assert len(out) < 1024
        assert json.loads(out)["element"] == {
            "kind": "eventually_constant", "runs": [["1", 10**9 - 1], ["0", 1]], "tail": "1"
        }

    @pytest.mark.parametrize("point", [3, "inf"])
    def test_with_infinity_must_be_a_boolean(self, tmp_path, capsys, point):
        path = write_json(
            tmp_path / "in.json",
            {
                "weights": {"family": "constant", "value": "1"},
                "point": point,
                "excluded": {"points": [1], "with_infinity": "no"},
            },
        )
        assert main(["witness", path]) == 2
        _assert_one_line_input_error(capsys.readouterr(), "excluded.with_infinity")

    def test_point_inside_set_rejected(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "in.json",
            {
                "weights": {"family": "constant", "value": "1"},
                "point": 2,
                "excluded": {"points": [2]},
            },
        )
        assert main(["witness", path]) == 2


class TestReproPaper:
    def test_default_run_passes(self, capsys):
        assert main(["repro-paper"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 4

    def test_json_output(self, capsys):
        assert main(["repro-paper", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_pass"] is True
        assert len(out["checks"]) == 4
        assert all(c["pass"] for c in out["checks"])

    def test_perturbed_weights_fail(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json", {"family": "constant", "value": "1"})
        assert main(["repro-paper", "--weights", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "expected" in out

    def test_perturbed_weights_json_lists_mismatches(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json", {"family": "constant", "value": "1"})
        assert main(["repro-paper", "--weights", path, "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["all_pass"] is False
        failing = [c for c in out["checks"] if not c["pass"]]
        assert failing and failing[0]["failures"]


class TestPlumbing:
    def test_output_file(self, tmp_path):
        w = write_json(tmp_path / "w.json", {"family": "constant", "value": "2"})
        target = tmp_path / "report.json"
        assert main(["classify", w, "--output", str(target)]) == 0
        assert json.loads(target.read_text())["dales_bound"] == "5"

    def test_output_file_is_the_stdout_text(self, odd_even_weights_file, tmp_path, capsys):
        target = tmp_path / "selection.txt"
        for fmt in ("table", "json"):
            argv = ["select-ai", odd_even_weights_file, "--format", fmt]
            assert main(argv) == 0
            shown = capsys.readouterr().out
            assert main(argv + ["--output", str(target)]) == 0
            assert capsys.readouterr().out == ""
            assert target.read_text(encoding="utf-8") == shown

    @pytest.mark.parametrize(
        "where, code", [("missing/dir/out.json", errno.ENOENT), (".", errno.EISDIR)], ids=["missing_dir", "directory"]
    )
    def test_unwritable_output_is_input_error(self, odd_even_weights_file, tmp_path, capsys, where, code):
        target = str(tmp_path / where)
        assert main(["classify", odd_even_weights_file, "--output", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing falls back to stdout
        # the OS error's own text, without its errno prefix or the path repeated
        assert captured.err == f"input error: --output: {target}: {os.strerror(code)}\n"

    def test_deterministic_output(self, odd_even_weights_file, capsys):
        assert main(["classify", odd_even_weights_file]) == 0
        first = capsys.readouterr().out
        assert main(["classify", odd_even_weights_file]) == 0
        assert capsys.readouterr().out == first


def _prefix_chain_text(depth):
    return (
        '{"family": "prefix", "prefix": ["2"], "tail": ' * depth
        + '{"family": "constant", "value": "1"}'
        + "}" * depth
    )


class TestBadInput:
    """Every malformed document exits 2 with one stderr line and no traceback."""

    @pytest.mark.parametrize(
        "text, needle",
        [
            ('{"family": "constant", "value": "1e5000"}', "weights.value"),
            ('{"family": "constant", "value": "0.5"}', "weights.value"),
            ('{"family": "constant", "value": "1_0"}', "weights.value"),
            ('{"family": "constant", "value": ' + "1" * 5001 + "}", "integer"),
            (_prefix_chain_text(400), "nested deeper than 64"),
            (_prefix_chain_text(3000), "recursion"),
        ],
        ids=["exponent", "decimal", "underscore", "huge_int", "deep_400", "deep_3000"],
    )
    def test_exit_2_with_one_line(self, tmp_path, capsys, text, needle):
        path = tmp_path / "w.json"
        path.write_text(text, encoding="utf-8")
        assert main(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("input error: ")
        assert needle in captured.err
        assert "Traceback" not in captured.err

    def test_horizon_flag_removed(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "in.json",
            {"weights": ODD_EVEN_WEIGHTS, "element": {"kind": "dyadic_decay"}},
        )
        with pytest.raises(SystemExit) as exc:
            main(["norm", path, "--horizon", "8"])
        assert exc.value.code == 2
        assert "--horizon" in capsys.readouterr().err


def _assert_one_line_input_error(captured, needle):
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("input error: ")
    assert needle in captured.err
    assert "Traceback" not in captured.err


BIG = "1" + "0" * 3000
ONE = {"family": "constant", "value": "1"}


class TestOversizedOutput:
    """Results past the int-to-str digit limit, and long rejected values."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm"],
            ["norm", "--format", "table"],
            ["residuals"],
            ["residuals", "--format", "csv"],
            ["residuals", "--format", "table"],
        ],
        ids=["norm_json", "norm_table", "residuals_json", "residuals_csv", "residuals_table"],
    )
    def test_result_over_digit_limit_exits_2(self, tmp_path, capsys, argv):
        path = write_json(
            tmp_path / "in.json",
            {
                "weights": {"family": "constant", "value": BIG},
                "element": {"kind": "eventually_constant", "prefix": [BIG, "0"]},
                "indices": [1],
            },
        )
        assert main([argv[0], path] + argv[1:]) == 2
        _assert_one_line_input_error(capsys.readouterr(), "digits")

    def test_repro_computed_over_digit_limit_exits_2(self, tmp_path, capsys):
        nines = "9" * 4300  # odd, so alpha_{2^k} * 2^{-k-1} keeps every digit
        path = write_json(
            tmp_path / "w.json", {"family": "linear", "offset": nines, "slope": nines}
        )
        assert main(["repro-paper", "--weights", path]) == 2
        _assert_one_line_input_error(capsys.readouterr(), "digits")

    def test_long_rejected_value_is_clipped(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json", {"family": "constant", "value": "7" * 5000})
        assert main(["classify", path]) == 2
        captured = capsys.readouterr()
        _assert_one_line_input_error(captured, "(5000 characters)")
        assert len(captured.err) < 200

    @pytest.mark.parametrize(
        "sub, doc",
        [
            ("classify", {"family": "f" * 5000, "value": "1"}),
            ("norm", {"weights": ONE, "element": {"kind": "k" * 5000}}),
            ("witness", {"weights": ONE, "point": "p" * 5000}),
        ],
        ids=["family_tag", "element_kind", "point"],
    )
    def test_long_rejected_tag_is_clipped(self, tmp_path, capsys, sub, doc):
        assert main([sub, write_json(tmp_path / "in.json", doc)]) == 2
        captured = capsys.readouterr()
        _assert_one_line_input_error(captured, "... (5000 characters)")
        assert len(captured.err) < 200

    def test_coprime_part_counts_classify(self, tmp_path, capsys):
        # prime part counts 2..47: the dense form would need their product,
        # about 6.1e17, arms; the leaf form has 322 leaves
        primes = [p for p in range(2, 48) if all(p % d for d in range(2, p))]
        leaves = lambda p: [{"family": "constant", "value": str(i + 1)} for i in range(p)]
        doc = {
            "family": "interleave",
            "parts": [{"family": "interleave", "parts": leaves(p)} for p in primes],
        }
        assert main(["classify", write_json(tmp_path / "w.json", doc)]) == 0
        assert json.loads(capsys.readouterr().out)["classification"] == {
            "bounded": True,
            "sup": "47",
            "liminf_finite": True,
            "liminf": "1",
            "nondecreasing": False,
            "diverges_to_infinity": False,
        }

    def test_leaf_modulus_cap_exits_2(self, tmp_path, capsys):
        # part 0 nested through part counts 2, 3, 5, 7, 11, 13, 17: one leaf
        # needs modulus 5 * 7 * 11 * 13 * 17 = 85,085 > 65,536
        doc = {"family": "constant", "value": "1"}
        for p in (17, 13, 11, 7, 5, 3, 2):
            doc = {"family": "interleave", "parts": [doc] + [ONE] * (p - 1)}
        assert main(["classify", write_json(tmp_path / "w.json", doc)]) == 2
        _assert_one_line_input_error(capsys.readouterr(), "modulus 85085, over the cap of 65536")


def test_import_footprint():
    """`import ditkin.cli` loads no module that only code generation or the CSV
    renderer would need, counted against what the interpreter had loaded before."""
    code = "import sys; seen = set(sys.modules); import ditkin.cli; print(*sorted(set(sys.modules) - seen))"
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True
    )
    added = set(run.stdout.split())
    assert {"ditkin", "ditkin.cli", "ditkin.weights"} <= added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "csv"}


def test_public_names():
    """`ditkin.__all__` is every name the package imports, less its submodules."""
    import ditkin

    assert ditkin.__all__ == sorted(
        """AiSelection ClosedSet Constant DEFAULT_HORIZON DEFAULT_SELECTION_COUNT DiagnosticRow DitkinError
        DivergentVariationError DyadicDecay Element EventuallyConstant HorizonExhausted INFINITY IdealSpec Interleave
        InvalidExcludedSet Linear MissingTailBound NormResult NotDivergentError NotInMInfinityError ONE PrefixOverride
        PropertyReport REPRO_CHECKS RelativeUnitWitness RuleBased SchemaError TailInf UndecidableMembership
        UnsupportedOperandKind WeightClassification WeightFamily ZERO diagnostics_to_csv ditkin_approximation
        dyadic_counterexample element_from_obj element_to_obj format_rational parse_rational prefix_indicator
        property_report relative_unit_witness repro_checks residual_diagnostics residual_norm residual_oracle
        select_ai_subsequence unbounded_nondivergent_family weight_family_from_obj""".split()
    )
