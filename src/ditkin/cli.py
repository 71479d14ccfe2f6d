"""Batch command-line front end.

Subcommands: classify, norm, residuals, select-ai, witness, repro-paper.
Inputs are JSON documents (weight families, elements, points, index lists);
outputs are JSON by default, CSV for diagnostic tables, or a plain table.
All numeric output is exact: rationals in lowest terms, deterministic field
order.  Exit codes: 0 success, 1 verification failure, 2 input error.
Each subcommand is declared once in COMMANDS; `main` runs them all.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .algebra import closed_set_from_obj, element_from_obj, parse_point
from .approx_identity import DEFAULT_SELECTION_COUNT, MAX_SELECTION_COUNT, diagnostics_to_csv
from .approx_identity import residual_diagnostics, select_ai_subsequence
from .classifier import PROPERTIES, dyadic_counterexample, property_report, relative_unit_witness, repro_checks
from .errors import DitkinError, SchemaError
from .weights import WeightFamily, format_rational, json_form, parse_rational, weight_family_from_obj

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2


def _load_json(path: str) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an oversized integer, or nesting too deep
        raise SchemaError(f"{path}: {exc}") from exc


def _load_family(path: str) -> WeightFamily:
    obj = _load_json(path)
    if isinstance(obj, dict) and "family" not in obj and "weights" in obj:
        return weight_family_from_obj(obj["weights"], "weights")
    return weight_family_from_obj(obj, "weights")


def _load_document(path: str, *required: str) -> tuple[dict, WeightFamily]:
    """The document at `path`, holding `weights` and each `required` field, and its weights."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    for key in ("weights", *required):
        if key not in obj:
            raise SchemaError(f"{path}: missing required field {key!r}")
    return obj, weight_family_from_obj(obj["weights"], "weights")


# compute functions: parsed arguments -> (result, exit code)
def _classify(args):
    return property_report(_load_family(args.input)), EXIT_OK


def _norm(args):
    doc, w = _load_document(args.input, "element")
    return element_from_obj(doc["element"], "element").norm(w), EXIT_OK


def _residuals(args):
    doc, w = _load_document(args.input, "element", "indices")
    f = element_from_obj(doc["element"], "element")
    indices = doc["indices"]
    if not (isinstance(indices, list) and all(type(n) is int and n >= 1 for n in indices)):
        raise SchemaError("indices: expected a list of naturals >= 1")
    return residual_diagnostics(f, w, indices), EXIT_OK


def _select_ai(args):
    if args.count < 1:
        raise SchemaError("--count: must be >= 1")
    if args.count > MAX_SELECTION_COUNT:
        raise SchemaError(f"--count: must be at most {MAX_SELECTION_COUNT}")
    w = _load_family(args.input)
    slack = parse_rational(args.slack, "--slack") if args.slack is not None else None
    if slack is not None and slack < 0:
        raise SchemaError("--slack: must be >= 0")
    return select_ai_subsequence(w, args.count, slack=slack), EXIT_OK


def _witness(args):
    doc, w = _load_document(args.input, "point")
    point = parse_point(doc["point"], "point")
    excluded = closed_set_from_obj(doc.get("excluded", {}), "excluded")
    return relative_unit_witness(w, point, excluded), EXIT_OK


def _repro_paper(args):
    w = _load_family(args.weights) if args.weights else dyadic_counterexample()[0]
    checks = repro_checks(w)
    all_pass = all(c["pass"] for c in checks)
    code = EXIT_OK if all_pass else EXIT_VERIFICATION_FAILED
    return {"all_pass": all_pass, "checks": checks}, code


# renderers: result -> text, which ends in a newline
def _json(result) -> str:
    return json.dumps(json_form(result), indent=2) + "\n"


def _key_lines(obj: dict, *keys: str, **formats: Callable) -> str:
    """A `key = value` line for each of keys, the value read from obj, a result's written form (to_obj()),
    and put through the key's formatter in formats, if it has one."""
    return "".join(f"{key} = {formats.get(key, str)(obj[key])}\n" for key in keys)


def _classify_table(report) -> str:
    obj = report.to_obj()
    cls = obj["classification"]
    return (_key_lines(obj, *PROPERTIES, "dales_bound")
            + f"bounded = {cls['bounded']} (sup = {cls['sup']})\n"
            + f"liminf = {cls['liminf'] if cls['liminf_finite'] else 'infinite'}\n"
            + _key_lines(cls, "nondecreasing", "diverges_to_infinity"))


def _residuals_table(rows) -> str:
    lines = [f"{'n_k':>8}  {'residual':>24}  {'alpha_next':>12}  {'alpha_self':>12}"] + [
        f"{row.index:>8}  {str(row.residual):>24}  "
        f"{format_rational(row.alpha_next):>12}  {format_rational(row.alpha_self):>12}"
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def _repro_table(result) -> str:
    lines = []
    for c in result["checks"]:
        lines.append(f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}")
        for fail in c["failures"]:
            detail = (fail["error"] if "error" in fail
                      else f"expected {fail['expected']}, computed {fail['computed']}")
            lines.append(f"      {fail['at']}: {detail}")
    lines.append("all checks passed" if result["all_pass"] else "verification failed")
    return "\n".join(lines) + "\n"


class Command(NamedTuple):
    help: str
    input_help: str | None  # help of the positional input; None: the command takes none
    compute: Callable  # parsed arguments -> (result, exit code)
    renderers: dict[str, Callable]  # --format choice -> (result -> text); the first is the default
    flags: tuple = ()  # (flag, add_argument keywords) pairs beyond --format and --output


COMMANDS = {
    "classify": Command(
        "regularity report for a weight family", "JSON file holding the weight family",
        _classify, {"json": _json, "table": _classify_table}),
    "norm": Command(
        "norm of an element under a weight family", "JSON file with fields: weights, element",
        _norm, {"json": _json, "table": lambda norm: _key_lines({"norm": norm}, "norm")}),
    "residuals": Command(
        "residual diagnostics at given indices", "JSON file with fields: weights, element, indices",
        _residuals, {"json": _json, "csv": diagnostics_to_csv, "table": _residuals_table}),
    "select-ai": Command(
        "select an approximate-identity subsequence", "JSON file holding the weight family",
        _select_ai, {"json": _json, "table": lambda sel: _key_lines(sel.to_obj(), "kind", "indices", "norms")},
        (("--count", dict(type=int, default=DEFAULT_SELECTION_COUNT)),
         ("--slack", dict(default=None, help="explicit slack p/q over the liminf")))),
    "witness": Command(
        "relative-unit witness at a point", "JSON file with fields: weights, point, excluded",
        _witness, {"json": _json,
                   "table": lambda wit: _key_lines(wit.to_obj(), "point", "norm", "element", element=json.dumps)}),
    "repro-paper": Command(
        "verify the built-in counterexample family against its known exact values", None,
        _repro_paper, {"table": _repro_table, "json": _json},
        (("--weights", dict(default=None, help="substitute weight family (negative control)")),
         ("--json", dict(dest="format", action="store_const", const="json",
                         help="machine-readable pass list")))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ditkin", description=(
        "Exact computations in weighted difference algebras on the "
        "one-point compactification of the naturals"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        # a value that starts with a dash and a digit, such as -1/3, is a value,
        # not an option, so `--slack -1/3` reaches the --slack check
        p._negative_number_matcher = re.compile(r"^-\d")
        if cmd.input_help:
            p.add_argument("input", help=cmd.input_help)
        for flag, kwargs in cmd.flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=list(cmd.renderers))
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
        # also the default of --json, which shares the destination
        p.set_defaults(format=next(iter(cmd.renderers)))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    try:
        result, code = cmd.compute(args)
        text = cmd.renderers[args.format](result)
        if args.output:
            try:
                Path(args.output).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise SchemaError(f"--output: {args.output}: {exc.strerror or exc}") from exc
        else:
            sys.stdout.write(text)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DitkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
