"""Batch command-line front end.

Subcommands: classify, norm, residuals, select-ai, witness, repro-paper.
Inputs are JSON documents (weight families, elements, points, index lists);
outputs are JSON by default, CSV for diagnostic tables, or a plain table.
All numeric output is exact: rationals in lowest terms, deterministic field
order.  Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import closed_set_from_obj, element_from_obj, format_point, parse_point
from .approx_identity import (
    DEFAULT_SELECTION_COUNT,
    diagnostics_to_csv,
    residual_diagnostics,
    select_ai_subsequence,
)
from .classifier import (
    dyadic_counterexample,
    property_report,
    relative_unit_witness,
    repro_checks,
)
from .errors import DitkinError, SchemaError
from .weights import WeightFamily, format_rational, parse_rational, weight_family_from_obj

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


def _load_document(path: str, required: list[str]) -> dict:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}: missing required field {key!r}")
    return obj


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(obj: object, output: str | None) -> None:
    _emit(json.dumps(obj, indent=2), output)


def cmd_classify(args) -> int:
    w = _load_family(args.input)
    report = property_report(w)
    if args.format == "json":
        _emit_json(report.to_obj(), args.output)
    elif args.format == "table":
        obj = report.to_obj()
        lines = []
        for key in (
            "ditkin",
            "strongly_regular",
            "spectral_synthesis",
            "separable",
            "strong_ditkin",
            "m_infinity_has_bai",
            "bru_bade",
            "bru_dales",
            "dales_bound",
        ):
            lines.append(f"{key} = {obj[key]}")
        cls = obj["classification"]
        lines.append(f"bounded = {cls['bounded']} (sup = {cls['sup']})")
        lines.append(f"liminf = {cls['liminf'] if cls['liminf_finite'] else 'infinite'}")
        lines.append(f"nondecreasing = {cls['nondecreasing']}")
        lines.append(f"diverges_to_infinity = {cls['diverges_to_infinity']}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_norm(args) -> int:
    doc = _load_document(args.input, ["weights", "element"])
    w = weight_family_from_obj(doc["weights"], "weights")
    f = element_from_obj(doc["element"], "element")
    res = f.norm(w)
    if args.format == "json":
        _emit_json(res.to_obj(), args.output)
    elif args.format == "table":
        _emit(f"norm = {res}\n", args.output)
    return EXIT_OK


def cmd_residuals(args) -> int:
    doc = _load_document(args.input, ["weights", "element", "indices"])
    w = weight_family_from_obj(doc["weights"], "weights")
    f = element_from_obj(doc["element"], "element")
    indices = doc["indices"]
    if not isinstance(indices, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in indices
    ):
        raise SchemaError("indices: expected a list of naturals >= 1")
    rows = residual_diagnostics(f, w, indices)
    if args.format == "json":
        _emit_json([row.to_obj() for row in rows], args.output)
    elif args.format == "csv":
        _emit(diagnostics_to_csv(rows), args.output)
    elif args.format == "table":
        lines = [f"{'n_k':>8}  {'residual':>24}  {'alpha_next':>12}  {'alpha_self':>12}"]
        for row in rows:
            lines.append(
                f"{row.index:>8}  {str(row.residual):>24}  "
                f"{format_rational(row.alpha_next):>12}  {format_rational(row.alpha_self):>12}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_select_ai(args) -> int:
    if args.count < 1:
        raise SchemaError("--count: must be >= 1")
    w = _load_family(args.input)
    slack = parse_rational(args.slack, "--slack") if args.slack is not None else None
    sel = select_ai_subsequence(w, args.count, slack=slack)
    if args.format == "json":
        _emit_json(sel.to_obj(), args.output)
    elif args.format == "table":
        lines = [
            f"kind = {sel.kind}",
            f"indices = {list(sel.indices)}",
            f"norms = {[format_rational(v) for v in sel.norms]}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_witness(args) -> int:
    doc = _load_document(args.input, ["weights", "point"])
    w = weight_family_from_obj(doc["weights"], "weights")
    point = parse_point(doc["point"], "point")
    excluded = closed_set_from_obj(doc.get("excluded", {}), "excluded")
    witness = relative_unit_witness(w, point, excluded)
    if args.format == "json":
        _emit_json(witness.to_obj(), args.output)
    elif args.format == "table":
        lines = [
            f"point = {format_point(witness.point)}",
            f"norm = {format_rational(witness.norm)}",
            f"element = {json.dumps(witness.to_obj()['element'])}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_repro_paper(args) -> int:
    if args.weights:
        w = _load_family(args.weights)
    else:
        w, _ = dyadic_counterexample()
    checks = repro_checks(w)
    all_pass = all(c["pass"] for c in checks)
    if args.json or args.format == "json":
        _emit_json({"all_pass": all_pass, "checks": checks}, args.output)
    else:
        lines = []
        for c in checks:
            lines.append(f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}")
            for fail in c["failures"]:
                if "error" in fail:
                    lines.append(f"      {fail['at']}: {fail['error']}")
                else:
                    lines.append(
                        f"      {fail['at']}: expected {fail['expected']}, "
                        f"computed {fail['computed']}"
                    )
        lines.append("all checks passed" if all_pass else "verification failed")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if all_pass else EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ditkin",
        description=(
            "Exact computations in weighted difference algebras on the "
            "one-point compactification of the naturals"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("json", "table"), default="json"):
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("classify", help="regularity report for a weight family")
    p.add_argument("input", help="JSON file holding the weight family")
    add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("norm", help="norm of an element under a weight family")
    p.add_argument("input", help="JSON file with fields: weights, element")
    add_common(p)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("residuals", help="residual diagnostics at given indices")
    p.add_argument("input", help="JSON file with fields: weights, element, indices")
    add_common(p, formats=("json", "csv", "table"))
    p.set_defaults(fn=cmd_residuals)

    p = sub.add_parser("select-ai", help="select an approximate-identity subsequence")
    p.add_argument("input", help="JSON file holding the weight family")
    p.add_argument("--count", type=int, default=DEFAULT_SELECTION_COUNT)
    p.add_argument("--slack", default=None, help="explicit slack p/q over the liminf")
    add_common(p)
    p.set_defaults(fn=cmd_select_ai)

    p = sub.add_parser("witness", help="relative-unit witness at a point")
    p.add_argument("input", help="JSON file with fields: weights, point, excluded")
    add_common(p)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser(
        "repro-paper",
        help="verify the built-in counterexample family against its known exact values",
    )
    p.add_argument("--weights", default=None, help="substitute weight family (negative control)")
    p.add_argument("--json", action="store_true", help="machine-readable pass list")
    add_common(p, default="table")
    p.set_defaults(fn=cmd_repro_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DitkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
