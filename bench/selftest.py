"""Self-test of the benchmark's checks: every oracle must catch a planted error.

Run from the repository root:

    python3 bench/selftest.py

For each workload it first runs one clean round, which must fail only on
the known CLI faults.  Then, for each oracle, it runs one round with one
wrong answer planted in the observed output (a value off by 2^-20, an
interval endpoint moved past the true value, a selection index shifted by
one with matching norms, a flag flipped) and requires the round to report an unexpected failed
operation.  It also checks that the metric names in BENCHMARK.json match
the ones run.py prints.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction

import run
from workloads import WORKLOADS, Interval

EPS = Fraction(1, 1 << 20)


def bump(obj: dict, key: str) -> None:
    obj[key] = str(Fraction(obj[key]) + EPS)


def shift(sel: dict, fam) -> None:
    """Move every selected index up by one, with norms that match the move."""
    sel["indices"] = [n + 1 for n in sel["indices"]]
    sel["norms"] = [str(1 + fam.at(n)) for n in sel["indices"]]


class OffForm:
    """An eventual form whose arm is off by 2^-20 in one residue class."""

    def __init__(self, ef):
        self.ef, self.start = ef, ef.start

    def arm(self, n: int):
        a, b = self.ef.arm(n)
        return (a + EPS, b) if n % 97 == 0 else (a, b)


def cli_plant(kind: str, edit):
    def plant(wl, inp, doc):
        if inp.kind == kind:
            obj = json.loads(doc["stdout"])
            edit(obj, inp)
            doc["stdout"] = json.dumps(obj)

    return plant


def exit_code(wl, inp, doc):
    if inp.kind == "witness":
        doc["code"] = 2


def set_item(obj, key, value):
    obj[key] = value


PLANTS = {
    "grammar": {
        "eventual_form": lambda w, i, d: set_item(d[0], "eventual_form", OffForm(d[0]["eventual_form"])),
        "sup": lambda w, i, d: bump(d[0]["classify"], "sup"),
        "liminf": lambda w, i, d: bump(d[1]["classify"], "liminf"),
        "monotonicity": lambda w, i, d: set_item(d[2]["classify"], "nondecreasing", not d[2]["classify"]["nondecreasing"]),
        "tail_infimum": lambda w, i, d: set_item(d[2]["tail_infimum"], "attained_at", d[2]["tail_infimum"]["attained_at"] + 1),
        "bade_witness": lambda w, i, d: shift(d[1]["report"]["bade_witness"], i.fams[1][1]),
        "dales_bound": lambda w, i, d: bump(d[0]["report"], "dales_bound"),
        "unboundedness_witness": lambda w, i, d: d[2]["report"]["unboundedness_witness"][0].__setitem__(0, d[2]["report"]["unboundedness_witness"][0][0] + 1),
        "witness": lambda w, i, d: bump(d[0]["witness"], "norm"),
    },
    "exact": {
        "norm": lambda w, i, d: bump(d["families"][0]["norm"], "exact"),
        "residual_norm": lambda w, i, d: bump(d["families"][1]["residuals"][1], "exact"),
        "residual_oracle": lambda w, i, d: bump(d["families"][0]["oracle"], "exact"),
        "diagnostics": lambda w, i, d: bump(d["families"][2]["diagnostics"][0], "alpha_next"),
        "running_min": lambda w, i, d: shift(d["families"][2]["select"], w.fams[2]),
        "bounded_bai": lambda w, i, d: set_item(d["families"][0]["select"], "slack", "0"),
        "product": lambda w, i, d: d["product"]["prefix"].__setitem__(0, str(Fraction(d["product"]["prefix"][0]) + EPS)),
        "product_norm": lambda w, i, d: bump(d["product_norm"], "exact"),
        "dyadic_norm": lambda w, i, d: bump(d["dyadic_norm"], "exact"),
        "dyadic_residual": lambda w, i, d: bump(d["dyadic_residuals"][2], "exact"),
    },
    "interval": {
        "lo_above_truth": lambda w, i, d: set_item(d["norm"], "lo", str(Fraction(d["norm"]["hi"]) + EPS)),
        "hi_below_truth": lambda w, i, d: set_item(d["norm"], "hi", d["norm"]["lo"]),
        "lo_partial_sum": lambda w, i, d: bump(d["residuals"][0], "lo"),
        "nested": lambda w, i, d: set_item(d["norm_2h"], "hi", str(Fraction(d["norm"]["hi"]) + EPS)),
        "ditkin_tol": lambda w, i, d: set_item(d["ditkin"]["residual"], "hi", str(Interval.TOL + EPS)),
    },
    "cli": {
        "classify": cli_plant("classify", lambda o, i: set_item(o, "bru_dales", not o["bru_dales"])),
        "norm": cli_plant("norm", lambda o, i: bump(o, "exact")),
        "residuals": cli_plant("residuals", lambda o, i: bump(o[0], "alpha_self")),
        "select_ai": cli_plant("select_ai", lambda o, i: shift(o, i.fam)),
        "witness": cli_plant("witness", lambda o, i: bump(o, "norm")),
        "repro_paper": cli_plant("repro_paper", lambda o, i: set_item(o, "all_pass", False)),
        "repro_paper_values": cli_plant(
            "repro_paper_weights", lambda o, i: bump(o["checks"][0]["failures"][0], "computed")
        ),
        "exit_code": exit_code,
    },
}


def check_benchmark_json(problems: list[str]) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.per_layer_units())):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {sorted(set(listed) ^ set(units))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def main() -> int:
    dk = run.import_ditkin()
    problems: list[str] = []
    check_benchmark_json(problems)
    os.makedirs(run.OUT, exist_ok=True)
    for name, plants in PLANTS.items():
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
        try:
            wl = WORKLOADS[name](dk, 1, workdir)
            clean = run.measure(wl, 0)
            known = clean.failed
            status = "ok" if not clean.unexpected else f"FAILED: {clean.unexpected[0]}"
            print(f"{name}: clean round, {len(clean.latency_ns)} operations, {known} known faults: {status}")
            if clean.unexpected:
                problems.append(f"{name}: clean round failed")
            for plant_name, plant in plants.items():
                res = run.measure(wl, 0, plant=lambda inp, doc: plant(wl, inp, doc))
                caught = res.failed > known and res.unexpected
                detail = res.unexpected[0] if caught else "not caught"
                print(f"  plant {plant_name}: {'caught' if caught else 'MISSED'} -- {detail[:150]}")
                if not caught:
                    problems.append(f"{name}: planted {plant_name} was not caught")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("selftest:", p, file=sys.stderr)
    print("selftest:", "passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
