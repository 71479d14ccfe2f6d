"""Steadiness check: two sets of runs of the same checkout, compared.

Run from the repository root:

    python3 bench/steady.py [--runs 10] [--workload grammar ...] [--seconds 20]

Set A runs each workload with seeds 1..N, then set B with seeds N+1..2N,
each run a fresh `bench/run.py --trace 0` process.  For every workload and
end-to-end metric it prints both medians, each set's spread (the distance
between the first and third quartile over the median), the shift of B's
median from A's in the metric's worse direction, and whether the two sets
agree within the metric's bound in BENCHMARK.json: both spreads within the
bound (setup_s excepted) and the shift within the bound.  The share of
failed operations must also be the same in both sets.  Every run's result
line is appended to bench/out/steady.jsonl.  Exit code 0 when all agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"steady: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"steady: {workload} seed {seed} reported wrong outputs:\n{proc.stderr}")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    sets: dict[str, dict[str, list[dict]]] = {"A": {}, "B": {}}
    with open(os.path.join(HERE, "out", "steady.jsonl"), "a", encoding="utf-8") as log:
        for name, first_seed in (("A", 1), ("B", args.runs + 1)):
            for w in workloads:
                for seed in range(first_seed, first_seed + args.runs):
                    result = run_once(w, seed, args.seconds)
                    sets[name].setdefault(w, []).append(result)
                    log.write(json.dumps({"set": name, "workload": w, "seed": seed, **result}) + "\n")
                    log.flush()
                    print(f"set {name} {w} seed {seed}: attempted {result['attempted']}", file=sys.stderr)

    ok = True
    header = f"{'workload':<9} {'metric':<15} {'median A':>12} {'median B':>12} {'spread A':>9} {'spread B':>9} {'shift':>8} {'bound':>6}  verdict"
    print(header)
    for w in workloads:
        a, b = sets["A"][w], sets["B"][w]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            agree = worse <= bound and (name == "setup_s" or (sa <= bound and sb <= bound))
            ok &= agree
            print(
                f"{w:<9} {name:<15} {ma:>12.5g} {mb:>12.5g} {sa:>9.2%} {sb:>9.2%} {worse:>+8.2%} "
                f"{bound:>6.0%}  {'agree' if agree else 'DISAGREE'}"
            )
        shares = {Fraction(r["failed"], r["attempted"]) for r in a + b}
        same = len(shares) == 1
        ok &= same
        share_a, share_b = (sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in (a, b))
        print(f"{w:<9} {'failed share':<15} {share_a:>12.4f} {share_b:>12.4f} {'':>9} {'':>9} {'':>8} {'':>6}  "
              f"{'same' if same else 'DIFFERENT'}")
    print("steady: all agree" if ok else "steady: some metrics disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
