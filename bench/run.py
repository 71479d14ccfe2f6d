"""Seeded benchmark of ditkin: one workload per run, every output checked.

Run from the repository root:

    python3 bench/run.py --workload grammar --seed 1 --seconds 20 --trace 0

Workloads: grammar, exact, interval, cli (see README.md).  The run imports
ditkin from `src/` next to this directory, sets up, then repeats whole
rounds of one closed-loop operation until `--seconds` have passed.  Only
the calls into ditkin are timed; building inputs and checking outputs are
not.  The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the end-to-end metrics with `--trace 0` or the
per-layer metrics with `--trace 1`.  A traced run also writes its spans to
`bench/out/trace-<workload>-<seed>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
# The calibration kernel's nominal time.  Timings are rescaled to the speed
# at which the kernel takes exactly this long; see README.md, "Timing".
KERNEL_NS = 1_000_000
CLI_SUBCOMMANDS = ("classify", "norm", "residuals", "select_ai", "witness", "repro_paper")

sys.path.insert(0, HERE)
from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for n in SPAN_NAMES:
        units[n + "_ms"] = "ms"
        units[n + "_self_ms"] = "ms"
        units[n + "_peak_kb"] = "KiB"
    units.update(
        {
            "weights.arms": "count",
            "weights.cache_entries": "count",
            "algebra.value_at_calls": "count",
            "algebra.tail_bound_calls": "count",
            "cli.interpreter_ms": "ms",
            "cli.import_ms": "ms",
        }
    )
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}_ms"] = "ms"
    units["cli.stdout_bytes"] = "bytes"
    return units


def import_ditkin():
    """ditkin from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import ditkin
        import ditkin.cli  # noqa: F401  (bound here so the tracer can wrap it)
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import ditkin from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(ditkin.__file__))) != SRC:
        raise SystemExit(f"bench: imported ditkin from {ditkin.__file__}, not from {SRC}")
    return ditkin


def kernel_ns() -> int:
    """Best of three timings of a fixed stdlib Fraction loop, in ns."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        s = Fraction(0)
        for i in range(1, 400):
            s += Fraction(1, i % 97 + 1)
        t = time.perf_counter_ns() - t0
        best = t if best is None else min(best, t)
    return best


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the calibration
    kernel runs where the operations run."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Result:
    def __init__(self):
        self.latency_ns: list[int] = []
        self.speed: list[float] = []  # KERNEL_NS over the kernel time around each operation
        self.labels: list[str] = []
        self.counts: dict[str, int] = {}
        self.failed = 0
        self.unexpected: list[str] = []


def measure(wl, seconds: float, tracer: Tracer | None = None, plant=None) -> Result:
    """Closed loop over whole rounds of operations until `seconds` have passed."""
    res = Result()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        inp = wl.make(i)
        if tracer is not None:
            tracer.op, tracer.active = i, True
            root = tracer.open(inp.label)
        k0 = kernel_ns()
        t0 = time.perf_counter_ns()
        try:
            out, err = wl.op(inp), None
        except Exception as exc:  # a failed operation is counted, and the run goes on
            out, err = None, exc
        t1 = time.perf_counter_ns()
        k1 = kernel_ns()
        if tracer is not None:
            tracer.close(root)
            tracer.active = False
        res.latency_ns.append(t1 - t0)
        res.speed.append(2 * KERNEL_NS / (k0 + k1))
        res.labels.append(inp.label)
        if err is not None:
            problems = [f"{type(err).__name__}: {err}"]
        else:
            for key, v in wl.counts(out).items():
                res.counts[key] = res.counts.get(key, 0) + v
            try:
                doc = wl.observe(inp, out)
                if plant is not None:
                    plant(inp, doc)
                problems = wl.check(inp, doc)
            except Exception as exc:  # output too malformed to check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            res.failed += 1
            if not inp.known_fault:
                res.unexpected.append(f"op {i} ({inp.label}): {problems[0]}")
        i += 1
        if i % wl.ROUND == 0 and time.perf_counter() >= deadline:
            return res


def time_setup(args) -> tuple[float, float]:
    """Seconds from spawning a fresh process to its being ready for the first
    operation, and the speed factor measured around it."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    k0 = kernel_ns()
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    k1 = kernel_ns()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed with exit code {proc.returncode}")
    return elapsed, 2 * KERNEL_NS / (k0 + k1)


def child_ms(code: str, samples: int = 5) -> float:
    """Median wall time of `python -c code` with this checkout's src/ on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def end_to_end(wl, res: Result, setup: list[tuple[float, float]]) -> dict[str, float]:
    """The end-to-end metrics, times rescaled to the kernel's nominal speed."""
    if hasattr(wl, "max_rss_kb"):
        rss_kb = wl.max_rss_kb  # the largest CLI child
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = [t * f for t, f in zip(res.latency_ns, res.speed)]
    return {
        # a probe is too short for the kernels around it to track the speed,
        # so set-up is rescaled by the median speed over all probes
        "setup_s": statistics.median(t for t, _ in setup) * statistics.median(f for _, f in setup),
        "ops_per_s": len(scaled) / (sum(scaled) / 1e9),
        "latency_p50_ms": statistics.median(scaled) / 1e6,
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(dk, is_cli: bool, res: Result, tracer: Tracer) -> dict[str, float]:
    """The traced run's layer metrics; call after `tracer.uninstall()`."""
    ops = len(res.latency_ns)
    c = res.counts
    m = tracer.layer_metrics(ops)
    m["weights.arms"] = c.get("weights.arms", 0) / max(c.get("families", 0), 1)
    m["weights.cache_entries"] = dk.weights.eventual_form.cache_info().currsize
    m["algebra.value_at_calls"] = c.get("algebra.value_at_calls", 0) / ops
    m["algebra.tail_bound_calls"] = c.get("algebra.tail_bound_calls", 0) / ops
    interpreter = child_ms("pass") if is_cli else 0.0
    m["cli.interpreter_ms"] = interpreter
    m["cli.import_ms"] = child_ms("import ditkin") - interpreter if is_cli else 0.0
    for sub in CLI_SUBCOMMANDS:
        times = [t for t, label in zip(res.latency_ns, res.labels) if label == "cli." + sub]
        m[f"cli.{sub}_ms"] = statistics.mean(times) / 1e6 if times else 0.0
    m["cli.stdout_bytes"] = c.get("cli.stdout_bytes", 0) / ops
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    dk = import_ditkin()
    if not args.setup_probe:
        pin_to_one_cpu()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](dk, args.seed, workdir).warm_up()
            print("ready", flush=True)
            return 0
        setup = [time_setup(args) for _ in range(SETUP_SAMPLES)]
        wl = WORKLOADS[args.workload](dk, args.seed, workdir)
        wl.warm_up()
        tracer = None
        if args.trace:
            tracer = Tracer(dk)
            tracer.install()
        res = measure(wl, args.seconds, tracer)
        if tracer is None:
            metrics = end_to_end(wl, res, setup)
            units = END_TO_END_UNITS
        else:
            tracer.uninstall()
            metrics = per_layer(dk, args.workload == "cli", res, tracer)
            units = per_layer_units()
            path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
            tracer.write(path, res.counts)
            print(f"traced run: spans in {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in res.unexpected[:5]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}: attempted {len(res.latency_ns)}, failed {res.failed}")
    print(
        f"  unscaled: ops_per_s = {len(res.latency_ns) / (sum(res.latency_ns) / 1e9)} 1/s, "
        f"latency_p50_ms = {statistics.median(res.latency_ns) / 1e6} ms, "
        f"setup_s = {statistics.median(t for t, _ in setup)} s, "
        f"median speed factor = {statistics.median(res.speed)}"
        + (" (tracemalloc slows the kernel too: compare traced runs unscaled)" if args.trace else "")
    )
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]} {unit}")
    print(
        json.dumps(
            {
                "correct": not res.unexpected,
                "attempted": len(res.latency_ns),
                "failed": res.failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
