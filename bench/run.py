"""grouplang benchmark: time to verdict on seeded known-answer workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
workload's instance pool is built from the seed, then run pass after pass
in this one process (``cli-oneshot`` starts one CLI process per instance,
one at a time).  Measuring stops at the end of the pass nearest to
``--seconds``.  On a small shared VM the same code runs at up to half
speed for stretches of seconds to minutes, so every time is scaled to a
fixed speed of a reference loop timed in between (``speed.py``), and an
instance's time is the median of its scaled passes.
Percentiles are taken over the instances of each class (inclusion holds,
inclusion fails), of which every pool has at least ``MIN_SAMPLES``.  Every
output is checked against the known answer.  The last line of standard
output is one JSON object; the lines before it give the same metrics,
their sample counts and the outcome breakdown for people.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from speed import ProcessSpeedProbe, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("regular-closure", "linear-closure", "oracle-crosscheck", "cli-oneshot")
# The pools hold at least this many instances of each class, so the 90th
# percentile has ten instances beyond it.
MIN_SAMPLES = 100
SETUP_REPEATS = 7
# Reference calls around each set-up repeat.
SETUP_PROBES = 5
# Stop measuring after this long whatever the sample counts, so a run
# always ends well within three minutes.
HARD_STOP_S = 120.0
CLI_PROBES = 7


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def import_package() -> None:
    """Import the package from this checkout's src/ only."""
    if not (SRC / "grouplang" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'grouplang'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import grouplang.cli  # noqa: F401

    if Path(grouplang.__file__).resolve().parent != (SRC / "grouplang").resolve():
        sys.exit(f"error: imported grouplang from {grouplang.__file__}, not from {SRC}")


# Times ``import grouplang.cli`` inside a fresh interpreter, so the modules
# the package pulls in are imported cold too and start-up is left out, and
# scales it by reference calls made in that interpreter right after.
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import grouplang.cli; t = time.perf_counter() - t; "
    f"import sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); from speed import SpeedProbe; "
    f"p = SpeedProbe(); p.probe({SETUP_PROBES}); print(t * p.scale())"
)


def import_seconds(env: dict) -> float:
    """Median scaled cold import time of the package, its dependencies included, over ``SETUP_REPEATS`` processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


class Run:
    """Timings and outcomes of the measured passes."""

    def __init__(self):
        self.times: dict[int, list[float]] = {}  # instance id -> scaled seconds, one per pass
        self.oracle_times: dict[int, list[float]] = {}
        self.holds: dict[int, bool] = {}
        self.outcomes: Counter = Counter()
        self.pass_s: list[float] = []  # wall time, not scaled
        self.scales: list[float] = []
        self.rss_kb: int | None = None  # this process's peak memory, read as ``measure`` says
        self.child_rss_kb = 0

    def add(self, inst, result, scale: float) -> None:
        """Record one timing, scaled; an instance stopped by the wall-clock time limit counts at the limit, unscaled."""
        if result.outcome == "timeout":
            scale = 1.0
        self.scales.append(scale)
        self.child_rss_kb = max(self.child_rss_kb, result.rss_kb)
        self.times.setdefault(inst.ident, []).append(result.seconds * scale)
        self.holds[inst.ident] = inst.holds
        if result.oracle_seconds is not None:
            self.oracle_times.setdefault(inst.ident, []).append(result.oracle_seconds * scale)
        self.outcomes[result.outcome] += 1

    def typical(self, holds: bool | None = None, oracle: bool = False) -> list[float]:
        """Each instance's median scaled time over the passes, for one class or all."""
        times = self.oracle_times if oracle else self.times
        return [statistics.median(ts) for ident, ts in times.items() if holds is None or self.holds[ident] == holds]

    @property
    def passes(self) -> int:
        return len(self.pass_s)

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())


def measure(pool, run_one, seconds: float, tracer=None, probe: SpeedProbe | None = None) -> Run:
    """Whole passes over the pool, ending at the pass boundary nearest to ``seconds`` (at least one pass).

    The process's peak memory is read at the end of the first pass, or
    before the first instance the time limit stops: how much memory such
    an instance reaches depends on the machine's speed, not only on the
    program.  Later passes only add allocator fragmentation, whose share
    would vary with the pass count.

    Stopping at the nearest boundary, not the first one past ``seconds``,
    keeps a workload whose pass takes about ``seconds`` (``cli-oneshot``)
    from running for twice as long.  Each time is scaled by the speed of
    the reference around it, which needs the probes after it too, so the
    scaling waits for the end.
    """
    run = Run()
    probe = probe or SpeedProbe()
    results = []  # (instance, result, when it ended)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for inst in pool:
            probe.maybe_probe()
            if tracer:
                tracer.instance = inst.ident
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result = run_one(inst)
            results.append((inst, result, time.perf_counter()))
            if result.outcome == "timeout" and run.rss_kb is None:
                run.rss_kb = rss_kb
            if time.perf_counter() - start > HARD_STOP_S:
                break
        run.pass_s.append(time.perf_counter() - pass_start)
        if run.rss_kb is None:
            run.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            tracer.recording = False  # spans of the first traced pass are enough
        elapsed = time.perf_counter() - start
        if elapsed + run.pass_s[-1] / 2 >= seconds or elapsed > HARD_STOP_S:
            break
    probe.probe()
    for inst, result, ended in results:
        run.add(inst, result, probe.scale_at(ended - result.seconds))
    return run


def incorrect(outcomes: Counter) -> int:
    from workloads import OK, UNDECIDED

    return sum(n for kind, n in outcomes.items() if kind != OK and kind not in UNDECIDED)


def runner(workload: str, tracer=None):
    import workloads as w

    if workload == "oracle-crosscheck":
        return lambda inst: w.run_crosscheck(inst, tracer)
    if workload == "cli-oneshot":
        env = w.cli_env(ROOT)
        return lambda inst: w.run_cli(inst, ROOT, env)
    return lambda inst: w.run_closure(inst, tracer)


def end_to_end(workload: str, run: Run, setup_s: float) -> dict:
    holds, fails = run.typical(True), run.typical(False)
    rss_kb = run.child_rss_kb if workload == "cli-oneshot" else run.rss_kb
    ok = run.outcomes.get("ok", 0)
    return {
        "setup_s": (setup_s, "s"),
        "checks_per_s": (len(run.times) / sum(run.typical()), "1/s"),
        "holds_ms_p50": (percentile(holds, 0.5) * 1000, "ms"),
        "holds_ms_p90": (percentile(holds, 0.9) * 1000, "ms"),
        "fails_ms_p50": (percentile(fails, 0.5) * 1000, "ms"),
        "fails_ms_p90": (percentile(fails, 0.9) * 1000, "ms"),
        "verdict_share": (ok / run.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def _median_process_ms(cmd: list[str], env: dict) -> float:
    times = []
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def traced(workload: str, pool, seconds: float) -> tuple[Run, dict]:
    """An untraced reference pass, then traced passes until ``seconds`` in all.

    Returns the traced run and the per-layer metrics, normalised per pass.
    """
    import workloads as w
    from tracing import Tracer

    tracer = Tracer()
    metrics: dict = {}
    if workload == "cli-oneshot":
        env = w.cli_env(ROOT)
        interpreter = _median_process_ms([sys.executable, "-c", "pass"], env)
        imported = _median_process_ms([sys.executable, "-c", "import grouplang.cli"], env)
        metrics["cli.interpreter_ms"] = (interpreter, "ms")
        metrics["cli.import_ms"] = (imported - interpreter, "ms")

        def reference_one(inst):
            seconds_, outcome = w.run_cli_inprocess(inst)
            return w.Result(seconds_, outcome)

        load_ms: list[float] = []

        def traced_one(inst):
            before = tracer.self_s["cli.load"]
            seconds_, outcome = w.run_cli_inprocess(inst, tracer)
            load_ms.append((tracer.self_s["cli.load"] - before) * 1000)
            return w.Result(seconds_, outcome)
    else:
        reference_one = runner(workload)
        traced_one = runner(workload, tracer)

    reference = measure(pool, reference_one, 0)
    tracer.install()
    tracer.counting_groups = True
    try:
        run = measure(pool, traced_one, seconds - sum(reference.pass_s), tracer)
    finally:
        tracer.counting_groups = False
        tracer.uninstall()

    per_pass = run.passes
    self_ms = {name: s * 1000 / per_pass for name, s in tracer.self_s.items()}
    completed = tracer.completed
    counts = tracer.counts

    def calls(name):
        return (completed[name] + sum(n for (nm, _e), n in tracer.raised.items() if nm == name)) / per_pass

    def early_share(layer, signal_name):
        closures = calls(f"{layer}.closure") * per_pass
        early = tracer.raised[f"{layer}.closure", signal_name]
        return early / closures if closures else 0.0

    for layer, useful in (("regular", "regular.useful_states"), ("linear", "linear.useful")):
        metrics[f"{useful}_ms"] = (self_ms.get(useful, 0.0), "ms")
        metrics[f"{layer}.build_ms"] = (self_ms.get(f"{layer}.build", 0.0), "ms")
        metrics[f"{layer}.closure_ms"] = (self_ms.get(f"{layer}.closure", 0.0), "ms")
        metrics[f"{layer}.pivots_done"] = (counts[f"{layer}.pivots_done"] / per_pass, "count")
        metrics[f"{layer}.tests_ms"] = (self_ms.get(f"{layer}.tests", 0.0), "ms")
        metrics[f"{layer}.max_cell"] = (tracer.max_cell[layer], "count")
    metrics["regular.early_exit_share"] = (early_share("regular", "SingletonViolation"), "ratio")
    metrics["regular.witness_ms"] = (self_ms.get("regular.witness", 0.0), "ms")
    metrics["linear.early_exit_share"] = (early_share("linear", "_EarlyViolation"), "ratio")
    metrics["linear.cap_hits"] = (counts["linear.cap_hits"] / per_pass, "count")
    metrics["linear.timeouts"] = (counts["linear.timeouts"] / per_pass, "count")

    for op in ("product", "union", "diamond", "triple"):
        metrics[f"semiring.{op}_calls"] = (calls(f"semiring.{op}"), "count")
        metrics[f"semiring.{op}_ms"] = (self_ms.get(f"semiring.{op}", 0.0), "ms")
    metrics["semiring.star_calls"] = (calls("semiring.star"), "count")
    combos = counts["semiring.combos"]
    metrics["semiring.combos"] = (combos / per_pass, "count")
    metrics["semiring.kept_ratio"] = (counts["semiring.kept"] / combos if combos else 0.0, "ratio")
    metrics["semiring.witness_letters"] = (counts["semiring.witness_letters"] / per_pass, "count")

    for key in ("multiply_calls", "invert_calls", "canonicalize_calls", "canonicalize_letters"):
        metrics[f"groups.{key}"] = (counts[f"groups.{key}"] / per_pass, "count")

    enumerate_ms = self_ms.get("oracle.enumerate", 0.0)
    membership_ms = self_ms.get("oracle.membership", 0.0)
    words = counts["oracle.words"] / per_pass
    oracle_s = (enumerate_ms + membership_ms) / 1000
    oracle_samples = reference.typical(oracle=True)
    metrics["oracle.enumerate_ms"] = (enumerate_ms, "ms")
    metrics["oracle.membership_ms"] = (membership_ms, "ms")
    metrics["oracle.words"] = (words, "count")
    metrics["oracle.words_per_s"] = (words / oracle_s if oracle_s else 0.0, "1/s")
    metrics["oracle.bound_exceeded"] = (counts["oracle.bound_exceeded"] / per_pass, "count")
    metrics["oracle.ms_p50"] = (percentile(oracle_samples, 0.5) * 1000 if oracle_samples else 0.0, "ms")
    metrics["oracle.ms_p90"] = (percentile(oracle_samples, 0.9) * 1000 if oracle_samples else 0.0, "ms")

    if workload == "cli-oneshot":
        metrics["cli.main_ms"] = (statistics.median(reference.typical()) * 1000, "ms")
        metrics["cli.load_ms"] = (statistics.median(load_ms), "ms")
    else:
        for key in ("cli.interpreter_ms", "cli.import_ms", "cli.main_ms", "cli.load_ms"):
            metrics[key] = (0.0, "ms")

    untraced_ms = statistics.median(reference.pass_s) * 1000
    traced_ms = statistics.median(run.pass_s) * 1000
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    metrics["trace.overhead_share"] = ((traced_ms - untraced_ms) / untraced_ms, "ratio")
    metrics["trace.counter_mismatches"] = (counts["trace.counter_mismatches"], "count")

    tracer.write(OUT_DIR / f"spans-{workload}.txt.gz")
    run.outcomes += reference.outcomes
    return run, metrics


def report(args, run: Run, metrics: dict, correct: bool, failed: int) -> None:
    holds, fails = run.typical(True), run.typical(False)
    failed_share = 1 - run.outcomes.get("ok", 0) / run.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"passes {run.passes}  wall {sum(run.pass_s):.2f} s  instances: holds {len(holds)}, "
        f"fails {len(fails)}  (each timed once per pass; percentiles over each instance's median scaled time)"
    )
    print("pass seconds " + " ".join(f"{t:.3f}" for t in run.pass_s))
    low, mid, high = statistics.quantiles(run.scales, n=4)
    print(
        f"speed scale of the timings: quartiles {low:.3f} {mid:.3f} {high:.3f}, "
        f"range {min(run.scales):.3f}-{max(run.scales):.3f}"
    )
    print("outcomes " + "  ".join(f"{k}={v}" for k, v in sorted(run.outcomes.items())))
    print(f"failed_share {failed_share:.6f} ratio  (incorrect outputs: {failed})")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    os.chdir(ROOT)  # instance files are named relative to the root
    import_package()
    import workloads

    import_s = import_seconds(workloads.cli_env(ROOT))
    probe = SpeedProbe()

    out_dir = OUT_DIR / "cli"
    build_times = []
    for _ in range(SETUP_REPEATS):
        probe.probe(SETUP_PROBES)
        start = time.perf_counter()
        pool = workloads.build_pool(args.workload, args.seed, ROOT, out_dir)
        build_times.append(time.perf_counter() - start)
    probe.probe(SETUP_PROBES)
    setup_s = import_s + statistics.median(build_times) * probe.scale()
    if min(sum(inst.holds == c for inst in pool) for c in (True, False)) < MIN_SAMPLES:
        sys.exit(f"error: the {args.workload} pool has fewer than {MIN_SAMPLES} instances of a class")
    # The pool is the benchmark's, not the program's: keep the collector
    # from walking it, so a collection costs what the instance's own
    # objects make it cost, as in a CLI process checking one instance.
    gc.collect()
    gc.freeze()

    if args.trace:
        run, metrics = traced(args.workload, pool, args.seconds)
        failed = incorrect(run.outcomes) + metrics["trace.counter_mismatches"][0]
    else:
        probe = ProcessSpeedProbe(ROOT, workloads.cli_env(ROOT)) if args.workload == "cli-oneshot" else None
        run = measure(pool, runner(args.workload), args.seconds, probe=probe)
        metrics = end_to_end(args.workload, run, setup_s)
        failed = incorrect(run.outcomes)
    report(args, run, metrics, failed == 0, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
