"""The four workloads: how each builds its instance pool, and how one instance is run and judged.

Each instance runs under a fixed time limit.  Its outcome is one of

* ``ok``: the verdict equals the known answer and any witness is a word
  of the language that misses the identity (and, on the cross-check
  workload, the oracle agrees);
* undecided (``cap``, ``timeout``, ``bound``): the program or the oracle
  stopped without a verdict;
* incorrect (everything else): a wrong verdict, an invalid witness, an
  exception, an oracle disagreement or a wrong CLI exit code or report.
"""

from __future__ import annotations

import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import grouplang.cli
import grouplang.linear
import grouplang.oracle
import grouplang.regular
from grouplang import (
    BoundExceeded,
    EnumerationBound,
    Fails,
    Holds,
    Nfa,
    OpCounters,
    OracleFails,
    OracleHolds,
    ResourceExceeded,
    grammar_to_dict,
    load_group,
    nfa_to_dict,
)
from instances import Group, Instance, instance_family, make_groups, relabel_grammar

# A fixed per-check limit.  The set cap bounds set sizes but not work, so
# without it one instance can stall a run for minutes.
CHECK_LIMIT_S = 1.0

OK = "ok"
UNDECIDED = ("cap", "timeout", "bound")


class CheckTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise CheckTimeout()


@contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Result:
    seconds: float
    outcome: str
    oracle_seconds: float | None = None
    rss_kb: int = 0  # a CLI process's peak memory


def valid_witness(inst: Instance, word) -> bool:
    if word is None:
        return False
    word = tuple(word)
    lang = inst.language
    member = lang.accepts(word) if isinstance(lang, Nfa) else lang.generates(word)
    return member and not inst.group.backend.word_in_group_language(word)


def judge(inst: Instance, verdict) -> str:
    if isinstance(verdict, ResourceExceeded):
        return "cap"
    if isinstance(verdict, Holds):
        return OK if inst.holds else "wrong_verdict"
    if isinstance(verdict, Fails):
        if inst.holds:
            return "wrong_verdict"
        return OK if valid_witness(inst, verdict.witness) else "bad_witness"
    return "exception"


# -- running one instance -----------------------------------------------


def check(inst: Instance, counters: OpCounters):
    """The inclusion check, called through the module attribute the tracer wraps."""
    backend = inst.group.backend
    if inst.kind == "nfa":
        return grouplang.regular.check_regular_inclusion(inst.language, backend, None, counters)
    return grouplang.linear.check_linear_inclusion(inst.language, backend, None, counters)


def timed_check(inst: Instance, tracer=None) -> tuple[float, object]:
    """Run the check under the time limit; returns (seconds, verdict or exception).

    Setting and clearing the limit are system calls whose cost on a VM
    swings with the host, so they are left out of the time.
    """
    counters = OpCounters()
    before = tracer.opcounter_view() if tracer else None
    depth = tracer.depth() if tracer else 0
    start = time.perf_counter()
    try:
        with time_limit(CHECK_LIMIT_S):
            start = time.perf_counter()
            verdict = check(inst, counters)
            seconds = time.perf_counter() - start
    except Exception as exc:  # the time limit or an escape: an outcome, not a crash
        if tracer:
            tracer.abandon(depth)
        return time.perf_counter() - start, exc
    if tracer:
        tracer.compare_opcounters(before, counters.as_dict())
    return seconds, verdict


def outcome_of(inst: Instance, verdict) -> str:
    if isinstance(verdict, CheckTimeout):
        return "timeout"
    if isinstance(verdict, Exception):
        return "exception"
    return judge(inst, verdict)


def run_closure(inst: Instance, tracer=None) -> Result:
    seconds, verdict = timed_check(inst, tracer)
    if tracer:
        tracer.counting_groups = False
    outcome = outcome_of(inst, verdict)
    if tracer:
        tracer.note_outcome(inst, outcome)
        tracer.counting_groups = True
    return Result(seconds, outcome)


def _oracle_words(inst: Instance):
    lang = inst.language
    if inst.kind == "nfa":
        bound = grouplang.oracle.counterexample_bound_regular(lang)
        return grouplang.oracle.enumerate_nfa_words(lang, EnumerationBound(bound))
    bound = max(1, grouplang.oracle.counterexample_bound_linear(lang))
    return grouplang.oracle.enumerate_grammar_words(lang, EnumerationBound(bound))


def _timed_words(words, tracer):
    """Yield the enumerated words, charging the time spent producing them to enumeration."""
    it = iter(words)
    while True:
        start = time.perf_counter()
        try:
            word = next(it)
        except StopIteration:
            tracer.add_child_time("oracle.enumerate", time.perf_counter() - start)
            return
        tracer.add_child_time("oracle.enumerate", time.perf_counter() - start)
        tracer.counts["oracle.words"] += 1
        yield word


def run_crosscheck(inst: Instance, tracer=None) -> Result:
    """The closure check, then the brute-force oracle at the counterexample bound."""
    check_s, verdict = timed_check(inst, tracer)
    words = _oracle_words(inst)
    depth = tracer.depth() if tracer else 0
    start = time.perf_counter()
    try:
        with time_limit(CHECK_LIMIT_S):
            start = time.perf_counter()
            if tracer:
                with tracer.span("oracle.membership"):
                    oracle = grouplang.oracle.brute_force_inclusion(_timed_words(words, tracer), inst.group.backend)
            else:
                oracle = grouplang.oracle.brute_force_inclusion(words, inst.group.backend)
            oracle_s = time.perf_counter() - start
    except (CheckTimeout, BoundExceeded) as exc:
        oracle = exc
        oracle_s = time.perf_counter() - start
        if tracer:
            tracer.abandon(depth)
    if tracer:
        tracer.counting_groups = False
    outcome = outcome_of(inst, verdict)
    if outcome == OK:
        if isinstance(oracle, CheckTimeout):
            outcome = "timeout"
        elif isinstance(oracle, BoundExceeded):
            outcome = "bound"
        elif isinstance(oracle, OracleHolds) != inst.holds:
            outcome = "disagree"
        elif isinstance(oracle, OracleFails) and not valid_witness(inst, oracle.witness):
            outcome = "disagree"
    if tracer:
        tracer.note_outcome(inst, outcome)
        if isinstance(oracle, BoundExceeded):
            tracer.counts["oracle.bound_exceeded"] += 1
        tracer.counting_groups = True
    return Result(check_s + oracle_s, outcome, oracle_s)


def _cli_argv(inst: Instance) -> list[str]:
    return ["check", "--json", inst.files[0], inst.files[1]]


def judge_cli(inst: Instance, code: int, stdout: str) -> str:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "cli_mismatch"
    verdict = report.get("verdict")
    if code == 2 and verdict == "resource_exceeded":
        return "cap"
    if inst.holds:
        return OK if (code, verdict) == (0, "holds") else "cli_mismatch"
    if (code, verdict) != (1, "fails"):
        return "cli_mismatch"
    return OK if valid_witness(inst, report.get("witness")) else "bad_witness"


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(inst: Instance, root: Path, env: dict) -> Result:
    """One ``python -m grouplang.cli check --json`` process.

    The process is reaped with ``os.wait4`` for its own peak memory: the
    benchmark starts other interpreters too, so the children's high-water
    mark is not the CLI's.
    """
    cmd = [sys.executable, "-m", "grouplang.cli", *_cli_argv(inst)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        try:
            with time_limit(CHECK_LIMIT_S + 5):
                stdout = proc.stdout.read()
                _pid, status, usage = os.wait4(proc.pid, 0)
        except CheckTimeout:
            proc.kill()
            proc.wait()
            return Result(time.perf_counter() - start, "timeout")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = judge_cli(inst, proc.returncode, stdout.decode("utf-8", "replace"))
    return Result(seconds, outcome, rss_kb=usage.ru_maxrss)


def run_cli_inprocess(inst: Instance, tracer=None) -> tuple[float, str]:
    """``cli.main(argv)`` in this process, imports warm; returns (seconds, outcome).

    The instance's file paths are relative to the repository root, which
    must be the working directory.
    """
    out = io.StringIO()
    before = tracer.opcounter_view() if tracer else None
    start = time.perf_counter()
    with redirect_stdout(out):
        if tracer:
            with tracer.span("cli.main"):
                code = grouplang.cli.main(_cli_argv(inst))
        else:
            code = grouplang.cli.main(_cli_argv(inst))
    seconds = time.perf_counter() - start
    if tracer:
        tracer.counting_groups = False
    outcome = judge_cli(inst, code, out.getvalue())
    if tracer:
        if outcome == OK or outcome == "cap":
            tracer.compare_opcounters(before, json.loads(out.getvalue())["counters"])
        tracer.note_outcome(inst, outcome)
        tracer.counting_groups = True
    return seconds, outcome


# -- instance pools -----------------------------------------------------


# Where each fails variant puts its edit, as a fraction of the size.  Pools
# walk this grid in a fixed order, so every seed gets the same mix of
# (shape, size, edit position); only the letters change with the seed.
BREAKS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

# Draws the letters of the fixed free-group chains of ``linear-closure``.
FREE_CHAINS_SEED = 0


def _pool(rng: random.Random, families, fails_per_holds: int) -> list[Instance]:
    """Instances from (group, kind, n, shape) families, shuffled.

    Family ``i`` gets its fails edits from BREAKS, starting at entry
    ``i * fails_per_holds``.
    """
    pool = []
    for i, (g, kind, n, shape) in enumerate(families):
        breaks = [BREAKS[(i * fails_per_holds + k) % len(BREAKS)] for k in range(fails_per_holds)]
        for lang, holds in instance_family(rng, g, kind, n, breaks, **shape):
            pool.append(Instance(len(pool), g, lang, holds))
    rng.shuffle(pool)
    return pool


def regular_pool(seed: int, groups: dict[str, Group]) -> list[Instance]:
    # Inverse-paired paths on every size from 8 to 32 states: holds
    # instances run the full O(n^3) closure with singleton cells, and each
    # fails twin exits early at the pivot its self-loop sits behind.
    rng = random.Random(seed)
    families = [
        (groups[name], "path-nfa", n, {})
        for n in range(8, 33)
        for name in ("free2", "abelian2", "s3", "s4")
    ]
    return _pool(rng, families, 1)


def linear_pool(seed: int, groups: dict[str, Group]) -> list[Instance]:
    # Pair sets saturate in the finite groups.  In the free groups they grow
    # without bound: the free-group chains hit the set cap and the
    # free-abelian one the time limit.  The latter's fails twin is left
    # out, as its early exit races the limit.
    #
    # The capped chains set the peak memory, and what one holds
    # when it hits the cap swings from 5 to 40 MB with its letters, so with
    # seeded letters peak_rss_mb would mostly measure the seed.  They are
    # therefore six fixed chains (and their fails twins), each under a
    # seeded signed permutation of the generators, which leaves their work
    # and memory unchanged.
    rng = random.Random(seed)
    families = [
        (groups[name], "chain-grammar", n, {})
        for name, sizes, copies in (("s3", (6, 7, 8, 9), 20), ("s4", (6,), 14))
        for n in sizes
        for _ in range(copies)
    ]
    pool = _pool(rng, families, 1)
    capped = _pool(random.Random(FREE_CHAINS_SEED), [(groups["free2"], "chain-grammar", 6, {})] * 6, 1)
    pool += [Instance(0, inst.group, relabel_grammar(rng, inst.language), inst.holds) for inst in capped]
    rng.shuffle(pool)
    # Last in the pass: what the timed-out chain holds when the limit stops
    # it grows with the machine's speed (about 20 MB at 1 s, 30 MB at 2 s),
    # so peak_rss_mb is read before it runs (see ``run.measure``).
    pool += _pool(rng, [(groups["abelian2"], "chain-grammar", 8, {})], 0)
    return [Instance(i, inst.group, inst.language, inst.holds) for i, inst in enumerate(pool)]


def oracle_pool(seed: int, groups: dict[str, Group]) -> list[Instance]:
    # Flower shapes fix the number of words up to the counterexample bound
    # (from 210 to 3280 here), so the oracle's work does not swing with the
    # seed; only the letters are random.
    rng = random.Random(seed)
    shapes = [
        ("flower-nfa", 0, {"petals": petals}) for petals in ([1, 1, 1], [2, 2, 2])
    ] + [
        ("flower-grammar", n, {"loops": loops})
        for n, loops in ((2, 3), (3, 2), (4, 1), (5, 1), (6, 1))
    ]
    families = [
        (groups[name], kind, n, shape)
        for name in ("free2", "abelian2", "s3", "s4")
        for kind, n, shape in shapes
        for _ in range(4)
    ]
    return _pool(rng, families, 2)


# Pairs of sample_inputs/ files whose inclusion fails; every other pair of
# matching rank holds.  Established with the brute-force oracle at the
# counterexample bound.
SAMPLE_FAILS = {
    ("nfa_even", "group_cyclic3"),
    ("nfa_even", "group_free1"),
    ("nfa_star", "group_cyclic2"),
    ("nfa_star", "group_cyclic3"),
    ("nfa_star", "group_free1"),
    ("grammar_squares", "group_cyclic3"),
    ("grammar_squares", "group_free1"),
}


def _group_spec(g: Group) -> dict:
    b = g.backend
    if g.name == "free2":
        return {"kind": "free", "rank": 2}
    if g.name == "abelian2":
        return {"kind": "free_abelian", "rank": 2}
    return {
        "kind": "cayley",
        "size": b.size,
        "identity": b.identity_index,
        "table": [list(row) for row in b.table],
        "generator_images": list(b.generator_images),
    }


def cli_pool(seed: int, groups: dict[str, Group], root: Path, out_dir: Path) -> list[Instance]:
    """Every sample_inputs/ pair of matching rank, plus small generated files."""
    samples = root / "sample_inputs"
    pool: list[Instance] = []
    languages = sorted(samples.glob("nfa_*.json")) + sorted(samples.glob("grammar_*.json"))
    group_files = sorted(samples.glob("group_*.json"))
    for lang_path in languages:
        lang = grouplang.cli._load_language(str(lang_path))[1]
        for group_path in group_files:
            backend = load_group(group_path)
            if backend.rank != lang.rank:
                continue
            holds = (lang_path.stem, group_path.stem) not in SAMPLE_FAILS
            files = (str(group_path.relative_to(root)), str(lang_path.relative_to(root)))
            pool.append(Instance(len(pool), Group(group_path.stem, backend), lang, holds, files))

    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    group_files = {}
    for name in ("free2", "abelian2", "s3"):
        path = out_dir / f"group_{name}.json"
        path.write_text(json.dumps(_group_spec(groups[name])) + "\n", encoding="utf-8")
        group_files[name] = str(path.relative_to(root))
    # Small, cheap generated instances fill both classes up to 100.
    specs = [
        ("free2", "path-nfa"),
        ("abelian2", "path-nfa"),
        ("s3", "path-nfa"),
        ("s3", "chain-grammar"),
        ("free2", "flower-grammar"),
        ("abelian2", "flower-grammar"),
    ]
    holds_needed = 100 - sum(inst.holds for inst in pool)
    fails_needed = 100 - sum(not inst.holds for inst in pool)
    for k in range(max(holds_needed, fails_needed)):
        name, kind = specs[k % len(specs)]
        shape = {"loops": 1} if kind == "flower-grammar" else {}
        family = instance_family(rng, groups[name], kind, 4 + k % 5, [BREAKS[k % len(BREAKS)]], **shape)
        for lang, holds in family:
            if (holds_needed if holds else fails_needed) <= 0:
                continue
            if holds:
                holds_needed -= 1
            else:
                fails_needed -= 1
            path = out_dir / f"lang_{len(pool):03d}.json"
            payload = nfa_to_dict(lang) if isinstance(lang, Nfa) else grammar_to_dict(lang)
            path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
            files = (group_files[name], str(path.relative_to(root)))
            pool.append(Instance(len(pool), groups[name], lang, holds, files))
    rng.shuffle(pool)
    return pool


def build_pool(workload: str, seed: int, root: Path, out_dir: Path) -> list[Instance]:
    groups = make_groups()
    if workload == "regular-closure":
        return regular_pool(seed, groups)
    if workload == "linear-closure":
        return linear_pool(seed, groups)
    if workload == "oracle-crosscheck":
        return oracle_pool(seed, groups)
    return cli_pool(seed, groups, root, out_dir)
