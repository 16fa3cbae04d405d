"""Hand-made mutants of the checks' fast paths and kernels, each of which its tests must kill.

Run from anywhere, with pytest and hypothesis installed::

    python tests/mutants.py            # every mutant and every expected survivor
    python tests/mutants.py NAME ...   # only the named ones

Each mutant is one exact text replacement in a file under ``src/``.  The
script first runs all the named test files on an unmutated copy of
``src/``, which must pass.  Then, per mutant, it copies ``src/`` to a
temporary directory, applies the replacement and runs the mutant's test
files on that copy with ``--hypothesis-seed=0`` and a fresh Hypothesis
database, so a mutant's fate does not depend on earlier draws, and with
the ``mutants`` Hypothesis profile of ``tests/conftest.py``, which skips
shrinking: a failing example kills a mutant, whatever its size.  Each run
stops at its first failing test (``-x``), so a killed mutant's report
names that one test.  A mutant must make those files fail; an expected
survivor, an equivalent mutant, must leave them passing.  The old text
must occur exactly once: when a refactor moves it, the script stops and
the list must be updated.  The exit status is 0 when every mutant was
killed and every survivor lived.

A change to a fast path adds its mutants to ``MUTANTS``.  The file has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # a mutant that makes a test loop counts as killed once this passes


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/grouplang
    old: str
    new: str
    tests: tuple[str, ...]  # relative to tests/


ARC_EXIT = ("test_arc_exit.py",)
ORACLE = ("test_oracle.py",)
LINEAR = ("test_linear.py",)
DIGESTS = ("test_witness_digests.py",)
KERNELS = ("test_semiring.py",) + DIGESTS
POTENTIAL = ("test_potential.py",) + DIGESTS

MUTANTS = (
    # The direct exit: the closure's first step that reads a broken cell, found on the arcs.
    Mutant(
        "exit-no-broken-target",
        "regular.py",
        "steps = row_k.intersection(bad[i]).union(bad[k])  # a broken K[i][j] or K[k][j]",
        "steps = set(bad[k])",
        ARC_EXIT,
    ),
    Mutant(
        "exit-no-broken-left",
        "regular.py",
        "for i in sorted(rows.union(i for i, cols in enumerate(bad) if k in cols)):",
        "for i in sorted(rows):",
        ARC_EXIT,
    ),
    Mutant(
        "exit-semiring-into-empty-cell",
        "regular.py",
        "if not target or backend._mul(x, y) in target:",
        "if target and backend._mul(x, y) in target:",
        ARC_EXIT,
    ),
    Mutant(
        "exit-semiring-when-target-keeps-label",
        "regular.py",
        "if not target or backend._mul(x, y) in target:",
        "if not target:",
        ARC_EXIT,
    ),
    Mutant(
        "exit-skips-counters",
        "regular.py",
        "            counters.products += multiplied\n            counters.unions += unions\n",
        "            pass\n",
        ARC_EXIT,
    ),
    Mutant(
        "exit-keeps-last-broken-arc",
        "regular.py",
        "elements.setdefault(labels[wit], wit)",
        "elements[labels[wit]] = wit",
        ARC_EXIT + DIGESTS,
    ),
    # The first step's pivot: the least of (a), (b) and each broken row's least pivot (c).
    Mutant(
        "sweep-drops-a",
        "regular.py",
        "k = min(a + b, default=n)",
        "k = min(b, default=n)",
        ARC_EXIT,
    ),
    Mutant(
        "sweep-drops-b",
        "regular.py",
        "k = min(a + b, default=n)",
        "k = min(a, default=n)",
        ARC_EXIT,
    ),
    Mutant(
        "sweep-skips-vertices-below-k",
        "regular.py",
        "                    if y < p:\n                        todo.append(y)\n",
        "",
        ARC_EXIT,
    ),
    Mutant(
        "pivot-ignores-bound",
        "regular.py",
        "for p in range(min(seen, default=k), k):",
        "for p in range(min(seen, default=k), len(known)):",
        ARC_EXIT,
    ),
    Mutant(
        "pivot-expands-later-vertices-at-once",
        "regular.py",
        "                    if y < p:\n                        todo.append(y)\n",
        "                    todo.append(y)\n",
        ARC_EXIT,
    ),
    Mutant(
        "pivot-forgets-row-columns",
        "regular.py",
        "    seen = set(known[i])\n",
        "    seen = set()\n",
        ARC_EXIT,
    ),
    Mutant(
        "sweep-searches-pass-k",
        "regular.py",
        "                if y < bound:\n                    todo.append(y)\n    return seen\n",
        "                if y != bound:\n                    todo.append(y)\n    return seen\n",
        ARC_EXIT,
    ),
    # The start-row read, when no step reads a broken cell.
    Mutant(
        "read-off",
        "regular.py",
        "    if step is None:\n        start = a.start\n",
        "    if step is None:\n        return None\n",
        ARC_EXIT,
    ),
    Mutant(
        "read-broken-start-cell-as-walk",
        "regular.py",
        "            if (start, t) in bad_cells:\n"
        "                [(label, wit)] = bad_cells[start, t].items()\n"
        "                if label != backend.identity:\n"
        "                    return wit\n"
        "            elif at[t] in reach",
        "            if at[t] in reach",
        ARC_EXIT,
    ),
    Mutant(
        "read-accepts-empty-walk",
        "regular.py",
        "reach = _ends_before(known, at[start], len(order))",
        "reach = _ends_before(known, at[start], len(order)) | {at[start]}",
        ARC_EXIT,
    ),
    Mutant(
        "read-finals-unsorted",
        "regular.py",
        "for t in sorted(a.finals.intersection(tau)):",
        "for t in a.finals.intersection(tau):",
        ARC_EXIT,
    ),
    Mutant(
        "read-walk-value-unchecked",
        "regular.py",
        "elif at[t] in reach and tau[start] != backend.identity:",
        "elif at[t] in reach:",
        ARC_EXIT,
    ),
    # The automata's least words: groups of one word leave the queue in shortlex order.
    Mutant(
        "least-word-letters-reversed",
        "regular.py",
        "            arcs = out.get(vertex, ())\n",
        "            arcs = out.get(vertex, ())[::-1]\n",
        ("test_regular.py",),
    ),
    Mutant(
        "least-word-source-not-a-target",
        "regular.py",
        "    if source in targets:\n        return ()\n",
        "",
        ("test_regular.py",),
    ),
    Mutant(
        "least-word-group-per-vertex",
        "regular.py",
        "                if letter == last:  # the word of the group just started\n",
        "                if False:\n",
        ("test_regular.py",),
    ),
    # The skip rule of ``read_row``: the steps into cells no later step reads.
    Mutant(
        "skip-drops-diagonal",
        "regular.py",
        "steps = [(j, p, cell) for j, p, cell in row_k if p > at_k or j == i]",
        "steps = [(j, p, cell) for j, p, cell in row_k if p > at_k]",
        LINEAR,
    ),
    Mutant(
        "skip-drops-start-row",
        "regular.py",
        "if read_row is not None and at_i < at_k and i != read_row:",
        "if read_row is not None and at_i < at_k:",
        LINEAR,
    ),
    Mutant(
        "skip-row-k-too",
        "regular.py",
        "if read_row is not None and at_i < at_k and i != read_row:",
        "if read_row is not None and at_i <= at_k and i != read_row:",
        LINEAR,
    ),
    Mutant(
        "skip-last-column-too",
        "regular.py",
        "steps = [(j, p, cell) for j, p, cell in row_k if p > at_k or j == i]",
        "steps = [(j, p, cell) for j, p, cell in row_k if at_k < p < len(useful) - 1 or j == i]",
        LINEAR,
    ),
    # Scan-first pivots: the early steps run before the scan, the rest only if it passes.
    Mutant(
        "deferred-never-run-on-exit",
        "regular.py",
        "if not later or not _could_cap(later, cells, k, cap):",
        "if True:",
        LINEAR,
    ),
    Mutant(
        "deferred-bound-ignores-target",
        "regular.py",
        "if len(cells.get((i, j), ())) + len(left) * size > cap:",
        "if len(left) * size > cap:",
        LINEAR,
    ),
    Mutant(
        "deferred-bound-ignores-pending-row-k",
        "regular.py",
        "pending.get(j) or len(cells[k, j])",
        "len(cells[k, j])",
        LINEAR,
    ),
    Mutant(
        "deferred-rows-before-k-read-new-row-k",
        "regular.py",
        "later.append((i, j, left, None if after else right))",
        "later.append((i, j, left, None))",
        LINEAR,
    ),
    Mutant(
        "watched-step-deferred",
        "regular.py",
        "early = (i, watch_col) if i == watch_row else (i,)",
        "early = (i,)",
        LINEAR,
    ),
    Mutant(
        "row-k-step-for-later-diagonal-deferred",
        "regular.py",
        "first = {k}.union(j for j, p, _cell in row_k if p > at_k and get((j, k), empty).elements)",
        "first = {k}",
        LINEAR,
    ),
    # The linear cycle scan tests only the cycle cells pivot k can change.
    Mutant(
        "scan-filters-on-pivot-only",
        "linear.py",
        "if not cycles or k is not None and not (get((i, k)) and get((k, i))):",
        "if not cycles or k is not None and i != k:",
        LINEAR,
    ),
    Mutant(
        "scan-filters-on-left-only",
        "linear.py",
        "if not cycles or k is not None and not (get((i, k)) and get((k, i))):",
        "if not cycles or k is not None and not get((i, k)):",
        LINEAR,
    ),
    # The scan is what stops a failing closure: a completed one proves the inclusion.
    Mutant(
        "scan-off",
        "linear.py",
        "_closure_verdict(g, backend, mat, config, counters, _cycle_scan(g, backend))",
        "_closure_verdict(g, backend, mat, config, counters, None)",
        LINEAR,
    ),
    # The tail's value must read its right part last; only a tail with
    # both parts over a non-abelian group tells the orders apart.
    Mutant(
        "scan-tail-right-part-first",
        "linear.py",
        "tails[i] = (backend.canonicalize(tail), tail)",
        "tails[i] = (backend.canonicalize(tail_right + tail_left), tail)",
        LINEAR,
    ),
    # The cycle test wraps each pair (u, w) around the tail's value v as u v w, and names the least failing pair.
    Mutant(
        "wrapped-failure-parts-swapped",
        "linear.py",
        "mul(mul(u, v), w)",
        "mul(mul(w, v), u)",
        LINEAR,
    ),
    Mutant(
        "wrapped-failure-greatest",
        "linear.py",
        "return min(bad, key=PairSet.witness_key, default=None)",
        "return max(bad, key=PairSet.witness_key, default=None)",
        LINEAR,
    ),
    # The tracer times ``diamond`` through ``grouplang.linear.diamond``; a
    # private alias of the same function escapes its span.
    Mutant(
        "span-private-diamond",
        "linear.py",
        "        mat,\n        diamond,\n",
        "        mat,\n        proj_left.__globals__['diamond'],\n",
        ("test_bench_hooks.py",),
    ),
    # The grammar's sink is the pair matrix's last vertex, and its column is read.
    Mutant(
        "grammar-drops-sink",
        "linear.py",
        "build_matrix(backend, g._arcs, PairSet, keep | {g.sink}, labels)",
        "build_matrix(backend, g._arcs, PairSet, keep, labels)",
        LINEAR,
    ),
    # A fallback closure that completes leaves only its start row to test.
    Mutant(
        "fallback-skips-start-row",
        "regular.py",
        "        bad = mat.cell(a.start, t).best_non_identity()\n        if bad is not None:\n",
        "        bad = mat.cell(a.start, t).best_non_identity()\n        if False:\n",
        ("test_regular.py",) + DIGESTS,
    ),
    # The literal test: the CLI's flag reaches it, and it runs the unpaired triples and no scan.
    Mutant(
        "cli-literal-dispatch-off",
        "cli.py",
        "    elif args.literal_omega10:\n        verdict = literal_linear_inclusion(language, backend, config, counters)\n",
        "",
        ("test_golden_check.py",),
    ),
    Mutant(
        "literal-skips-triples",
        "linear.py",
        "    if verdict != Holds():\n        return verdict\n",
        "    return verdict\n",
        LINEAR,
    ),
    Mutant(
        "literal-runs-the-scan",
        "linear.py",
        "verdict = _closure_verdict(g, backend, mat, config, counters, None)",
        "verdict = _closure_verdict(g, backend, mat, config, counters, _cycle_scan(g, backend))",
        DIGESTS,
    ),
    # The paper's conjugate test, which the tests' reference check runs, names the least exit.
    Mutant(
        "paper-exit-witness-greatest",
        "regular.py",
        "    return min(exits, key=GroupSet.witness_key)",
        "    return max(exits, key=GroupSet.witness_key)",
        DIGESTS,
    ),
    # The kernels' tie-breaks: of two witnesses of one length, the lexicographically least wins.
    Mutant(
        "union-keeps-left-on-ties",
        "semiring.py",
        "if grown > 0 or (grown == 0 and not wit < old):",
        "if grown >= 0:",
        KERNELS,
    ),
    Mutant(
        "diamond-table-keeps-first-on-ties",
        "semiring.py",
        "\n                    if grown < 0 or (grown == 0 and (wal + wbl, wbr + war) < old):\n",
        "\n                    if grown < 0:\n",
        KERNELS,
    ),
    Mutant(
        "diamond-keeps-first-on-ties",
        "semiring.py",
        "\n                if grown < 0 or (grown == 0 and (wal + wbl, wbr + war) < old):\n",
        "\n                if grown < 0:\n",
        KERNELS,
    ),
    # Over a Cayley table, the right part of (a, b) . (c, d) is d b, read as table[d][b].
    Mutant(
        "diamond-table-right-operands-swapped",
        "semiring.py",
        "table[br][ar]",
        "table[ar][br]",
        KERNELS,
    ),
    Mutant(
        "merge-keeps-first-on-ties",
        "semiring.py",
        "if old is None or (len(wit), wit) < (len(old), old):",
        "if old is None or len(wit) < len(old):",
        KERNELS,
    ),
    Mutant(
        "pair-key-right-part-first",
        "semiring.py",
        "return (len(wl) + len(wr), wl, wr)",
        "return (len(wl) + len(wr), wr, wl)",
        KERNELS,
    ),
    Mutant(
        "best-by-length-only",
        "semiring.py",
        "return min(kept, key=lambda kv: key(kv[1]), default=None)",
        "return min(kept, key=lambda kv: len(kv[1]), default=None)",
        KERNELS,
    ),
    # The potential: each vertex takes the first value read backwards, over every arc.
    # The order moves tau and the broken cells, but no verdict: the exit on the arcs
    # reproduces the closure, which tau does not steer.  So a test of ``potential`` kills them.
    Mutant(
        "potential-reads-breadth-first",
        "regular.py",
        "        j = todo.pop()\n",
        "        j = todo.pop(0)\n",
        POTENTIAL,
    ),
    Mutant(
        "potential-reads-arcs-backwards",
        "regular.py",
        "for i, _j, left, right in into.get(j, ()):",
        "for i, _j, left, right in reversed(into.get(j, ())):",
        POTENTIAL,
    ),
    # It returns at once when it holds on every arc, and otherwise restricts tau and
    # ``broken`` to the vertices the start reaches: none with a value when the start has none.
    Mutant(
        "potential-empty-unrestricted",
        "regular.py",
        "        return {}, set(), labels  # the language is empty\n",
        "        return tau, broken, labels  # the language is empty\n",
        POTENTIAL,
    ),
    Mutant(
        "potential-violation-unrestricted",
        "regular.py",
        "    tau = {v: value for v, value in tau.items() if v in reached}\n"
        "    return tau, {cell for cell in broken if cell[0] in reached}, labels\n",
        "    return tau, broken, labels\n",
        POTENTIAL,
    ),
    Mutant(
        "potential-early-return-ignores-broken",
        "regular.py",
        "    if not broken and tau[language.start] == backend.identity:\n",
        "    if tau[language.start] == backend.identity:\n",
        POTENTIAL,
    ),
    Mutant(
        "potential-early-return-skips-start-test",
        "regular.py",
        "    if not broken and tau[language.start] == backend.identity:\n",
        "    if not broken:\n",
        POTENTIAL,
    ),
    # The grammar enumerator: letter-free arcs fold into the lettered ones, and
    # W(v, n) is made while the fewest letters to v plus n is within the bound.
    Mutant(
        "enumerator-drops-letter-free-fold",
        "oracle.py",
        "    todo = list(free_into)\n",
        "    todo = []\n",
        ORACLE,
    ),
    Mutant(
        "enumerator-prune-off-by-one",
        "oracle.py",
        "                        if n <= slack:\n",
        "                        if n < slack:\n",
        ORACLE,
    ),
)

# Equivalent mutants: no test can kill them, since no observable result changes.
SURVIVORS = (
    # The least walks before pivot k may also pass through k: a walk
    # through K[k][k] is strictly longer, so no cell the search reads changes.
    Mutant(
        "exit-walks-through-pivot-k",
        "regular.py",
        "interior = {v: arcs[v] for v in order[:pk] if v in arcs}",
        "interior = {v: arcs[v] for v in order[: pk + 1] if v in arcs}",
        ARC_EXIT,
    ),
)


def mutated_copy(into: Path, mutant: Mutant | None) -> Path:
    """Copy ``src/`` under ``into`` and apply ``mutant``; return the copy's import root."""
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / "grouplang" / mutant.file
        text = path.read_text()
        found = text.count(mutant.old)
        if found != 1:
            sys.exit(
                f"mutant {mutant.name}: the old text occurs {found} times in {mutant.file}, not once; "
                "update its anchor:\n" + mutant.old
            )
        path.write_text(text.replace(mutant.old, mutant.new))
    return src


def run_tests(src: Path, cwd: Path, tests) -> tuple[bool, list[str]]:
    """Run the test files on the package under ``src``; return (passed, failed test ids)."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    probe = subprocess.run(
        [sys.executable, "-c", "import grouplang; print(grouplang.__file__)"],
        env=env, cwd=cwd, capture_output=True, text=True, check=True,
    )
    if not Path(probe.stdout.strip()).is_relative_to(src):
        sys.exit(f"the tests would import {probe.stdout.strip()}, not the copy under {src}")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", "--hypothesis-profile=mutants", f"--rootdir={ROOT}",
        *(str(ROOT / "tests" / name) for name in tests),
    ]
    try:
        # The working directory holds the Hypothesis database, fresh per run.
        done = subprocess.run(command, env=env, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, [f"(timed out after {TIMEOUT_S} s)"]
    failed = [
        line.split()[1].rpartition("/")[2]  # test_file.py::test_name
        for line in done.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if done.returncode not in (0, 1):
        failed.append(f"(pytest exit {done.returncode})")
    return done.returncode == 0, failed


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS + SURVIVORS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    bad = 0
    with tempfile.TemporaryDirectory(prefix="grouplang-mutants-") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        tests = sorted({name for m in chosen for name in m.tests})
        passed, failed = run_tests(mutated_copy(base, None), base, tests)
        if not passed:
            sys.exit(f"the unmutated package fails {', '.join(tests)}: {failed}")
        for n, mutant in enumerate(chosen):
            work = Path(tmp) / f"m{n}"
            work.mkdir()
            started = time.perf_counter()
            passed, failed = run_tests(mutated_copy(work, mutant), work, mutant.tests)
            expected = mutant in SURVIVORS
            ok = passed == expected
            bad += not ok
            fate = "survived" if passed else f"killed by {len(failed)}: {' '.join(failed)}"
            note = "" if ok else ("  <-- listed as equivalent" if expected else "  <-- NOT KILLED")
            print(f"{mutant.name}: {fate} ({time.perf_counter() - started:.1f} s){note}", flush=True)
            shutil.rmtree(work)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants met their expectation")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
