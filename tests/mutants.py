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
shrinking: a failing example kills a mutant, whatever its size.  A mutant
must make those files fail; an expected survivor, an equivalent mutant,
must leave them passing.  The old text must occur exactly once: when a
refactor moves it, the script stops and the list must be updated.  The
exit status is 0 when every mutant was killed and every survivor lived.

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
        "elements.setdefault(label, wit)",
        "elements[label] = wit",
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
    # The skip rule of ``read_row``: the steps into cells no later step reads.
    Mutant(
        "skip-drops-diagonal",
        "regular.py",
        "steps = [(j, p) for j, p in row_k if p > at_k or j == i]",
        "steps = [(j, p) for j, p in row_k if p > at_k]",
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
        "steps = [(j, p) for j, p in row_k if p > at_k or j == i]",
        "steps = [(j, p) for j, p in row_k if at_k < p < len(useful) - 1 or j == i]",
        LINEAR,
    ),
    # The linear cycle scan tests only the cycle cells pivot k can change.
    Mutant(
        "scan-filters-on-pivot-only",
        "linear.py",
        "if not cycles or k is not None and not (mat.cell(i, k) and mat.cell(k, i)):",
        "if not cycles or k is not None and i != k:",
        LINEAR,
    ),
    Mutant(
        "scan-filters-on-left-only",
        "linear.py",
        "if not cycles or k is not None and not (mat.cell(i, k) and mat.cell(k, i)):",
        "if not cycles or k is not None and not mat.cell(i, k):",
        LINEAR,
    ),
    # The scan is what stops a failing closure: a completed one proves the inclusion.
    Mutant(
        "scan-off",
        "linear.py",
        "level_scan=None if config.literal_omega10 else _cycle_scan(g, backend),",
        "level_scan=None,",
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
    # The kernels' tie-breaks: of two witnesses of one length, the lexicographically least wins.
    Mutant(
        "union-keeps-left-on-ties",
        "semiring.py",
        "if grown > 0 or (grown == 0 and not wit < old):",
        "if grown >= 0:",
        KERNELS,
    ),
    Mutant(
        "diamond-keeps-first-on-ties",
        "semiring.py",
        "if grown < 0 or (grown == 0 and (wal + wbl, wbr + war) < old):",
        "if grown < 0:",
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
    # The potential: each vertex takes the first value read backwards, over the reached arcs.
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
    Mutant(
        "potential-unreached-arcs",
        "regular.py",
        "        if arc[0] in reached:\n",
        "        if True:\n",
        POTENTIAL,
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
        sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
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
