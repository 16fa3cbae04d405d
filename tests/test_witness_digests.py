"""Exhaustive small corpora: one digest of every verdict pins today's witnesses.

Two sweeps check every language of a small family and hash the repr of
each verdict (witness, reason, state), in sweep order, into one SHA-256:

- every grammar of 1-4 productions from a menu of 42: 2 nonterminals,
  rank 1, and parts of at most one letter (124,313 grammars);
- every 3-state rank-1 automaton with 1-4 arcs and a non-empty set of
  finals, started at state 1 (28,329 automata).

``witness_digests.json`` holds the digest of each sweep per group.  A
witness-changing fault in a kernel's tie-break, in the potential or in
the exit on the arcs moves a digest, whatever Hypothesis draws.  Tier-1
sweeps Z/2; the wider groups run as a script, which prints its time::

    PYTHONPATH=src python tests/test_witness_digests.py C3 F1

A change that moves a witness on purpose names the witnesses that moved
and says why, and rewrites the file with ``--write`` before the names.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import pytest

from grouplang import (
    Cyclic,
    FreeGroup,
    LinearGrammar,
    Nfa,
    Production,
    check_linear_inclusion,
    check_regular_inclusion,
)

DIGESTS = Path(__file__).resolve().parent / "witness_digests.json"
GROUPS = {"C2": Cyclic(2), "C3": Cyclic(3), "F1": FreeGroup(1)}
PARTS = ((), (1,), (-1,))

# A -> alpha B beta for both nonterminals, then the terminal A -> alpha.
MENU = tuple(
    Production(lhs, alpha, rhs, beta)
    for lhs in (1, 2)
    for alpha in PARTS
    for rhs, beta in [*((rhs, beta) for rhs in (1, 2) for beta in PARTS), (None, ())]
)
ARCS = tuple((src, letter, dst) for src in (1, 2, 3) for letter in (1, -1) for dst in (1, 2, 3))
FINALS = tuple(
    frozenset(finals) for size in (1, 2, 3) for finals in itertools.combinations((1, 2, 3), size)
)


def subsets(menu, most: int):
    return itertools.chain.from_iterable(itertools.combinations(menu, size) for size in range(1, most + 1))


def grammars():
    for productions in subsets(MENU, 4):
        yield LinearGrammar(nonterminals=2, rank=1, productions=productions)


def automata():
    for arcs in subsets(ARCS, 4):
        transitions = frozenset(arcs)
        for finals in FINALS:
            yield Nfa(states=3, rank=1, transitions=transitions, finals=finals)


SWEEPS = {"grammars": (grammars, check_linear_inclusion), "automata": (automata, check_regular_inclusion)}


def sweep_digest(sweep: str, group: str) -> tuple[str, int]:
    """The SHA-256 of the sweep's verdict reprs over ``group``, one a line, and the number of checks."""
    languages, check = SWEEPS[sweep]
    backend = GROUPS[group]
    digest = hashlib.sha256()
    count = 0
    for language in languages():
        digest.update(f"{check(language, backend)!r}\n".encode())
        count += 1
    return digest.hexdigest(), count


def test_the_menus_have_their_sizes():
    assert len(MENU) == len(set(MENU)) == 42
    assert len(ARCS) == 18 and len(FINALS) == 7


@pytest.mark.parametrize("sweep, size", [("grammars", 124_313), ("automata", 28_329)])
def test_every_small_language_keeps_its_witness_over_c2(sweep, size):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[f"{sweep} C2"]
    assert sweep_digest(sweep, "C2") == (expected, size)


def main(args: list[str]) -> int:
    write = args[:1] == ["--write"]
    groups = args[1:] if write else args
    if not groups or set(groups) - set(GROUPS):
        sys.exit(f"usage: {sys.argv[0]} [--write] GROUP ...  (groups: {' '.join(GROUPS)})")
    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    moved = 0
    for group in groups:
        for sweep in SWEEPS:
            started = time.perf_counter()
            digest, count = sweep_digest(sweep, group)
            key = f"{sweep} {group}"
            same = digests.get(key) == digest
            moved += not same
            fate = "written" if write else "same" if same else f"MOVED from {digests.get(key)}"
            print(f"{key}: {count} checks in {time.perf_counter() - started:.1f} s, {digest} {fate}", flush=True)
            digests[key] = digest
    if write:
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
