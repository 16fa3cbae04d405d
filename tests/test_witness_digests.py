"""Exhaustive small corpora: one digest of every verdict pins today's witnesses.

Each sweep checks every language of a small family and hashes the repr
of each verdict (witness, reason, state), in sweep order, into one
SHA-256.  The two reference sweeps also hash each check's ``OpCounters``.

- ``grammars``: every grammar of 1-4 productions from a menu of 42:
  2 nonterminals, rank 1, and parts of at most one letter (124,313
  grammars);
- ``automata``: every 3-state rank-1 automaton with 1-4 arcs and a
  non-empty set of finals, started at state 1 (28,329 automata);
- ``paper automata``: the automata under the paper's check
  (``conftest.paper_check``), the full closure and its start-to-final
  and conjugate tests;
- ``literal grammars``: the grammars under the literal test
  (``literal_linear_inclusion``), the unpaired cycle test after the
  closure.

Tier-1 also judges the two default-check sweeps over Z/2: each verdict
is compared with the brute-force oracle at the counterexample bound, and
each ``Fails`` witness must be a word of the language outside the
identity language.

``witness_digests.json`` holds the digest of each sweep per group.  A
witness-changing fault in a kernel's tie-break, in the potential, in the
exit on the arcs or in a reference path moves a digest, whatever
Hypothesis draws.  Tier-1 sweeps Z/2; the wider groups, and the wide
sweeps, run as a script, which prints its time and, unless it writes,
judges each default-check sweep with ``sweep_judged``::

    PYTHONPATH=src python tests/test_witness_digests.py C3 C3T F1 Z1
    PYTHONPATH=src python tests/test_witness_digests.py --wide

Some groups are a second form of another, and no verdict names an
element, so their sweeps are compared with the other group's digests and
are never written:

- ``C3T`` is Z/3 given as a Cayley table with its elements relabelled
  (identity index 2, the generator's image the residue 1), compared with
  C3: it runs the Cayley-table path of ``diamond`` through the family;
- ``Z1`` is the free abelian group of rank 1, compared with F1 (Z is
  free on one generator): it runs ``FreeAbelian``'s product;
- ``F2M`` is F2 as Sanov's integer matrices and ``S3P`` is S3 as
  permutations (``conftest.SanovFree2`` and ``conftest.PermutationS3``),
  compared with F2 and S3 in the rank-2 wide sweeps.

The wide sweeps, each over its own groups, hash the default checks'
verdicts:

- ``rank-2 automata``: every 3-state rank-2 automaton with 1-3 arcs and
  a non-empty set of finals (54,642 automata), over F2, S3 and Z^2
  (``Z2``), and over F2M and S3P.  Z^2's digest is F2's: a word that is
  e in Z^2 but not in F2 has all four letters, so no automaton with
  three arcs accepts one;
- ``rank-2 grammars``: every grammar of 1-3 productions from a menu of
  110: 2 nonterminals, rank 2 (221,925 grammars), over the same groups;
- ``3-nonterminal grammars``: every grammar of 1-3 productions from a
  menu of 90: 3 nonterminals, rank 1 (121,575 grammars), over C2 and F1.

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

from conftest import PermutationS3, SanovFree2, paper_check, relabelled, symmetric_group_3
from grouplang import (
    Cyclic,
    EnumerationBound,
    Fails,
    FiniteCayley,
    FreeAbelian,
    FreeGroup,
    Holds,
    LinearGrammar,
    Nfa,
    OpCounters,
    OracleHolds,
    Production,
    brute_force_inclusion,
    check_linear_inclusion,
    check_regular_inclusion,
    counterexample_bound_linear,
    counterexample_bound_regular,
    enumerate_grammar_words,
    enumerate_nfa_words,
    literal_linear_inclusion,
)

DIGESTS = Path(__file__).resolve().parent / "witness_digests.json"
Z3_TABLE = FiniteCayley(3, 0, tuple(tuple((a + b) % 3 for b in range(3)) for a in range(3)), (1,))
GROUPS = {
    "C2": Cyclic(2),
    "C3": Cyclic(3),
    "C3T": relabelled(Z3_TABLE, (2, 0, 1)),  # residue r is index (r + 2) % 3
    "F1": FreeGroup(1),
    "F2": FreeGroup(2),
    "F2M": SanovFree2(),
    "S3": symmetric_group_3(),
    "S3P": PermutationS3(),
    "Z1": FreeAbelian(1),
    "Z2": FreeAbelian(2),
}
# A second form of a group, compared with the group's digests and never written.
SAME_DIGESTS = {"C3T": "C3", "F2M": "F2", "S3P": "S3", "Z1": "F1"}


def letters(rank: int) -> tuple[int, ...]:
    return tuple(sign * letter for letter in range(1, rank + 1) for sign in (1, -1))


def menu(nonterminals: int, rank: int) -> tuple[Production, ...]:
    """A -> alpha B beta for every nonterminal B, then the terminal A -> alpha, with parts of at most one letter."""
    parts = ((),) + tuple((letter,) for letter in letters(rank))
    heads = range(1, nonterminals + 1)
    return tuple(
        Production(lhs, alpha, rhs, beta)
        for lhs in heads
        for alpha in parts
        for rhs, beta in [*((rhs, beta) for rhs in heads for beta in parts), (None, ())]
    )


def subsets(items, most: int):
    return itertools.chain.from_iterable(itertools.combinations(items, size) for size in range(1, most + 1))


def grammars(nonterminals: int, rank: int, most: int):
    def sweep():
        for productions in subsets(menu(nonterminals, rank), most):
            yield LinearGrammar(nonterminals=nonterminals, rank=rank, productions=productions)

    return sweep


FINALS = tuple(
    frozenset(finals) for size in (1, 2, 3) for finals in itertools.combinations((1, 2, 3), size)
)


def automata(rank: int, most: int):
    arcs = tuple((src, letter, dst) for src in (1, 2, 3) for letter in letters(rank) for dst in (1, 2, 3))

    def sweep():
        for chosen in subsets(arcs, most):
            transitions = frozenset(chosen)
            for finals in FINALS:
                yield Nfa(states=3, rank=rank, transitions=transitions, finals=finals)

    return sweep


# name -> (languages, check, whether counters are hashed too)
SWEEPS = {
    "grammars": (grammars(2, 1, 4), check_linear_inclusion, False),
    "automata": (automata(1, 4), check_regular_inclusion, False),
    "paper automata": (automata(1, 4), paper_check, True),
    "literal grammars": (grammars(2, 1, 4), literal_linear_inclusion, True),
}
# name -> (languages, check, groups); run by the script's --wide only.
WIDE = {
    "rank-2 automata": (automata(2, 3), check_regular_inclusion, ("F2", "S3", "Z2", "F2M", "S3P")),
    "rank-2 grammars": (grammars(2, 2, 3), check_linear_inclusion, ("F2", "S3", "Z2", "F2M", "S3P")),
    "3-nonterminal grammars": (grammars(3, 1, 3), check_linear_inclusion, ("C2", "F1")),
}


def sweep_digest(languages, check, backend, counted: bool = False) -> tuple[str, int]:
    """The SHA-256 of the verdict reprs (and counters, when ``counted``), one a line, and the number of checks."""
    digest = hashlib.sha256()
    count = 0
    for language in languages():
        if counted:
            counters = OpCounters()
            line = f"{check(language, backend, None, counters)!r} {counters.as_dict()}"
        else:
            line = repr(check(language, backend))
        digest.update(f"{line}\n".encode())
        count += 1
    return digest.hexdigest(), count


def sweep_judged(languages, check, backend) -> tuple[int, int, object]:
    """The number of checks, the number whose verdict the oracle refutes, and the first such language with its verdict.

    A ``Holds`` stands when the oracle finds no failing word up to the
    counterexample bound; a ``Fails`` when the oracle finds one and the
    verdict's witness is a word of the language outside the identity
    language.  Any other verdict is refuted.
    """
    count = refuted = 0
    first = None
    for language in languages():
        verdict = check(language, backend)
        if isinstance(language, Nfa):
            bound, member = counterexample_bound_regular(language), language.accepts
            words = enumerate_nfa_words(language, EnumerationBound(bound))
        else:
            bound, member = counterexample_bound_linear(language), language.generates
            words = enumerate_grammar_words(language, EnumerationBound(bound))
        if isinstance(brute_force_inclusion(words, backend), OracleHolds):
            stands = verdict == Holds()
        else:
            stands = isinstance(verdict, Fails) and member(verdict.witness) and (
                backend.canonicalize(verdict.witness) != backend.identity
            )
        count += 1
        if not stands:
            refuted += 1
            first = first or (language, verdict)
    return count, refuted, first


def test_the_menus_have_their_sizes():
    assert len(menu(2, 1)) == len(set(menu(2, 1))) == 42
    assert len(menu(2, 2)) == 110 and len(menu(3, 1)) == 90
    assert len(letters(2)) == 4 and len(FINALS) == 7


@pytest.mark.parametrize(
    "sweep, size",
    [("grammars", 124_313), ("automata", 28_329), ("paper automata", 28_329), ("literal grammars", 124_313)],
)
def test_every_small_language_keeps_its_witness_over_c2(sweep, size):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[f"{sweep} C2"]
    languages, check, counted = SWEEPS[sweep]
    assert sweep_digest(languages, check, GROUPS["C2"], counted) == (expected, size)


@pytest.mark.parametrize("sweep, size", [("grammars", 124_313), ("automata", 28_329)])
def test_every_small_language_has_the_oracles_verdict_over_c2(sweep, size):
    languages, check, _counted = SWEEPS[sweep]
    assert sweep_judged(languages, check, GROUPS["C2"]) == (size, 0, None)


def main(args: list[str]) -> int:
    write = args[:1] == ["--write"]
    args = args[1:] if write else args
    if args == ["--wide"]:
        runs = [(name, languages, check, False, group) for name, (languages, check, groups) in WIDE.items()
                for group in groups if not (write and group in SAME_DIGESTS)]
    elif args and not set(args) - {"C2", "C3", "C3T", "F1", "Z1"} and not (write and set(args) & set(SAME_DIGESTS)):
        runs = [(name, *SWEEPS[name], group) for group in args for name in SWEEPS]
    else:
        sys.exit(f"usage: {sys.argv[0]} [--write] (GROUP ... | --wide)  (groups: C2 C3 C3T F1 Z1; C3T and Z1 are not written)")
    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    moved = refuted = 0
    for name, languages, check, counted, group in runs:
        started = time.perf_counter()
        digest, count = sweep_digest(languages, check, GROUPS[group], counted)
        key = f"{name} {SAME_DIGESTS.get(group, group)}"
        same = digests.get(key) == digest
        moved += not same
        fate = "written" if write else f"same as {key}" if same else f"MOVED from {key}'s {digests.get(key)}"
        print(f"{name} {group}: {count} checks in {time.perf_counter() - started:.1f} s, {digest} {fate}", flush=True)
        digests[key] = digest
        if not write and check in (check_regular_inclusion, check_linear_inclusion):
            started = time.perf_counter()
            count, wrong, first = sweep_judged(languages, check, GROUPS[group])
            refuted += wrong
            seconds = time.perf_counter() - started
            fate = f"{wrong} REFUTED, the first: {first}" if wrong else "none refuted"
            print(f"{name} {group} judged: {count} checks with the oracle in {seconds:.1f} s, {fate}", flush=True)
    if write:
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    return 1 if moved or refuted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
