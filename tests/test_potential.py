"""The potential test that decides holding languages, against the closure-only checks.

On useful vertices a language lies in the identity language exactly
when every vertex has one group value that every arc respects and the
start's value is the identity.  The checks run that test on the arcs
and return ``Holds`` when it holds, with no label matrix built;
otherwise they build the matrix and the pivot closure names the witness.
So every verdict, and every ``OpCounters`` of a failing language, must
match the closure-only check (``conftest.closure_only``), except that a
holding language the closure capped now holds.  On a failing automaton
with the early exit on, the potential also settles the pivot steps
whose outcome it fixes; those make no semiring call, so there the
default check makes at most the reference's products and unions.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouplang.linear
import grouplang.regular
from conftest import closure_only, paper_closure, symmetric_group_3
from grouplang import (
    Cyclic,
    EnumerationBound,
    Fails,
    FreeAbelian,
    FreeGroup,
    Holds,
    LinearGrammar,
    Nfa,
    OpCounters,
    OracleHolds,
    Production,
    ResourceExceeded,
    RunConfig,
    brute_force_inclusion,
    build_grammar_matrix,
    build_initial_matrix,
    check_linear_inclusion,
    check_regular_inclusion,
    counterexample_bound_linear,
    counterexample_bound_regular,
    enumerate_grammar_words,
    enumerate_nfa_words,
    useful_nonterminals,
    useful_states,
)
from grouplang.cli import main
from grouplang.corpus import random_linear_grammar, random_nfa
from grouplang.groups import load_group
from grouplang.linear import load_grammar
from grouplang.regular import load_nfa, potential
from grouplang.semiring import GroupSet, PairSet
from test_arc_exit import BACKENDS, path_nfa
from test_linear import chain_grammar

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
FG1 = FreeGroup(1)
BACKENDS_BY_RANK = {
    1: (FreeGroup(1), Cyclic(2), Cyclic(3)),
    2: (FreeGroup(2), FreeAbelian(2), symmetric_group_3()),
}


def nfa(states, arcs, finals, start=1):
    return Nfa(
        states=states,
        rank=1,
        transitions=frozenset(arcs),
        start=start,
        finals=frozenset(finals),
    )


def grammar(n, prods, start=1):
    return LinearGrammar(
        nonterminals=n,
        rank=1,
        productions=tuple(
            Production(lhs=p[0], alpha=tuple(p[1]), rhs=p[2], beta=tuple(p[3]))
            if len(p) == 4
            else Production(lhs=p[0], alpha=tuple(p[1]))
            for p in prods
        ),
        start=start,
    )


def checked_potential(language, backend):
    """Whether the potential holds, after checking ``potential``'s contract against references.

    tau has a value for exactly the useful vertices (``useful_states``,
    or ``useful_nonterminals`` and the sink), and every end among them
    has the value e.  A cell is broken exactly when one of its labels
    disagrees with tau in the level-0 matrix built without the label map.
    The label map holds exactly the arc words of the arcs between useful
    vertices, each with ``evaluate`` of it.
    """
    if isinstance(language, Nfa):
        ends, cell_type = language.finals, GroupSet
        useful = useful_states(language)
        mat = build_initial_matrix(language, backend, useful=useful)
    else:
        ends, cell_type = (language.sink,), PairSet
        nonterminals = useful_nonterminals(language)
        mat = build_grammar_matrix(language, backend, useful=nonterminals)
        useful = nonterminals | {language.sink} if nonterminals else nonterminals
    tau, broken, labels = potential(language, ends, backend, cell_type)
    assert set(tau) == useful
    assert all(tau[end] == backend.identity for end in ends if end in tau)
    wrap = cell_type.wrap
    assert broken == {
        (i, j)
        for (i, j), cell in mat.cells.items()
        if any(wrap(backend, c, tau[j]) != tau[i] for c in cell.elements)
    }
    words = {cell_type.arc_witness(left, right) for i, j, left, right in language._arcs if {i, j} <= useful}
    assert set(labels) == words
    assert all(label == cell_type.evaluate(backend, wit) for wit, label in labels.items())
    start = language.start
    return start in tau and not broken and tau[start] == backend.identity


def both_paths(check, language, backend, config=None):
    """(verdict, counters) of the default check and of the closure-only check.

    Under ``PAPER`` both run the regular check on the paper's closure.
    """
    counters, reference_counters = OpCounters(), OpCounters()
    with paper_closure() if config is PAPER else nullcontext():
        verdict = check(language, backend, config, counters)
        with closure_only():
            reference = check(language, backend, config, reference_counters)
    return (verdict, counters), (reference, reference_counters)


def assert_counters_match(check, config, verdict, counters, reference_counters):
    """Counters of a non-holding verdict against the closure-only check's.

    Only the guided closure (a regular ``Fails`` with the early exit on)
    may make fewer calls, still one ``union`` per product.
    """
    guided = check is check_regular_inclusion and config is not PAPER
    if guided and isinstance(verdict, Fails):
        assert counters.products == counters.unions <= reference_counters.unions
        for field in ("stars", "diamonds", "triples"):
            assert getattr(counters, field) == getattr(reference_counters, field)
    else:
        assert counters == reference_counters


def assert_same_as_closure(check, language, backend, config=None):
    (verdict, counters), (reference, reference_counters) = both_paths(
        check, language, backend, config
    )
    assert verdict == reference
    if isinstance(verdict, Holds):
        assert counters == OpCounters()
    else:
        assert_counters_match(check, config, verdict, counters, reference_counters)
    return verdict


# regular: (automaton, backend, potential, verdict)
X, XI = 1, -1
REGULAR_CASES = {
    # 1 -x-> 2 and 1 -X-> 2 give state 2 two access values.
    "two-access-values": (nfa(3, [(1, X, 2), (1, XI, 2), (2, X, 3)], [3]), FG1, False, Fails),
    # In Z/2 x = X, so the two arcs carry one label and xx, Xx both cancel.
    "two-access-words-one-value": (
        nfa(3, [(1, X, 2), (1, XI, 2), (2, X, 3)], [3]), Cyclic(2), True, Holds,
    ),
    # tau(3) = e, tau(2) = X, so 1 -x-> 2 gives tau(1) = e; the arc 1 -X-> 3 breaks it.
    "arc-breaks-tau": (nfa(3, [(1, X, 2), (2, XI, 3), (1, XI, 3)], [3]), FG1, False, Fails),
    # Every arc agrees with tau, but tau(start) = x.
    "start-not-identity": (nfa(2, [(1, X, 2)], [2]), FG1, False, Fails),
    # A final state's value is e, so a loop on it must read the identity.
    "final-with-loop": (nfa(2, [(1, X, 2), (2, XI, 1), (1, X, 1)], [1]), FG1, False, Fails),
    # Arcs into the dead end 4 and out of the unreachable 5 are dropped.
    "non-useful-arcs-ignored": (
        nfa(5, [(1, X, 2), (2, XI, 3), (2, X, 4), (5, X, 1), (5, X, 3)], [3]), FG1, True, Holds,
    ),
    "epsilon-only": (nfa(1, [], [1]), FG1, True, Holds),
}


@pytest.mark.parametrize("case", sorted(REGULAR_CASES))
def test_regular_potential_cases(case):
    a, backend, expected, verdict_type = REGULAR_CASES[case]
    assert checked_potential(a, backend) is expected
    verdict = assert_same_as_closure(check_regular_inclusion, a, backend)
    assert isinstance(verdict, verdict_type)


def test_regular_empty_language_leaves_the_start_without_a_value():
    for a in (nfa(2, [(1, X, 2)], []), nfa(2, [(2, X, 1)], [2])):
        assert a.start not in potential(a, a.finals, FG1, GroupSet)[0]
        assert assert_same_as_closure(check_regular_inclusion, a, FG1) == Holds()


def test_each_vertex_takes_the_first_value_read_backwards():
    # Of two arcs 1 -> 2, the first in arc order (its letter X sorts first) gives tau(1).
    a = nfa(2, [(1, X, 2), (1, XI, 2)], [2])
    assert potential(a, a.finals, FG1, GroupSet)[:2] == ({2: (), 1: (XI,)}, {(1, 2)})
    # The ends are read last one first: final 3 gives tau(1), and the arc into 2 breaks it.
    a = nfa(3, [(1, X, 2), (1, XI, 3)], [2, 3])
    assert potential(a, a.finals, FG1, GroupSet)[:2] == ({2: (), 3: (), 1: (XI,)}, {(1, 2)})


# linear: (grammar, backend, potential, verdict)
LINEAR_CASES = {
    # S -> x A X | X A x, A -> eps: two contexts around A, one value each.
    "two-contexts-one-value": (
        grammar(2, [(1, [X], 2, [XI]), (1, [XI], 2, [X]), (2, [])]), FG1, True, Holds,
    ),
    # S -> x A | X A, A -> x: A has two access values.
    "two-access-values": (
        grammar(2, [(1, [X], 2, []), (1, [XI], 2, []), (2, [X])]), FG1, False, Fails,
    ),
    # S -> x S X | x S | eps: the second production breaks tau(S) = e.
    "production-breaks-tau": (
        grammar(1, [(1, [X], 1, [XI]), (1, [X], 1, []), (1, [])]), FG1, False, Fails,
    ),
    # S -> x A, A -> eps: every production agrees with tau, but tau(S) = x.
    "start-not-identity": (grammar(2, [(1, [X], 2, []), (2, [])]), FG1, False, Fails),
    # S -> x A X, A -> eps | x A: A ends derivations, so its loop must cancel.
    "final-with-loop": (
        grammar(2, [(1, [X], 2, [XI]), (2, []), (2, [X], 2, [])]), FG1, False, Fails,
    ),
    # B never terminates and C is unreachable; their productions are dropped.
    "non-useful-productions-ignored": (
        grammar(4, [(1, [X], 2, [XI]), (2, []), (1, [X], 3, []), (3, [X], 3, []), (4, [X])]),
        FG1,
        True,
        Holds,
    ),
    "epsilon-only": (grammar(1, [(1, [])]), Cyclic(2), True, Holds),
}


@pytest.mark.parametrize("case", sorted(LINEAR_CASES))
def test_linear_potential_cases(case):
    g, backend, expected, verdict_type = LINEAR_CASES[case]
    assert checked_potential(g, backend) is expected
    verdict = assert_same_as_closure(check_linear_inclusion, g, backend)
    assert isinstance(verdict, verdict_type)


def test_linear_empty_language_leaves_the_start_without_a_value():
    for g in (grammar(1, [(1, [X], 1, [])]), grammar(1, [])):
        assert g.start not in potential(g, (g.sink,), FG1, PairSet)[0]
        assert assert_same_as_closure(check_linear_inclusion, g, FG1) == Holds()


def test_literal_mode_keeps_the_closure_alone():
    # S -> x S X | xx S XX | eps holds.  The potential now decides it, so
    # the paired closure test (criterion 5) is checked here on its own;
    # the unpaired test still fires on it.
    g = grammar(1, [(1, [X], 1, [XI]), (1, [X, X], 1, [XI, XI]), (1, [])])
    with closure_only():
        assert check_linear_inclusion(g, FG1) == Holds()
    config = RunConfig(literal_omega10=True)
    (verdict, counters), (reference, reference_counters) = both_paths(
        check_linear_inclusion, g, FG1, config
    )
    assert verdict == reference and verdict.spurious
    assert counters == reference_counters != OpCounters()


def _oracle_holds(language, backend) -> bool:
    if isinstance(language, Nfa):
        bound = EnumerationBound(counterexample_bound_regular(language), max_words=200_000)
        words = enumerate_nfa_words(language, bound)
    else:
        bound = EnumerationBound(counterexample_bound_linear(language), max_words=200_000)
        words = enumerate_grammar_words(language, bound)
    return isinstance(brute_force_inclusion(words, backend), OracleHolds)


# Without the early exit, or in literal mode, the closure can grow its
# sets to thousands of elements; a cap of 64 keeps each example fast.
# ``both_paths`` runs the regular check on the paper's closure under
# ``PAPER``, told apart by identity.
PAPER = RunConfig(set_cap=64)
CONFIGS = (
    RunConfig(),
    PAPER,
    RunConfig(literal_omega10=True, set_cap=64),
    RunConfig(set_cap=2),
    RunConfig(set_cap=4),
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    linear=st.booleans(),
    paired=st.booleans(),
    rank=st.sampled_from((1, 2)),
    pick=st.integers(0, 2),
    config=st.sampled_from(CONFIGS),
)
def test_default_verdict_matches_the_closure(seed, linear, paired, rank, pick, config):
    rng = random.Random(seed)
    backend = BACKENDS_BY_RANK[rank][pick]
    if linear:
        language = random_linear_grammar(rng, rank=rank, mirrored=paired)
        check = check_linear_inclusion
    else:
        language = random_nfa(rng, rank=rank, density=0.3, inverse_paired=paired)
        check = check_regular_inclusion
    (verdict, counters), (reference, reference_counters) = both_paths(
        check, language, backend, config
    )
    if isinstance(reference, ResourceExceeded) and verdict != reference:
        assert verdict == Holds()
        assert _oracle_holds(language, backend)
    else:
        assert verdict == reference
    # The cap bounds only what the closure computes: at every cap, a
    # language the potential finds holding is decided before the closure.
    potential = checked_potential(language, backend)
    if potential and not config.literal_omega10:
        assert verdict == Holds()
    # Literal mode only concerns the linear check, which the closure then decides alone.
    if isinstance(verdict, Holds) and not (linear and config.literal_omega10):
        assert counters == OpCounters()
    else:
        assert_counters_match(check, config, verdict, counters, reference_counters)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pick=st.integers(0, len(BACKENDS) - 1),
    linear=st.booleans(),
    paired=st.booleans(),
)
def test_potential_contract_on_every_backend(seed, pick, linear, paired):
    rng = random.Random(seed)
    backend = BACKENDS[pick]
    if linear:
        language = random_linear_grammar(rng, rank=backend.rank, mirrored=paired)
        holds = checked_potential(language, backend)
        empty = language.start not in useful_nonterminals(language)
        check = check_linear_inclusion
    else:
        density = rng.choice((0.1, 0.2, 0.3, 0.5))
        language = random_nfa(rng, rank=backend.rank, density=density, inverse_paired=paired)
        holds = checked_potential(language, backend)
        empty = not language.finals & useful_states(language)
        check = check_regular_inclusion
    # The potential decides every non-empty language as the closure does.
    with closure_only():
        reference = check(language, backend)
    if not isinstance(reference, ResourceExceeded):
        assert holds == (isinstance(reference, Holds) and not empty)


def test_closure_only_calls_every_useful_cell_broken():
    # The dead end 4 and the unreachable 5 stay out, as in the real sweep.
    a = REGULAR_CASES["non-useful-arcs-ignored"][0]
    with closure_only():
        tau, broken, labels = grouplang.regular.potential(a, a.finals, FG1, GroupSet)
    assert tau == {1: None, 2: None, 3: None} and labels == {}
    assert broken == {(1, 2), (2, 3)}


def _check(language, backend, config=None):
    check = check_regular_inclusion if isinstance(language, Nfa) else check_linear_inclusion
    return check(language, backend, config)


def _refuse(*args, **kwargs):
    raise AssertionError("a holding check built a label matrix")


def _holds_without_a_matrix(language, backend, config=None) -> bool:
    """Whether ``language`` holds; if so, the check must also hold with both matrix builders refusing."""
    if _check(language, backend, config) != Holds():
        return False
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(grouplang.regular, "build_initial_matrix", _refuse)
        patched.setattr(grouplang.linear, "build_grammar_matrix", _refuse)
        assert _check(language, backend, config) == Holds()
    return True


def test_holding_sample_pairs_build_no_matrix():
    held = 0
    languages = [load_nfa(path) for path in sorted(SAMPLES.glob("nfa_*.json"))]
    languages += [load_grammar(path) for path in sorted(SAMPLES.glob("grammar_*.json"))]
    for language in languages:
        for group_path in sorted(SAMPLES.glob("group_*.json")):
            backend = load_group(group_path)
            if backend.rank == language.rank:
                held += _holds_without_a_matrix(language, backend)
    assert held == 14


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pick=st.integers(0, len(BACKENDS) - 1),
    shape=st.sampled_from(("path", "chain", "random-nfa", "random-grammar")),
    cap=st.sampled_from((None, 1)),
)
def test_holding_languages_build_no_matrix(seed, pick, shape, cap):
    # Paths without their loop and unbroken chains always hold; a random
    # language counts when it holds.  A cap of 1 binds no holding check.
    rng = random.Random(seed)
    backend = BACKENDS[pick]
    if shape == "path":
        a = path_nfa(rng, backend, rng.randint(1, 12), 1)
        language = Nfa(
            states=a.states,
            rank=a.rank,
            transitions=frozenset(arc for arc in a.transitions if arc[0] != arc[2]),
            finals=a.finals,
        )
    elif shape == "chain":
        language = chain_grammar(rng, backend, rng.randint(2, 8))
    elif shape == "random-nfa":
        language = random_nfa(rng, rank=backend.rank, density=0.3, inverse_paired=True)
    else:
        language = random_linear_grammar(rng, rank=backend.rank, mirrored=True)
    config = None if cap is None else RunConfig(set_cap=cap)
    held = _holds_without_a_matrix(language, backend, config)
    assert held or shape.startswith("random")


# ``canonicalize`` calls of ``check`` on two failing sample pairs: each
# distinct arc word is evaluated once, then the witness is tested.
PINNED_CANONICALIZE = {
    ("group_cyclic2.json", "nfa_star.json"): 2,
    ("group_cyclic3.json", "grammar_squares.json"): 6,
}


@pytest.mark.parametrize("pair", sorted(PINNED_CANONICALIZE))
def test_check_canonicalize_calls_are_pinned(monkeypatch, capsys, pair):
    calls = []
    original = Cyclic.canonicalize

    def counted(self, word):
        calls.append(word)
        return original(self, word)

    monkeypatch.setattr(Cyclic, "canonicalize", counted)
    assert main(["check", *(str(SAMPLES / name) for name in pair)]) == 1
    capsys.readouterr()
    assert len(calls) == PINNED_CANONICALIZE[pair]
