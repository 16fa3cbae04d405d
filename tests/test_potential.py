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
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouplang.linear
import grouplang.regular
from conftest import closure_only, potential_replaced, reach_first_potential, symmetric_group_3
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
    literal_linear_inclusion,
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


def reaching(language, ends) -> set:
    """The vertices with a walk to an end, the ends included, by a sweep backwards over the arcs."""
    sources: dict[int, list[int]] = {}
    for i, j, _left, _right in language._arcs:
        sources.setdefault(j, []).append(i)
    found, todo = set(ends), list(ends)
    while todo:
        for i in sources.get(todo.pop(), ()):
            if i not in found:
                found.add(i)
                todo.append(i)
    return found


def from_everywhere(language, ends):
    """``language``'s arcs under a new start, one extra vertex with a bare arc to every vertex and end.

    The start reaches every vertex, so ``reach_first_potential`` reads
    tau backwards from every end over every arc.
    """
    vertices = {arc[0] for arc in language._arcs} | {arc[1] for arc in language._arcs} | set(ends)
    start = object()
    return SimpleNamespace(
        start=start, _arcs=language._arcs, _successors={start: [(start, v, (), ()) for v in vertices]}
    )


def checked_potential(language, backend):
    """Whether the potential holds, after checking ``potential``'s contract against references.

    The references are ``conftest.reach_first_potential``, which reads
    only the useful vertices (``useful_states``, or ``useful_nonterminals``
    and the sink), and the same sweep from everywhere
    (``from_everywhere``), which reads every vertex that reaches an end
    (``reaching``).  Both potentials hold on the same languages.  When the
    sweep from everywhere finds no break and the value e at the start,
    tau and ``broken`` are its own; otherwise they are the reach-first
    reference's.  On the useful vertices they are always the reach-first
    reference's.  Every end with a value has the value e, and a cell is
    broken exactly when one of its labels disagrees with tau in the
    level-0 matrix built without the label map.  The label map is the
    sweep from everywhere's: exactly the arc words of the arcs whose
    target reaches an end, each with ``evaluate`` of it, and on the arcs
    between useful vertices the reach-first reference's map.
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
    reference_tau, reference_broken, reference_labels = reach_first_potential(language, ends, backend, cell_type)
    every_tau, every_broken, every_labels = reach_first_potential(
        from_everywhere(language, ends), ends, backend, cell_type
    )
    ends_reached = reaching(language, ends)
    assert set(reference_tau) == useful and set(every_tau) == ends_reached
    e, start = backend.identity, language.start
    early = not every_broken and every_tau.get(start) == e
    holds = start in tau and not broken and tau[start] == e
    assert holds == (start in reference_tau and not reference_broken and reference_tau[start] == e)
    assert holds or not early
    assert (tau, broken) == ((every_tau, every_broken) if early else (reference_tau, reference_broken))
    assert {v: tau[v] for v in useful} == reference_tau and broken == reference_broken
    assert all(tau[end] == e for end in ends if end in tau)
    wrap = cell_type.wrap
    assert broken == {
        (i, j)
        for (i, j), cell in mat.cells.items()
        if any(wrap(backend, c, tau[j]) != tau[i] for c in cell.elements)
    }
    arc_witness = cell_type.arc_witness
    words = {arc_witness(left, right) for i, j, left, right in language._arcs if j in ends_reached}
    useful_words = {arc_witness(left, right) for i, j, left, right in language._arcs if {i, j} <= useful}
    assert labels == every_labels and set(labels) == words
    assert set(reference_labels) == useful_words
    assert {wit: labels[wit] for wit in useful_words} == reference_labels
    assert all(label == cell_type.evaluate(backend, wit) for wit, label in labels.items())
    return holds


def both_paths(check, language, backend, config=None):
    """(verdict, counters) of the default check and of the closure-only check."""
    counters, reference_counters = OpCounters(), OpCounters()
    verdict = check(language, backend, config, counters)
    with closure_only():
        reference = check(language, backend, config, reference_counters)
    return (verdict, counters), (reference, reference_counters)


def assert_counters_match(check, verdict, counters, reference_counters):
    """Counters of a non-holding verdict against the closure-only check's.

    Only the guided regular check may make fewer calls on a ``Fails``,
    still one ``union`` per product.
    """
    if check is check_regular_inclusion and isinstance(verdict, Fails):
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
        assert_counters_match(check, verdict, counters, reference_counters)
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
    # The dead end 4 has no value; the unreachable 5 has one, which its arcs agree with.
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
    # B never terminates and has no value; the unreachable C has one, which its production gives.
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


# Vertices the start does not reach: the backward sweep reads the arcs out of
# them too, and a violation restricts tau and ``broken`` to what the start reaches.
# (language, potential, verdict, the cells broken off the reached part)
OFF_REACH_CASES = {
    # 1 -x-> 2 -X-> 3 holds; the unreached 4 reads x or X into the final 3, the one break.
    "automaton-holds-with-a-break-off-reach": (
        nfa(4, [(1, X, 2), (2, XI, 3), (4, X, 3), (4, XI, 3)], [3]), True, Holds, {(4, 3)},
    ),
    # S -> x A X, A -> eps holds; the unreached B -> x A | X A breaks (B, A).
    "grammar-holds-with-a-break-off-reach": (
        grammar(3, [(1, [X], 2, [XI]), (2, []), (3, [X], 2, []), (3, [XI], 2, [])]), True, Holds, {(3, 2)},
    ),
    # The start reaches only the dead end 2; the final 3 is read back from the unreached 4 and 5.
    "automaton-empty-with-ends-read-off-reach": (
        nfa(5, [(1, X, 2), (4, X, 3), (5, XI, 4)], [3]), False, Holds, set(),
    ),
    # S -> x S never ends; the unreached A -> x and B -> X A lead to the sink.
    "grammar-empty-with-ends-read-off-reach": (
        grammar(3, [(1, [X], 1, []), (2, [X]), (3, [XI], 2, [])]), False, Holds, set(),
    ),
    # The start 2 reads x or X into 3, a break; the unreached 1 reads x or X into the
    # final 4, a break in the first cell that the matrix builder creates.
    "automaton-fails-with-breaks-on-and-off-reach": (
        nfa(4, [(1, X, 4), (1, XI, 4), (2, X, 3), (2, XI, 3), (3, X, 4)], [4], start=2),
        False,
        Fails,
        {(1, 4)},
    ),
    # S -> x C | X C, C -> x: a break; the unreached B -> x B | x C | X C breaks (B, C)
    # and, on its failing cycle, (B, B).
    "grammar-fails-with-breaks-on-and-off-reach": (
        grammar(
            3, [(1, [X], 1, []), (1, [X], 3, []), (1, [XI], 3, []), (2, [X], 3, []), (2, [XI], 3, []), (3, [X])],
            start=2,
        ),
        False,
        Fails,
        {(1, 1), (1, 3)},
    ),
}


@pytest.mark.parametrize("case", sorted(OFF_REACH_CASES))
def test_potential_cases_with_vertices_the_start_does_not_reach(case):
    language, expected, verdict_type, broken_off_reach = OFF_REACH_CASES[case]
    if isinstance(language, Nfa):
        ends, cell_type, check = language.finals, GroupSet, check_regular_inclusion
    else:
        ends, cell_type, check = (language.sink,), PairSet, check_linear_inclusion
    reference_broken = reach_first_potential(language, ends, FG1, cell_type)[1]
    every_broken = reach_first_potential(from_everywhere(language, ends), ends, FG1, cell_type)[1]
    assert every_broken - reference_broken == broken_off_reach
    assert checked_potential(language, FG1) is expected
    counters, reference_counters = OpCounters(), OpCounters()
    verdict = check(language, FG1, None, counters)
    with potential_replaced(reach_first_potential):
        reference = check(language, FG1, None, reference_counters)
    assert (repr(verdict), counters) == (repr(reference), reference_counters)
    assert isinstance(verdict, verdict_type)
    assert assert_same_as_closure(check, language, FG1) == verdict


def test_the_paired_closure_holds_where_the_literal_test_fires():
    # S -> x S X | xx S XX | eps holds.  The potential decides it, so the
    # paired closure test (criterion 5) is checked here on its own; the
    # literal test, which runs no potential, still fires on it.
    g = grammar(1, [(1, [X], 1, [XI]), (1, [X, X], 1, [XI, XI]), (1, [])])
    with closure_only():
        assert check_linear_inclusion(g, FG1) == Holds()
    counters = OpCounters()
    verdict = literal_linear_inclusion(g, FG1, None, counters)
    assert verdict.spurious and counters != OpCounters()


def _oracle_holds(language, backend) -> bool:
    if isinstance(language, Nfa):
        bound = EnumerationBound(counterexample_bound_regular(language), max_words=200_000)
        words = enumerate_nfa_words(language, bound)
    else:
        bound = EnumerationBound(counterexample_bound_linear(language), max_words=200_000)
        words = enumerate_grammar_words(language, bound)
    return isinstance(brute_force_inclusion(words, backend), OracleHolds)


CONFIGS = (RunConfig(), RunConfig(set_cap=2), RunConfig(set_cap=4))


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
    if checked_potential(language, backend):
        assert verdict == Holds()
    if isinstance(verdict, Holds):
        assert counters == OpCounters()
    else:
        assert_counters_match(check, verdict, counters, reference_counters)


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
    # The dead end 4 and the unreachable 5 stay out, as in the real sweep on a violation.
    a = REGULAR_CASES["non-useful-arcs-ignored"][0]
    with closure_only():
        tau, broken, labels = grouplang.regular.potential(a, a.finals, FG1, GroupSet)
    assert tau == {1: None, 2: None, 3: None} and labels == potential(a, a.finals, FG1, GroupSet)[2]
    assert broken == {(1, 2), (2, 3)} and set(labels) == {(X,), (XI,)}


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
