"""Enumeration order, completeness, bounds, and brute-force verdicts."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouplang
from grouplang import (
    BoundExceeded,
    CayleyTableError,
    LabelMatrix,
    OpCounters,
    ResourceExceeded,
    RunConfig,
    Cyclic,
    EnumerationBound,
    Fails,
    FiniteCayley,
    FreeAbelian,
    FreeGroup,
    Holds,
    InputError,
    LetterOutOfRange,
    LinearGrammar,
    Nfa,
    OracleFails,
    OracleHolds,
    Production,
    brute_force_inclusion,
    check_linear_inclusion,
    check_regular_inclusion,
    counterexample_bound_linear,
    counterexample_bound_regular,
    enumerate_grammar_words,
    enumerate_nfa_words,
)
from grouplang.corpus import random_linear_grammar, random_nfa
from conftest import symmetric_group

FG1 = FreeGroup(1)


def nfa(states, arcs, finals, rank=1):
    return Nfa(
        states=states,
        rank=rank,
        transitions=frozenset(tuple(a) for a in arcs),
        finals=frozenset(finals),
    )


def grammar(n, prods, rank=1):
    return LinearGrammar(
        nonterminals=n,
        rank=rank,
        productions=tuple(
            Production(lhs=p[0], alpha=tuple(p[1]), rhs=p[2], beta=tuple(p[3]))
            if len(p) == 4
            else Production(lhs=p[0], alpha=tuple(p[1]))
            for p in prods
        ),
    )


# enumerate_nfa_words


def test_enumerate_single_word():
    a = nfa(2, [(1, 1, 2)], [2])
    assert list(enumerate_nfa_words(a, EnumerationBound(3))) == [(1,)]


def test_enumerate_star_language():
    a = nfa(1, [(1, 1, 1)], [1])
    assert list(enumerate_nfa_words(a, EnumerationBound(2))) == [(), (1,), (1, 1)]


def test_enumerate_no_finals_is_empty():
    a = nfa(2, [(1, 1, 2)], [])
    assert list(enumerate_nfa_words(a, EnumerationBound(4))) == []


def test_enumerate_dedupes_across_runs():
    # Two distinct runs accept the same word.
    a = nfa(3, [(1, 1, 2), (1, 1, 3)], [2, 3])
    assert list(enumerate_nfa_words(a, EnumerationBound(2))) == [(1,)]


def test_enumerate_length_lex_order():
    a = nfa(
        2,
        [(1, 1, 2), (1, -1, 2), (1, 2, 2), (2, 1, 2)],
        [2],
        rank=2,
    )
    words = list(enumerate_nfa_words(a, EnumerationBound(2)))
    assert words == sorted(words, key=lambda w: (len(w), w))
    assert words[:3] == [(-1,), (1,), (2,)]


def test_enumerate_max_words_cap():
    a = nfa(1, [(1, 1, 1)], [1])
    with pytest.raises(BoundExceeded):
        list(enumerate_nfa_words(a, EnumerationBound(50, max_words=5)))


def test_enumeration_bound_validation():
    with pytest.raises(InputError):
        EnumerationBound(0)
    with pytest.raises(InputError):
        EnumerationBound(3, max_words=0)


# enumerate_grammar_words


def test_enumerate_balanced_grammar():
    g = grammar(1, [(1, [1], 1, [-1]), (1, [])])
    words = list(enumerate_grammar_words(g, EnumerationBound(4)))
    assert words == [(), (1, -1), (1, 1, -1, -1)]


def test_enumerate_epsilon_grammar():
    assert list(enumerate_grammar_words(grammar(1, [(1, [])]), EnumerationBound(3))) == [()]


def test_enumerate_nonterminating_grammar_is_empty():
    g = grammar(1, [(1, [1], 1, [])])
    assert list(enumerate_grammar_words(g, EnumerationBound(5))) == []


def test_enumerate_grammar_handles_letter_free_cycles():
    g = grammar(2, [(1, [], 2, []), (2, [], 1, []), (2, [1])])
    assert list(enumerate_grammar_words(g, EnumerationBound(2))) == [(1,)]


def test_enumerate_grammar_interleaves_lengths_correctly():
    # A long walk can emit a shorter word than a short walk.
    g = grammar(2, [(1, [1, 1]), (1, [], 2, []), (2, [1])])
    assert list(enumerate_grammar_words(g, EnumerationBound(3))) == [(1,), (1, 1)]


def test_enumerate_grammar_max_words_cap():
    g = grammar(1, [(1, [1], 1, []), (1, [])])
    with pytest.raises(BoundExceeded):
        list(enumerate_grammar_words(g, EnumerationBound(40, max_words=3)))


# completeness against direct recursive generation


def _all_words(rank, max_len):
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    for ln in range(max_len + 1):
        for combo in itertools.product(letters, repeat=ln):
            yield combo


def test_nfa_enumeration_matches_direct_filter():
    rng = random.Random(5)
    for _ in range(40):
        a = random_nfa(rng, max_states=2, rank=1, density=0.4)
        expected = sorted(
            (w for w in _all_words(1, 4) if a.accepts(w)), key=lambda w: (len(w), w)
        )
        got = list(enumerate_nfa_words(a, EnumerationBound(4)))
        assert got == expected


def test_grammar_enumeration_matches_direct_filter():
    rng = random.Random(6)
    for _ in range(40):
        g = random_linear_grammar(rng, max_nonterminals=2, rank=1, max_productions=4)
        expected = sorted(
            (w for w in _all_words(1, 4) if g.generates(w)), key=lambda w: (len(w), w)
        )
        got = list(enumerate_grammar_words(g, EnumerationBound(4)))
        assert got == expected


def _sorted_filter(member, rank, max_len):
    return sorted((w for w in _all_words(rank, max_len) if member(w)), key=lambda w: (len(w), w))


def _drain(words):
    """The words a stream yields, and whether it then raised BoundExceeded."""
    out = []
    try:
        for w in words:
            out.append(w)
    except BoundExceeded:
        return out, True
    return out, False


def _assert_stream(words, expected, max_words):
    got, raised = _drain(words)
    assert raised == (len(expected) > max_words)
    assert got == expected[:max_words]


max_words_choices = st.one_of(st.integers(1, 40), st.just(1_000_000))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.sampled_from((1, 2)),
    states=st.integers(1, 5),
    density=st.sampled_from((0.1, 0.25, 0.5)),
    paired=st.booleans(),
    max_len=st.integers(1, 5),
    max_words=max_words_choices,
)
def test_nfa_stream_is_the_sorted_filter(seed, rank, states, density, paired, max_len, max_words):
    a = random_nfa(random.Random(seed), max_states=states, rank=rank, density=density, inverse_paired=paired)
    expected = _sorted_filter(a.accepts, rank, max_len)
    _assert_stream(enumerate_nfa_words(a, EnumerationBound(max_len, max_words)), expected, max_words)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.sampled_from((1, 2)),
    nonterminals=st.integers(1, 5),
    productions=st.integers(1, 9),
    mirrored=st.booleans(),
    free_cycle=st.booleans(),
    max_len=st.integers(1, 5),
    max_words=max_words_choices,
)
def test_grammar_stream_is_the_sorted_filter(
    seed, rank, nonterminals, productions, mirrored, free_cycle, max_len, max_words
):
    rng = random.Random(seed)
    g = random_linear_grammar(
        rng, max_nonterminals=nonterminals, rank=rank, max_productions=productions, mirrored=mirrored
    )
    if free_cycle:
        # A letter-free cycle A -> B, B -> A through two random nonterminals.
        a, b = rng.randint(1, g.nonterminals), rng.randint(1, g.nonterminals)
        extra = (Production(lhs=a, alpha=(), rhs=b, beta=()), Production(lhs=b, alpha=(), rhs=a, beta=()))
        g = LinearGrammar(g.nonterminals, g.rank, g.productions + extra, g.start)
    expected = _sorted_filter(g.generates, rank, max_len)
    _assert_stream(enumerate_grammar_words(g, EnumerationBound(max_len, max_words)), expected, max_words)


@pytest.mark.parametrize("max_words", [1, 2, 3, 4, 1_000_000])
def test_streams_stop_after_exactly_max_words(max_words):
    # Four words up to length 3: (), (1,), (1, 1), (1, 1, 1).
    a = nfa(1, [(1, 1, 1)], [1])
    expected = [(), (1,), (1, 1), (1, 1, 1)]
    _assert_stream(enumerate_nfa_words(a, EnumerationBound(3, max_words)), expected, max_words)
    g = grammar(1, [(1, [1], 1, []), (1, [])])
    _assert_stream(enumerate_grammar_words(g, EnumerationBound(3, max_words)), expected, max_words)


def test_streams_are_empty_when_no_word_can_finish():
    bound = EnumerationBound(6)
    # The only final state is unreachable from the start.
    assert list(enumerate_nfa_words(nfa(3, [(1, 1, 1), (2, 1, 3)], [3]), bound)) == []
    # The final state is reachable, but only beyond the bound.
    assert list(enumerate_nfa_words(nfa(8, [(i, 1, i + 1) for i in range(1, 8)], [8]), bound)) == []
    # The start only loops; the nonterminal that ends is unreachable.
    g = grammar(2, [(1, [1], 1, [-1]), (1, [], 1, []), (2, [1])])
    assert list(enumerate_grammar_words(g, bound)) == []
    # The start ends, but with more letters than the bound allows.
    g = grammar(2, [(1, [1, 1, 1], 2, [1, 1]), (2, [1, 1])])
    assert list(enumerate_grammar_words(g, bound)) == []


def test_grammar_prunes_walks_that_cannot_finish_in_time():
    # 2 has a cheap exit and a costly one, 1 loops freely: only the words
    # that fit the bound come out, in order.
    g = grammar(2, [(1, [], 2, []), (1, [1], 1, [1]), (2, [1]), (2, [-1, -1, -1, -1])])
    assert list(enumerate_grammar_words(g, EnumerationBound(4))) == [
        (1,),
        (1, 1, 1),
        (-1, -1, -1, -1),
    ]


def test_a_finite_grammar_ends_long_before_a_huge_bound():
    # S -> x1 A x1^-1, A -> B | eps, B -> x2 | A: two words, behind a letter-free cycle.
    # In a child process under a time limit, so that an enumerator that
    # runs on to the bound fails this test instead of hanging the suite.
    code = (
        "from grouplang import EnumerationBound, LinearGrammar, Production, enumerate_grammar_words\n"
        "P = Production\n"
        "g = LinearGrammar(3, 2, (P(1, (1,), 2, (-1,)), P(2, (), 3), P(2, ()), P(3, (2,)), P(3, (), 2)))\n"
        "print(list(enumerate_grammar_words(g, EnumerationBound(10**9))))\n"
    )
    src = str(Path(grouplang.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[(1, -1), (1, 2, -1)]\n"


def test_an_ambiguous_grammar_with_letter_free_arcs_streams_its_filter():
    # Many derivations per word, letter-free arcs into and out of the start, and a letter-free self-loop.
    prods = [
        (3, (), 1, (-2,)),
        (1, (-1,), 3, (1,)),
        (3, (2,), 1, (-2,)),
        (1, (-1,), None, ()),
        (3, (), 3, ()),
        (2, (), 2, (-1,)),
        (3, (), None, ()),
        (3, (-2,), None, ()),
        (1, (1,), 1, (-1,)),
        (1, (), 3, ()),
        (1, (-1,), 2, (1,)),
    ]
    g = grammar(3, prods, rank=2)
    expected = _sorted_filter(g.generates, 2, 7)
    assert len(expected) == 322
    assert list(enumerate_grammar_words(g, EnumerationBound(7))) == expected


def test_walk_images_match_derivation_images():
    """Walk enumeration and direct derivation agree on generated-word images."""
    rng = random.Random(9)
    backend = Cyclic(4)
    for _ in range(25):
        g = random_linear_grammar(rng, max_nonterminals=3, rank=1, max_productions=5)
        max_steps = 4

        derived: set[int] = set()

        def expand(nt: int, left: tuple, right: tuple, steps: int):
            if steps > max_steps:
                return
            for p in g.productions:
                if p.lhs != nt:
                    continue
                if p.rhs is None:
                    derived.add(backend.canonicalize(left + p.alpha + right))
                else:
                    expand(p.rhs, left + p.alpha, p.beta + right, steps + 1)

        expand(g.start, (), (), 1)

        walked: set[int] = set()

        def walk(vertex: int, left: tuple, right: tuple, arcs_used: int):
            if vertex == g.sink:
                walked.add(backend.canonicalize(left + right))
                return
            if arcs_used == max_steps:
                return
            for p in g.productions:
                if p.lhs != vertex:
                    continue
                if p.rhs is None:
                    walk(g.sink, left + p.alpha, right, arcs_used + 1)
                else:
                    walk(p.rhs, left + p.alpha, p.beta + right, arcs_used + 1)

        walk(g.start, (), (), 0)
        assert walked == derived


# brute_force_inclusion


def test_brute_force_single_balanced_word():
    a = nfa(3, [(1, 1, 2), (2, -1, 3)], [3])
    result = brute_force_inclusion(enumerate_nfa_words(a, EnumerationBound(6)), FG1)
    assert result == OracleHolds(words_checked=1)


def test_brute_force_star_fails_mod_two():
    a = nfa(1, [(1, 1, 1)], [1])
    result = brute_force_inclusion(enumerate_nfa_words(a, EnumerationBound(6)), Cyclic(2))
    assert result == OracleFails(witness=(1,), words_checked=2)


def test_brute_force_even_powers_hold():
    a = nfa(2, [(1, 1, 2), (2, 1, 1)], [1])
    result = brute_force_inclusion(enumerate_nfa_words(a, EnumerationBound(12)), Cyclic(2))
    assert isinstance(result, OracleHolds)
    assert result.words_checked == 7  # lengths 0, 2, ..., 12


@pytest.mark.parametrize("backend", [FG1, Cyclic(3), symmetric_group(3)], ids=["free1", "c3", "s3"])
def test_brute_force_raises_on_a_rank_mismatch(backend):
    rank = backend.rank + 1
    a = nfa(2, [(1, 1, 2), (1, rank, 2), (1, -rank, 2)], [2], rank=rank)
    with pytest.raises(LetterOutOfRange):
        brute_force_inclusion(enumerate_nfa_words(a, EnumerationBound(2)), backend)


# derived bounds


def test_counterexample_bound_regular_values():
    assert counterexample_bound_regular(nfa(3, [], [])) == 9
    assert counterexample_bound_regular(nfa(1, [], [])) == 3
    assert counterexample_bound_regular(nfa(5, [], [])) == 15


def test_counterexample_bound_linear_values():
    g1 = grammar(1, [(1, [1], 1, [-1]), (1, [])])
    assert counterexample_bound_linear(g1) == 6
    g2 = grammar(2, [(1, [1], 2, []), (2, [])])
    assert counterexample_bound_linear(g2) == 5
    g3 = grammar(3, [(1, [1, 1], 3, [1, -1]), (3, [])])
    assert counterexample_bound_linear(g3) == 28


@pytest.mark.parametrize(
    "g",
    [
        grammar(1, [(1, [])]),  # S -> eps
        grammar(1, [(1, [], 1, []), (1, [])]),  # S -> S | eps
        grammar(2, [(1, [], 2, []), (2, [])]),  # S -> A, A -> eps
        grammar(1, []),  # no production: the empty language
        grammar(1, [(1, [], 1, [])]),  # S -> S: the empty language
    ],
)
def test_the_linear_bound_admits_letter_free_grammars(g):
    bound = EnumerationBound(counterexample_bound_linear(g))
    assert bound.max_word_length == 1
    for backend in (FG1, Cyclic(2)):
        oracle = brute_force_inclusion(enumerate_grammar_words(g, bound), backend)
        assert isinstance(oracle, OracleHolds) and check_linear_inclusion(g, backend) == Holds()


def test_bound_is_sufficient_on_random_failing_instances():
    """Whenever the closure check fails, the oracle at 3n finds a counterexample."""
    rng = random.Random(13)
    backends = [FG1, Cyclic(2), Cyclic(3)]
    fails_seen = 0
    for _ in range(150):
        a = random_nfa(rng, max_states=4, rank=1, density=rng.choice((0.1, 0.3)))
        for backend in backends:
            verdict = check_regular_inclusion(a, backend)
            bound = EnumerationBound(counterexample_bound_regular(a), max_words=200_000)
            oracle = brute_force_inclusion(enumerate_nfa_words(a, bound), backend)
            assert isinstance(verdict, Holds) == isinstance(oracle, OracleHolds)
            fails_seen += isinstance(verdict, Fails)
    assert fails_seen > 50


# -- verdicts and oracle results as records ------------------------------------


def test_verdicts_compare_only_within_their_own_class():
    assert Holds() == Holds() and hash(Holds()) == hash(Holds())
    assert Holds() != OracleHolds(0)
    assert OracleHolds(3) == OracleHolds(words_checked=3) != OracleHolds(4)
    assert Fails((1,), "simple-path") != OracleFails((1,), 0)
    assert len({Fails((1,), "simple-path"), Fails(witness=(1,), reason="simple-path")}) == 1


def test_verdict_reprs_and_defaults_are_pinned():
    assert repr(Holds()) == "Holds()"
    assert repr(Fails((1, -2), "conjugate")) == (
        "Fails(witness=(1, -2), reason='conjugate', state=None, spurious=False)"
    )
    assert repr(ResourceExceeded((1, 2), 5)) == "ResourceExceeded(cell=(1, 2), cardinality=5)"
    assert repr(RunConfig()) == "RunConfig(set_cap=4096)"
    assert repr(EnumerationBound(3)) == "EnumerationBound(max_word_length=3, max_words=1000000)"
    assert repr(OracleFails((1,), 2)) == "OracleFails(witness=(1,), words_checked=2)"
    assert repr(Production(1, (1,), 2)) == "Production(lhs=1, alpha=(1,), rhs=2, beta=())"


def test_record_constructors_keep_their_checks_and_arity():
    with pytest.raises(InputError):
        RunConfig(set_cap=0)
    with pytest.raises(InputError):
        EnumerationBound(0)
    with pytest.raises(InputError):
        Production(1, (1,), None, (1,))
    with pytest.raises(TypeError):
        Fails((1,))
    with pytest.raises(TypeError):
        OracleHolds()
    with pytest.raises(TypeError):
        Holds(1)
    with pytest.raises(AttributeError):
        Fails((1,), "conjugate").reason = "simple-path"


# Every count a record takes: (constructor, valid keyword arguments, the count's field).
_NFA_ARGS = {"states": 1, "rank": 1, "transitions": frozenset(), "start": 1}
_GRAMMAR_ARGS = {"nonterminals": 1, "rank": 1, "productions": (), "start": 1}
_COUNTS = [
    (FreeGroup, {"rank": 1}, "rank"),
    (FreeAbelian, {"rank": 1}, "rank"),
    (Cyclic, {"order": 1}, "order"),
    (Nfa, _NFA_ARGS, "states"),
    (Nfa, _NFA_ARGS, "rank"),
    (Nfa, _NFA_ARGS, "start"),
    (LinearGrammar, _GRAMMAR_ARGS, "nonterminals"),
    (LinearGrammar, _GRAMMAR_ARGS, "rank"),
    (LinearGrammar, _GRAMMAR_ARGS, "start"),
    (RunConfig, {}, "set_cap"),
    (EnumerationBound, {"max_word_length": 1}, "max_word_length"),
    (EnumerationBound, {"max_word_length": 1}, "max_words"),
]


@pytest.mark.parametrize("value", [True, 2.5, "5", 0])
@pytest.mark.parametrize(
    "make, kwargs, field", [pytest.param(*row, id=f"{row[0].__name__}.{row[2]}") for row in _COUNTS]
)
def test_every_count_is_an_int_not_a_bool_and_positive(make, kwargs, field, value):
    make(**kwargs)
    with pytest.raises(InputError, match=f"must be an integer >= 1, got {value!r}"):
        make(**{**kwargs, field: value})


@pytest.mark.parametrize("value", [True, 2.5, "0", -1, 2])
def test_cayley_identity_is_an_element_index(value):
    with pytest.raises(CayleyTableError, match="identity index"):
        FiniteCayley(size=2, identity_index=value, table=((0, 1), (1, 0)), generator_images=(1,))


def test_counters_and_matrices_stay_mutable_and_unhashable():
    counters = OpCounters()
    counters.products += 2
    assert counters == OpCounters(products=2)
    assert repr(counters) == "OpCounters(unions=0, products=2, stars=0, diamonds=0, triples=0)"
    matrix = LabelMatrix(FG1, (1,), {}, None)
    matrix.level = 3
    assert matrix.level == 3
    for value in (counters, matrix):
        with pytest.raises(TypeError):
            hash(value)
