"""Acceptance suite: corpus-level agreement, complexity bounds, named examples.

Each criterion reports one PASS/FAIL line in the terminal summary (see
conftest).  The corpora are seeded, so every run sees the same
instances; backends are paired with instances of matching alphabet rank
(the cyclic backend is defined on one generator).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from conftest import paper_check, record_criterion, symmetric_group_3
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
    brute_force_inclusion,
    check_linear_inclusion,
    check_regular_inclusion,
    counterexample_bound_linear,
    counterexample_bound_regular,
    enumerate_grammar_words,
    enumerate_nfa_words,
    extract_witness,
    literal_linear_inclusion,
    nfa_to_right_linear,
)
from grouplang.corpus import grammar_corpus, nfa_corpus

MAX_ORACLE_WORDS = 2_000_000

S3 = symmetric_group_3()
BACKENDS_BY_RANK = {
    1: (FreeGroup(1), Cyclic(2), Cyclic(3), Cyclic(5)),
    2: (FreeGroup(2), FreeAbelian(2), S3),
}
FINITE_BACKENDS = tuple(
    b for bs in BACKENDS_BY_RANK.values() for b in bs if not isinstance(b, (FreeGroup, FreeAbelian))
)


@dataclass
class Run:
    instance: object
    backend: object
    verdict: object
    counters: OpCounters
    oracle: object


@pytest.fixture(scope="session")
def regular_corpus():
    return {1: nfa_corpus(101, 500, rank=1), 2: nfa_corpus(202, 500, rank=2)}


@pytest.fixture(scope="session")
def regular_runs(regular_corpus):
    runs: list[Run] = []
    started = time.perf_counter()
    for rank, nfas in regular_corpus.items():
        for a in nfas:
            bound = EnumerationBound(
                counterexample_bound_regular(a), max_words=MAX_ORACLE_WORDS
            )
            for backend in BACKENDS_BY_RANK[rank]:
                counters = OpCounters()
                verdict = check_regular_inclusion(a, backend, counters=counters)
                oracle = brute_force_inclusion(enumerate_nfa_words(a, bound), backend)
                runs.append(Run(a, backend, verdict, counters, oracle))
    elapsed = time.perf_counter() - started
    return runs, elapsed


@pytest.fixture(scope="session")
def grammar_runs():
    corpora = {1: grammar_corpus(301, 250, rank=1), 2: grammar_corpus(302, 250, rank=2)}
    runs: list[Run] = []
    for rank, grammars in corpora.items():
        for g in grammars:
            bound = EnumerationBound(counterexample_bound_linear(g), max_words=MAX_ORACLE_WORDS)
            for backend in BACKENDS_BY_RANK[rank]:
                counters = OpCounters()
                verdict = check_linear_inclusion(g, backend, counters=counters)
                oracle = None
                if not isinstance(verdict, ResourceExceeded):
                    oracle = brute_force_inclusion(
                        enumerate_grammar_words(g, bound), backend
                    )
                runs.append(Run(g, backend, verdict, counters, oracle))
    return runs


@pytest.fixture(scope="session")
def cross_runs(regular_corpus):
    runs: list[tuple[Nfa, object, object, Run]] = []
    for rank, nfas in regular_corpus.items():
        for a in nfas:
            g = nfa_to_right_linear(a)
            for backend in BACKENDS_BY_RANK[rank]:
                regular_verdict = check_regular_inclusion(a, backend)
                counters = OpCounters()
                linear_verdict = check_linear_inclusion(g, backend, counters=counters)
                runs.append((a, backend, regular_verdict, Run(g, backend, linear_verdict, counters, None)))
    return runs


def test_criterion_1_regular_oracle_equivalence(regular_corpus, regular_runs):
    runs, elapsed = regular_runs
    total_nfas = sum(len(v) for v in regular_corpus.values())
    disagreements = 0
    resource_exceeded = 0
    holds = fails = 0
    for run in runs:
        if isinstance(run.verdict, ResourceExceeded):
            resource_exceeded += 1
            continue
        holds += isinstance(run.verdict, Holds)
        fails += isinstance(run.verdict, Fails)
        if isinstance(run.verdict, Holds) != isinstance(run.oracle, OracleHolds):
            disagreements += 1
    ok = (
        total_nfas >= 1000
        and disagreements == 0
        and resource_exceeded == 0
        and elapsed < 60.0
    )
    record_criterion(
        1,
        ok,
        f"{total_nfas} automata, {len(runs)} rank-compatible runs "
        f"({holds} holds / {fails} fails), 0 disagreements required and found "
        f"{disagreements}, resource-exceeded {resource_exceeded}, {elapsed:.1f}s (< 60s)",
    )
    assert ok


def test_criterion_2_linear_oracle_equivalence(grammar_runs):
    total = len(grammar_runs)
    grammars = {id(r.instance) for r in grammar_runs}
    disagreements = 0
    resource_exceeded = 0
    finite_resource_exceeded = 0
    for run in grammar_runs:
        if isinstance(run.verdict, ResourceExceeded):
            resource_exceeded += 1
            if run.backend in FINITE_BACKENDS:
                finite_resource_exceeded += 1
            continue
        if isinstance(run.verdict, Holds) != isinstance(run.oracle, OracleHolds):
            disagreements += 1
    rate = resource_exceeded / total
    ok = (
        len(grammars) >= 500
        and disagreements == 0
        and rate < 0.20
        and finite_resource_exceeded == 0
    )
    record_criterion(
        2,
        ok,
        f"{len(grammars)} grammars, {total} runs, {disagreements} disagreements, "
        f"resource-exceeded rate {rate:.2%} (< 20%, finite backends {finite_resource_exceeded})",
    )
    assert ok


def test_criterion_3_cross_algorithm_agreement(cross_runs):
    mismatches = 0
    for _a, _backend, regular_verdict, linear_run in cross_runs:
        same = isinstance(regular_verdict, Holds) == isinstance(linear_run.verdict, Holds)
        if not same or isinstance(linear_run.verdict, ResourceExceeded):
            mismatches += 1
    ok = mismatches == 0
    record_criterion(
        3,
        ok,
        f"{len(cross_runs)} automata-as-grammar runs, {mismatches} verdict mismatches",
    )
    assert ok


def test_criterion_4_complexity_bounds(regular_corpus, regular_runs, grammar_runs, cross_runs):
    violations = []
    # The default path runs no test after a closure, so it counts no star
    # and no triple; those bounds bite only on the reference paths below.
    for run in regular_runs[0]:
        n = run.instance.states
        c = run.counters
        if not (c.unions <= n**3 and c.products <= n**3 and c.stars == 0):
            violations.append(("regular", n, c.as_dict()))
    for run in grammar_runs:
        n = run.instance.nonterminals
        c = run.counters
        if not (
            c.unions <= n * n * (n + 1)
            and c.diamonds <= n * n * (n + 1)
            and c.triples == 0
        ):
            violations.append(("linear", n, c.as_dict()))
    for _a, _backend, _rv, linear_run in cross_runs:
        n = linear_run.instance.nonterminals
        c = linear_run.counters
        if not (
            c.unions <= n * n * (n + 1)
            and c.diamonds <= n * n * (n + 1)
            and c.triples == 0
        ):
            violations.append(("cross", n, c.as_dict()))
    # The paper's closure runs the conjugate test, one star per state at
    # most; over the free backends its label sets grow to the cap.
    paper = 0
    for rank, nfas in regular_corpus.items():
        for a in nfas:
            for backend in BACKENDS_BY_RANK[rank]:
                if backend not in FINITE_BACKENDS:
                    continue
                c = OpCounters()
                paper_check(a, backend, counters=c)
                paper += 1
                n = a.states
                if not (c.unions <= n**3 and c.products <= n**3 and c.stars <= n**2):
                    violations.append(("paper", n, c.as_dict()))
    # Literal mode runs the unpaired triple, at most once per nonterminal.
    for run in grammar_runs:
        n = run.instance.nonterminals
        c = OpCounters()
        literal_linear_inclusion(run.instance, run.backend, counters=c)
        if not c.triples <= n:
            violations.append(("literal", n, c.as_dict()))
    ok = not violations
    checked = len(regular_runs[0]) + len(grammar_runs) + len(cross_runs)
    record_criterion(
        4,
        ok,
        f"counter bounds unions/products<=n^3, pair unions/diamonds<=n^2(n+1), no star or triple "
        f"held on {checked} default runs; stars<=n^2 on {paper} paper-closure runs, "
        f"triples<=n on {len(grammar_runs)} literal runs" + ("" if ok else f"; violations: {violations[:3]}"),
    )
    assert ok, violations[:5]


def test_criterion_5_bracket_form_regression():
    g = LinearGrammar(
        nonterminals=1,
        rank=1,
        productions=(
            Production(1, (1,), 1, (-1,)),
            Production(1, (1, 1), 1, (-1, -1)),
            Production(1, ()),
        ),
        start=1,
    )
    backend = FreeGroup(1)
    paired = check_linear_inclusion(g, backend)
    literal = literal_linear_inclusion(g, backend)
    oracle = brute_force_inclusion(
        enumerate_grammar_words(g, EnumerationBound(12)), backend
    )
    ok = (
        paired == Holds()
        and isinstance(literal, Fails)
        and literal.spurious
        and isinstance(oracle, OracleHolds)
    )
    record_criterion(
        5,
        ok,
        "two-step nested grammar: paired triple holds, unpaired form fires spuriously, "
        f"oracle at bound 12 confirms holds ({oracle.words_checked} words)",
    )
    assert ok


def test_criterion_6_witness_validity(regular_runs, grammar_runs, cross_runs):
    checked = 0
    bad = []
    for run in regular_runs[0]:
        if isinstance(run.verdict, Fails):
            checked += 1
            if not run.instance.accepts(run.verdict.witness) or run.backend.word_in_group_language(
                run.verdict.witness
            ):
                bad.append(run)
    for run in grammar_runs:
        if isinstance(run.verdict, Fails):
            checked += 1
            if not run.instance.generates(run.verdict.witness) or run.backend.word_in_group_language(
                run.verdict.witness
            ):
                bad.append(run)
    for _a, _backend, _rv, linear_run in cross_runs:
        if isinstance(linear_run.verdict, Fails):
            checked += 1
            if not linear_run.instance.generates(
                linear_run.verdict.witness
            ) or linear_run.backend.word_in_group_language(linear_run.verdict.witness):
                bad.append(linear_run)
    ok = not bad
    record_criterion(
        6,
        ok,
        f"{checked} failure witnesses re-validated by independent membership "
        f"plus identity-language rejection; {len(bad)} invalid",
    )
    assert ok


def _nfa(states, arcs, finals, rank=1):
    return Nfa(
        states=states,
        rank=rank,
        transitions=frozenset(tuple(t) for t in arcs),
        start=1,
        finals=frozenset(finals),
    )


def _grammar(n, prods, rank=1):
    return LinearGrammar(
        nonterminals=n,
        rank=rank,
        productions=tuple(
            Production(p[0], tuple(p[1]), p[2], tuple(p[3]))
            if len(p) == 4
            else Production(p[0], tuple(p[1]))
            for p in prods
        ),
        start=1,
    )


def test_criterion_7_named_examples():
    """End-to-end named cases, witnesses bit-exact; the per-operation
    examples live in the module test files and run in the same suite."""
    fg1, c2, c3 = FreeGroup(1), Cyclic(2), Cyclic(3)
    checks = []

    # Regular checks.
    verdict = check_regular_inclusion(_nfa(3, [(1, 1, 2), (2, -1, 3)], [3]), fg1)
    checks.append(verdict == Holds())
    verdict = check_regular_inclusion(_nfa(2, [(1, 1, 2)], [2]), fg1)
    checks.append(isinstance(verdict, Fails) and verdict.witness == (1,))
    verdict = check_regular_inclusion(_nfa(1, [(1, 1, 1)], [1]), c2)
    checks.append(isinstance(verdict, Fails) and verdict.witness == (1,))
    even = _nfa(2, [(1, 1, 2), (2, 1, 1)], [1])
    checks.append(check_regular_inclusion(even, c2) == Holds())
    oracle = brute_force_inclusion(enumerate_nfa_words(even, EnumerationBound(12)), c2)
    checks.append(isinstance(oracle, OracleHolds))

    # Witness assembly.
    checks.append(extract_witness(c2, (), (1,), ()) == (1,))
    checks.append(extract_witness(c3, (1,), (1,), (-1,)) == (1, 1, -1))

    # Linear checks.
    balanced = _grammar(1, [(1, [1], 1, [-1]), (1, [])])
    checks.append(check_linear_inclusion(balanced, fg1) == Holds())
    squares = _grammar(1, [(1, [1], 1, [1]), (1, [])])
    checks.append(check_linear_inclusion(squares, c2) == Holds())
    verdict = check_linear_inclusion(squares, c3)
    checks.append(isinstance(verdict, Fails) and verdict.witness == (1, 1))
    oracle = brute_force_inclusion(enumerate_grammar_words(squares, EnumerationBound(12)), c2)
    checks.append(isinstance(oracle, OracleHolds))

    # Enumeration order and bounds.
    checks.append(
        list(enumerate_grammar_words(balanced, EnumerationBound(4)))
        == [(), (1, -1), (1, 1, -1, -1)]
    )
    checks.append(
        list(enumerate_nfa_words(_nfa(1, [(1, 1, 1)], [1]), EnumerationBound(2)))
        == [(), (1,), (1, 1)]
    )
    checks.append(counterexample_bound_regular(_nfa(3, [], [])) == 9)
    checks.append(counterexample_bound_linear(balanced) == 6)

    ok = all(checks)
    record_criterion(
        7,
        ok,
        f"{len(checks)} end-to-end named examples bit-exact here; "
        "per-operation examples encoded in the module test files",
    )
    assert ok, [i for i, c in enumerate(checks) if not c]
