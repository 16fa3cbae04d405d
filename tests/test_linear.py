"""Grammar checks: diagram, pair closure, verdicts, and the bracket-form regression."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouplang.linear
from conftest import symmetric_group
from grouplang import (
    BackendMismatch,
    CapExceeded,
    Cyclic,
    Fails,
    FreeAbelian,
    FreeGroup,
    Holds,
    InputError,
    LinearGrammar,
    Nfa,
    OpCounters,
    Production,
    ResourceExceeded,
    RunConfig,
    build_grammar_matrix,
    check_linear_inclusion,
    check_regular_inclusion,
    closure_pairs,
    grammar_to_dict,
    inverse_word,
    load_grammar,
    nfa_to_right_linear,
    parse_grammar,
    useful_nonterminals,
)
from grouplang.corpus import random_linear_grammar, random_nfa
from grouplang.linear import _cycle_scan, _EarlyViolation, _final_cell_scan, _wrapped_failure
from grouplang.regular import pivot_closure, potential
from grouplang.semiring import PairSet, diamond, union

FG1 = FreeGroup(1)


def grammar(n, prods, rank=1, start=1):
    return LinearGrammar(
        nonterminals=n,
        rank=rank,
        productions=tuple(
            Production(lhs=p[0], alpha=tuple(p[1]), rhs=p[2], beta=tuple(p[3]))
            if len(p) == 4
            else Production(lhs=p[0], alpha=tuple(p[1]))
            for p in prods
        ),
        start=start,
    )


BALANCED = grammar(1, [(1, [1], 1, [-1]), (1, [])])          # nested x^n X^n
SQUARES = grammar(1, [(1, [1], 1, [1]), (1, [])])            # x^n ... x^n
DISCREPANCY = grammar(1, [(1, [1], 1, [-1]), (1, [1, 1], 1, [-1, -1]), (1, [])])


# construction and file format


def test_terminal_production_cannot_carry_beta():
    with pytest.raises(InputError):
        Production(lhs=1, alpha=(1,), rhs=None, beta=(1,))


def test_parse_roundtrip(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(grammar_to_dict(DISCREPANCY)), encoding="utf-8")
    assert load_grammar(path) == DISCREPANCY


def test_parse_rejects_mixed_production_shape():
    with pytest.raises(InputError, match="production"):
        parse_grammar(
            {
                "nonterminals": 1,
                "alphabet_rank": 1,
                "productions": [{"lhs": 1, "alpha": [], "rhs": 1}],
                "start": 1,
            }
        )


def test_generates_membership():
    assert BALANCED.generates(())
    assert BALANCED.generates((1, 1, -1, -1))
    assert not BALANCED.generates((1, -1, 1, -1))
    assert not BALANCED.generates((1,))
    assert SQUARES.generates((1, 1))


def test_generates_long_words():
    g = grammar(1, [(1, [1], 1, []), (1, [])])  # A -> x1 A | eps
    assert g.generates((1,) * 3000)
    assert not g.generates((1,) * 2999 + (-1,))


def test_generates_handles_letter_free_chains():
    g = grammar(2, [(1, [], 2, []), (2, [], 1, []), (2, [1])])
    assert g.generates((1,))
    assert not g.generates(())
    # A -> x1 B, B -> C | eps, C -> B | A x2: a letter-free cycle B <-> C
    # behind a letter, so L(A) = {x1^n x2^(n-1) : n >= 1}.
    g = grammar(3, [(1, [1], 2, []), (2, [], 3, []), (3, [], 2, []), (3, [], 1, [2]), (2, [])], rank=2)
    assert g.generates((1,)) and g.generates((1, 1, 2)) and g.generates((1, 1, 1, 2, 2))
    assert not any(g.generates(w) for w in [(), (1, 2), (1, 1, 2, 2), (2,), (1, 1)])


# useful_nonterminals


def test_useful_epsilon_grammar():
    assert useful_nonterminals(grammar(1, [(1, [])])) == {1}


def test_useful_chain_to_terminal():
    g = grammar(2, [(1, [1], 2, []), (2, [])])
    assert useful_nonterminals(g) == {1, 2}


def test_useful_drops_unreachable_nonterminating():
    g = grammar(2, [(1, []), (2, [1], 2, [])])
    assert useful_nonterminals(g) == {1}


# build_grammar_matrix


def test_matrix_self_loop_pair():
    g = grammar(1, [(1, [1], 1, [-1])])
    mat = build_grammar_matrix(g, FG1)
    assert frozenset(mat.cell(1, 1).elements) == {((1,), (-1,))}


def test_matrix_terminal_arc_gets_identity_right():
    g = grammar(1, [(1, [])])
    mat = build_grammar_matrix(g, FG1)
    assert mat.cell(1, 2).elements == {((), ()): ((), ())}


def test_matrix_two_distinct_pairs():
    g = grammar(1, [(1, [1], 1, [-1]), (1, [1, 1], 1, [-1, -1])])
    mat = build_grammar_matrix(g, FG1)
    assert frozenset(mat.cell(1, 1).elements) == {((1,), (-1,)), ((1, 1), (-1, -1))}


# closure_pairs


def test_closure_pairs_chain_through_pivot():
    g = grammar(2, [(1, [1], 2, [-1]), (2, [])])
    mat = closure_pairs(build_grammar_matrix(g, FG1))
    assert frozenset(mat.cell(1, 3).elements) == {((1,), (-1,))}


def test_closure_pairs_one_level_by_hand():
    mat = closure_pairs(build_grammar_matrix(BALANCED, FG1))
    assert frozenset(mat.cell(1, 1).elements) == {((1,), (-1,)), ((1, 1), (-1, -1))}


def test_closure_pairs_empty_matrix_noop():
    g = grammar(2, [(2, [1], 2, [])])  # nothing reachable ends anywhere
    mat = build_grammar_matrix(g, FG1, useful=frozenset())
    closure_pairs(mat)
    assert not mat.cells


# check_linear_inclusion


def test_check_balanced_holds_in_free_group():
    assert check_linear_inclusion(BALANCED, FG1) == Holds()


def test_check_squares_hold_mod_two():
    assert check_linear_inclusion(SQUARES, Cyclic(2)) == Holds()


def test_check_squares_fail_mod_three():
    verdict = check_linear_inclusion(SQUARES, Cyclic(3))
    assert isinstance(verdict, Fails)
    assert verdict.witness == (1, 1)


def test_check_discrepancy_grammar_holds_with_paired_triple():
    assert check_linear_inclusion(DISCREPANCY, FG1) == Holds()


def test_check_discrepancy_grammar_literal_mode_fires_spuriously():
    verdict = check_linear_inclusion(DISCREPANCY, FG1, RunConfig(literal_omega10=True))
    assert isinstance(verdict, Fails)
    assert verdict.spurious
    assert verdict.witness is None


def test_check_holds_with_multiple_cycle_pairs():
    """The cycle cell keeps several pairs; none of them singly fails."""
    counters = OpCounters()
    mat = closure_pairs(build_grammar_matrix(DISCREPANCY, FG1), counters=counters)
    assert len(mat.cell(1, 1)) >= 2
    assert check_linear_inclusion(DISCREPANCY, FG1) == Holds()


def test_check_empty_language_holds():
    assert check_linear_inclusion(grammar(1, [(1, [1], 1, [])]), FG1) == Holds()
    assert check_linear_inclusion(grammar(1, []), Cyclic(2)) == Holds()


def test_check_epsilon_only_grammar_holds_everywhere():
    g = grammar(1, [(1, [])])
    for backend in (FG1, Cyclic(2), Cyclic(7)):
        assert check_linear_inclusion(g, backend) == Holds()


def test_check_rank_mismatch():
    with pytest.raises(BackendMismatch):
        check_linear_inclusion(grammar(1, [(1, [])], rank=2), FG1)


def test_check_resource_exceeded_names_cell(no_potential):
    verdict = check_linear_inclusion(DISCREPANCY, FG1, RunConfig(set_cap=2))
    assert verdict == ResourceExceeded(cell=(1, 1), cardinality=3)


# S -> x S X | xx S XX | A, A -> eps | x: generates x, so the closure runs.
CAPPED_FAILING = grammar(
    2, [(1, [1], 1, [-1]), (1, [1, 1], 1, [-1, -1]), (1, [], 2, []), (2, []), (2, [1])]
)


# S -> x S X | xx S XX | xxx S XXX | eps: three labels in the level-0 cell (1, 1).
NESTED = grammar(
    1, [(1, [1], 1, [-1]), (1, [1, 1], 1, [-1, -1]), (1, [1, 1, 1], 1, [-1, -1, -1]), (1, [])]
)


def test_check_cap_only_binds_when_the_closure_runs():
    assert check_linear_inclusion(DISCREPANCY, FG1, RunConfig(set_cap=2)) == Holds()
    # The input's own cells are never capped: the potential decides first.
    assert check_linear_inclusion(NESTED, FG1, RunConfig(set_cap=2)) == Holds()
    verdict = check_linear_inclusion(CAPPED_FAILING, FG1, RunConfig(set_cap=2))
    assert verdict == ResourceExceeded(cell=(1, 1), cardinality=3)
    assert check_linear_inclusion(CAPPED_FAILING, FG1) == Fails((1,), "simple-path")


def test_literal_mode_caps_the_triple_after_the_closure():
    # S -> X1 S x1 | eps: the closure leaves {(X1, x1), (X1 X1, x1 x1)} in
    # (1, 1), within a cap of 2, but the unpaired triple {X1, X1 X1} e
    # {x1, x1 x1} has three elements.
    g = grammar(1, [(1, [-1], 1, [1]), (1, [])])
    counters = OpCounters()
    verdict = check_linear_inclusion(g, FG1, RunConfig(set_cap=2, literal_omega10=True), counters)
    assert verdict == ResourceExceeded(cell=(1, 1), cardinality=3)
    assert counters == OpCounters(unions=2, diamonds=2)
    verdict = check_linear_inclusion(g, FG1, RunConfig(literal_omega10=True))
    assert verdict == Fails(witness=None, reason="conjugate", state=1, spurious=True)


def test_the_final_cell_scan_checks_a_hand_built_cell():
    scan = _final_cell_scan((1, 2))
    cell = PairSet(FG1, {((1,), ()): ((1,), ())})
    assert not cell.checked
    with pytest.raises(_EarlyViolation) as exc:
        scan(1, 2, cell)
    assert cell.checked and exc.value.candidates == [(1,)]
    with pytest.raises(BackendMismatch):
        scan(1, 2, PairSet(FG1, {((1, -1), ()): ((1, -1), ())}))
    scan(2, 2, PairSet(FG1, {((1, -1), ()): ((1, -1), ())}))  # another cell: not read


def test_check_conjugate_violation_has_valid_witness():
    # A1 -> x A2 XX, A2 -> x A2 | x: the no-cycle word x x XX cancels and
    # the closure's start-to-sink cell only ever materializes that walk
    # (the cycle would need its vertex as an interior twice), so only the
    # cycle-context test can spot that extra loop turns break the balance.
    g = grammar(2, [(1, [1], 2, [-1, -1]), (2, [1], 2, []), (2, [1])])
    verdict = check_linear_inclusion(g, FG1)
    assert isinstance(verdict, Fails)
    assert verdict.reason == "conjugate"
    assert verdict.state == 2
    assert verdict.witness == (1, 1, 1, -1, -1)
    assert g.generates(verdict.witness)
    assert not FG1.word_in_group_language(verdict.witness)


def test_counters_stay_within_bounds():
    counters = OpCounters()
    check_linear_inclusion(SQUARES, Cyclic(5), counters=counters)
    n = SQUARES.nonterminals
    assert counters.unions <= n * n * (n + 1)
    assert counters.diamonds <= n * n * (n + 1)
    assert counters.triples == 0  # only literal mode runs a test after the closure
    # Literal mode's unpaired triple, once per nonterminal at most: criterion 5's grammar counts one.
    counters = OpCounters()
    check_linear_inclusion(DISCREPANCY, FG1, RunConfig(literal_omega10=True), counters)
    assert counters.triples == 1 <= DISCREPANCY.nonterminals


# nfa_to_right_linear


def test_nfa_to_right_linear_chain():
    a = Nfa(states=2, rank=1, transitions=frozenset({(1, 1, 2)}), finals=frozenset({2}))
    g = nfa_to_right_linear(a)
    assert g.productions == (
        Production(lhs=1, alpha=(1,), rhs=2, beta=()),
        Production(lhs=2, alpha=()),
    )


def test_nfa_to_right_linear_epsilon_only():
    a = Nfa(states=1, rank=1, transitions=frozenset(), finals=frozenset({1}))
    assert nfa_to_right_linear(a).productions == (Production(lhs=1, alpha=()),)


def test_nfa_to_right_linear_loop():
    a = Nfa(states=1, rank=1, transitions=frozenset({(1, 1, 1)}), finals=frozenset({1}))
    g = nfa_to_right_linear(a)
    assert set(g.productions) == {
        Production(lhs=1, alpha=(1,), rhs=1, beta=()),
        Production(lhs=1, alpha=()),
    }


def test_nfa_to_right_linear_preserves_language():
    a = Nfa(
        states=3,
        rank=2,
        transitions=frozenset({(1, 1, 2), (2, -1, 3), (2, 2, 1), (3, 1, 3)}),
        finals=frozenset({3}),
    )
    g = nfa_to_right_linear(a)
    words = [(), (1,), (1, -1), (1, 2, 1, -1), (1, -1, 1), (2,), (1, 2)]
    for w in words:
        assert a.accepts(w) == g.generates(w)


def test_cross_algorithm_agreement_on_examples():
    cases = [
        (Nfa(states=3, rank=1, transitions=frozenset({(1, 1, 2), (2, -1, 3)}), finals=frozenset({3})), FG1),
        (Nfa(states=1, rank=1, transitions=frozenset({(1, 1, 1)}), finals=frozenset({1})), Cyclic(2)),
        (Nfa(states=2, rank=1, transitions=frozenset({(1, 1, 2), (2, 1, 1)}), finals=frozenset({1})), Cyclic(2)),
    ]
    for a, backend in cases:
        vr = check_regular_inclusion(a, backend)
        vl = check_linear_inclusion(nfa_to_right_linear(a), backend)
        assert isinstance(vr, Holds) == isinstance(vl, Holds)
        if isinstance(vl, Fails):
            assert a.accepts(vl.witness)
            assert not backend.word_in_group_language(vl.witness)


def test_cycle_tests_name_the_word_with_the_cycle():
    # A1 -> X1 A3 | x1 A1 X1, A3 -> A1 | X1.  In F1 the scan finds the
    # cycle at A3 wrapped around the tail X1, and both words it builds
    # (X1 X1 X1 with the cycle, X1 X1 without) miss the identity: the one
    # with the cycle is named.
    g = grammar(3, [(1, [-1], 3, []), (3, [], 1, []), (1, [1], 1, [-1]), (3, [-1])])
    assert check_linear_inclusion(g, FG1) == Fails(witness=(-1, -1, -1), reason="conjugate", state=3)
    # Over Z2 only the scan sees the failure: without it the closure
    # completes, and every start-to-sink pair multiplies to e.
    z2 = Cyclic(2)
    verdict = check_linear_inclusion(g, z2)
    assert verdict == Fails(witness=(-1, -1, -1), reason="conjugate", state=3)
    assert g.generates(verdict.witness)
    mat = build_grammar_matrix(g, z2, useful=useful_nonterminals(g))
    closure_pairs(mat, watch_final=(g.start, g.sink), read_row=g.start)
    assert mat.level == len(mat.useful)
    assert mat.cell(g.start, g.sink)
    assert all(z2._mul(*pair) == z2.identity for pair in mat.cell(g.start, g.sink).elements)


# A1 -> X2 A2 X1 | eps, A2 -> A4, A4 -> x2 X2 A1 | x1 X1 A4 over F2, from
# a seeded search.  Pivot 2 closes the cycle A4 -> A1 -> A2 -> A4, whose
# pair (x2 X2 X2, X1) changes the value of A4's tail x2 X2.
SCAN_PIN = grammar(
    4, [(1, []), (2, [], 4, []), (4, [2, -2], 1, []), (4, [1, -1], 4, []), (1, [-2], 2, [-1])], rank=2
)


def test_the_cycle_scan_tests_the_cycle_cells_the_pivot_changed(monkeypatch):
    backend = FreeGroup(2)
    mat = build_grammar_matrix(SCAN_PIN, backend, useful=useful_nonterminals(SCAN_PIN))
    tested = []  # per level, the vertices whose cycle cell the scan tested
    original = grouplang.linear._wrapped_failure

    def recorded(backend, cycles, v):
        tested[-1].append(next(i for (i, j), cell in mat.cells.items() if i == j and cell is cycles))
        return original(backend, cycles, v)

    monkeypatch.setattr(grouplang.linear, "_wrapped_failure", recorded)
    scan = _cycle_scan(SCAN_PIN, backend)

    def level_scan(m):
        tested.append([])
        scan(m)

    with pytest.raises(_EarlyViolation) as exc:
        closure_pairs(mat, level_scan=level_scan, watch_final=(1, SCAN_PIN.sink), read_row=1)
    # The cycle cell (4, 4) is a level-0 cell.  Pivot 1 leaves it as it
    # was, since K[1][4] is empty; pivot 2 changes it, at a vertex other
    # than the pivot, and the scan fails there.
    assert (mat.useful, mat.level, exc.value.state) == ((1, 2, 4, 5), 2, 4)
    assert tested == [[4], [], [4]]
    monkeypatch.undo()
    witness = (-2, 2, -2, -2, 2, -2, -1, -1)
    assert check_linear_inclusion(SCAN_PIN, backend) == Fails(witness, "conjugate", state=4)
    assert SCAN_PIN.generates(witness)


WRAP_BACKENDS = (FreeGroup(2), FreeAbelian(2), symmetric_group(3), Cyclic(3))


def _conjugation_failure(backend, cycles: PairSet, v):
    """The cycle search as u v w v^-1 != e, with the tail's inverse computed up front."""
    ident = backend.identity
    mul = backend._mul
    v_inv = backend.invert(v)
    bad = cycles.best(lambda pair: mul(mul(mul(pair[0], v), pair[1]), v_inv) != ident)
    return None if bad is None else bad[1]


def _words(rank: int, max_size: int, min_size: int = 0):
    letters = st.sampled_from([s * i for i in range(1, rank + 1) for s in (1, -1)])
    pairs = st.tuples(st.lists(letters, max_size=3), st.lists(letters, max_size=3))
    return st.lists(pairs, min_size=min_size, max_size=max_size)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), pick=st.integers(0, len(WRAP_BACKENDS) - 1))
def test_wrapped_failure_matches_the_conjugation_test(data, pick):
    backend = WRAP_BACKENDS[pick]
    cycles = PairSet(backend)
    for left, right in data.draw(_words(backend.rank, 6)):
        wit = (tuple(left), tuple(right))
        label = PairSet.evaluate(backend, wit)
        old = cycles.elements.get(label)
        if old is None or PairSet.witness_key(wit) < PairSet.witness_key(old):
            cycles.elements[label] = wit
    [(left, right)] = data.draw(_words(backend.rank, 1, min_size=1))
    v = backend.canonicalize(tuple(left + right))
    assert _wrapped_failure(backend, cycles, v) == _conjugation_failure(backend, cycles, v)


# The check's closure skips the steps into cells it never reads


def chain_grammar(rng: random.Random, backend, n: int, where: float | None = None) -> LinearGrammar:
    """A chain A_i -> a A_(i+1) b, and on each A_i a loop, an arc two steps back and an end.

    ``tau[i]`` is a word for the value every word derived from A_i takes:
    the chain draws a and b and sets tau[i+1] = a^-1 tau[i] b^-1, the
    other productions draw their left letter and solve for their right
    word, and tau[1] is empty, so the language holds.  With ``where``,
    one more letter on the chain production that far along breaks it.
    """
    letters = [s * i for i in range(1, backend.rank + 1) for s in (1, -1)]
    tau = [None, ()]
    prods = []
    for i in range(1, n):
        a, b = (rng.choice(letters),), (rng.choice(letters),)
        tau.append(inverse_word(a) + tau[i] + inverse_word(b))
        prods.append(Production(lhs=i, alpha=a, rhs=i + 1, beta=b))
    for i in range(1, n + 1):
        for j in (i, i - 2) if i > 2 else (i,):
            c = (rng.choice(letters),)
            prods.append(Production(lhs=i, alpha=c, rhs=j, beta=inverse_word(c + tau[j]) + tau[i]))
        prods.append(Production(lhs=i, alpha=tau[i]))
    if where is not None:
        at = max(1, round(where * (n - 1)))
        p = prods[at - 1]
        prods[at - 1] = Production(lhs=p.lhs, alpha=p.alpha, rhs=p.rhs, beta=p.beta + (rng.choice(letters),))
    return LinearGrammar(nonterminals=n, rank=backend.rank, productions=tuple(prods))


CLOSURE_BACKENDS = (FreeGroup(1), FreeGroup(2), FreeAbelian(2), Cyclic(3), symmetric_group(3))


def _closed_cells(g: LinearGrammar, backend, cap, read_row):
    """The diagonal, the start row and the sink column at every level, and the cap that stopped the closure.

    With ``read_row`` the check's closure runs; without, the paper's
    ``pivot_closure`` on every cell.  The cap is None, or (cell,
    cardinality, the pivot's position).
    """
    mat = build_grammar_matrix(g, backend, useful=useful_nonterminals(g))
    levels = []

    def record(m):
        cells = [(i, i) for i in m.useful] + [(g.start, j) for j in range(1, g.sink + 1)]
        cells += [(i, g.sink) for i in m.useful]
        levels.append({at: dict(m.cell(*at).elements) for at in cells})

    try:
        if read_row is None:
            pivot_closure(mat, diamond, union, cap=cap, counters=None, counted="diamonds", on_level=record)
        else:
            closure_pairs(mat, cap=cap, level_scan=record, read_row=read_row)
    except CapExceeded as exc:
        return levels, (exc.cell, exc.cardinality, mat.level), mat.useful
    return levels, None, mat.useful


def _potential_holds(g: LinearGrammar, backend) -> bool:
    tau, broken, _labels = potential(g, (g.sink,), backend, PairSet)
    return g.start in tau and not broken and tau[g.start] == backend.identity


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pick=st.integers(0, len(CLOSURE_BACKENDS) - 1),
    shape=st.sampled_from(("random", "paired", "chain")),
    cap=st.sampled_from((None, 1, 2)),
    literal=st.booleans(),
)
def test_the_check_closure_keeps_every_cell_it_reads(seed, pick, shape, cap, literal):
    rng = random.Random(seed)
    backend = CLOSURE_BACKENDS[pick]
    n = rng.randint(2, 10)
    if shape == "chain":
        g = chain_grammar(rng, backend, n, rng.choice((None, 0.5, 0.9, 1.0)))
    else:
        g = random_linear_grammar(
            rng, max_nonterminals=n, rank=backend.rank, max_productions=4 * n, mirrored=shape == "paired"
        )
        g = LinearGrammar(g.nonterminals, g.rank, g.productions, start=rng.randint(1, g.nonterminals))
    if g.start not in useful_nonterminals(g):
        return
    if cap is None and isinstance(backend, (FreeGroup, FreeAbelian)):
        cap = 64  # pair sets over these groups grow without bound
    levels, capped, useful = _closed_cells(g, backend, cap, g.start)
    full_levels, full_capped, _ = _closed_cells(g, backend, cap, None)
    # A cap in the full closure may fire in a cell the check skips; it
    # stops the full run before the check's, which only computes cells
    # that the full run computes too.
    assert levels[: len(full_levels)] == full_levels
    if full_capped is None:
        assert (levels, capped) == (full_levels, None)
    else:
        (i, j), _, at_k = full_capped
        at = {v: p for p, v in enumerate(useful)}
        if not (at[i] < at_k and at[j] <= at_k and i not in (j, g.start)):
            assert capped == full_capped  # the full run capped in a cell the check computes

    config = RunConfig(literal_omega10=literal) if cap is None else RunConfig(set_cap=cap, literal_omega10=literal)
    verdict = check_linear_inclusion(g, backend, config)

    def full_closure(mat, *, read_row=None, **kwargs):
        return closure_pairs(mat, **kwargs)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(grouplang.linear, "closure_pairs", full_closure)
        reference = check_linear_inclusion(g, backend, config)
    if not isinstance(reference, ResourceExceeded):
        assert verdict == reference
    elif not isinstance(verdict, ResourceExceeded):
        # The full closure capped in a skipped cell; the check decides.
        if not (isinstance(verdict, Fails) and verdict.spurious):
            assert isinstance(verdict, Holds) == _potential_holds(g, backend)
        if verdict.witness is not None:
            assert g.generates(verdict.witness)
            assert not backend.word_in_group_language(verdict.witness)


def _paired_closure_completes(g: LinearGrammar, backend) -> bool | None:
    """Close the useful pair matrix as the check does: True if it completes, False if a test stops it.

    None if a pair set outgrows the cap of 256.
    """
    mat = build_grammar_matrix(g, backend, useful=useful_nonterminals(g))
    try:
        closure_pairs(
            mat, cap=256, watch_final=(g.start, g.sink), level_scan=_cycle_scan(g, backend), read_row=g.start
        )
    except _EarlyViolation:
        return False
    except CapExceeded:
        return None
    return True


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pick=st.integers(0, len(CLOSURE_BACKENDS) - 1),
    family=st.sampled_from(("random", "mirrored", "automaton", "chain", "broken chain")),
)
def test_a_completed_paired_closure_proves_the_inclusion(seed, pick, family):
    """The lemma of ``_cycle_scan``: the closure completes exactly when the language holds."""
    rng = random.Random(seed)
    backend = CLOSURE_BACKENDS[pick]
    n = rng.randint(1, 6)  # up to 8 nonterminals made this test about three times slower
    if family == "automaton":
        a = random_nfa(
            rng, max_states=n, rank=backend.rank, density=rng.choice((0.1, 0.2, 0.35)),
            inverse_paired=rng.random() < 0.5,
        )
        g = nfa_to_right_linear(a)
    elif family.endswith("chain"):
        g = chain_grammar(rng, backend, n, rng.choice((0.5, 0.9, 1.0)) if family == "broken chain" else None)
    else:
        g = random_linear_grammar(
            rng, max_nonterminals=n, rank=backend.rank, max_productions=4 * n, mirrored=family == "mirrored"
        )
    if g.start not in useful_nonterminals(g):
        return  # the empty language: no matrix to close
    completed = _paired_closure_completes(g, backend)
    if completed is not None:
        assert completed == _potential_holds(g, backend)


# A1 -> A2 X2 X1, A2 -> x1 x2 A2 X2 X1 | x1 A3 x2, A3 -> eps over F2
# holds.  A2's fewest-letter tail, x1 A3 x2, has a right part, and the
# cycle pair (x1 x2, X2 X1) fixes the tail's value x1 x2 but not x2 x1.
RIGHT_TAIL = grammar(3, [(1, [], 2, [-2, -1]), (2, [1, 2], 2, [-2, -1]), (2, [1], 3, [2]), (3, [])], rank=2)


def test_the_cycle_scan_reads_a_tail_with_its_right_part_last():
    assert _potential_holds(RIGHT_TAIL, FreeGroup(2))
    assert _paired_closure_completes(RIGHT_TAIL, FreeGroup(2))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, len(CLOSURE_BACKENDS) - 1), prune=st.booleans())
def test_the_sink_is_the_last_vertex_and_no_cell_leaves_it(seed, pick, prune):
    rng = random.Random(seed)
    backend = CLOSURE_BACKENDS[pick]
    n = rng.randint(1, 8)
    g = random_linear_grammar(rng, max_nonterminals=n, rank=backend.rank, max_productions=3 * n)
    g = LinearGrammar(g.nonterminals, g.rank, g.productions, start=rng.randint(1, g.nonterminals))
    useful = useful_nonterminals(g) if prune else None
    cap = 64 if isinstance(backend, (FreeGroup, FreeAbelian)) else None  # their pair sets grow without bound
    for read_row in (None, g.start):
        mat = build_grammar_matrix(g, backend, useful=useful)
        assert mat.useful[-1] == g.sink
        assert mat.useful[:-1] == tuple(sorted(useful if prune else range(1, g.sink)))
        assert all(i != g.sink for i, _j in mat.cells)
        try:
            closure_pairs(mat, cap=cap, read_row=read_row)
        except CapExceeded:
            assert mat.level < len(mat.useful)
        else:
            assert mat.level == len(mat.useful)
        assert all(i != g.sink for i, _j in mat.cells)


# Nine nonterminals over S3, with the chain arc A_8 -> A_9 broken.
SAVED_WORK = chain_grammar(random.Random(18), symmetric_group(3), 9, 1.0)


def test_the_check_closure_skips_the_cells_it_never_reads():
    counters = OpCounters()
    verdict = check_linear_inclusion(SAVED_WORK, symmetric_group(3), counters=counters)
    witness = (-1, -2, -1, -2, -1, 2, 2, 2, -2, -2, -2, 1, 2, 1, 2, 1, -1)
    witness += (-2, 1, 2, 2, 2, 1, -1, 1, -2, -1, -2, -2, -2, -1, 2, 1)
    assert verdict == Fails(witness=witness, reason="conjugate", state=9)
    # The full closure makes 363 of each.
    assert counters.diamonds == counters.unions == 251
