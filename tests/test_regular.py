"""Automaton checks: matrix construction, closure, verdicts, witnesses."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import paper_check, symmetric_group_3
from grouplang import (
    CONJUGATE,
    BackendMismatch,
    Cyclic,
    Fails,
    FreeAbelian,
    FreeGroup,
    Holds,
    InputError,
    InternalInconsistency,
    Nfa,
    OpCounters,
    ResourceExceeded,
    RunConfig,
    SingletonViolation,
    build_initial_matrix,
    check_regular_inclusion,
    closure,
    extract_witness,
    load_nfa,
    nfa_to_dict,
    parse_nfa,
    useful_states,
)
from grouplang.corpus import random_nfa
from grouplang.regular import first_failing_word, shortest_word_path

FG1 = FreeGroup(1)


def nfa(states, arcs, finals, rank=1, start=1):
    return Nfa(
        states=states,
        rank=rank,
        transitions=frozenset(tuple(a) for a in arcs),
        start=start,
        finals=frozenset(finals),
    )


# construction and file format


def test_rejects_epsilon_transitions():
    with pytest.raises(InputError, match="empty-word"):
        nfa(2, [(1, 0, 2)], [2])


def test_rejects_out_of_range_states():
    with pytest.raises(InputError):
        nfa(2, [(1, 1, 3)], [2])


def test_a_transition_end_of_another_type_is_an_input_error():
    with pytest.raises(InputError, match="bad transition"):
        Nfa(2, 1, frozenset({("1", 1, 2)}))


def test_a_final_state_of_another_type_is_an_input_error():
    with pytest.raises(InputError, match="final states must be integers"):
        Nfa(2, 1, frozenset(), 1, frozenset({"2"}))


# True compares as state 1, so only an inline test tells it from one.
def test_a_bool_transition_source_is_an_input_error():
    with pytest.raises(InputError, match="leaves"):
        Nfa(2, 1, frozenset({(True, 1, 2)}), 1, frozenset({2}))


def test_a_bool_transition_target_is_an_input_error():
    with pytest.raises(InputError, match="leaves"):
        Nfa(2, 1, frozenset({(2, 1, True)}), 2, frozenset({1}))


def test_a_bool_final_state_is_an_input_error():
    with pytest.raises(InputError, match="final state True"):
        Nfa(2, 1, frozenset({(2, 1, 1)}), 2, frozenset({True}))


def test_a_two_item_transition_is_an_input_error():
    with pytest.raises(InputError, match="bad transition"):
        Nfa(2, 1, frozenset({(1, 2)}))


def test_parse_roundtrip(tmp_path):
    a = nfa(3, [(1, 1, 2), (2, -1, 3)], [3], rank=2)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(nfa_to_dict(a)), encoding="utf-8")
    assert load_nfa(path) == a


def test_parse_rejects_unknown_fields():
    with pytest.raises(InputError, match="unknown"):
        parse_nfa(
            {
                "states": 1,
                "alphabet_rank": 1,
                "transitions": [],
                "start": 1,
                "finals": [],
                "weights": [],
            }
        )


def test_accepts_simulation():
    a = nfa(3, [(1, 1, 2), (2, -1, 3)], [3])
    assert a.accepts((1, -1))
    assert not a.accepts((1,))
    assert not a.accepts(())


# useful_states


def test_useful_single_state_no_arcs():
    assert useful_states(nfa(1, [], [1])) == {1}


def test_useful_chain():
    assert useful_states(nfa(3, [(1, 1, 2), (2, 1, 3)], [3])) == {1, 2, 3}


def test_useful_drops_isolated_state():
    assert useful_states(nfa(3, [(1, 1, 2)], [2])) == {1, 2}


# build_initial_matrix


def test_initial_matrix_parallel_arcs():
    a = nfa(2, [(1, 1, 2), (1, -1, 2)], [2])
    mat = build_initial_matrix(a, FG1)
    assert frozenset(mat.cell(1, 2).elements) == {(1,), (-1,)}
    assert len(mat.cell(1, 2)) == 2


def test_initial_matrix_cyclic_loop():
    a = nfa(1, [(1, 1, 1)], [1])
    mat = build_initial_matrix(a, Cyclic(2))
    assert frozenset(mat.cell(1, 1).elements) == {1}


def test_initial_matrix_missing_arc_is_empty():
    a = nfa(2, [(1, 1, 2)], [2])
    mat = build_initial_matrix(a, FG1)
    assert not mat.cell(2, 1)
    assert mat.level == 0


# closure


def test_closure_composes_chain():
    a = nfa(3, [(1, 1, 2), (2, -1, 3)], [3])
    mat = closure(build_initial_matrix(a, FG1))
    assert mat.cell(1, 3).elements == {(): (1, -1)}
    assert mat.level == 3


def test_closure_early_fail_on_cyclic_loop():
    # The loop's first and second powers differ mod 2.
    a = nfa(1, [(1, 1, 1)], [1])
    mat = build_initial_matrix(a, Cyclic(2))
    with pytest.raises(SingletonViolation) as exc:
        closure(mat, early_fail=True)
    assert (exc.value.i, exc.value.j) == (1, 1)
    assert {exc.value.witness_a, exc.value.witness_b} == {(1,), (1, 1)}


def test_closure_of_empty_matrix_is_noop():
    a = nfa(2, [], [])
    mat = build_initial_matrix(a, FG1)
    closure(mat)
    assert not mat.cells


def test_closure_counts_operations():
    a = nfa(3, [(1, 1, 2), (2, -1, 3), (3, 1, 1)], [3])
    counters = OpCounters()
    closure(build_initial_matrix(a, FG1), early_fail=False, counters=counters)
    n = 3
    assert 0 < counters.products <= n**3
    assert 0 < counters.unions <= n**3


# check_regular_inclusion


def test_check_single_cancelling_word_holds():
    a = nfa(3, [(1, 1, 2), (2, -1, 3)], [3])
    assert check_regular_inclusion(a, FG1) == Holds()


def test_check_single_generator_fails():
    a = nfa(2, [(1, 1, 2)], [2])
    verdict = check_regular_inclusion(a, FG1)
    assert isinstance(verdict, Fails)
    assert verdict.witness == (1,)


def test_check_star_language_fails_mod_two():
    a = nfa(1, [(1, 1, 1)], [1])
    verdict = check_regular_inclusion(a, Cyclic(2))
    assert isinstance(verdict, Fails)
    assert verdict.witness == (1,)


def test_check_even_powers_hold_mod_two():
    a = nfa(2, [(1, 1, 2), (2, 1, 1)], [1])
    assert check_regular_inclusion(a, Cyclic(2)) == Holds()


def test_check_empty_language_holds_vacuously():
    assert check_regular_inclusion(nfa(2, [(1, 1, 2)], []), FG1) == Holds()
    # Final state unreachable: same thing.
    assert check_regular_inclusion(nfa(3, [(1, 1, 2)], [3]), FG1) == Holds()


def test_check_epsilon_only_language_holds():
    assert check_regular_inclusion(nfa(1, [], [1]), Cyclic(5)) == Holds()


def test_check_rank_mismatch():
    with pytest.raises(BackendMismatch):
        check_regular_inclusion(nfa(2, [(1, 1, 2)], [2], rank=2), FG1)


def test_check_resource_exceeded_reports_cell():
    config = RunConfig(set_cap=1)
    # With early-fail off, pivot 1 adds x x to the loop cell {x}; the
    # union grows it past a cap of 1.
    a = nfa(1, [(1, 1, 1)], [1])
    assert paper_check(a, FG1, config) == ResourceExceeded(cell=(1, 1), cardinality=2)
    # The cap bounds only what the closure computes: parallel arcs put
    # two labels in the input cell (1, 2), but no set grows there.
    a = nfa(2, [(1, 1, 2), (1, -1, 2)], [2])
    assert paper_check(a, FG1, config) == Fails(witness=(-1,), reason="simple-path")


def test_check_conjugate_violation_mid_cycle():
    # Words x (x)^n x^-1: the simple path x x^-1 cancels, but the cycle at
    # state 2 does not, so only the conjugate test can catch it.
    a = nfa(3, [(1, 1, 2), (2, 1, 2), (2, -1, 3)], [3], rank=1)
    counters = OpCounters()
    verdict = paper_check(a, Cyclic(3), None, counters)
    assert isinstance(verdict, Fails)
    assert verdict.reason == "conjugate"
    assert a.accepts(verdict.witness)
    assert not Cyclic(3).word_in_group_language(verdict.witness)
    # The test ran at state 2 only, the one state with an access, a cycle and an exit.
    assert counters == OpCounters(unions=4, products=4, stars=1)


def test_the_paper_closure_caps_the_conjugate_set():
    # 1 -X1-> 2 -x1-> 1 with the loops x1 and X2 at 2, from a seeded
    # search: the paper's closure reads only e from 1 to 1 and leaves six
    # cycle labels at 2, within a cap of 8, but their conjugates by the
    # access labels of 2 number 9.  The conjugate test at 1 passes first.
    a = nfa(2, [(1, -1, 2), (2, 1, 1), (2, 1, 2), (2, -2, 2)], [1], rank=2)
    counters = OpCounters()
    verdict = paper_check(a, FreeGroup(2), RunConfig(set_cap=8), counters)
    assert verdict == ResourceExceeded(cell=(2, 2), cardinality=9)
    assert counters == OpCounters(unions=5, products=5, stars=1)
    assert paper_check(a, FreeGroup(2)) == Fails(witness=(-1, -2, 1), reason="conjugate", state=2)


# extract_witness


def test_extract_witness_prefers_with_cycle():
    assert extract_witness(Cyclic(2), (), (1,), ()) == (1,)


def test_extract_witness_mid_conjugate():
    assert extract_witness(Cyclic(3), (1,), (1,), (-1,)) == (1, 1, -1)


def test_extract_witness_falls_back_to_skipping_cycle():
    # u v w maps to the identity mod 2 but u w does not.
    assert extract_witness(Cyclic(2), (1,), (1,), ()) == (1,)


def test_first_failing_word_raises_on_no_candidate():
    with pytest.raises(InternalInconsistency):
        first_failing_word(FG1, [(), (1, -1)])


def test_simple_path_violation_uses_cell_witness():
    a = nfa(2, [(1, 1, 2), (2, 1, 1)], [2], rank=1)
    verdict = paper_check(a, Cyclic(3))
    assert isinstance(verdict, Fails)
    assert verdict.reason == "simple-path"
    assert verdict.witness == (1,)


def test_a_completed_fallback_closure_fails_on_its_start_row():
    # 1 -x-> 2 -x-> 3 with finals 2 and 3 over Z/2: the arc 2 -> 3 breaks
    # tau, and the one step that reads it, pivot 2 from 1 to 3, fills the
    # empty cell (1, 3).  So the check falls back to the closure, which
    # completes with singleton cells, and its start row names x.
    a = nfa(3, [(1, 1, 2), (2, 1, 3)], [2, 3])
    counters = OpCounters()
    verdict = check_regular_inclusion(a, Cyclic(2), None, counters)
    assert verdict == Fails(witness=(1,), reason="simple-path")
    assert counters == OpCounters(unions=1, products=1)


def test_run_config_validation():
    with pytest.raises(InputError):
        RunConfig(set_cap=0)
    assert RunConfig().set_cap == 4096


# shortest_word_path


def test_shortest_word_path_prefers_short_then_lex():
    a = nfa(3, [(1, 2, 3), (1, 1, 2), (2, 1, 3)], [3], rank=2)
    assert shortest_word_path(a, 1, {3}) == (2,)
    assert shortest_word_path(a, 1, {1}) == ()
    assert shortest_word_path(a, 3, {1}) is None


# invariants


def _relabel(a: Nfa, perm: dict[int, int]) -> Nfa:
    return Nfa(
        states=a.states,
        rank=a.rank,
        transitions=frozenset((perm[s], x, perm[d]) for s, x, d in a.transitions),
        start=perm[a.start],
        finals=frozenset(perm[f] for f in a.finals),
    )


def test_state_relabeling_invariance():
    rng = random.Random(7)
    backends = [FG1, Cyclic(2), Cyclic(3)]
    for _ in range(60):
        n = rng.randint(1, 4)
        arcs = set()
        for _ in range(rng.randint(0, 6)):
            arcs.add((rng.randint(1, n), rng.choice((1, -1)), rng.randint(1, n)))
        finals = [s for s in range(1, n + 1) if rng.random() < 0.4]
        a = nfa(n, arcs, finals)
        states = list(range(1, n + 1))
        shuffled = states[:]
        rng.shuffle(shuffled)
        b = _relabel(a, dict(zip(states, shuffled)))
        for backend in backends:
            va = check_regular_inclusion(a, backend)
            vb = check_regular_inclusion(b, backend)
            assert type(va) is type(vb)
            if isinstance(vb, Fails):
                assert b.accepts(vb.witness)
                assert not backend.word_in_group_language(vb.witness)


def test_the_default_check_agrees_with_the_papers():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 4)
        arcs = set()
        for _ in range(rng.randint(0, 7)):
            arcs.add((rng.randint(1, n), rng.choice((1, -1)), rng.randint(1, n)))
        finals = [s for s in range(1, n + 1) if rng.random() < 0.4]
        a = nfa(n, arcs, finals)
        for backend in (FG1, Cyclic(2), Cyclic(4)):
            fast = check_regular_inclusion(a, backend)
            slow = paper_check(a, backend)
            if isinstance(fast, ResourceExceeded) or isinstance(slow, ResourceExceeded):
                continue
            assert isinstance(fast, Holds) == isinstance(slow, Holds)


_INVARIANT_BACKENDS = {
    1: (FG1, Cyclic(2), Cyclic(3)),
    2: (FreeGroup(2), FreeAbelian(2), symmetric_group_3()),
}


@settings(max_examples=200, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    rank=st.sampled_from([1, 2]),
    pick=st.integers(0, 2),
    density=st.sampled_from([0.1, 0.2, 0.35]),
    paired=st.booleans(),
)
def test_early_exit_leaves_only_identity_cycles(rng, rank, pick, density, paired):
    # A closure that early exit lets finish has only identity cycle labels,
    # so the default check never reaches a conjugate failure.
    a = random_nfa(rng, max_states=6, rank=rank, density=density, inverse_paired=paired)
    backend = _INVARIANT_BACKENDS[rank][pick]
    mat = build_initial_matrix(a, backend, useful=useful_states(a))
    try:
        closure(mat)
    except SingletonViolation:
        return
    for j in mat.useful:
        assert frozenset(mat.cell(j, j).elements) <= {backend.identity}
    verdict = check_regular_inclusion(a, backend)
    assert not (isinstance(verdict, Fails) and verdict.reason == CONJUGATE)
