"""The regular check's reads on the arcs, guided by the potential, against the paper's closure.

Given the cells ``potential`` finds broken, the other level-0 cells are
*known*: singletons whose one label agrees with the potential tau.  A
pivot step that reads only known cells cannot make the closure exit.
Before the check builds a matrix, it looks on the automaton's arcs for
the closure's first step that reads a broken cell (``_arc_exit``), and
raises that step's exit without the matrix when the step makes one.
When no step reads a broken cell, it reads the start row the closure
would leave off the arcs instead.  The exit on the arcs must end as
the closure (``closure``, with its early exit) does: the same
``SingletonViolation``, the same ``CapExceeded``, or, when it falls
back, the same closed matrix; and the start-row read must name the
failure the closed matrix's start row names.  The sweep that finds the
first step must find the step a replay of the loop on per-row bitsets
finds.
"""

from __future__ import annotations

import importlib
import random
import tracemalloc
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import grouplang.regular
from conftest import closure_only, symmetric_group
from grouplang import (
    CapExceeded,
    Cyclic,
    Fails,
    Holds,
    FreeAbelian,
    FreeGroup,
    Nfa,
    OpCounters,
    SingletonViolation,
    build_initial_matrix,
    check_regular_inclusion,
    closure,
    inverse_word,
    useful_states,
)
from grouplang.corpus import random_nfa
from grouplang.regular import _arc_exit, _first_step_on_arcs, pivot_closure, potential
from grouplang.semiring import GroupSet

ROOT = Path(__file__).resolve().parent.parent

BACKENDS = (
    FreeGroup(1),
    Cyclic(2),
    Cyclic(3),
    FreeGroup(2),
    FreeAbelian(2),
    symmetric_group(3),
    symmetric_group(4),
)


def path_nfa(rng: random.Random, backend, states: int, loop_at: int) -> Nfa:
    """States 1..states on a path with arcs both ways, each pair a letter and its inverse.

    Finals are the states whose path value is the identity, so the
    language holds until the non-identity self-loop at ``loop_at`` breaks
    it (no generator of these backends is the identity).
    """
    letters = [s * i for i in range(1, backend.rank + 1) for s in (1, -1)]
    arcs = set()
    value = [None, backend.identity]
    for q in range(2, states + 1):
        a = rng.choice(letters)
        arcs |= {(q - 1, a, q), (q, -a, q - 1)}
        value.append(backend.multiply(value[q - 1], backend.canonicalize((a,))))
    arcs.add((loop_at, rng.choice(letters), loop_at))
    finals = frozenset(q for q in range(1, states + 1) if value[q] == backend.identity)
    return Nfa(states=states, rank=backend.rank, transitions=frozenset(arcs), finals=finals)


def settled_path(rng: random.Random, backend, states: int) -> Nfa:
    """``path_nfa`` without its self-loop, and with only its last state final, whose value is not e.

    No cell is broken and tau(1) is not e: no step of the closure reads a
    broken cell.  ``states`` must be even: over Z2 an odd one has the value e.
    """
    while True:
        a = path_nfa(rng, backend, states, 1)
        if states not in a.finals:
            arcs = frozenset(arc for arc in a.transitions if arc[0] != arc[2])
            return Nfa(states=states, rank=a.rank, transitions=arcs, finals=frozenset({states}))


def with_random_arcs(rng: random.Random, a: Nfa, count: int) -> Nfa:
    """``a`` with ``count`` more arcs, each between random states with a random letter."""
    letters = [s * i for i in range(1, a.rank + 1) for s in (1, -1)]
    extra = {(rng.randint(1, a.states), rng.choice(letters), rng.randint(1, a.states)) for _ in range(count)}
    return Nfa(states=a.states, rank=a.rank, transitions=a.transitions | extra, finals=a.finals)


def replay_first_semiring_step(known: list[int], bad: list[int]) -> tuple[int, int, int] | None:
    """Positions (k, i, j) of the closure's first step that reads a broken cell, or None.

    The reference for ``_first_step_on_arcs``.  ``known[i]`` and
    ``bad[i]`` are bitsets over the positions of the useful vertices: row
    i's non-empty cells outside and inside the broken set.  The loop of
    ``pivot_closure`` is replayed on them up to that step, at one visit
    per row and pivot, so ``known`` ends as the loop's known cells there:
    a step from two known cells into an empty or known cell leaves a
    known cell.
    """
    for pk, (known_k, bad_k) in enumerate(zip(known, bad)):
        bit = 1 << pk
        row_k = known_k | bad_k
        for pi, (known_i, bad_i) in enumerate(zip(known, bad)):
            if known_i & bit:
                steps = bad_k | (bad_i & row_k)  # a broken K[k][j] or K[i][j]
            elif bad_i & bit:
                steps = row_k  # a broken K[i][k]: every step of the row
            else:
                continue  # K[i][k] is empty
            if steps:
                return pk, pi, (steps & -steps).bit_length() - 1
            known[pi] = known_i | known_k  # no step read a broken cell: row i reaches row k's cells
    return None


@st.composite
def random_layouts(draw):
    """1-12 vertices; each cell is known, broken or empty at random densities."""
    n = draw(st.integers(1, 12))
    known, broken = draw(st.floats(0.05, 0.4)), draw(st.floats(0, 0.1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cells = {}
    for p in range(n):
        for q in range(n):
            r = rng.random()
            if r < broken + known:
                cells[p, q] = r < broken
    return n, cells, rng


@st.composite
def two_way_paths(draw):
    """A path of 2-40 vertices with known cells both ways, in order or shuffled, and 0-3 broken cells."""
    n = draw(st.integers(2, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    order = list(range(n))
    if draw(st.booleans()):
        rng.shuffle(order)
    cells = {}
    for p, q in zip(order, order[1:]):
        cells[p, q] = cells[q, p] = False
    for _ in range(draw(st.integers(0, 3))):
        cells[rng.randrange(n), rng.randrange(n)] = True
    return n, cells, rng


@settings(max_examples=1000, deadline=None)
@given(layout=st.one_of(random_layouts(), two_way_paths()))
# Known 0 -> 1 -> 2 -> 3 and the broken (0, 3): row 0 reaches 2 at pivot 1,
# and must expand it at pivot 2, where the first step is (2, 0, 3).
@example(layout=(4, {(0, 1): False, (1, 2): False, (2, 3): False, (0, 3): True}, random.Random(0)))
# Known 3 -> 2 -> 0 -> 4 and the broken (3, 4): at pivot 2, row 3 reaches 0
# through 2 and must expand 0 at once, before its pivot would come.
@example(layout=(5, {(3, 2): False, (2, 0): False, (0, 4): False, (3, 4): True}, random.Random(0)))
def test_the_arc_sweep_finds_the_replays_first_step(layout):
    n, cells, rng = layout
    known, bad = [[] for _ in range(n)], [[] for _ in range(n)]
    known_bits, bad_bits = [0] * n, [0] * n
    listed = list(cells.items())
    rng.shuffle(listed)  # the arc pass lists a row's columns in arc order, not by position
    for (p, q), is_broken in listed:
        (bad if is_broken else known)[p].append(q)
        if is_broken:
            bad_bits[p] |= 1 << q
        else:
            known_bits[p] |= 1 << q
    assert _first_step_on_arcs(known, bad) == replay_first_semiring_step(known_bits, bad_bits)


def run_closure(a: Nfa, backend, cap, early_fail: bool = True, on_arcs: bool = False):
    """The closure's end, its counters, and whether the reads on the arcs decided the check.

    The end is ('violation', ...), ('cap', ...) or ('closed', level,
    cells).  With ``on_arcs``, the check's reads on the arcs run first:
    the exit raises what the closure would, the start-row read ends in
    ('start-row', witness), and the matrix is built and closed only when
    neither decides.
    """
    useful = useful_states(a)
    counters = OpCounters()
    decided = on_arcs
    try:
        if on_arcs:
            tau, broken, labels = potential(a, a.finals, backend, GroupSet)
            if a.start in tau:  # the check answers an empty language before
                witness = _arc_exit(a, backend, tau, broken, labels, cap, counters)
                if witness is not None:
                    return ("start-row", witness), counters, decided
        decided = False
        mat = build_initial_matrix(a, backend, useful=useful)
        closure(mat, early_fail=early_fail, cap=cap, counters=counters)
    except SingletonViolation as sv:
        return ("violation", sv.i, sv.j, sv.witness_a, sv.witness_b), counters, decided
    except CapExceeded as exc:
        return ("cap", exc.cell, exc.cardinality), counters, decided
    cells = {at: cell.elements for at, cell in mat.cells.items()}
    return ("closed", mat.level, cells), counters, decided


def start_row_failure(a: Nfa, backend, cells: dict):
    """The witness of the check's start-row test on a closed matrix's cells, or None if it passes."""
    for t in sorted(a.finals & useful_states(a)):
        failing = [wit for label, wit in cells.get((a.start, t), {}).items() if label != backend.identity]
        if failing:
            return min(failing, key=GroupSet.witness_key)
    return None


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pick=st.integers(0, len(BACKENDS) - 1),
    shape=st.sampled_from(("random", "paired", "path", "path-plus")),
    cap=st.sampled_from((None, 1, 2)),
)
def test_the_exit_on_the_arcs_ends_as_the_closure(seed, pick, shape, cap):
    rng = random.Random(seed)
    backend = BACKENDS[pick]
    states = rng.randint(2, 32)  # the sizes of the regular-closure benchmark pool
    if shape == "path":
        a = path_nfa(rng, backend, states, rng.randint(1, states))
    elif shape == "path-plus":
        # A path fails at its first step that reads a broken cell; with a
        # few more arcs, about half the checks fall back to the closure.
        states = rng.randint(8, 24)
        a = with_random_arcs(rng, path_nfa(rng, backend, states, rng.randint(1, states)), rng.randint(1, 3))
    else:
        a = random_nfa(
            rng,
            max_states=states,
            rank=backend.rank,
            density=rng.choice((1, 2, 4)) / states,
            inverse_paired=shape == "paired",
        )
    direct, direct_counters, decided = run_closure(a, backend, cap, on_arcs=True)
    plain, plain_counters, _ = run_closure(a, backend, cap)
    if not decided:
        assert (direct, direct_counters) == (plain, plain_counters)
    elif direct[0] == "start-row":
        assert plain[0] == "closed" and direct[1] == start_row_failure(a, backend, plain[2])
        assert direct_counters == OpCounters()
    else:
        assert direct == plain
        level0 = build_initial_matrix(a, backend, useful=useful_states(a)).cells.values()
        if any(len(cell) >= 2 for cell in level0):
            assert direct_counters == OpCounters()  # the exit before the first pivot
        else:
            # The one step the exit makes; a cap hit in ``union`` leaves its product without a union.
            assert direct_counters == OpCounters(products=1, unions=0 if direct[0] == "cap" else 1)


def refuse(what: str):
    def refused(*args, **kwargs):
        raise AssertionError(f"{what} ran")

    return refused


def test_a_long_failing_path_never_runs_the_pivot_loop(monkeypatch):
    monkeypatch.setattr(grouplang.regular, "pivot_closure", refuse("the pivot loop"))
    monkeypatch.setattr(grouplang.regular, "build_initial_matrix", refuse("the matrix builder"))
    a = path_nfa(random.Random(0), FreeGroup(2), 512, 500)
    forward = {src: letter for src, letter, dst in a.transitions if dst == src + 1}
    to_loop = tuple(forward[q] for q in range(1, 500))
    assert a.finals == {1} and (500, 2, 500) in a.transitions
    counters = OpCounters()
    verdict = check_regular_inclusion(a, FreeGroup(2), None, counters)
    # There and back, with the loop x2 in the middle: the exit is at
    # (500, 500), where the loop meets the walk 500 -> 499 -> 500.
    assert verdict == Fails(
        witness=to_loop + (2,) + inverse_word(to_loop), reason="distinct-labels", state=500
    )
    assert counters.products == counters.unions == 1


def test_a_2000_state_failing_path_exits_on_its_arcs(monkeypatch):
    monkeypatch.setattr(grouplang.regular, "pivot_closure", refuse("the pivot loop"))
    monkeypatch.setattr(grouplang.regular, "build_initial_matrix", refuse("the matrix builder"))
    backend = symmetric_group(4)
    a = path_nfa(random.Random(0), backend, 2000, 1800)
    forward = {src: letter for src, letter, dst in a.transitions if dst == src + 1}
    [loop] = [letter for src, letter, dst in a.transitions if src == dst]
    # Over S4 the path value returns to e often: the nearest final state
    # to the loop lies before it, closer than any after it.
    back_to = max(q for q in a.finals if q < 1800)
    assert 1800 - back_to < min(q for q in a.finals if q > 1800) - 1800
    to_loop = tuple(forward[q] for q in range(1, 1800))
    counters = OpCounters()
    verdict = check_regular_inclusion(a, backend, None, counters)
    # There, the loop, and back to the final state before it: the exit is
    # at (1800, 1800), where the loop meets the walk 1800 -> 1799 -> 1800.
    assert verdict == Fails(
        witness=to_loop + (loop,) + inverse_word(to_loop[back_to - 1 :]), reason="distinct-labels", state=1800
    )
    assert counters.products == counters.unions == 1


def test_the_direct_exit_reads_cells_that_earlier_pivots_filled(monkeypatch):
    # Over Z3, with finals 5 and 6: 1 -X1-> 2 -x1-> 4 and 1 -x1-> 3 -X1-> 4
    # fill K[1][4] at pivots 2 and 3, least witness X1 x1.  The potential
    # breaks only (4, 5), so the first step that reads a broken cell is
    # (4, 1, 5), where X1 x1 X1 meets the arc 1 -x1-> 5; row 2's step comes after it.
    arcs = frozenset(
        {(1, -1, 2), (2, 1, 4), (1, 1, 3), (3, -1, 4), (4, 1, 6), (4, -1, 5), (1, 1, 5), (2, -1, 5)}
    )
    a = Nfa(states=6, rank=1, transitions=arcs, finals=frozenset({5, 6}))
    backend = Cyclic(3)
    assert potential(a, a.finals, backend, GroupSet)[1] == {(4, 5)}
    loop = run_closure(a, backend, None)[0]
    assert loop == ("violation", 1, 5, (1,), (-1, 1, -1))
    monkeypatch.setattr(grouplang.regular, "pivot_closure", refuse("the pivot loop"))
    assert run_closure(a, backend, None, on_arcs=True)[::2] == (loop, True)


def counted_loops(monkeypatch) -> list:
    """Patch the pivot loop to record each call; the list it returns fills as the loop runs."""
    loops = []

    def counted(*args, **kwargs):
        loops.append(args[0].useful)
        return pivot_closure(*args, **kwargs)

    monkeypatch.setattr(grouplang.regular, "pivot_closure", counted)
    return loops


def test_a_first_step_into_an_empty_cell_falls_back_to_the_loop(monkeypatch):
    # 1 -x1-> 2 -x1-> 3 and 1 -x1-> 4 -x2-> 3 over F2, with 3 final: the
    # potential breaks (1, 2), and the first step that reads a broken
    # cell, at pivot 2, fills the empty K[1][3].  The loop then exits at pivot 4.
    arcs = frozenset({(1, 1, 2), (2, 1, 3), (1, 1, 4), (4, 2, 3)})
    a = Nfa(states=4, rank=2, transitions=arcs, finals=frozenset({3}))
    backend = FreeGroup(2)
    assert potential(a, a.finals, backend, GroupSet)[1] == {(1, 2)}
    loops = counted_loops(monkeypatch)
    direct, counters, decided = run_closure(a, backend, None, on_arcs=True)
    assert loops == [(1, 2, 3, 4)] and not decided
    assert (direct, counters) == run_closure(a, backend, None)[:2]
    assert direct[:3] == ("violation", 1, 3)


def test_a_first_step_that_keeps_its_target_falls_back_to_the_loop(monkeypatch):
    # 1 -x1-> 2 -x1-> 3, 1 -X1-> 3 and 1 -x1-> 4 over Z3, with 3 and 4
    # final: the potential takes tau(1) from 4 and breaks (1, 2) and
    # (1, 3).  The first step that reads a broken cell, at pivot 2,
    # multiplies x1 x1 into K[1][3], which already holds that label, so
    # nothing exits; the loop makes the step once and closes the matrix.
    arcs = frozenset({(1, 1, 2), (2, 1, 3), (1, -1, 3), (1, 1, 4)})
    a = Nfa(states=4, rank=1, transitions=arcs, finals=frozenset({3, 4}))
    backend = Cyclic(3)
    assert potential(a, a.finals, backend, GroupSet)[1] == {(1, 2), (1, 3)}
    loops = counted_loops(monkeypatch)
    direct, counters, decided = run_closure(a, backend, None, on_arcs=True)
    assert loops == [(1, 2, 3, 4)] and not decided
    assert (direct, counters) == run_closure(a, backend, None)[:2]
    assert direct[:2] == ("closed", 4) and direct[2][1, 3] == {2: (-1,)}
    assert counters.products == counters.unions == 1


def pinned_path() -> Nfa:
    """A 16-state inverse-paired path over F2 with the self-loop x1 at state 12."""
    letters = (1, 2, -2, -1, 2, 1, -1, -2, 1, 1, -1, -1, 2, 1, 2)
    arcs = {(q, a, q + 1) for q, a in enumerate(letters, 1)}
    arcs |= {(q + 1, -a, q) for q, a in enumerate(letters, 1)}
    arcs.add((12, 1, 12))
    # The path value is the identity at states 1, 5, 9 and 13.
    return Nfa(states=16, rank=2, transitions=frozenset(arcs), finals=frozenset({1, 5, 9, 13}))


# Default path: the exit on the arcs makes the one step into (12, 12) at
# pivot 11, where the loop meets the identity; the paper's closure, under
# ``closure_only()``, makes every step up to it.
PINNED_PRODUCTS = (1, 646)


def test_the_check_multiplies_only_at_the_violation():
    a = pinned_path()
    backend = FreeGroup(2)
    counters, reference_counters = OpCounters(), OpCounters()
    verdict = check_regular_inclusion(a, backend, None, counters)
    with closure_only():
        reference = check_regular_inclusion(a, backend, None, reference_counters)
    assert verdict == reference and isinstance(verdict, Fails)
    assert verdict.state == 12
    assert (counters.products, reference_counters.products) == PINNED_PRODUCTS
    assert counters.unions == counters.products


def pinned_long_path() -> Nfa:
    """A 32-state inverse-paired path over Z^2 with the self-loop x1 at state 28.

    The path reads (x1 x2 X1 X2)^7 x1 x2 X1, the largest size of the
    regular-closure benchmark pool.
    """
    letters = (1, 2, -1, -2) * 7 + (1, 2, -1)
    arcs = {(q, a, q + 1) for q, a in enumerate(letters, 1)}
    arcs |= {(q + 1, -a, q) for q, a in enumerate(letters, 1)}
    arcs.add((28, 1, 28))
    # The path value is the identity at states 1, 5, ..., 29.
    return Nfa(states=32, rank=2, transitions=frozenset(arcs), finals=frozenset(range(1, 32, 4)))


def test_the_direct_exit_at_the_benchmark_size():
    a = pinned_long_path()
    backend = FreeAbelian(2)
    counters = OpCounters()
    verdict = check_regular_inclusion(a, backend, None, counters)
    with closure_only():
        reference = check_regular_inclusion(a, backend, None)
    assert verdict == reference and isinstance(verdict, Fails)
    assert verdict.state == 28
    assert counters.products == counters.unions == 1
    direct = run_closure(a, backend, None, on_arcs=True)[0]
    assert direct == run_closure(a, backend, None)[0]
    assert direct[:3] == ("violation", 28, 28)


def fallback_path() -> Nfa:
    """A 46-state inverse-paired path over F2 with the extra arc 8 -X1-> 13.

    The path value is the identity at state 1 only.  The potential
    breaks only the extra arc's cell (8, 13), and the closure's first
    step that reads it does not exit, so the check falls back to the closure.
    """
    letters = (2, 2, -1, -1, 1, 2, -2, 1, 2, 1, -2, -1, -2, -2, -1, -1, -1, 1, 1, -1, 1, -2, 1)
    letters += (2, -1, -1, -2, 1, 2, -1, -2, 2, 2, 1, -1, 1, -2, 1, -2, -2, -1, 1, -1, -2, 1)
    arcs = {(q, a, q + 1) for q, a in enumerate(letters, 1)}
    arcs |= {(q + 1, -a, q) for q, a in enumerate(letters, 1)}
    arcs.add((8, -1, 13))
    return Nfa(states=46, rank=2, transitions=frozenset(arcs), finals=frozenset({1}))


def test_the_fallback_at_size_runs_the_closure(monkeypatch):
    loops = counted_loops(monkeypatch)
    a = fallback_path()
    backend = FreeGroup(2)
    counters = OpCounters()
    verdict = check_regular_inclusion(a, backend, None, counters)
    assert loops == [tuple(range(1, 47))]
    assert verdict == Fails(
        witness=(2, 2, -1, -1, 1, 2, -2, -1, 1, -1, 1, 2, -1, -2, -1, 2, -2, -1, 1, 1, -2, -2),
        reason="distinct-labels",
        state=13,
    )
    # Every step up to the exit at (13, 13), as the closure alone makes them.
    assert counters == OpCounters(unions=688, products=688)
    assert run_closure(a, backend, None)[1] == counters
    with closure_only():
        assert check_regular_inclusion(a, backend, None) == verdict


def settled_chain() -> Nfa:
    """1 -x1-> 2 -x2-> 3 -x1-> 4 over F2, with the arcs 3 -X2-> 2 and 2 -X1-> 1 back.

    Every cell is a singleton that agrees with tau, but tau(1) = x1 x2 x1
    is not e: no step of the closure reads a broken cell.
    """
    arcs = frozenset({(1, 1, 2), (2, 2, 3), (3, -2, 2), (2, -1, 1), (3, 1, 4)})
    return Nfa(states=4, rank=2, transitions=arcs, finals=frozenset({4}))


def sink_fan(rng: random.Random, backend, states: int, start_final: bool, detour: bool = False) -> Nfa:
    """Arcs from the start into sink finals, and a chain from the start unless ``start_final``.

    States get random numbers, so the start need not be 1 and the finals'
    set order need not be sorted.  The chain ends at the largest state,
    the final :func:`potential` reads back from first, so tau(start) comes
    from the chain and every chain cell is known.  Nothing enters the
    start and no sink has an arc out, so no step of the closure reads a
    broken cell: the broken cells are the start's arcs into sinks whose
    label is not tau(start).  With ``start_final`` the start is final, so
    tau(start) = e and every such arc with a label other than e is broken;
    ``detour`` (4 states or more) then adds the known walk a A from the
    start to one more final, whose value is e.
    """
    letters = [s * i for i in range(1, backend.rank + 1) for s in (1, -1)]
    numbers = rng.sample(range(1, states + 1), states)
    finals = set()
    if start_final:
        start, *rest = numbers
        finals.add(start)
        arcs = set()
        if detour:
            (middle, end), rest = rest[:2], rest[2:]
            a = rng.choice(letters)
            arcs = {(start, a, middle), (middle, -a, end)}
            finals.add(end)
    else:
        numbers.remove(states)
        start, *rest = numbers
        chain = rest[: rng.randint(0, len(rest))] + [states]
        rest = rest[len(chain) - 1 :]
        arcs = {(p, rng.choice(letters), q) for p, q in zip([start] + chain, chain)}
        finals.add(states)
    for t in rest[: rng.randint(1 if start_final else 0, len(rest))]:
        arcs.add((start, rng.choice(letters), t))
        finals.add(t)
    return Nfa(
        states=states, rank=backend.rank, transitions=frozenset(arcs), start=start, finals=frozenset(finals)
    )


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pick=st.integers(0, len(BACKENDS) - 1),
    shape=st.sampled_from(("settled-path", "settled-chain", "start-final", "broken-start")),
    no_tau=st.booleans(),
)
def test_the_start_row_read_ends_as_the_closed_start_row(seed, pick, shape, no_tau):
    rng = random.Random(seed)
    backend = BACKENDS[pick]
    if shape == "settled-path":
        a = settled_path(rng, backend, 2 * rng.randint(1, 12))
    elif shape == "settled-chain":
        backend = BACKENDS[3 + pick % 4]  # the rank-2 backends
        a = settled_chain()
    else:
        states = rng.randint(2, 16)
        # ``closure_only()``'s potential breaks the detour's cells, and a step reads them.
        detour = shape == "start-final" and not no_tau and states >= 4 and rng.random() < 0.5
        a = sink_fan(rng, backend, states, shape == "start-final", detour)
        sources = {src for src, _letter, _dst in a.transitions}
        assert all(i == a.start and j not in sources for i, j in potential(a, a.finals, backend, GroupSet)[1])
    # The closed matrix, and the failure its start row names.
    plain, _counters, _ = run_closure(a, backend, None)
    assert plain[0] == "closed"
    witness = start_row_failure(a, backend, plain[2])
    expected = Holds() if witness is None else Fails(witness=witness, reason="simple-path")
    # On a fan, ``closure_only()``'s potential, with no values, breaks
    # every cell, and still no step reads one.
    no_tau = no_tau and shape == "start-final"
    counters = OpCounters()
    with (
        mock.patch.object(grouplang.regular, "build_initial_matrix", refuse("the matrix builder")),
        mock.patch.object(grouplang.regular, "pivot_closure", refuse("the pivot loop")),
    ):
        if no_tau:
            with closure_only():
                verdict = check_regular_inclusion(a, backend, None, counters)
        else:
            verdict = check_regular_inclusion(a, backend, None, counters)
    assert verdict == expected
    assert counters == OpCounters()


def test_a_settled_chain_is_read_off_its_arcs(monkeypatch):
    monkeypatch.setattr(grouplang.regular, "pivot_closure", refuse("the pivot loop"))
    monkeypatch.setattr(grouplang.regular, "build_initial_matrix", refuse("the matrix builder"))
    a = settled_chain()
    backend = FreeGroup(2)
    tau, broken, _labels = potential(a, a.finals, backend, GroupSet)
    assert not broken and tau[1] != backend.identity
    counters = OpCounters()
    verdict = check_regular_inclusion(a, backend, None, counters)
    assert verdict == Fails(witness=(1, 2, 1), reason="simple-path")
    assert counters == OpCounters()


def settled_long_path() -> Nfa:
    """A 128-state path over F2 with arcs both ways, (x1 x2 x1 X2)^31 x1 x2 x1 forward, and only 128 final."""
    letters = (1, 2, 1, -2) * 31 + (1, 2, 1)
    arcs = {(q, a, q + 1) for q, a in enumerate(letters, 1)}
    arcs |= {(q + 1, -a, q) for q, a in enumerate(letters, 1)}
    return Nfa(states=128, rank=2, transitions=frozenset(arcs), finals=frozenset({128}))


def test_a_128_state_settled_path_is_read_off_its_arcs(monkeypatch):
    monkeypatch.setattr(grouplang.regular, "pivot_closure", refuse("the pivot loop"))
    monkeypatch.setattr(grouplang.regular, "build_initial_matrix", refuse("the matrix builder"))
    counters = OpCounters()
    verdict = check_regular_inclusion(settled_long_path(), FreeGroup(2), None, counters)
    # The start row's one non-empty final cell holds the path forward.
    assert verdict == Fails(witness=(1, 2, 1, -2) * 31 + (1, 2, 1), reason="simple-path")
    assert counters == OpCounters()


def test_the_check_does_not_grow_with_the_state_numbers():
    # One arc into the last of two million states: the reads on the arcs
    # keep tables per useful vertex, not per state number.
    last = 2_000_000
    a = Nfa(states=last, rank=1, transitions=frozenset({(1, 1, last)}), finals=frozenset({last}))
    tracemalloc.start()
    try:
        verdict = check_regular_inclusion(a, Cyclic(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == Fails(witness=(1,), reason="simple-path")
    assert peak < 1 << 20


def test_the_potential_is_read_once(monkeypatch):
    calls = []
    original = grouplang.regular.potential

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(grouplang.regular, "potential", counted)
    verdict = check_regular_inclusion(pinned_path(), FreeGroup(2))
    assert isinstance(verdict, Fails) and verdict.state == 12
    assert len(calls) == 1


def test_tracer_counts_match_on_the_exit_on_the_arcs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    counters = OpCounters()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        check_regular_inclusion(pinned_path(), FreeGroup(2), None, counters)
    finally:
        tracer.uninstall()
    # The exit comes on the arcs: no matrix is built and no closure runs.
    entered = set(tracer.completed) | {name for name, _exc in tracer.raised}
    assert "semiring.product" in entered and entered & {"regular.build", "regular.closure"} == set()
    assert tracer.opcounter_view() == counters.as_dict()
    assert counters.products == PINNED_PRODUCTS[0]
