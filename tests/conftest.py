"""Shared fixtures plus the acceptance-criteria report hook."""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import pytest
from hypothesis import Phase, settings

import grouplang.linear
import grouplang.regular
from grouplang import (
    CONJUGATE,
    SIMPLE_PATH,
    CapExceeded,
    Fails,
    FiniteCayley,
    Holds,
    ResourceExceeded,
    RunConfig,
    build_initial_matrix,
    closure,
    extract_witness,
    useful_states,
)
from grouplang.regular import _best_exit_witness, _failing_conjugate_witnesses, star, useful_vertices

_CRITERIA_REPORT: list[tuple[int, str]] = []

# ``tests/mutants.py`` runs under this profile: a killed mutant needs a
# failing example, not the smallest one, so it skips the shrink phase.
settings.register_profile("mutants", phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)])
# Every other run draws the same examples, so one tree's tier-1 does the same
# work each time.  Registered after ``mutants``, which must not inherit it;
# ``--hypothesis-profile=default --hypothesis-seed=N`` draws fresh examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def record_criterion(number: int, ok: bool, detail: str) -> None:
    _CRITERIA_REPORT.append((number, f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERIA_REPORT:
        terminalreporter.section("acceptance criteria")
        for _num, line in sorted(_CRITERIA_REPORT):
            terminalreporter.write_line(line)


def symmetric_group(k: int) -> FiniteCayley:
    """Permutation group on k points built independently of the package.

    Generators: the transposition (0 1) and the k-cycle.  The table
    entry (i, j) is the composition "apply permutation j, then
    permutation i".
    """
    perms = sorted(itertools.permutations(range(k)))
    index = {p: n for n, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[x]] for x in range(k))

    table = tuple(
        tuple(index[compose(p, q)] for q in perms) for p in perms
    )
    swap = (1, 0) + tuple(range(2, k))
    cycle = tuple(range(1, k)) + (0,)
    return FiniteCayley(
        size=len(perms),
        identity_index=index[tuple(range(k))],
        table=table,
        generator_images=(index[swap], index[cycle]),
    )


def relabelled(group: FiniteCayley, index) -> FiniteCayley:
    """``group`` with each element a renamed ``index[a]``: the same group, its indices shuffled.

    Over such a copy a kernel that confuses an element's index with the
    element, or takes index 0 for the identity, gives other labels.
    """
    table = [[0] * group.size for _ in range(group.size)]
    for a, row in enumerate(group.table):
        for b, ab in enumerate(row):
            table[index[a]][index[b]] = index[ab]
    return FiniteCayley(
        size=group.size,
        identity_index=index[group.identity_index],
        table=tuple(map(tuple, table)),
        generator_images=tuple(index[g] for g in group.generator_images),
    )


def symmetric_group_3() -> FiniteCayley:
    """Six-element permutation group: a transposition and a 3-cycle generate it."""
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group_3()


def reach_first_potential(language, ends, backend, cell_type):
    """The potential as it was read before the backward sweep over every arc: the reference.

    One sweep forward from the start finds the vertices it reaches; tau
    is then read off backwards from the ends it reached, over the arcs
    whose source it reached, in arc order, each vertex taking the first
    value seen, through ``cell_type.arc_witness`` and ``cell_type.wrap``.
    So tau, ``broken`` and ``labels`` cover exactly the useful vertices
    and the arcs between them, whether or not the potential holds.
    """
    out = language._successors
    reached = {language.start}
    todo = [language.start]
    while todo:
        for _src, dst, _left, _right in out.get(todo.pop(), ()):
            if dst not in reached:
                reached.add(dst)
                todo.append(dst)
    into: dict[int, list] = {}
    for arc in language._arcs:
        if arc[0] in reached:
            into.setdefault(arc[1], []).append(arc)
    wrap, evaluate, arc_witness = cell_type.wrap, cell_type.evaluate, cell_type.arc_witness
    tau = {end: backend.identity for end in sorted(ends) if end in reached}
    todo = list(tau)
    broken = set()
    labels: dict = {}
    while todo:
        j = todo.pop()
        rest = tau[j]
        for i, _j, left, right in into.get(j, ()):
            wit = arc_witness(left, right)
            label = labels.get(wit)
            if label is None:
                label = labels[wit] = evaluate(backend, wit)
            value = wrap(backend, label, rest)
            seen = tau.get(i)
            if seen is None:
                tau[i] = value
                todo.append(i)
            elif value != seen:
                broken.add((i, j))
    return tau, broken, labels


@contextmanager
def potential_replaced(replacement):
    """Both checks with ``replacement`` in place of the potential."""
    saved = [(module, module.potential) for module in (grouplang.regular, grouplang.linear)]
    grouplang.regular.potential = grouplang.linear.potential = replacement
    try:
        yield
    finally:
        for module, original in saved:
            module.potential = original


def closure_only():
    """Both checks without the potential: the unguided pivot closure decides every language.

    ``potential`` keys tau by the useful vertices, as the real one does
    on a violation, but gives none of them a value and calls every useful
    cell broken, so it never holds and the regular closure knows no cell.
    Its arc labels are the real potential's.
    """
    real = grouplang.regular.potential

    def broken_everywhere(language, ends, backend, cell_type):
        useful = useful_vertices(language._arcs, language.start, ends)
        broken = {(i, j) for i, j, _left, _right in language._arcs if i in useful and j in useful}
        return dict.fromkeys(useful), broken, real(language, ends, backend, cell_type)[2]

    return potential_replaced(broken_everywhere)


def paper_check(a, backend, config=None, counters=None):
    """The paper's regular check: the full closure on the useful states, then its two tests.

    No potential and no early exit.  The closed matrix's start row must
    hold only e at the finals, and at every state the conjugates of its
    cycle labels by its access labels (``star``) must all be e.  When
    every cell is a singleton no conjugate can miss e (see ``closure``),
    and the conjugate test makes no ``star`` call.
    """
    config = config if config is not None else RunConfig()
    useful = useful_states(a)
    mat = build_initial_matrix(a, backend, useful=useful)  # checks the rank first
    if a.start not in useful:
        return Holds()  # the language is empty
    try:
        closure(mat, early_fail=False, cap=config.set_cap, counters=counters)
    except CapExceeded as exc:
        return ResourceExceeded(cell=exc.cell, cardinality=exc.cardinality)
    finals = sorted(a.finals & useful)
    for t in finals:
        bad = mat.cell(a.start, t).best_non_identity()
        if bad is not None:
            return Fails(witness=bad[1], reason=SIMPLE_PATH)
    if all(len(cell) == 1 for cell in mat.cells.values()):
        return Holds()
    for j in mat.useful:
        access, cycles = mat.cell(a.start, j), mat.cell(j, j)
        if not access or not cycles:
            continue
        try:
            conjugates = star(access, cycles, cap=config.set_cap)
        except CapExceeded as exc:
            return ResourceExceeded(cell=(j, j), cardinality=exc.cardinality)
        if counters is not None:
            counters.stars += 1
        if conjugates.best_non_identity() is not None:
            u, v = _failing_conjugate_witnesses(access, cycles)
            w = _best_exit_witness(mat, j, finals)
            return Fails(witness=extract_witness(backend, u, v, w), reason=CONJUGATE, state=j)
    return Holds()


@pytest.fixture
def no_potential():
    with closure_only():
        yield
