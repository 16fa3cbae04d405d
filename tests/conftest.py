"""Shared fixtures plus the acceptance-criteria report hook."""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager

import pytest
from hypothesis import Phase, settings

import grouplang.linear
import grouplang.regular
from grouplang import FiniteCayley
from grouplang.regular import useful_vertices

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


def symmetric_group_3() -> FiniteCayley:
    """Six-element permutation group: a transposition and a 3-cycle generate it."""
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group_3()


@contextmanager
def closure_only():
    """Both checks without the potential: the unguided pivot closure decides every language.

    ``potential`` keys tau by the useful vertices, as the real one does,
    but gives none of them a value and calls every useful cell broken, so
    it never holds and the regular closure knows no cell.  It evaluates
    no arc label, so the builder evaluates them all.
    """

    def broken_everywhere(language, ends, backend, cell_type):
        useful = useful_vertices(language._arcs, language.start, ends)
        broken = {(i, j) for i, j, _left, _right in language._arcs if i in useful and j in useful}
        return dict.fromkeys(useful), broken, {}

    saved = [(module, module.potential) for module in (grouplang.regular, grouplang.linear)]
    grouplang.regular.potential = grouplang.linear.potential = broken_everywhere
    try:
        yield
    finally:
        for module, original in saved:
            module.potential = original


@contextmanager
def paper_closure():
    """The regular check on the paper's full closure: unguided, with no early exit.

    The check skips its exit on the arcs, the closure then runs to the
    end and the check runs the paper's start-to-final and conjugate tests
    on the closed matrix.
    """
    original, arc_exit = grouplang.regular.closure, grouplang.regular._arc_exit
    grouplang.regular.closure = functools.partial(original, early_fail=False)
    grouplang.regular._arc_exit = lambda *args: None
    try:
        yield
    finally:
        grouplang.regular.closure, grouplang.regular._arc_exit = original, arc_exit


@pytest.fixture
def no_potential():
    with closure_only():
        yield
