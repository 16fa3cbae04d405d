"""Finite automata and the inclusion check of their languages in a group's identity language.

The check labels each automaton arc with the group image of its letter
and first reads the potential (:func:`potential`) on the arcs, before
any label matrix exists; it finds the useful states and decides every
inclusion that holds.  The paper's check builds the level-0 label matrix
on the useful states and closes it with the all-pairs pivot recurrence
``K[i][j] = K[i][j] | K[i][k] * K[k][j]``, and then tests two things:
no start-to-final cell may contain a non-identity element, and for
every state the conjugates of its cycle labels by its access labels
must collapse to the identity.  Witness words ride along with every
element, so a failed check always names a concrete accepted word that
does not multiply out to the identity.  When the potential finds a
violation, the check first reads what that closure would do off the
arcs (:func:`_arc_exit`): its exit, at a level-0 cell or at the first
step that reads a broken cell, or, when no step reads one, the start
row that the check tests.  A failing automaton builds its matrix and
runs the closure, with its early exit, only when neither decides, and
then tests the start row alone (see :func:`closure`).  The paper's full
closure and conjugate test are the reference that the tests run.

This module also holds the core that the linear check shares:
reachability, the shortest-walk search, the level-0 matrix builder, the
potential test and the pivot loop.  Both checks run on a language's
diagram, its arcs (src, dst, left, right): an automaton arc has an
empty right part, a grammar arc wraps its left and right words around
the rest of the walk.  :class:`Nfa` and
:class:`~grouplang.linear.LinearGrammar` each derive their sorted arcs
(``_arcs``) and the arcs' :func:`successors` (``_successors``) once, on
first use, and every later check of the same language reads them.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from pathlib import Path

from .errors import (
    BackendMismatch,
    CapExceeded,
    InputError,
    InternalInconsistency,
    SingletonViolation,
)
from .groups import Backend, Word, check_fields, read_json, require_int, validate_word
from .records import Record
from .semiring import GroupSet, PairSet, product, union
from .semiring import star  # no check calls it; a module attribute because bench/tracing.py wraps it
from .verdicts import (
    DEFAULT_CONFIG,
    DISTINCT_LABELS,
    SIMPLE_PATH,
    Fails,
    Holds,
    OpCounters,
    ResourceExceeded,
    RunConfig,
    Verdict,
)


class Nfa(Record, frozen=True):
    """Nondeterministic automaton over the signed alphabet; states are 1..states.

    Arcs carry exactly one letter; empty-word arcs are rejected.  The
    diagram is derived once, on first use: ``_arcs``, the arcs sorted,
    and ``_successors``, their :func:`successors`.
    """

    states: int
    rank: int
    transitions: frozenset[tuple[int, int, int]]
    start: int = 1
    finals: frozenset[int] = frozenset()

    def __post_init__(self):
        require_int(self.states, "number of states", 1)
        require_int(self.rank, "alphabet rank", 1)
        if require_int(self.start, "start state", 1) > self.states:
            raise InputError(f"start state {self.start} out of range 1..{self.states}")
        # A state of another type fails its comparison: the errors are caught
        # around each loop.  Only True passes it, as 1, so that is tested inline.
        try:
            for f in self.finals:
                if not 1 <= f <= self.states or f is True:
                    raise InputError(f"final state {f} out of range 1..{self.states}")
        except TypeError as exc:
            raise InputError(f"final states must be integers, got {self.finals!r}") from exc
        t = self.transitions  # named by the message when it is not iterable
        try:
            for t in self.transitions:
                src, letter, dst = t
                if not 1 <= src <= self.states or not 1 <= dst <= self.states or src is True or dst is True:
                    raise InputError(f"transition ({src}, {letter}, {dst}) leaves 1..{self.states}")
                if letter == 0:
                    raise InputError("empty-word transitions are not allowed")
                validate_word((letter,), self.rank)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad transition {t!r}; expected (from, letter, to) integers") from exc

    def accepts(self, word: Word) -> bool:
        """Subset simulation; independent of the closure machinery."""
        step: dict[tuple[int, int], set[int]] = {}
        for src, letter, dst in self.transitions:
            step.setdefault((src, letter), set()).add(dst)
        current = {self.start}
        for letter in word:
            current = set().union(*(step.get((s, letter), ()) for s in current))
            if not current:
                return False
        return bool(current & self.finals)

    @cached_property
    def _arcs(self) -> tuple[tuple[int, int, Word, Word], ...]:
        """Arcs (src, dst, (letter,), ()) in (src, letter, dst) order."""
        word = {letter: (letter,) for _src, letter, _dst in self.transitions}  # shared: less to cache
        return tuple((src, dst, word[letter], ()) for src, letter, dst in sorted(self.transitions))

    @cached_property
    def _successors(self) -> dict[int, list[tuple[int, int, Word, Word]]]:
        return successors(self._arcs)


def require_rank(what: str, rank: int, backend: Backend) -> None:
    if rank != backend.rank:
        raise BackendMismatch(f"{what} rank {rank} does not match backend rank {backend.rank}")


_NFA_FIELDS = {"kind", "states", "alphabet_rank", "transitions", "start", "finals"}


def parse_nfa(obj: dict) -> Nfa:
    check_fields(obj, "automaton", _NFA_FIELDS)
    raw = obj["transitions"]
    if not isinstance(raw, list):
        raise InputError("field 'transitions' must be a list of [from, letter, to]")
    arcs = []
    for t in raw:
        if not isinstance(t, list) or len(t) != 3 or not isinstance(t[1], int):
            raise InputError(f"bad transition {t!r}; expected [from, letter, to]")
        arcs.append(
            (require_int(t[0], "transition source", 1), t[1], require_int(t[2], "transition target", 1))
        )
    finals = obj["finals"]
    if not isinstance(finals, list):
        raise InputError("field 'finals' must be a list of states")
    return Nfa(
        states=obj["states"],
        rank=obj["alphabet_rank"],
        transitions=frozenset(arcs),
        start=obj["start"],
        finals=frozenset(require_int(f, "final state", 1) for f in finals),
    )


def nfa_to_dict(a: Nfa) -> dict:
    return {
        "kind": "automaton",
        "states": a.states,
        "alphabet_rank": a.rank,
        "transitions": [list(t) for t in sorted(a.transitions)],
        "start": a.start,
        "finals": sorted(a.finals),
    }


def load_nfa(path: str | Path) -> Nfa:
    return parse_nfa(read_json(path))


def useful_vertices(arcs, start: int, ends) -> frozenset[int]:
    """Vertices on some walk from ``start`` to a vertex of ``ends``."""
    fwd: dict[int, set[int]] = {}
    bwd: dict[int, set[int]] = {}
    for src, dst, _left, _right in arcs:
        fwd.setdefault(src, set()).add(dst)
        bwd.setdefault(dst, set()).add(src)

    def reach(seeds: set[int], edges: dict[int, set[int]]) -> set[int]:
        seen = set(seeds)
        todo = list(seeds)
        while todo:
            for nxt in edges.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    return frozenset(reach({start}, fwd) & reach(set(ends), bwd))


def useful_states(a: Nfa) -> frozenset[int]:
    """States on some walk from the start to a final state."""
    return useful_vertices(a._arcs, a.start, a.finals)


def successors(arcs) -> dict[int, list[tuple[int, int, Word, Word]]]:
    """Arcs (src, dst, left, right) grouped by source, the arc tuples themselves."""
    out: dict[int, list[tuple[int, int, Word, Word]]] = {}
    for arc in arcs:
        out.setdefault(arc[0], []).append(arc)
    return out


def shortest_walk(out, source: int, targets) -> tuple[Word, Word] | None:
    """Label (left, right) of a walk from ``source`` into ``targets`` with the fewest letters.

    ``out`` maps each vertex to its :func:`successors`.  Ties go to the
    smaller left part, then the smaller right part, so the answer does
    not depend on arc order; on automaton arcs the left part is the
    length-then-lexicographic least word.  None if no walk exists.
    """
    heap: list[tuple[int, Word, Word, int]] = [(0, (), (), source)]
    done: set[int] = set()
    while heap:
        letters, left, right, vertex = heapq.heappop(heap)
        if vertex in done:
            continue
        done.add(vertex)
        if vertex in targets:
            return left, right
        for _src, dst, alpha, beta in out.get(vertex, ()):
            if dst not in done:
                heapq.heappush(
                    heap, (letters + len(alpha) + len(beta), left + alpha, beta + right, dst)
                )
    return None


class LabelMatrix(Record):
    """Grid of label sets over the vertices ``useful``, in increasing order; the check's workspace.

    ``level`` counts how many pivots the closure has applied; builders
    produce level 0, and a completed closure ends at ``len(useful)``.
    Absent cells read as ``empty``.
    """

    backend: Backend
    useful: tuple[int, ...]
    cells: dict[tuple[int, int], GroupSet | PairSet]
    empty: GroupSet | PairSet
    level: int = 0

    def cell(self, i: int, j: int):
        return self.cells.get((i, j), self.empty)


def build_matrix(backend: Backend, arcs, cell_type, keep, labels: dict | None = None) -> LabelMatrix:
    """Level-0 matrix on the vertices ``keep``: cell (i, j) holds the labels of the arcs i -> j.

    An arc is kept only when both of its ends are in ``keep``; the
    matrix's vertices are ``keep`` in increasing order.  Cells are
    created in arc order, and start out checked: their labels come from
    ``canonicalize``, once per distinct arc word.  ``labels`` maps arc witnesses to labels
    already evaluated (:func:`potential` returns it); the builder reads
    it first and adds what it evaluates.
    No cap applies: a cell holds at most one label per arc, and the set
    cap bounds only the sets the closure computes.
    """
    cells: dict = {}
    labels = {} if labels is None else labels  # arc witness -> its label
    key = cell_type.witness_key
    for src, dst, left, right in arcs:
        if src not in keep or dst not in keep:
            continue
        cell = cells.get((src, dst))
        if cell is None:
            cell = cells[src, dst] = cell_type(backend, None, True)
        wit = cell_type.arc_witness(left, right)
        label = labels.get(wit)
        if label is None:
            label = labels[wit] = cell_type.evaluate(backend, wit)
        old = cell.elements.get(label)
        if old is None or key(wit) < key(old):
            cell.elements[label] = wit
    return LabelMatrix(backend, tuple(sorted(keep)), cells, cell_type(backend))


def potential(language, ends, backend: Backend, cell_type) -> tuple[dict, set, dict]:
    """The vertex values tau of ``language``'s diagram, the cells that break them, and the arc labels.

    On useful vertices, every walk from the start to an end has value e
    exactly when each vertex v has one value tau(v) that every walk from
    v to an end takes: tau(end) = e, every label c of every arc i -> j
    has ``wrap(c, tau(j)) == tau(i)``, and tau(start) = e.  (If the
    inclusion holds, a walk from v to an end takes the inverse of the
    value of any walk from the start to v, so tau is well defined.)  So
    the inclusion holds exactly when ``broken`` is empty and tau(start)
    is e, and the start has no value exactly when the language is empty.

    The test runs on the arcs, before any label matrix exists.  One sweep
    forward from the start finds the vertices it reaches; tau is then
    read off backwards from the ends it reached, over the arcs whose
    source it reached, in arc order, each vertex taking the first value
    seen.  So tau has a value for exactly the useful vertices (the ends
    reached included), the vertices :func:`useful_vertices` finds.  A
    break does not stop the walk: ``broken`` holds every cell (i, j) with
    an arc whose label disagrees.  Each distinct arc word of the useful
    arcs is evaluated once, with ``cell_type.evaluate``; ``labels`` maps
    it to its label, and :func:`build_matrix` reuses that map when a
    violation needs the matrix.  Then O(arcs) multiplications with the
    unchecked ``_mul``, since the labels are canonical.

    >>> from grouplang import Cyclic
    >>> arcs = frozenset({(1, 1, 2), (2, 1, 2)})  # 1 -x-> 2, and a loop x at the final 2
    >>> a = Nfa(states=2, rank=1, transitions=arcs, finals=frozenset({2}))
    >>> potential(a, a.finals, Cyclic(2), GroupSet)
    ({2: 0, 1: 1}, {(2, 2)}, {(1,): 1})
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


def pivot_closure(
    mat: LabelMatrix,
    multiply,
    union,
    *,
    cap: int | None,
    counters: OpCounters | None,
    counted: str,
    on_cell=None,
    on_level=None,
    read_row: int | None = None,
    early_level=None,
    watch: tuple[int, int] | None = None,
) -> LabelMatrix:
    """The recurrence K[i][j] |= multiply(K[i][k], K[k][j]); mutates ``mat`` in place.

    Pivots, rows and columns run over ``mat.useful``, and every step
    with a non-empty K[i][k] and K[k][j] calls ``multiply`` and ``union``.
    ``on_cell(i, j, cell)`` sees every level-0 cell and every change a
    step makes, and ``on_level(mat)`` sees the matrix before the first
    pivot and after each; either may raise to stop the closure.  The
    semiring calls made are added to ``counters.unions`` and to the
    ``counted`` field, also when the closure stops early.

    ``read_row`` (the linear check passes its start) names the one row
    the caller reads after the closure besides the diagonal and the last
    column (a pair matrix's sink).  With pos the position in
    ``mat.useful``, the loop then skips the step (k, i, j) when pos(i) <
    pos(k), pos(j) <= pos(k), i != j and i != ``read_row``: such a row i
    filters row k's non-empty columns down to its cycle cell (i, i) and
    the columns after k, in row k's order.  This is exact for every cell left to
    read: a later pivot k' reads only row and column k', and a skipped
    cell has both indices at or before k; during pivot k, a row
    reads its own K[i][k] before any of its steps, and row k, which is
    never skipped.  A skipped cell is skipped again at every later pivot.
    A step into the last column is skipped only at the last pivot, which
    makes no step when the last vertex has no arcs out, as the sink has
    none.  The live steps keep their order, so ``on_cell`` and
    ``on_level`` see the same diagonal, the same sink column and the same
    ``read_row`` at the same steps as without it, and a cap fires only
    in a cell that the caller or a later step reads.

    ``early_level(mat)`` is a test that reads only the diagonal and
    whether each K[i][k] and K[k][i] is empty (the linear check passes
    its cycle scan), and ``watch`` is the one cell that ``on_cell``
    tests.  It sees the level-0 matrix before ``on_level`` does, and
    with it pivot k runs in three parts:

    1. its early steps, in the loop's order: the diagonal steps
       (k, i, i), the step into ``watch``, and the steps of row k that
       these read, into K[k][i] for a later row i and into K[k][j] for a
       later ``watch`` (i, j), when K[i][k] is non-empty;
    2. ``early_level(mat)``, with ``mat.level`` counting the pivot;
    3. if it passes, the other steps, in the loop's order, a row before
       k reading row k as it was before the pivot.

    This is exact: no step of pivot k changes whether K[i][k] or K[k][i]
    is empty, and a deferred step writes no cell that an early step
    reads, so every step reads what it reads in the loop's order, and
    ``on_level`` still sees whole levels.  When the test, the watch or a
    cap stops the pivot, the deferred steps collected so far, those the
    loop's order makes before the stop, first run if one of them could
    outgrow the cap: |K[i][j]| + |K[i][k]| |K[k][j]| > cap, with
    |K[k][j]| (1 + |K[k][k]|) for a later row whose K[k][j] still awaits
    its own deferred step.  So the exit, the cap's cell and
    ``mat.level`` are those of the loop's order, and the counters count
    the steps made, fewer at the pivot that stops.  Without
    ``early_level`` every step is early.
    """
    if mat.level != 0:
        raise ValueError("closure expects a level-0 matrix")
    cells = mat.cells
    get = cells.get
    empty = mat.empty
    useful = mat.useful
    watch_row, watch_col = watch if watch is not None else (None, None)
    multiplied = unions = 0
    try:
        if on_cell is not None:
            for (i, j), cell in cells.items():
                on_cell(i, j, cell)
        if early_level is not None:
            early_level(mat)
        if on_level is not None:
            on_level(mat)
        for at_k, k in enumerate(useful):
            # Only a non-empty K[k][j] is ever multiplied, so the non-empty
            # columns of row k stay the same during pivot k; the cells are
            # row k as it was before the pivot.
            row_k = [(j, p, cell) for p, j in enumerate(useful) if (cell := get((k, j), empty)).elements]
            first = None  # row k's early columns; None: every step is early
            if early_level is not None:
                # The vertices are in increasing order, so a later row is a larger vertex.
                first = {k}.union(j for j, p, _cell in row_k if p > at_k and get((j, k), empty).elements)
                watch_after_k = watch is not None and watch_row > k and get((watch_row, k), empty).elements
                if watch_row == k or watch_after_k:
                    first.add(watch_col)
            later = []  # the deferred steps (i, j, K[i][k], K[k][j] or None to read it when made)
            stop = None  # what stopped the early steps, when a deferred step could cap first
            try:
                for at_i, i in enumerate(useful):
                    left = get((i, k), empty)
                    if not left.elements:
                        continue
                    steps = row_k
                    if read_row is not None and at_i < at_k and i != read_row:
                        # The docstring's skip rule: the cycle cell and the columns after k.
                        steps = [(j, p, cell) for j, p, cell in row_k if p > at_k or j == i]
                    if first is None:
                        early = None
                    elif i == k:
                        early = first
                    else:
                        early = (i, watch_col) if i == watch_row else (i,)
                    after = at_i > at_k
                    for j, _p, right in steps:
                        if early is not None and j not in early:
                            later.append((i, j, left, None if after else right))
                            continue
                        current = get((i, j), empty)
                        try:
                            prod = multiply(left, cells[k, j] if after else right, cap=cap)
                            multiplied += 1
                            merged = union(current, prod, cap=cap)
                            unions += 1
                        except CapExceeded as exc:
                            exc.cell = (i, j)
                            raise
                        if merged is not current:
                            cells[i, j] = merged
                            if on_cell is not None:
                                on_cell(i, j, merged)
                if early_level is not None:
                    mat.level += 1
                    early_level(mat)
                    mat.level -= 1
            except Exception as exc:  # a test, the watch or a cap stops the pivot
                if not later or not _could_cap(later, cells, k, cap):
                    raise
                stop, level, mat.level = exc, mat.level, at_k
            # The step again, inline: as a nested function it made the closure about 5% slower.
            for i, j, left, right in later:
                current = get((i, j), empty)
                try:
                    prod = multiply(left, cells[k, j] if right is None else right, cap=cap)
                    multiplied += 1
                    merged = union(current, prod, cap=cap)
                    unions += 1
                except CapExceeded as exc:
                    exc.cell = (i, j)
                    raise
                if merged is not current:
                    cells[i, j] = merged
                    if on_cell is not None:
                        on_cell(i, j, merged)
            if stop is not None:
                mat.level = level
                raise stop
            mat.level += 1
            if on_level is not None:
                on_level(mat)
    finally:
        if counters is not None:
            counters.unions += unions
            setattr(counters, counted, getattr(counters, counted) + multiplied)
    return mat


def _could_cap(later: list, cells: dict, k: int, cap: int | None) -> bool:
    """Whether a deferred step (i, j, K[i][k], K[k][j] or None) of pivot k could outgrow ``cap``."""
    if cap is None:
        return False
    # A bound on K[k][j] once its own deferred step of row k has run.
    pending = {j: len(right) * (1 + len(left)) for i, j, left, right in later if i == k}
    for i, j, left, right in later:
        size = len(right) if right is not None else pending.get(j) or len(cells[k, j])
        if len(cells.get((i, j), ())) + len(left) * size > cap:
            return True
    return False


def build_initial_matrix(
    a: Nfa, backend: Backend, *, useful: frozenset[int] | None = None, labels: dict | None = None
) -> LabelMatrix:
    """Level-0 matrix: cell (i, j) holds the images of the single arcs i -> j.

    When ``useful`` is given, the matrix's vertices are those states, and
    arcs touching other states are dropped.  ``labels`` is the arc-label map
    of :func:`potential`, as :func:`build_matrix` reads it.
    """
    require_rank("automaton", a.rank, backend)
    keep = useful if useful is not None else frozenset(range(1, a.states + 1))
    return build_matrix(backend, a._arcs, GroupSet, keep, labels)


def _singleton_exit(i: int, j: int, cell: GroupSet) -> None:
    if len(cell.elements) >= 2:
        wits = sorted(cell.elements.values(), key=GroupSet.witness_key)
        raise SingletonViolation(i, j, wits[0], wits[1])


def closure(
    mat: LabelMatrix,
    *,
    early_fail: bool = True,
    cap: int | None = None,
    counters: OpCounters | None = None,
) -> LabelMatrix:
    """The paper's pivot recurrence over the useful states with ``product``; mutates ``mat`` in place.

    With ``early_fail`` set, raises :class:`SingletonViolation` the
    moment any useful-to-useful cell holds two distinct elements: two
    different walk labels between one state pair already disprove the
    inclusion, and stopping there keeps every set a singleton on
    instances where the inclusion holds.

    A closure that ends with singleton cells leaves only the identity in
    every useful cycle cell.  The label y of a cycle read from its
    largest state m is in K[m][m] before pivot m, which then adds y * y;
    a singleton cell forces y * y = y, so y = e, and read from another
    of its states the cycle's label is a conjugate of y.  So the paper's
    conjugate test can fire only after a closure that left a cell with
    two labels, which only its full closure, ``early_fail=False``, can
    do; :func:`check_regular_inclusion` runs the early exit, when
    :func:`_arc_exit` decides nothing on the arcs, and then tests only
    the start row.  The tests' reference check runs the full closure.

    >>> from grouplang import Cyclic
    >>> loop = Nfa(states=1, rank=1, transitions=frozenset({(1, 1, 1)}), finals=frozenset({1}))
    >>> closure(build_initial_matrix(loop, Cyclic(2)))
    Traceback (most recent call last):
    ...
    grouplang.errors.SingletonViolation: cell (1, 1) holds two distinct labels
    >>> closure(build_initial_matrix(loop, Cyclic(2)), early_fail=False).cell(1, 1)
    GroupSet({1: (1,), 0: (1, 1)})
    """
    return pivot_closure(
        mat,
        product,
        union,
        cap=cap,
        counters=counters,
        counted="products",
        on_cell=_singleton_exit if early_fail else None,
    )


def _arc_exit(
    a: Nfa,
    backend: Backend,
    tau: dict,
    broken: set,
    labels: dict,
    cap: int | None,
    counters: OpCounters | None,
) -> Word | None:
    """Decide a failing automaton on its arcs, where the closure's exit or its start row can be read.

    ``tau``, ``broken`` and ``labels`` are what :func:`potential`
    returned; ``labels`` holds the label of every useful arc.  No label
    matrix is built.  Raises the exit of :func:`closure` when it comes at
    a level-0 cell or at the first step whose outcome tau does not fix;
    returns the witness of the check's ``simple-path`` failure when no
    step reads a broken cell; and otherwise returns None, with
    ``counters`` unchanged, and the check then builds the matrix and runs
    the closure.

    One pass over the useful arcs, in the builder's order, collects the
    label sets of the broken cells and each known cell's least witness.
    A level-0 cell outside ``broken`` is *known*: a singleton (two labels
    c of one cell cannot both have ``wrap(c, tau(j)) == tau(i)``) whose
    label is tau(i) tau(j)^-1.  So a level-0 cell with two labels is
    broken, and the first one in the order the builder creates cells is
    the closure's exit before its first pivot.  Otherwise a step that
    reads only known cells, into an empty or known cell, yields tau(i)
    tau(j)^-1 again: it cannot exit, and it keeps the target a singleton
    whose witness is the shortlex-least walk over the known level-0 cells
    with its interior in the pivots done.  Shortlex is compatible with
    concatenation, so the least walk through pivot k is the least walk to
    k followed by the least walk from k; a walk through a broken cell
    needs a step that reads one.  Within pivot k no operand's witness
    changes, since a walk through K[k][k] is strictly longer.  So the
    first step (k, i, j) that reads a broken cell
    (:func:`_first_step_on_arcs`), and its three cells, are read off
    reachability and least walks over the pivots before k.  When that
    step leaves K[i][j] with two labels, this raises the closure's exit
    and counts the one product and union it makes.

    When no step reads a broken cell, the closure ends with every broken
    cell at its level-0 label and every other cell at its least known
    walk, with no bound on the interior.  So the check's start-row test
    reads K[start][t], for the useful finals t in order, off the arcs: a
    broken cell's one label, or else, when a known walk leads from the
    start to t (a non-empty cycle when t is the start), the value
    tau(start) tau(t)^-1 = tau(start) of every such walk.  One sweep finds
    the vertices those walks reach, and one least-walk search names the
    witness at the first final that misses e.  On the potential's tables
    some final always does: the arcs that gave tau(start) its value lead
    to a final through known cells.
    """
    order = sorted(tau)
    at = {v: n for n, v in enumerate(order)}
    known: list[list[int]] = [[] for _ in order]  # per row position, the columns of its known cells
    bad: list[list[int]] = [[] for _ in order]  # and of its broken cells
    arcs: dict[int, list] = {}  # the known cells as arcs, for ``shortest_walk``
    seen: set = set()  # the known cells met so far: the first arc is the least witness
    bad_cells: dict = {}  # broken cell -> its labels' least witnesses, in the builder's cell order
    for src, dst, wit, _right in a._arcs:  # one-letter words, in letter order per cell
        p, q = at.get(src), at.get(dst)
        if p is None or q is None:
            continue
        cell = (src, dst)
        if cell in broken:
            elements = bad_cells.get(cell)
            if elements is None:
                elements = bad_cells[cell] = {}
                bad[p].append(q)
            elements.setdefault(labels[wit], wit)
        elif cell not in seen:
            seen.add(cell)
            known[p].append(q)
            arcs.setdefault(src, []).append((src, dst, wit, ()))
    for (i, j), elements in bad_cells.items():
        if len(elements) >= 2:
            _singleton_exit(i, j, GroupSet(backend, elements, True))
    step = _first_step_on_arcs(known, bad)
    if step is None:
        start = a.start
        reach = _ends_before(known, at[start], len(order))  # the ends of non-empty known walks
        for t in sorted(a.finals.intersection(tau)):
            if (start, t) in bad_cells:
                [(label, wit)] = bad_cells[start, t].items()
                if label != backend.identity:
                    return wit
            elif at[t] in reach and tau[start] != backend.identity:
                return shortest_walk(arcs, start, {t})[0]
        return None
    pk, pi, pj = step
    k, i, j = order[pk], order[pi], order[pj]
    # Interior vertices of the least walks: the pivots before k.
    interior = {v: arcs[v] for v in order[:pk] if v in arcs}

    def before_k(s: int, t: int) -> GroupSet:
        """K[s][t] before pivot k: its level-0 cell if broken, else its least known walk, if any."""
        if (s, t) in bad_cells:
            return GroupSet(backend, bad_cells[s, t], True)
        interior[0] = arcs.get(s, ())  # vertex 0, no state, starts the walk: so a cycle cell works too
        walk = shortest_walk(interior, 0, {t})
        if walk is None:
            return GroupSet(backend)
        wit = walk[0]
        return GroupSet(backend, {GroupSet.evaluate(backend, wit): wit}, True)

    left, right, target = before_k(i, k), before_k(k, j), before_k(i, j)
    (x,), (y,) = left.elements, right.elements
    if not target or backend._mul(x, y) in target:
        return None  # the step fills K[i][j] or keeps its one label: no exit
    multiplied = unions = 0
    try:
        prod = product(left, right, cap=cap)
        multiplied = 1
        merged = union(target, prod, cap=cap)
        unions = 1
    except CapExceeded as exc:
        exc.cell = (i, j)
        raise
    finally:
        if counters is not None:
            counters.products += multiplied
            counters.unions += unions
    _singleton_exit(i, j, merged)
    return None


def _first_step_on_arcs(known: list[list[int]], bad: list[list[int]]) -> tuple[int, int, int] | None:
    """Positions (k, i, j) of the closure's first step that reads a broken cell, or None.

    A step reads a broken cell when K[i][k], K[k][j] or its target K[i][j]
    is one, the only steps whose outcome tau does not fix (see
    :func:`_arc_exit`).  ``known[p]`` and ``bad[p]`` list the columns of
    row p's level-0 cells outside and inside the broken set, all by
    position.  Until that step, K[i][k] before pivot k is non-empty
    exactly when a level-0 cell (i, k) is broken or a walk of known cells
    leads from i to k through pivots before k; K[k][j] likewise.  So the
    step's pivot k is the least of three minima:

    (a) the least p whose row has a broken cell and that a known cell enters;
    (b) the least q that a broken cell enters and whose row has any cell;
    (c) per row i with broken cells, the least largest interior vertex of
        a known walk from i into one of them, the pivot at which that
        broken cell first gets a known walk (:func:`_least_pivot`).

    At that k, a backward and a forward search through the vertices
    before k give the rows with a known K[i][k] and the columns of row k,
    and the loop's order picks i, then the least j.
    """
    n = len(known)
    entered = set().union(*known)
    a = [p for p in entered if bad[p]]  # (a)
    b = [q for cols in bad for q in cols if known[q] or bad[q]]  # (b)
    k = min(a + b, default=n)
    for i, cols in enumerate(bad):
        if cols:
            k = _least_pivot(known, i, set(cols), k)  # (c), below the best k so far
    if k == n:
        return None
    into: list[list[int]] = [[] for _ in known]
    for i, cols in enumerate(known):
        for q in cols:
            into[q].append(i)
    rows = _ends_before(into, k, k)  # rows i with a known K[i][k]
    row_k = _ends_before(known, k, k).union(bad[k])
    for i in sorted(rows.union(i for i, cols in enumerate(bad) if k in cols)):
        if i in rows:
            steps = row_k.intersection(bad[i]).union(bad[k])  # a broken K[i][j] or K[k][j]
        else:
            steps = row_k  # a broken K[i][k]: every step of the row
        if steps:
            return k, i, min(steps)
    raise InternalInconsistency(f"pivot {k} has a step that reads a broken cell, but no row makes it")


def _least_pivot(known: list[list[int]], i: int, targets: set[int], k: int) -> int:
    """The least p < k that is the largest interior vertex of a known walk from ``i`` into ``targets``.

    Else ``k``.  The pivots run in order from row i's least column: a
    vertex the row reaches is expanded at its own pivot, or at once when
    it lies before the current one, so each is expanded at most once.
    """
    seen = set(known[i])
    for p in range(min(seen, default=k), k):
        if p not in seen:
            continue
        todo = [p]
        while todo:
            for y in known[todo.pop()]:
                if y in targets:
                    return p
                if y not in seen:
                    seen.add(y)
                    if y < p:
                        todo.append(y)
    return k


def _ends_before(edges: list[list[int]], k: int, bound: int) -> set[int]:
    """Ends of the non-empty walks from ``k`` along ``edges`` with every interior vertex before ``bound``."""
    seen: set[int] = set()
    todo = [k]
    while todo:
        for y in edges[todo.pop()]:
            if y not in seen:
                seen.add(y)
                if y < bound:
                    todo.append(y)
    return seen


def shortest_word_path(a: Nfa, source: int, targets: frozenset[int] | set[int]) -> Word | None:
    """Minimal (length, then lexicographic) word labeling a path into ``targets``."""
    walk = shortest_walk(a._successors, source, targets)
    return None if walk is None else walk[0]


def first_failing_word(backend: Backend, candidates: list[Word]) -> Word:
    """First candidate outside the identity language; at least one must be."""
    for word in candidates:
        if not backend.word_in_group_language(word):
            return word
    raise InternalInconsistency(
        f"all candidate counterexamples map to the identity: {candidates!r}"
    )


def extract_witness(backend: Backend, u: Word, v: Word, w: Word) -> Word:
    """Pick the failing word among u v w and u w.

    When the conjugate of v by u is not the identity, the images of
    u v w and u w differ, so at most one of the two accepted words can
    be the identity.
    """
    return first_failing_word(backend, [u + v + w, u + w])


def check_regular_inclusion(
    a: Nfa,
    backend: Backend,
    config: RunConfig | None = None,
    counters: OpCounters | None = None,
) -> Verdict:
    """Decide whether every word the automaton accepts maps to the group identity."""
    config = config if config is not None else DEFAULT_CONFIG
    require_rank("automaton", a.rank, backend)
    tau, broken, labels = potential(a, a.finals, backend, GroupSet)
    if a.start not in tau or not broken and tau[a.start] == backend.identity:
        return Holds()  # the language is empty, or the potential holds
    # A violation: the exit on the arcs, or else the closure on the useful states, finds it again
    # and names its witness.
    useful = frozenset(tau)
    finals_useful = sorted(a.finals & useful)
    try:
        witness = _arc_exit(a, backend, tau, broken, labels, config.set_cap, counters)
        if witness is not None:
            return Fails(witness=witness, reason=SIMPLE_PATH)
        mat = build_initial_matrix(a, backend, useful=useful, labels=labels)
        closure(mat, cap=config.set_cap, counters=counters)
    except SingletonViolation as sv:
        u = shortest_word_path(a, a.start, {sv.i})
        w = shortest_word_path(a, sv.j, set(finals_useful))
        assert u is not None and w is not None  # i, j are useful
        witness = first_failing_word(backend, [u + sv.witness_a + w, u + sv.witness_b + w])
        return Fails(witness=witness, reason=DISTINCT_LABELS, state=sv.j)
    except CapExceeded as exc:
        return ResourceExceeded(cell=exc.cell, cardinality=exc.cardinality)

    for t in finals_useful:
        bad = mat.cell(a.start, t).best_non_identity()
        if bad is not None:
            return Fails(witness=bad[1], reason=SIMPLE_PATH)
    return Holds()  # every cycle cell is identity-only: see ``closure``


# For the paper's conjugate test, which only the tests' reference check runs; bench/tracing.py wraps them.
def _failing_conjugate_witnesses(access: GroupSet, cycles: GroupSet) -> tuple[Word, Word]:
    """Witnesses of the smallest (access, cycle) pair whose conjugate is not the identity.

    x y x^-1 is the identity exactly when y is, so that pair is the
    smallest access label with the smallest non-identity cycle label.
    """
    bad = cycles.best_non_identity()
    if bad is None:
        raise InternalInconsistency("conjugate set had a non-identity element but no pair does")
    return min(access.elements.values(), key=GroupSet.witness_key), bad[1]


def _best_exit_witness(mat: LabelMatrix, j: int, finals_useful: list[int]) -> Word:
    """The smallest witness of a walk from ``j`` to a final, on the fully closed matrix.

    There is one: after the full closure a useful j with a cycle reaches
    a final, and when j is itself final its cycle cell is the exit.
    """
    exits = (wit for t in finals_useful for wit in mat.cell(j, t).elements.values())
    return min(exits, key=GroupSet.witness_key)
