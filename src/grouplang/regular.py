"""Finite automata and the inclusion check of their languages in a group's identity language.

The check labels each automaton arc with the group image of its letter
and first runs the potential test (:func:`potential_holds`), which
decides every inclusion that holds.  When it finds a violation, the
check closes the label matrix with the all-pairs pivot recurrence
``K[i][j] = K[i][j] | K[i][k] * K[k][j]``, and then tests two things:
no start-to-final cell may contain a non-identity element, and for
every state the conjugates of its cycle labels by its access labels
must collapse to the identity.  Witness words ride along with every
element, so a failed check always names a concrete accepted word that
does not multiply out to the identity.

This module also holds the core that the linear check shares: JSON
object checks, reachability, the shortest-walk search, the level-0
matrix builder, the potential test and the pivot loop.  Both checks run
on arcs (src, dst, left, right): an automaton arc has an empty right
part, a grammar arc wraps its left and right words around the rest of
the walk.
"""

from __future__ import annotations

import heapq
from pathlib import Path

from .errors import (
    BackendMismatch,
    CapExceeded,
    InputError,
    InternalInconsistency,
    SingletonViolation,
)
from .groups import Backend, Word, read_json, require_int, validate_word
from .records import Record
from .semiring import GroupSet, PairSet, product, star, union
from .verdicts import (
    CONJUGATE,
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

    Arcs carry exactly one letter; empty-word arcs are rejected.
    """

    states: int
    rank: int
    transitions: frozenset[tuple[int, int, int]]
    start: int = 1
    finals: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.states < 1:
            raise InputError("an automaton needs at least one state")
        if self.rank < 1:
            raise InputError("alphabet rank must be >= 1")
        if not 1 <= self.start <= self.states:
            raise InputError(f"start state {self.start} out of range 1..{self.states}")
        for f in self.finals:
            if not 1 <= f <= self.states:
                raise InputError(f"final state {f} out of range 1..{self.states}")
        for src, letter, dst in self.transitions:
            if not 1 <= src <= self.states or not 1 <= dst <= self.states:
                raise InputError(f"transition ({src}, {letter}, {dst}) leaves 1..{self.states}")
            if letter == 0:
                raise InputError("empty-word transitions are not allowed")
            validate_word((letter,), self.rank)

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

    def arcs(self) -> list[tuple[int, int, Word, Word]]:
        """Arcs (src, dst, (letter,), ()) in (src, letter, dst) order."""
        return [(src, dst, (letter,), ()) for src, letter, dst in sorted(self.transitions)]


def check_fields(obj, kind: str, fields: set[str]) -> None:
    """Reject ``obj`` unless it is a JSON object of ``kind`` with exactly ``fields`` ('kind' optional)."""
    if not isinstance(obj, dict):
        raise InputError(f"{kind} description must be a JSON object")
    if obj.get("kind", kind) != kind:
        raise InputError(f"field 'kind' must be {kind!r}, got {obj.get('kind')!r}")
    unknown = set(obj) - fields
    if unknown:
        raise InputError(f"unknown {kind} fields: {sorted(unknown)}")
    for key in sorted(fields - {"kind"}):
        if key not in obj:
            raise InputError(f"missing {kind} field {key!r}")


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
        states=require_int(obj["states"], "field 'states'", 1),
        rank=require_int(obj["alphabet_rank"], "field 'alphabet_rank'", 1),
        transitions=frozenset(arcs),
        start=require_int(obj["start"], "field 'start'", 1),
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
    return useful_vertices(a.arcs(), a.start, a.finals)


def successors(arcs) -> dict[int, list[tuple[int, Word, Word]]]:
    """Arcs (src, dst, left, right) grouped by source as (dst, left, right)."""
    out: dict[int, list[tuple[int, Word, Word]]] = {}
    for src, dst, left, right in arcs:
        out.setdefault(src, []).append((dst, left, right))
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
        for dst, alpha, beta in out.get(vertex, ()):
            if dst not in done:
                heapq.heappush(
                    heap, (letters + len(alpha) + len(beta), left + alpha, beta + right, dst)
                )
    return None


class LabelMatrix(Record):
    """Grid of label sets indexed by 1-based vertices; the check's workspace.

    ``level`` counts how many pivots the closure has applied; builders
    produce level 0.  Absent cells read as ``empty``.
    """

    backend: Backend
    rows: int
    cols: int
    useful: tuple[int, ...]
    cells: dict[tuple[int, int], GroupSet | PairSet]
    empty: GroupSet | PairSet
    level: int = 0

    def cell(self, i: int, j: int):
        return self.cells.get((i, j), self.empty)


def build_matrix(backend: Backend, arcs, cell_type, rows: int, cols: int, keep, cap) -> LabelMatrix:
    """Level-0 matrix: cell (i, j) holds the labels of the arcs i -> j.

    Arcs leaving a vertex outside ``keep``, or entering one, are dropped,
    so those rows and columns stay empty; columns past the last row (the
    grammar's sink) are never dropped.  Cells are created in arc order,
    and start out checked: their labels come from ``canonicalize``.
    """
    cells: dict = {}
    key = cell_type.witness_key
    for src, dst, left, right in arcs:
        if src not in keep or (dst <= rows and dst not in keep):
            continue
        cell = cells.get((src, dst))
        if cell is None:
            cell = cells[src, dst] = cell_type(backend, None, True)
        wit = cell_type.arc_witness(left, right)
        label = cell_type.evaluate(backend, wit)
        old = cell.elements.get(label)
        if old is None or key(wit) < key(old):
            cell.elements[label] = wit
        if cap is not None and len(cell.elements) > cap:
            raise CapExceeded(len(cell.elements), cell=(src, dst))
    return LabelMatrix(backend, rows, cols, tuple(sorted(keep)), cells, cell_type(backend))


def potential_holds(mat: LabelMatrix, start: int, ends) -> bool:
    """Whether every walk of the level-0 matrix ``mat`` from ``start`` to an end has value e.

    On useful vertices that is so exactly when each vertex v has one
    value tau(v) that every walk from v to an end takes: tau(end) = e,
    every label c of every cell (i, j) has ``wrap(c, tau(j)) == tau(i)``,
    and tau(start) = e.  (If the inclusion holds, a walk from v to an end
    takes the inverse of the value of any walk from the start to v, so
    tau is well defined.)  The values are read off backwards from the
    ends, each vertex taking its value from the first cell seen; every
    useful vertex reaches an end, so every one gets one.  O(labels)
    multiplications with the unchecked ``_mul``, since level-0 labels are
    canonical; ``mat`` is not changed.
    """
    backend = mat.backend
    wrap = type(mat.empty).wrap
    ident = backend.identity
    into: dict[int, list] = {}
    for (i, j), cell in mat.cells.items():
        into.setdefault(j, []).append((i, cell))
    tau = {end: ident for end in ends}
    todo = list(tau)
    while todo:
        j = todo.pop()
        rest = tau[j]
        for i, cell in into.get(j, ()):
            for label in cell.elements:
                value = wrap(backend, label, rest)
                seen = tau.get(i)
                if seen is None:
                    tau[i] = value
                    todo.append(i)
                elif value != seen:
                    return False
    return tau.get(start) == ident


def pivot_closure(
    mat: LabelMatrix,
    columns,
    multiply,
    union,
    *,
    cap: int | None,
    counters: OpCounters | None,
    counted: str,
    on_cell=None,
    on_level=None,
) -> LabelMatrix:
    """The recurrence K[i][j] |= multiply(K[i][k], K[k][j]); mutates ``mat`` in place.

    Pivots and rows run over ``mat.useful``, columns over ``columns``.
    ``on_cell(i, j, cell)`` sees every level-0 cell and every change, and
    ``on_level(mat)`` sees the matrix before the first pivot and after
    each; either may raise to stop the closure.  The operations done are
    added to ``counters.unions`` and to the ``counted`` field, also when
    the closure stops early.
    """
    if mat.level != 0:
        raise ValueError("closure expects a level-0 matrix")
    cells = mat.cells
    get = cells.get
    empty = mat.empty
    useful = mat.useful
    multiplied = unions = 0
    try:
        if on_cell is not None:
            for (i, j), cell in cells.items():
                on_cell(i, j, cell)
        if on_level is not None:
            on_level(mat)
        for k in useful:
            # Only a non-empty K[k][j] is ever multiplied, so the
            # non-empty columns of row k stay the same during pivot k.
            row_k = [j for j in columns if get((k, j), empty).elements]
            for i in useful:
                left = get((i, k), empty)
                if not left.elements:
                    continue
                for j in row_k:
                    current = get((i, j), empty)
                    try:
                        prod = multiply(left, cells[k, j], cap=cap)
                        multiplied += 1
                        merged = union(current, prod, cap=cap)
                        unions += 1
                    except CapExceeded as exc:
                        exc.cell = (i, j)
                        raise
                    if merged is current:
                        continue
                    cells[i, j] = merged
                    if on_cell is not None:
                        on_cell(i, j, merged)
            mat.level += 1
            if on_level is not None:
                on_level(mat)
    finally:
        if counters is not None:
            counters.unions += unions
            setattr(counters, counted, getattr(counters, counted) + multiplied)
    # Pivots outside the useful set have empty rows and columns, so
    # skipping them never changes a cell; the matrix is fully closed.
    mat.level = mat.rows
    return mat


def build_initial_matrix(
    a: Nfa,
    backend: Backend,
    *,
    cap: int | None = None,
    useful: frozenset[int] | None = None,
) -> LabelMatrix:
    """Level-0 matrix: cell (i, j) holds the images of the single arcs i -> j.

    When ``useful`` is given, arcs touching other states are dropped, so
    their rows and columns stay empty.
    """
    require_rank("automaton", a.rank, backend)
    keep = useful if useful is not None else frozenset(range(1, a.states + 1))
    return build_matrix(backend, a.arcs(), GroupSet, a.states, a.states, keep, cap)


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
    """Pivot recurrence over the useful states with ``product``; mutates ``mat`` in place.

    With ``early_fail`` set, raises :class:`SingletonViolation` the
    moment any useful-to-useful cell holds two distinct elements: two
    different walk labels between one state pair already disprove the
    inclusion, and stopping there keeps every set a singleton on
    instances where the inclusion holds.

    When ``early_fail`` is set and no violation is raised, every useful
    cycle cell ends up holding only the identity.  The label y of a
    cycle read from its largest state m is in K[m][m] before pivot m,
    which then adds y * y; a singleton cell forces y * y = y, so y = e,
    and read from another of its states the cycle's label is a
    conjugate of y.  So the conjugate test of
    :func:`check_regular_inclusion` could only fire with ``early_fail``
    off, and only then is it run.
    """
    return pivot_closure(
        mat,
        mat.useful,
        product,
        union,
        cap=cap,
        counters=counters,
        counted="products",
        on_cell=_singleton_exit if early_fail else None,
    )


def shortest_word_path(a: Nfa, source: int, targets: frozenset[int] | set[int]) -> Word | None:
    """Minimal (length, then lexicographic) word labeling a path into ``targets``."""
    walk = shortest_walk(successors(a.arcs()), source, targets)
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
    useful = useful_states(a)
    finals_useful = sorted(a.finals & useful)
    if not finals_useful:
        return Holds()  # empty language; nothing to violate
    try:
        mat = build_initial_matrix(a, backend, cap=config.set_cap, useful=useful)
        if potential_holds(mat, a.start, finals_useful):
            return Holds()
        # A violation: the closure finds it again and names its witness.
        closure(mat, early_fail=config.early_fail, cap=config.set_cap, counters=counters)
    except SingletonViolation as sv:
        u = shortest_word_path(a, a.start, {sv.i})
        w = shortest_word_path(a, sv.j, set(finals_useful))
        assert u is not None and w is not None  # i, j are useful
        witness = first_failing_word(backend, [u + sv.witness_a + w, u + sv.witness_b + w])
        return Fails(witness=witness, reason=DISTINCT_LABELS, state=sv.j)
    except CapExceeded as exc:
        return ResourceExceeded(cell=exc.cell, cardinality=exc.cardinality)

    start = a.start
    for t in finals_useful:
        bad = mat.cell(start, t).best_non_identity()
        if bad is not None:
            return Fails(witness=bad[1], reason=SIMPLE_PATH)

    if config.early_fail:
        return Holds()  # every cycle cell is identity-only: see ``closure``
    for j in sorted(useful):
        access = mat.cell(start, j)
        cycles = mat.cell(j, j)
        if not access or not cycles:
            continue
        if not any(mat.cell(j, t) for t in finals_useful):
            continue
        try:
            conjugates = star(access, cycles, cap=config.set_cap)
        except CapExceeded as exc:
            return ResourceExceeded(cell=(j, j), cardinality=exc.cardinality)
        if counters is not None:
            counters.stars += 1
        if conjugates.best_non_identity() is None:
            continue
        u, v = _failing_conjugate_witnesses(access, cycles)
        w = _best_exit_witness(mat, j, finals_useful)
        witness = extract_witness(backend, u, v, w)
        return Fails(witness=witness, reason=CONJUGATE, state=j)
    return Holds()


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
    exits = (wit for t in finals_useful for wit in mat.cell(j, t).elements.values())
    return min(exits, key=GroupSet.witness_key)  # non-empty: guarded by the caller
