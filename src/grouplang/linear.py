"""Linear grammars and the inclusion check of their languages in a group's identity language.

A linear grammar becomes a labeled graph: one vertex per nonterminal
plus a sink, an arc i -> j labeled (alpha, beta) for each production
A_i -> alpha A_j beta, and an arc i -> sink labeled (alpha, empty) for
each A_i -> alpha.  A walk from the start to the sink spells a derived
word: the left labels in order, then the right labels in reverse.  The
check first reads the potential on the arcs (``regular.potential``),
before any matrix exists: it finds the useful nonterminals and decides
every inclusion that holds.  Only on a violation does it build the
level-0 pair matrix on the useful nonterminals and the sink, the
matrix's last vertex, and close it with the same pivot recurrence as the
regular case, multiplied with the diamond operation.
It tests the start-to-sink labels whenever that cell changes and, after
every pivot, each vertex's cycle pairs wrapped around its fewest-letter
tail; a closure that passes both proves the inclusion (``_cycle_scan``).
It reads only the diagonal, the start row and the sink column, so its
closure skips the steps into the other cells that no later step reads
(``pivot_closure``'s ``read_row``): those three are exact at every
level, and the rest of the matrix is left partly closed.  Within a
pivot, the steps that the scan and the start-to-sink test read run
first: the diagonal steps, the step into the start-to-sink cell and the
steps of the pivot's row that those read.  Then the scan runs, and the
pivot's other steps follow only if it passes (``pivot_closure``'s
``early_level``).  This changes no cell that any step or test reads, as
each reads it in the loop's order, so the pivot at which a failing
closure exits makes none of the steps that nothing reads before the
exit.  ``OpCounters`` count the steps made.

:func:`literal_linear_inclusion` runs the paper's unpaired cycle test
instead of the scan, kept to show that it can reject valid inclusions.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path

from .errors import CapExceeded, InputError
from .groups import Backend, Word, check_fields, read_json, require_int, validate_word
from .records import Record
from .regular import (
    LabelMatrix,
    Nfa,
    build_matrix,
    first_failing_word,
    pivot_closure,
    potential,
    require_rank,
    shortest_walk,
    successors,
    useful_vertices,
)
from .semiring import (
    PairSet,
    diamond,
    proj_left,
    proj_product,
    proj_right,
    triple_literal,
    triple_paired,  # no check calls it; a module attribute because bench/tracing.py wraps it
    union,
)
from .verdicts import (
    CONJUGATE,
    DEFAULT_CONFIG,
    SIMPLE_PATH,
    Fails,
    Holds,
    OpCounters,
    ResourceExceeded,
    RunConfig,
    Verdict,
)


class Production(Record, frozen=True):
    """A_lhs -> alpha A_rhs beta, or a terminal production A_lhs -> alpha when rhs is None."""

    lhs: int
    alpha: Word
    rhs: int | None = None
    beta: Word = ()

    def __post_init__(self):
        if self.rhs is None and self.beta:
            raise InputError("a terminal production cannot carry a right part")


class LinearGrammar(Record, frozen=True):
    """Nonterminals are 1..nonterminals; the sink vertex of the diagram is nonterminals + 1.

    The diagram is derived once, on first use, as for ``Nfa``: ``_arcs``,
    the arcs (src, dst, alpha, beta) sorted, a terminal production's arc
    ending at the sink, and ``_successors``, their ``successors``.
    """

    nonterminals: int
    rank: int
    productions: tuple[Production, ...]
    start: int = 1

    def __post_init__(self):
        require_int(self.nonterminals, "number of nonterminals", 1)
        require_int(self.rank, "alphabet rank", 1)
        if require_int(self.start, "start nonterminal", 1) > self.nonterminals:
            raise InputError(f"start {self.start} out of range 1..{self.nonterminals}")
        # A side of another type fails its comparison, and a production of
        # another type has no sides: the errors are caught around the loop.
        # Only True passes the comparison, as 1, so that is tested inline.
        n, rank = self.nonterminals, self.rank
        p = self.productions  # named by the message when it is not iterable
        try:
            for p in self.productions:
                if not 1 <= p.lhs <= n or p.lhs is True:
                    raise InputError(f"production lhs {p.lhs} out of range")
                if p.rhs is not None and (not 1 <= p.rhs <= n or p.rhs is True):
                    raise InputError(f"production rhs {p.rhs} out of range")
                if not isinstance(p.alpha, tuple) or not isinstance(p.beta, tuple):
                    raise InputError(f"production words must be tuples of letters, got {p!r}")
                validate_word(p.alpha + p.beta, rank)  # one call for both words
        except (AttributeError, TypeError) as exc:
            raise InputError(f"bad production {p!r}; expected a Production with integer sides") from exc

    @property
    def sink(self) -> int:
        return self.nonterminals + 1

    @cached_property
    def _arcs(self) -> tuple[tuple[int, int, Word, Word], ...]:
        sink = self.sink
        return tuple(
            sorted((p.lhs, sink if p.rhs is None else p.rhs, p.alpha, p.beta) for p in self.productions)
        )

    @cached_property
    def _successors(self) -> dict[int, list[tuple[int, int, Word, Word]]]:
        return successors(self._arcs)

    def generates(self, word: Word) -> bool:
        """Interval parse; independent of the closure machinery.

        A search over (nonterminal, lo, hi) states with an explicit
        stack, which no word length can overflow; its seen set stops the
        loops that productions adding no letters can form.
        """
        word = tuple(word)
        by_lhs: dict[int, list[Production]] = {}
        for p in self.productions:
            by_lhs.setdefault(p.lhs, []).append(p)
        todo = [(self.start, 0, len(word))]
        seen = set(todo)
        while todo:
            nt, lo, hi = todo.pop()
            for p in by_lhs.get(nt, ()):
                la, lb = len(p.alpha), len(p.beta)
                if p.rhs is None:
                    if hi - lo == la and word[lo:hi] == p.alpha:
                        return True
                elif hi - lo >= la + lb and word[lo:lo + la] == p.alpha and word[hi - lb:hi] == p.beta:
                    state = (p.rhs, lo + la, hi - lb)
                    if state not in seen:
                        seen.add(state)
                        todo.append(state)
        return False


_GRAMMAR_FIELDS = {"kind", "nonterminals", "alphabet_rank", "productions", "start"}


def _parse_word(raw, where: str) -> Word:
    if not isinstance(raw, list) or not all(isinstance(v, int) for v in raw):
        raise InputError(f"{where} must be a list of signed letters")
    return tuple(raw)


def parse_grammar(obj: dict) -> LinearGrammar:
    check_fields(obj, "linear_grammar", _GRAMMAR_FIELDS)
    raw = obj["productions"]
    if not isinstance(raw, list):
        raise InputError("field 'productions' must be a list")
    prods = []
    for p in raw:
        if not isinstance(p, dict):
            raise InputError(f"bad production {p!r}")
        keys = set(p)
        if keys != {"lhs", "alpha", "rhs", "beta"} and keys != {"lhs", "alpha"}:
            raise InputError(
                f"production must have fields lhs/alpha/rhs/beta or lhs/alpha, got {sorted(keys)}"
            )
        lhs = require_int(p["lhs"], "production lhs", 1)
        alpha = _parse_word(p["alpha"], "production alpha")
        if "rhs" in keys:
            rhs = require_int(p["rhs"], "production rhs", 1)
            prods.append(Production(lhs, alpha, rhs, _parse_word(p["beta"], "production beta")))
        else:
            prods.append(Production(lhs, alpha))
    return LinearGrammar(
        nonterminals=obj["nonterminals"],
        rank=obj["alphabet_rank"],
        productions=tuple(prods),
        start=obj["start"],
    )


def grammar_to_dict(g: LinearGrammar) -> dict:
    prods = []
    for p in g.productions:
        prod = {"lhs": p.lhs, "alpha": list(p.alpha)}
        if p.rhs is not None:
            prod.update(rhs=p.rhs, beta=list(p.beta))
        prods.append(prod)
    return {
        "kind": "linear_grammar",
        "nonterminals": g.nonterminals,
        "alphabet_rank": g.rank,
        "productions": prods,
        "start": g.start,
    }


def load_grammar(path: str | Path) -> LinearGrammar:
    return parse_grammar(read_json(path))


def useful_nonterminals(g: LinearGrammar) -> frozenset[int]:
    """Nonterminals reachable from the start and able to reach the sink."""
    return useful_vertices(g._arcs, g.start, {g.sink}) - {g.sink}


def build_grammar_matrix(
    g: LinearGrammar,
    backend: Backend,
    *,
    useful: frozenset[int] | None = None,
    labels: dict | None = None,
) -> LabelMatrix:
    """Level-0 pair matrix: cell (i, j) holds the images of the arcs i -> j.

    Its vertices are the nonterminals, or only ``useful`` when given, and
    the sink, which comes last and has no arcs out.  Arcs touching other
    nonterminals are dropped.  ``labels`` is the arc-label map of
    ``potential``, as ``build_matrix`` reads it.
    """
    require_rank("grammar", g.rank, backend)
    keep = useful if useful is not None else frozenset(range(1, g.nonterminals + 1))
    return build_matrix(backend, g._arcs, PairSet, keep | {g.sink}, labels)


class _EarlyViolation(Exception):
    """Internal signal: the closure already holds evidence that inclusion fails.

    ``candidates`` are generated words at least one of which falls
    outside the identity language.
    """

    def __init__(self, reason: str, state: int | None, candidates: list[Word]):
        self.reason = reason
        self.state = state
        self.candidates = candidates
        super().__init__("definitive violation found during closure")


def _final_cell_scan(watch: tuple[int, int]):
    """``on_cell`` test of the cell ``watch``, run each time it changes: every pair must multiply to e.

    The failing pair named is the one with the smallest witness.
    """

    def scan(i: int, j: int, cell: PairSet) -> None:
        if (i, j) != watch:
            return
        if not cell.checked:
            cell.check_labels()
        backend = cell.backend
        ident = backend.identity
        mul = backend._mul
        bad = cell.best(lambda pair: mul(*pair) != ident)
        if bad is not None:
            raise _EarlyViolation(SIMPLE_PATH, None, [bad[1][0] + bad[1][1]])

    return scan


def _wrapped_failure(backend: Backend, cycles: PairSet, v) -> tuple[Word, Word] | None:
    """The smallest witness of a cycle pair (u, w) with u v w != v, the tail's value, or None.

    u v w is ``PairSet.wrap``, the rule :func:`potential` applies to every
    cell, written out as two ``_mul`` calls in one plain loop; unchecked,
    since the elements come out of the kernels.  A witness determines its
    pair, so no two failing pairs tie under ``PairSet.witness_key``.  Every
    cycle pair labels a real walk, so the words with and without it differ
    in value.
    """
    mul = backend._mul
    bad = [wit for (u, w), wit in cycles.elements.items() if mul(mul(u, v), w) != v]
    return min(bad, key=PairSet.witness_key, default=None)


def _wrapped_words(access: tuple[Word, Word], cycle: tuple[Word, Word], tail: Word) -> list[Word]:
    """The generated words with and without the cycle; one of them misses the identity."""
    return [access[0] + cycle[0] + tail + cycle[1] + access[1], access[0] + tail + access[1]]


def _cycle_scan(g: LinearGrammar, backend: Backend):
    """Per-level test of each cycle cell against the fewest-letter access and tail walks.

    A failure is definitive long before the sink column of the matrix
    fills in; on inclusions that hold the scan never fires.  A vertex's
    tail walk and value are computed once, when its cycle cell first
    becomes non-empty, and its access walk only when a pair fails.

    Level 0 tests every vertex; after pivot k only the cycle cells (i, i)
    with K[i][k] and K[k][i] non-empty can have changed, and an unchanged
    cell passes again.  Under the skip rule of ``pivot_closure`` row k is
    exact, and K[i][k] is non-empty exactly when the full closure's is.

    The lemma: with ``watch_final`` on the start-to-sink cell, the scan
    stops the closure of every failing grammar.  Let W be a start-to-sink
    derivation whose word misses e, with the fewest letters, then arcs.
    The recurrence puts a simple walk's pair into its cell by the pivot of
    its largest interior vertex (level 0 for one arc), and the skip rule
    keeps the start-to-sink cell and the diagonal exact.  So if W repeats
    no vertex, ``watch_final`` sees it.  Else cut W = P C Q at its first
    repeated vertex x, C a simple cycle at x.  C has letters, or P Q beats
    W; so P Q and P t, t the fewest-letter tail of x, give e, and Q's
    value is t's, v.  As W misses e, C's pair (u, w) has u v w != v, and
    the scan tests K[x][x] after C's pivot.  So a completed closure proves
    the inclusion.
    """
    out = g._successors
    tails: dict[int, tuple] = {}

    def scan(mat: LabelMatrix) -> None:
        k = mat.useful[mat.level - 1] if mat.level else None
        get = mat.cells.get  # an absent cell reads as None, which is empty too
        for i in mat.useful:
            cycles = get((i, i))
            if not cycles or k is not None and not (get((i, k)) and get((k, i))):
                continue
            if i not in tails:
                # i is useful, so its tail and access walks exist.
                tail_left, tail_right = shortest_walk(out, i, {g.sink})
                tail = tail_left + tail_right
                tails[i] = (backend.canonicalize(tail), tail)
            v, tail = tails[i]
            cycle = _wrapped_failure(backend, cycles, v)
            if cycle is not None:
                access = shortest_walk(out, g.start, {i})
                raise _EarlyViolation(CONJUGATE, i, _wrapped_words(access, cycle, tail))

    return scan


def closure_pairs(
    mat: LabelMatrix,
    *,
    cap: int | None = None,
    counters: OpCounters | None = None,
    watch_final: tuple[int, int] | None = None,
    level_scan=None,
    read_row: int | None = None,
    early_scan=None,
) -> LabelMatrix:
    """Pivot recurrence over pair sets with ``diamond``; the sink's pivot, the last, makes no step.

    No early singleton exit here: distinct pairs at one vertex happily
    coexist with an inclusion that holds (their products under common
    contexts are what matters), so the cap is the blow-up defense.  Two
    optional detectors exit early on *definitive* violations, which never
    changes a verdict because cells only grow with the level:
    ``watch_final`` names a cell whose entries are checked for
    non-identity products on every update, and ``level_scan`` is called
    on the matrix before the first pivot and after each one.

    Without ``read_row`` every cell is closed.  With it, the closure
    keeps exact only the cells the linear check reads: the diagonal, the
    sink column and row ``read_row``; see ``pivot_closure``.  As the
    check runs it, a closure that completes proves the inclusion (``_cycle_scan``).

    ``early_scan`` is called like ``level_scan``, but after each pivot's
    early steps, the ones that it and ``watch_final`` read: the diagonal
    steps, the step into ``watch_final`` and the steps of the pivot's row
    that those read (``pivot_closure``'s ``early_level``).  The pivot's
    other steps follow, in the loop's order, only if it passes.  Every
    step and test reads each cell as in the loop's order, so the check
    passes its cycle scan here, and the pivot at which a failing closure
    exits makes only the steps that its tests read and those that a cap
    needs.  ``diamond`` and ``union`` are read off this module at each
    call, where ``bench/tracing.py`` wraps them.
    """
    return pivot_closure(
        mat,
        diamond,
        union,
        cap=cap,
        counters=counters,
        counted="diamonds",
        on_cell=None if watch_final is None else _final_cell_scan(watch_final),
        on_level=level_scan,
        read_row=read_row,
        early_level=early_scan,
        watch=watch_final,
    )


def _closure_verdict(g: LinearGrammar, backend: Backend, mat: LabelMatrix, config, counters, cycle_scan) -> Verdict:
    """Close ``mat`` watching the start-to-sink cell: the verdict that stops the closure, or ``Holds()``.

    A ``ResourceExceeded`` names a cell the check needed: the closure
    skips the cells it never reads, so no cap fires in one of those.
    """
    try:
        closure_pairs(
            mat,
            cap=config.set_cap,
            counters=counters,
            watch_final=(g.start, g.sink),
            read_row=g.start,
            early_scan=cycle_scan,
        )
    except _EarlyViolation as exc:
        witness = first_failing_word(backend, exc.candidates)
        return Fails(witness=witness, reason=exc.reason, state=exc.state)
    except CapExceeded as exc:
        return ResourceExceeded(cell=exc.cell, cardinality=exc.cardinality)
    return Holds()


def check_linear_inclusion(
    g: LinearGrammar,
    backend: Backend,
    config: RunConfig | None = None,
    counters: OpCounters | None = None,
) -> Verdict:
    """Decide whether every word the grammar generates maps to the group identity.

    A completed closure proves the inclusion (``_cycle_scan``).
    """
    config = config if config is not None else DEFAULT_CONFIG
    require_rank("grammar", g.rank, backend)
    tau, broken, labels = potential(g, (g.sink,), backend, PairSet)
    if g.start not in tau or not broken and tau[g.start] == backend.identity:
        return Holds()  # the language is empty, or the potential holds
    mat = build_grammar_matrix(g, backend, useful=frozenset(tau), labels=labels)
    return _closure_verdict(g, backend, mat, config, counters, _cycle_scan(g, backend))


def literal_linear_inclusion(
    g: LinearGrammar,
    backend: Backend,
    config: RunConfig | None = None,
    counters: OpCounters | None = None,
) -> Verdict:
    """The check without the potential or the cycle scan, then the paper's unpaired cycle test.

    ``triple_literal`` wraps the left and the right parts of a cycle
    cell's pairs around its exits independently, so it can fire on an
    inclusion that holds; it then names no witness, and ``spurious`` is set.
    An empty language leaves the matrix no cell, and holds.
    """
    config = config if config is not None else DEFAULT_CONFIG
    require_rank("grammar", g.rank, backend)
    mat = build_grammar_matrix(g, backend, useful=useful_nonterminals(g))
    verdict = _closure_verdict(g, backend, mat, config, counters, None)
    if verdict != Holds():
        return verdict
    # The unpaired test; watch_final saw the start-to-sink cell at every change.
    sink = g.sink
    for i in mat.useful:
        cycles, exits = mat.cell(i, i), mat.cell(i, sink)
        if not mat.cell(g.start, i) or not cycles or not exits:
            continue
        try:
            wrapped = triple_literal(
                proj_left(cycles), proj_product(exits), proj_right(cycles), cap=config.set_cap
            )
        except CapExceeded as exc:
            return ResourceExceeded(cell=(i, i), cardinality=exc.cardinality)
        if counters is not None:
            counters.triples += 1
        if wrapped.best_non_identity() is not None:
            # The independent-projection form can fire on valid inclusions,
            # so there may be no counterexample word to extract.
            return Fails(witness=None, reason=CONJUGATE, state=i, spurious=True)
    return Holds()


def nfa_to_right_linear(a: Nfa) -> LinearGrammar:
    """Right-linear grammar with one nonterminal per state and the same language."""
    prods = [
        Production(lhs=src, alpha=(letter,), rhs=dst, beta=())
        for src, letter, dst in sorted(a.transitions)
    ]
    prods.extend(Production(lhs=f, alpha=()) for f in sorted(a.finals))
    return LinearGrammar(
        nonterminals=a.states,
        rank=a.rank,
        productions=tuple(prods),
        start=a.start,
    )
