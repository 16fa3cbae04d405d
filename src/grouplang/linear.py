"""Linear grammars and the inclusion check of their languages in a group's identity language.

A linear grammar becomes a labeled graph: one vertex per nonterminal
plus a sink, an arc i -> j labeled (alpha, beta) for each production
A_i -> alpha A_j beta, and an arc i -> sink labeled (alpha, empty) for
each A_i -> alpha.  A walk from the start to the sink spells a derived
word: the left labels in order, then the right labels in reverse.  The
check first runs the potential test on the level-0 pair matrix, which
decides every inclusion that holds.  On a violation, and always in
literal mode, it closes the pair-label matrix with the same pivot
recurrence as the regular case, multiplied with the diamond operation.
It tests the start-to-sink labels whenever that cell changes and, per
vertex, the cycle pairs wrapped around the tails that leave it.
"""

from __future__ import annotations

from pathlib import Path

from .errors import CapExceeded, InputError, InternalInconsistency
from .groups import Backend, Word, read_json, require_int, validate_word
from .records import Record
from .regular import (
    LabelMatrix,
    Nfa,
    build_matrix,
    check_fields,
    first_failing_word,
    pivot_closure,
    potential_holds,
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
    triple_paired,
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
    """Nonterminals are 1..nonterminals; the sink vertex of the diagram is nonterminals + 1."""

    nonterminals: int
    rank: int
    productions: tuple[Production, ...]
    start: int = 1

    def __post_init__(self):
        if self.nonterminals < 1:
            raise InputError("a grammar needs at least one nonterminal")
        if self.rank < 1:
            raise InputError("alphabet rank must be >= 1")
        if not 1 <= self.start <= self.nonterminals:
            raise InputError(f"start {self.start} out of range 1..{self.nonterminals}")
        for p in self.productions:
            if not 1 <= p.lhs <= self.nonterminals:
                raise InputError(f"production lhs {p.lhs} out of range")
            if p.rhs is not None and not 1 <= p.rhs <= self.nonterminals:
                raise InputError(f"production rhs {p.rhs} out of range")
            validate_word(p.alpha, self.rank)
            validate_word(p.beta, self.rank)

    @property
    def sink(self) -> int:
        return self.nonterminals + 1

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
        if keys == {"lhs", "alpha", "rhs", "beta"}:
            prods.append(
                Production(
                    lhs=require_int(p["lhs"], "production lhs", 1),
                    alpha=_parse_word(p["alpha"], "production alpha"),
                    rhs=require_int(p["rhs"], "production rhs", 1),
                    beta=_parse_word(p["beta"], "production beta"),
                )
            )
        elif keys == {"lhs", "alpha"}:
            prods.append(
                Production(
                    lhs=require_int(p["lhs"], "production lhs", 1),
                    alpha=_parse_word(p["alpha"], "production alpha"),
                )
            )
        else:
            raise InputError(
                f"production must have fields lhs/alpha/rhs/beta or lhs/alpha, got {sorted(keys)}"
            )
    return LinearGrammar(
        nonterminals=require_int(obj["nonterminals"], "field 'nonterminals'", 1),
        rank=require_int(obj["alphabet_rank"], "field 'alphabet_rank'", 1),
        productions=tuple(prods),
        start=require_int(obj["start"], "field 'start'", 1),
    )


def grammar_to_dict(g: LinearGrammar) -> dict:
    prods = []
    for p in g.productions:
        if p.rhs is None:
            prods.append({"lhs": p.lhs, "alpha": list(p.alpha)})
        else:
            prods.append(
                {"lhs": p.lhs, "alpha": list(p.alpha), "rhs": p.rhs, "beta": list(p.beta)}
            )
    return {
        "kind": "linear_grammar",
        "nonterminals": g.nonterminals,
        "alphabet_rank": g.rank,
        "productions": prods,
        "start": g.start,
    }


def load_grammar(path: str | Path) -> LinearGrammar:
    return parse_grammar(read_json(path))


def diagram_arcs(g: LinearGrammar) -> list[tuple[int, int, Word, Word]]:
    """Arcs (src, dst, left, right) of the grammar's labeled graph, sink included."""
    arcs = []
    for p in g.productions:
        if p.rhs is None:
            arcs.append((p.lhs, g.sink, p.alpha, ()))
        else:
            arcs.append((p.lhs, p.rhs, p.alpha, p.beta))
    arcs.sort()
    return arcs


def useful_nonterminals(g: LinearGrammar) -> frozenset[int]:
    """Nonterminals reachable from the start and able to reach the sink."""
    return useful_vertices(diagram_arcs(g), g.start, {g.sink}) - {g.sink}


def build_grammar_matrix(
    g: LinearGrammar,
    backend: Backend,
    *,
    cap: int | None = None,
    useful: frozenset[int] | None = None,
) -> LabelMatrix:
    """Level-0 pair matrix: cell (i, j) holds the images of the arcs i -> j.

    Rows run over nonterminals, columns additionally over the sink.
    When ``useful`` is given, arcs touching other nonterminals are
    dropped, so their rows and columns stay empty.
    """
    require_rank("grammar", g.rank, backend)
    keep = useful if useful is not None else frozenset(range(1, g.nonterminals + 1))
    return build_matrix(backend, diagram_arcs(g), PairSet, g.nonterminals, g.sink, keep, cap)


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


def _final_cell_scan():
    """Test of the start-to-sink cell, run each time it changes: every pair must multiply to e.

    Cells only grow and a pair's product never changes, so the pairs
    that passed are kept and only new ones are tested; the failing pair
    named is still the one with the smallest witness.
    """
    passed: set = set()

    def scan(cell: PairSet) -> None:
        if not cell.checked:
            cell.check_labels()
        backend = cell.backend
        ident = backend.identity
        mul = backend._mul
        bad = cell.best(lambda pair: pair not in passed and mul(*pair) != ident)
        if bad is not None:
            raise _EarlyViolation(SIMPLE_PATH, None, [bad[1][0] + bad[1][1]])
        passed.update(cell.elements)

    return scan


def _wrapped_failure(backend: Backend, cycles: PairSet, tails, passed=frozenset()) -> tuple | None:
    """The first (cycle witness, tail witness) whose u v w v^-1 misses the identity, or None.

    ``tails`` are (v, v^-1, witness word) in witness order; cycle pairs
    (u, w) count in witness order, tails after them, and pairs in
    ``passed`` are known to pass and are not tested.  Every cycle pair
    labels a real walk, so wrapping it around a real tail and comparing
    with the tail alone gives two generated words whose images differ
    exactly when the wrapped product misses the identity.  The elements
    come out of the kernels, so they are multiplied unchecked.
    """
    ident = backend.identity
    mul = backend._mul

    def failing_tail(pair):
        u, w = pair
        return next((wit for v, v_inv, wit in tails if mul(mul(mul(u, v), w), v_inv) != ident), None)

    bad = cycles.best(lambda pair: pair not in passed and failing_tail(pair) is not None)
    return None if bad is None else (bad[1], failing_tail(bad[0]))


def _wrapped_words(access: tuple[Word, Word], cycle: tuple[Word, Word], tail: Word) -> list[Word]:
    """The generated words with and without the cycle; one of them misses the identity."""
    return [access[0] + cycle[0] + tail + cycle[1] + access[1], access[0] + tail + access[1]]


def _cycle_scan(g: LinearGrammar, backend: Backend):
    """Per-level test of each cycle cell against the fewest-letter access and tail walks.

    A failure is definitive long before the sink column of the matrix
    fills in; on inclusions that hold the scan never fires.  A vertex's
    walks and tail image are computed once, when its cycle cell first
    becomes non-empty.  Cells only grow and a pair that passed against
    the vertex's one tail passes again, so each pair is tested once, and
    a cycle cell that is still the object scanned at the last level is
    skipped.
    """
    out = successors(diagram_arcs(g))
    probes: dict[int, tuple] = {}
    scanned: dict[int, PairSet] = {}

    def scan(mat: LabelMatrix) -> None:
        for i in mat.useful:
            cycles = mat.cell(i, i)
            if not cycles or scanned.get(i) is cycles:
                continue
            if i not in probes:
                # i is useful, so both walks exist.
                tail_left, tail_right = shortest_walk(out, i, {g.sink})
                tail = tail_left + tail_right
                v = backend.canonicalize(tail)
                probes[i] = (shortest_walk(out, g.start, {i}), [(v, backend.invert(v), tail)], set())
            access, tails, passed = probes[i]
            found = _wrapped_failure(backend, cycles, tails, passed)
            if found is not None:
                raise _EarlyViolation(CONJUGATE, i, _wrapped_words(access, *found))
            passed.update(cycles.elements)
            scanned[i] = cycles

    return scan


def closure_pairs(
    mat: LabelMatrix,
    *,
    cap: int | None = None,
    counters: OpCounters | None = None,
    watch_final: tuple[int, int] | None = None,
    level_scan=None,
) -> LabelMatrix:
    """Pivot recurrence over pair sets with ``diamond``; pivots never include the sink column.

    No early singleton exit here: distinct pairs at one vertex happily
    coexist with an inclusion that holds (their products under common
    contexts are what matters), so the cap is the blow-up defense.  Two
    optional detectors exit early on *definitive* violations, which never
    changes a verdict because cells only grow with the level:
    ``watch_final`` names a cell whose entries are checked for
    non-identity products on every update, and ``level_scan`` is called
    on the matrix before the first pivot and after each one.
    """
    on_cell = None
    if watch_final is not None:
        scan_final = _final_cell_scan()

        def on_cell(i: int, j: int, cell: PairSet) -> None:
            if (i, j) == watch_final:
                scan_final(cell)

    return pivot_closure(
        mat,
        mat.useful + (mat.cols,),
        diamond,
        union,
        cap=cap,
        counters=counters,
        counted="diamonds",
        on_cell=on_cell,
        on_level=level_scan,
    )


def check_linear_inclusion(
    g: LinearGrammar,
    backend: Backend,
    config: RunConfig | None = None,
    counters: OpCounters | None = None,
) -> Verdict:
    """Decide whether every word the grammar generates maps to the group identity."""
    config = config if config is not None else DEFAULT_CONFIG
    require_rank("grammar", g.rank, backend)
    useful = useful_nonterminals(g)
    if g.start not in useful:
        return Holds()  # no terminal derivation exists, so the language is empty
    sink = g.sink
    try:
        mat = build_grammar_matrix(g, backend, cap=config.set_cap, useful=useful)
        # Literal mode shows what the unpaired closure test says, spurious
        # failures included, so it runs the closure alone.
        if not config.literal_omega10 and potential_holds(mat, g.start, (sink,)):
            return Holds()
        closure_pairs(
            mat,
            cap=config.set_cap,
            counters=counters,
            watch_final=(g.start, sink),
            # The cycle scan implements the paired reading; keep it off in
            # literal mode so that mode shows the unpaired test verbatim.
            level_scan=None if config.literal_omega10 else _cycle_scan(g, backend),
        )
    except _EarlyViolation as exc:
        witness = first_failing_word(backend, exc.candidates)
        return Fails(witness=witness, reason=exc.reason, state=exc.state)
    except CapExceeded as exc:
        return ResourceExceeded(cell=exc.cell, cardinality=exc.cardinality)

    # No start-to-sink test here: watch_final saw that cell at level 0 and on every change.
    for i in sorted(useful):
        access = mat.cell(g.start, i)
        cycles = mat.cell(i, i)
        exits = mat.cell(i, sink)
        if not access or not cycles or not exits:
            continue
        tail_products = proj_product(exits)
        try:
            if config.literal_omega10:
                wrapped = triple_literal(
                    proj_left(cycles), tail_products, proj_right(cycles), cap=config.set_cap
                )
            else:
                wrapped = triple_paired(cycles, tail_products, cap=config.set_cap)
        except CapExceeded as exc:
            return ResourceExceeded(cell=(i, i), cardinality=exc.cardinality)
        if counters is not None:
            counters.triples += 1
        if wrapped.best_non_identity() is None:
            continue
        if config.literal_omega10:
            # The independent-projection form can fire on valid inclusions,
            # so there may be no counterexample word to extract.
            return Fails(witness=None, reason=CONJUGATE, state=i, spurious=True)
        tails = [(v, backend.invert(v), wit) for v, wit in tail_products.sorted_items()]
        found = _wrapped_failure(backend, cycles, tails)
        if found is None:
            raise InternalInconsistency("wrapped set had a non-identity element but no pair does")
        best_access = min(access.elements.values(), key=PairSet.witness_key)
        witness = first_failing_word(backend, _wrapped_words(best_access, *found))
        return Fails(witness=witness, reason=CONJUGATE, state=i)
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
