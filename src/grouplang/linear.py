"""Linear grammars and the inclusion check of their languages in a group's identity language.

A linear grammar becomes a labeled graph: one vertex per nonterminal
plus a sink, an arc i -> j labeled (alpha, beta) for each production
A_i -> alpha A_j beta, and an arc i -> sink labeled (alpha, empty) for
each A_i -> alpha.  A walk from the start to the sink spells a derived
word: the left labels in order, then the right labels in reverse.  The
check closes the pair-label matrix with the same pivot recurrence as
the regular case, multiplied with the diamond operation, then tests the
merged start-to-sink labels and, per vertex, the cycle pairs wrapped
around the tails that leave it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import CapExceeded, InputError
from .groups import Backend, Word, read_json, require_int, validate_word
from .regular import (
    LabelMatrix,
    Nfa,
    build_matrix,
    check_fields,
    first_failing_word,
    pivot_closure,
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
    SIMPLE_PATH,
    Fails,
    Holds,
    OpCounters,
    ResourceExceeded,
    RunConfig,
    Verdict,
)


@dataclass(frozen=True)
class Production:
    """A_lhs -> alpha A_rhs beta, or a terminal production A_lhs -> alpha when rhs is None."""

    lhs: int
    alpha: Word
    rhs: int | None = None
    beta: Word = ()

    def __post_init__(self):
        if self.rhs is None and self.beta:
            raise InputError("a terminal production cannot carry a right part")


@dataclass(frozen=True)
class LinearGrammar:
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

        Nonterminals reachable through productions that add no letters
        are folded into an epsilon-reachability relation first, so every
        other step shrinks the interval: the parse is a search over
        (nonterminal, lo, hi) states with an explicit stack, which no
        word length can overflow.
        """
        word = tuple(word)
        eps_reach: dict[int, set[int]] = {i: {i} for i in range(1, self.nonterminals + 1)}
        changed = True
        while changed:
            changed = False
            for p in self.productions:
                if p.rhs is None or p.alpha or p.beta:
                    continue
                for i, seen in eps_reach.items():
                    if p.lhs in seen and p.rhs not in seen:
                        seen.add(p.rhs)
                        changed = True
        todo = [(self.start, 0, len(word))]
        seen_states = set(todo)
        while todo:
            nt, lo, hi = todo.pop()
            for source in eps_reach[nt]:
                for p in self.productions:
                    if p.lhs != source:
                        continue
                    la, lb = len(p.alpha), len(p.beta)
                    if p.rhs is None:
                        if hi - lo == la and word[lo:hi] == p.alpha:
                            return True
                    elif la + lb > 0 and hi - lo >= la + lb:
                        if word[lo:lo + la] == p.alpha and word[hi - lb:hi] == p.beta:
                            state = (p.rhs, lo + la, hi - lb)
                            if state not in seen_states:
                                seen_states.add(state)
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


def _scan_final_cell(cell: PairSet) -> None:
    backend = cell.backend
    best = None
    for (left, right), wit in cell.elements.items():
        if backend.multiply(left, right) != backend.identity:
            if best is None or PairSet.witness_key(wit) < PairSet.witness_key(best):
                best = wit
    if best is not None:
        raise _EarlyViolation(SIMPLE_PATH, None, [best[0] + best[1]])


class _CycleScan:
    """Per-level test of cycle labels against concrete access and exit walks.

    Every pair in a cycle cell labels a real walk, so wrapping it around
    any real tail walk and comparing with the tail alone gives two
    generated words whose images differ exactly when the wrapped product
    misses the identity; finding one is a definitive failure long before
    the sink column of the matrix fills in.  On inclusions that hold the
    wrapped products are all the identity and the scan never fires.
    """

    def __init__(self, g: LinearGrammar, backend: Backend):
        self.backend = backend
        self.start = g.start
        self.out = successors(diagram_arcs(g))
        self.sink = g.sink
        self._paths: dict[tuple[int, int], tuple[Word, Word] | None] = {}

    def _pair_path(self, src: int, dst: int) -> tuple[Word, Word] | None:
        """The fewest-letter walk label from src to dst, computed once."""
        key = (src, dst)
        if key not in self._paths:
            self._paths[key] = shortest_walk(self.out, src, {dst})
        return self._paths[key]

    def __call__(self, mat: LabelMatrix) -> None:
        backend = self.backend
        ident = backend.identity
        for i in mat.useful:
            cycles = mat.cell(i, i)
            if not cycles:
                continue
            tail = self._pair_path(i, self.sink)
            access = self._pair_path(self.start, i)
            if tail is None or access is None:
                continue
            mid_word = tail[0] + tail[1]
            mid = backend.canonicalize(mid_word)
            mid_inv = backend.invert(mid)
            for (u, w), (wu, ww) in cycles.sorted_items():
                wrapped = backend.multiply(
                    backend.multiply(backend.multiply(u, mid), w), mid_inv
                )
                if wrapped != ident:
                    with_cycle = access[0] + wu + mid_word + ww + access[1]
                    without_cycle = access[0] + mid_word + access[1]
                    raise _EarlyViolation(CONJUGATE, i, [with_cycle, without_cycle])


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

        def on_cell(i: int, j: int, cell: PairSet) -> None:
            if (i, j) == watch_final:
                _scan_final_cell(cell)

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
    config = config if config is not None else RunConfig()
    require_rank("grammar", g.rank, backend)
    useful = useful_nonterminals(g)
    if g.start not in useful:
        return Holds()  # no terminal derivation exists, so the language is empty
    sink = g.sink
    try:
        mat = build_grammar_matrix(g, backend, cap=config.set_cap, useful=useful)
        closure_pairs(
            mat,
            cap=config.set_cap,
            counters=counters,
            watch_final=(g.start, sink),
            # The cycle scan implements the paired reading; keep it off in
            # literal mode so that mode shows the unpaired test verbatim.
            level_scan=None if config.literal_omega10 else _CycleScan(g, backend),
        )
    except _EarlyViolation as exc:
        witness = first_failing_word(backend, exc.candidates)
        return Fails(witness=witness, reason=exc.reason, state=exc.state)
    except CapExceeded as exc:
        return ResourceExceeded(cell=exc.cell, cardinality=exc.cardinality)

    generated = proj_product(mat.cell(g.start, sink))
    bad = generated.best_non_identity()
    if bad is not None:
        return Fails(witness=bad[1], reason=SIMPLE_PATH)

    for i in sorted(useful):
        access = mat.cell(g.start, i)
        cycles = mat.cell(i, i)
        tails = mat.cell(i, sink)
        if not access or not cycles or not tails:
            continue
        tail_products = proj_product(tails)
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
        witness = _conjugate_witness(backend, access, cycles, tail_products)
        return Fails(witness=witness, reason=CONJUGATE, state=i)
    return Holds()


def _conjugate_witness(
    backend: Backend, access: PairSet, cycles: PairSet, tail_products
) -> Word:
    """Assemble the failing generated word for a cycle-context violation.

    With the in-cycle pair (u, w) and the tail product v, the words
    "access-left cycle-left tail access-right-side" with and without the
    cycle are both generated, and their images differ whenever
    u v w v^-1 is not the identity, so one of them must miss the
    identity.
    """
    ident = backend.identity
    for (u, w), (wu, ww) in cycles.sorted_items():
        for mid, wmid in tail_products.sorted_items():
            value = backend.multiply(
                backend.multiply(backend.multiply(u, mid), w), backend.invert(mid)
            )
            if value != ident:
                (wl1, wr1) = min(access.elements.values(), key=PairSet.witness_key)
                with_cycle = wl1 + wu + wmid + ww + wr1
                without_cycle = wl1 + wmid + wr1
                return first_failing_word(backend, [with_cycle, without_cycle])
    raise AssertionError("caller guaranteed a failing pair exists")


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
