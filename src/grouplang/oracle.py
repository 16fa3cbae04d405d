"""Brute-force verification: enumerate language words and test each one.

This is the independent ground truth the closure algorithms are checked
against.  It shares only the language types and the backends'
``canonicalize`` with the checks: every word is tested whole, with no
partial products and nothing from the closure or the potential.

Enumeration is exact up to a length bound and streams words in
length-then-lexicographic order, so the first failing word it reports
is globally minimal.  Automaton levels come out in lex order without
sorting; grammar words are made length by length in per-vertex sets.
Both skip work that cannot end within the bound: for automata by each
state's distance to a final state, for grammars by each vertex's fewest
letters from the start.  A clean sweep is evidence at the bound, not a
proof of inclusion.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterator

from .errors import BoundExceeded
from .groups import Backend, Word, require_int
from .linear import LinearGrammar
from .records import Record
from .regular import Nfa


class EnumerationBound(Record, frozen=True):
    """Length bound plus a word-count safety cap; whichever is hit first stops the run."""

    max_word_length: int
    max_words: int = 1_000_000

    def __post_init__(self):
        require_int(self.max_word_length, "max_word_length", 1)
        require_int(self.max_words, "max_words", 1)


class OracleHolds(Record, frozen=True):
    """Every enumerated word was in the identity language; not a proof beyond the bound."""

    words_checked: int


class OracleFails(Record, frozen=True):
    """The length-lex smallest enumerated word outside the identity language."""

    witness: Word
    words_checked: int


OracleResult = OracleHolds | OracleFails


def enumerate_nfa_words(a: Nfa, bound: EnumerationBound) -> Iterator[Word]:
    """All accepted words up to the length bound, each once, in length-lex order.

    A level is the list of live words of one length, each with the set
    of states it reaches, so a word accepted along several runs is still
    emitted once.  Every word of the next level is a word of this one
    plus a letter: walking the words in order and each one's letters in
    sorted order produces the next level already in lex order, with no
    sorting.  A state set's moves are computed once per remaining
    length: for each letter, the targets from which a final state is
    still reachable within that length (shortest-completion pruning).
    """
    if not a.finals:
        return
    step: dict[int, list[tuple[int, int]]] = {}
    back: dict[int, set[int]] = {}
    for src, letter, dst in a.transitions:
        step.setdefault(src, []).append((letter, dst))
        back.setdefault(dst, set()).add(src)

    # Distance (in arcs) from each state to the nearest final state.
    dist: dict[int, int] = {f: 0 for f in a.finals}
    frontier = set(a.finals)
    d = 0
    while frontier:
        d += 1
        nxt = {s for t in frontier for s in back.get(t, ()) if s not in dist}
        for s in nxt:
            dist[s] = d
        frontier = nxt

    limit = bound.max_word_length
    if dist.get(a.start, limit + 1) > limit:
        return
    finals = a.finals
    emitted = 0
    level: list[tuple[Word, frozenset[int]]] = [((), frozenset({a.start}))]
    for length in range(limit + 1):
        for word, states in level:
            if not finals.isdisjoint(states):
                emitted += 1
                if emitted > bound.max_words:
                    raise BoundExceeded("max_words", bound.max_words)
                yield word
        if length == limit:
            break
        remaining = limit - length - 1
        moves: dict[frozenset[int], list[tuple[int, frozenset[int]]]] = {}
        nxt_level: list[tuple[Word, frozenset[int]]] = []
        for word, states in level:
            out = moves.get(states)
            if out is None:
                targets: dict[int, set[int]] = {}
                for s in states:
                    for letter, dst in step.get(s, ()):
                        if dist.get(dst, remaining + 1) <= remaining:
                            targets.setdefault(letter, set()).add(dst)
                out = moves[states] = [(x, frozenset(targets[x])) for x in sorted(targets)]
            for letter, dsts in out:
                nxt_level.append((word + (letter,), dsts))
        if not nxt_level:
            break
        level = nxt_level


def enumerate_grammar_words(g: LinearGrammar, bound: EnumerationBound) -> Iterator[Word]:
    """All generated words up to the length bound, each once, in length-lex order.

    A dynamic program over word length: W(v, n), the words of length n
    that vertex v derives.  The sink derives the empty word, an arc
    v -> u with parts (alpha, beta) of k letters adds alpha w beta to
    W(v, n) for each w in W(u, n - k), and the stream is sorted(W(start,
    n)) for n = 0, 1, ...  A letter-free arc only joins sets, so each
    vertex takes over the lettered arcs of the vertices it reaches
    without letters, and the empty word if the sink is one of them.
    W(v, n) is made only if the fewest letters from the start to v, plus
    n, is within the bound: each of its words extends to a distinct word
    of the stream.  Arcs indexed by (letter count, target) let a length
    read only the non-empty sets it needs; the last K lengths are kept.
    """
    sink, limit = g.sink, bound.max_word_length
    arcs: dict[int, list[tuple[int, Word, Word, int]]] = {}
    free_into: dict[int, list[int]] = {}  # the letter-free arcs, reversed
    for p in g.productions:
        u, k = sink if p.rhs is None else p.rhs, len(p.alpha) + len(p.beta)
        arcs.setdefault(p.lhs, []).append((u, p.alpha, p.beta, k))
        if not k:
            free_into.setdefault(u, []).append(p.lhs)
    # Fewest letters from the start to each vertex, within the bound (Dijkstra).
    near: dict[int, int] = {}
    heap = [(0, g.start)]
    while heap:
        d, v = heappop(heap)
        if v not in near:
            near[v] = d
            for u, _alpha, _beta, k in arcs.get(v, ()):
                if d + k <= limit and u not in near:
                    heappush(heap, (d + k, u))
    if sink not in near:
        return
    # Fold: each vertex takes the lettered arcs of the vertices it reaches
    # without letters; the sink's letter-free mark stands for the empty word.
    folded = {v: {arc for arc in arcs.get(v, ()) if arc[3]} for v in near}
    folded[sink] = {(sink, (), (), 0)}
    todo = list(free_into)
    while todo:
        u = todo.pop()
        for v in free_into.get(u, ()):
            if v in folded and not folded[u] <= folded[v]:
                folded[v] |= folded[u]
                todo.append(v)
    # (k, u) -> (v, alpha, beta, slack) per folded arc into u of k letters, read while n <= slack.
    index: dict[tuple[int, int], list[tuple[int, Word, Word, int]]] = {}
    level: dict[int, set[Word]] = {}
    for v, out in folded.items():
        slack = limit - near[v]
        for u, alpha, beta, k in out:
            if not k:
                level[v] = {()}
            elif k <= slack and u in near:
                index.setdefault((k, u), []).append((v, alpha, beta, slack))
    counts = {k for k, _u in index}
    span = max(counts, default=1)
    window = [{}] * (span - 1) + [level]  # the levels of the last span lengths, the latest last
    start, emitted = g.start, 0
    for n in range(limit + 1):
        if n:
            level = {}
            for k in counts:
                for u, tails in window[-k].items():
                    for v, alpha, beta, slack in index.get((k, u), ()):
                        if n <= slack:
                            words = level.get(v)
                            if words is None:
                                words = level[v] = set()
                            words.update([alpha + w + beta for w in tails])
            window.append(level)
            del window[0]
            if not any(window):
                return
        if start in level:
            words = sorted(level[start])
            emitted += len(words)
            if emitted > bound.max_words:
                yield from words[: bound.max_words - emitted]
                raise BoundExceeded("max_words", bound.max_words)
            yield from words


def brute_force_inclusion(words, backend: Backend) -> OracleResult:
    """Test each word of the stream; stop at the first one outside the identity language."""
    canonicalize = backend.canonicalize
    identity = backend.identity
    checked = 0
    for word in words:
        checked += 1
        if canonicalize(word) != identity:
            return OracleFails(witness=word, words_checked=checked)
    return OracleHolds(words_checked=checked)


def counterexample_bound_regular(a: Nfa) -> int:
    """Length bound within which a counterexample exists if any does.

    A failing instance always has one assembled from an acyclic access
    path, at most one simple cycle, and an acyclic exit path, each of at
    most ``states`` arcs.
    """
    return 3 * a.states


def counterexample_bound_linear(g: LinearGrammar) -> int:
    """Length bound for grammars: walk of <= n+1 arcs plus one simple cycle of <= n arcs,
    each arc contributing at most the longest production's letter count;
    at least 1, the least length ``EnumerationBound`` takes."""
    longest = max((len(p.alpha) + len(p.beta) for p in g.productions), default=0)
    return max(1, (2 * g.nonterminals + 1) * longest)
