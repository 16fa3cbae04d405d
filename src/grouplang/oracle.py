"""Brute-force verification: enumerate language words and test each one.

This is the independent ground truth the closure algorithms are checked
against.  It shares only the language types and the backends'
``canonicalize`` with the checks: every word is tested whole, with no
partial products and nothing from the closure or the potential.

Enumeration is exact up to a length bound and streams words in
length-then-lexicographic order, so the first failing word it reports
is globally minimal.  Automaton levels come out in lex order without
sorting; grammar words are sorted per length.  Both enumerators drop a
partial word that cannot be completed within the bound
(shortest-completion pruning): for automata by each state's distance to
a final state, for grammars by each vertex's fewest letters to the sink.
A clean sweep is evidence at the bound, not a proof of inclusion.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

from .errors import BoundExceeded, InputError
from .groups import Backend, Word
from .linear import LinearGrammar
from .regular import Nfa


@dataclass(frozen=True)
class EnumerationBound:
    """Length bound plus a word-count safety cap; whichever is hit first stops the run."""

    max_word_length: int
    max_words: int = 1_000_000

    def __post_init__(self):
        if self.max_word_length < 1:
            raise InputError("max_word_length must be >= 1")
        if self.max_words < 1:
            raise InputError("max_words must be >= 1")


@dataclass(frozen=True)
class OracleHolds:
    """Every enumerated word was in the identity language; not a proof beyond the bound."""

    words_checked: int


@dataclass(frozen=True)
class OracleFails:
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

    Walks of the grammar's diagram are explored in buckets of emitted
    word length (arcs only ever append letters, so the length never
    shrinks along a walk).  A walk that reaches the sink adds its word
    to the set of its length, which is sorted and yielded once every
    walk of that length has been processed.  Walk states (vertex, left
    part, right part) are deduplicated, which both terminates
    letter-free cycles and collapses duplicate derivations.  A state
    whose fewest letters to the sink would overrun the bound is never
    made (shortest-completion pruning): each arc carries its letter
    count and the longest walk from which it can still finish.
    """
    sink = g.sink
    # Diagram arcs (src, dst, left, right, letter count).
    diagram = [
        (p.lhs, sink if p.rhs is None else p.rhs, p.alpha, p.beta, len(p.alpha) + len(p.beta))
        for p in g.productions
    ]
    # Fewest letters from each vertex to the sink (Dijkstra on reversed arcs).
    into: dict[int, list[tuple[int, int]]] = {}
    for src, dst, _alpha, _beta, k in diagram:
        into.setdefault(dst, []).append((src, k))
    need: dict[int, int] = {}
    heap = [(0, sink)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in need:
            continue
        need[v] = d
        for src, k in into.get(v, ()):
            if src not in need:
                heapq.heappush(heap, (d + k, src))

    limit = bound.max_word_length
    if need.get(g.start, limit + 1) > limit:
        return
    # Each arc carries its letter count k and its slack: the longest walk
    # from which it can still finish within the bound.
    arcs: dict[int, list[tuple[int, Word, Word, int, int]]] = {}
    for src, dst, alpha, beta, k in diagram:
        slack = limit - k - need.get(dst, limit + 1)
        if slack >= 0:
            arcs.setdefault(src, []).append((dst, alpha, beta, k, slack))

    start_state = (g.start, (), ())
    # A bucket holds the walk states of one length: a list in visiting
    # order, walked while letter-free arcs append to it, and a set for
    # deduplication.  States of different lengths never coincide.
    buckets: dict[int, tuple[list, set]] = {0: ([start_state], {start_state})}
    found: dict[int, set[Word]] = {}
    emitted = 0
    for total in range(limit + 1):
        queue, seen = buckets.pop(total, ((), None))
        for vertex, left, right in queue:
            for dst, alpha, beta, k, slack in arcs.get(vertex, ()):
                if total > slack:
                    continue
                if dst == sink:
                    found.setdefault(total + k, set()).add(left + alpha + right)
                    continue
                state = (dst, left + alpha, beta + right)
                if k:
                    bucket = buckets.get(total + k)
                    if bucket is None:
                        bucket = buckets[total + k] = ([], set())
                    later, later_seen = bucket
                else:
                    later, later_seen = queue, seen
                size = len(later_seen)
                later_seen.add(state)  # one hash: the size tells whether it was new
                if len(later_seen) != size:
                    later.append(state)
        for word in sorted(found.pop(total, ())):
            emitted += 1
            if emitted > bound.max_words:
                raise BoundExceeded("max_words", bound.max_words)
            yield word
        if not buckets and not found:
            break


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
    each arc contributing at most the longest production's letter count."""
    longest = max((len(p.alpha) + len(p.beta) for p in g.productions), default=0)
    return (2 * g.nonterminals + 1) * longest
