"""Seeded known-answer instances.

Every instance is built around a *potential*: each vertex gets a group
value, and every arc (or production) respects it.  For an automaton the
start state has the identity, an arc ``p --a--> q`` exists only when
``phi(p) * a == phi(q)``, and the finals are the states whose value is the
identity, so every accepted word multiplies out to the identity.  For a
linear grammar every production ``A -> alpha B beta`` satisfies
``alpha * tau(B) * beta == tau(A)`` and every terminal production spells a
word for ``tau(A)``, with ``tau(start)`` the identity.

A *fails* instance adds one edit that breaks the rule: a self-loop with a
non-identity letter, or one extra letter on one production.  Every vertex
is reachable and co-reachable through arcs the edit leaves alone, so some
accepted word runs through the edit and misses the identity.

The shapes are fixed by the size (a path, a chain, a flower) and only the
letters are random, so instances of one size cost about the same and the
pool's percentiles do not swing with the seed.  The known
answer therefore never comes from the checker under test; ``selftest.py``
confirms it against the brute-force oracle at small sizes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from grouplang import (
    FiniteCayley,
    FreeAbelian,
    FreeGroup,
    LinearGrammar,
    Nfa,
    Production,
)


def symmetric_group(k: int) -> FiniteCayley:
    """Cayley table of S_k generated by the transposition (0 1) and the k-cycle."""
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[x]] for x in range(k))

    table = tuple(tuple(index[compose(p, q)] for q in perms) for p in perms)
    swap = (1, 0) + tuple(range(2, k))
    cycle = tuple(range(1, k)) + (0,)
    return FiniteCayley(
        size=len(perms),
        identity_index=index[tuple(range(k))],
        table=table,
        generator_images=(index[swap], index[cycle]),
    )


class Group:
    """A backend plus what the generators need: letters and a word for each element."""

    def __init__(self, name: str, backend):
        self.name = name
        self.backend = backend
        self.letters = [s * i for i in range(1, backend.rank + 1) for s in (1, -1)]
        self._words = _shortest_words(backend) if isinstance(backend, FiniteCayley) else None

    def value(self, word):
        return self.backend.canonicalize(word)

    def mul(self, *elems):
        out = self.backend.identity
        for e in elems:
            out = self.backend.multiply(out, e)
        return out

    def inv(self, elem):
        return self.backend.invert(elem)

    def word_for(self, elem) -> tuple[int, ...]:
        if isinstance(self.backend, FreeGroup):
            return elem
        if isinstance(self.backend, FreeAbelian):
            return tuple(
                (i if e > 0 else -i) for i, e in enumerate(elem, 1) for _ in range(abs(e))
            )
        return self._words[elem]


def _shortest_words(backend: FiniteCayley) -> dict[int, tuple[int, ...]]:
    letters = [s * i for i in range(1, backend.rank + 1) for s in (1, -1)]
    words = {backend.identity: ()}
    frontier = [backend.identity]
    while frontier:
        nxt = []
        for elem in frontier:
            for a in letters:
                other = backend.multiply(elem, backend.canonicalize((a,)))
                if other not in words:
                    words[other] = words[elem] + (a,)
                    nxt.append(other)
        frontier = nxt
    return words


def make_groups() -> dict[str, Group]:
    return {
        "free2": Group("free2", FreeGroup(2)),
        "abelian2": Group("abelian2", FreeAbelian(2)),
        "s3": Group("s3", symmetric_group(3)),
        "s4": Group("s4", symmetric_group(4)),
    }


@dataclass(frozen=True)
class Instance:
    ident: int
    group: Group
    language: Nfa | LinearGrammar
    holds: bool
    # Paths of the JSON files the CLI reads, relative to the repository root.
    files: tuple[str, str] | None = None

    @property
    def kind(self) -> str:
        return "nfa" if isinstance(self.language, Nfa) else "grammar"



def path_nfa(rng: random.Random, g: Group, n: int) -> Nfa:
    """Automaton on n states whose language lies in the identity language.

    States 1..n form a path with arcs both ways, each pair labelled by a
    random letter and its inverse, so phi(q) is the product of the letters
    from 1 to q and every state is reachable and co-reachable.
    """
    phi = [None, g.backend.identity]
    arcs: set[tuple[int, int, int]] = set()
    for q in range(2, n + 1):
        a = rng.choice(g.letters)
        phi.append(g.mul(phi[q - 1], g.value((a,))))
        arcs.add((q - 1, a, q))
        arcs.add((q, -a, q - 1))
    finals = frozenset(q for q in range(1, n + 1) if phi[q] == g.backend.identity)
    return Nfa(states=n, rank=g.backend.rank, transitions=frozenset(arcs), start=1, finals=finals)


def break_nfa(rng: random.Random, g: Group, nfa: Nfa, where: float) -> Nfa:
    """Add a self-loop with a random letter at the state ``where`` of the way along 1..n.

    Every state of the generated automata is reachable and co-reachable,
    and no generator is the identity, so the loop breaks the potential.
    The state fixes when the closure's early exit fires: on a path, the
    loop's cell first meets a second label at the pivot just before it.
    """
    p = max(1, round(where * nfa.states))
    return Nfa(
        states=nfa.states,
        rank=nfa.rank,
        transitions=nfa.transitions | {(p, rng.choice(g.letters), p)},
        start=nfa.start,
        finals=nfa.finals,
    )


def _random_word(rng: random.Random, g: Group, length: int) -> tuple[int, ...]:
    return tuple(rng.choice(g.letters) for _ in range(length))


def chain_grammar(rng: random.Random, g: Group, n: int, back: int = 2) -> LinearGrammar:
    """Linear grammar on n nonterminals whose language lies in the identity language.

    The skeleton is fixed by n: a chain ``A_i -> a A_(i+1) b``, a production
    ``A_i -> c A_(i-back) d`` back down the chain, a wrapping production
    ``A_i -> e A_i f`` and a terminal production on every nonterminal.
    Only the letters are random, so instances of one size cost about the
    same.  The chain fixes ``tau(A_(i+1)) = a^-1 tau(A_i) b^-1``; every
    other production draws its left letter and solves for its right word.
    """
    tau = [None, g.backend.identity]
    prods: list[Production] = []
    for i in range(1, n):
        a, b = _random_word(rng, g, 1), _random_word(rng, g, 1)
        tau.append(g.mul(g.inv(g.value(a)), tau[i], g.inv(g.value(b))))
        prods.append(Production(lhs=i, alpha=a, rhs=i + 1, beta=b))

    def solved(i: int, j: int) -> Production:
        a = _random_word(rng, g, 1)
        return Production(lhs=i, alpha=a, rhs=j, beta=g.word_for(g.mul(g.inv(tau[j]), g.inv(g.value(a)), tau[i])))

    for i in range(1, n + 1):
        if i - back >= 1:
            prods.append(solved(i, i - back))
        prods.append(solved(i, i))
        prods.append(Production(lhs=i, alpha=g.word_for(tau[i])))
    return LinearGrammar(nonterminals=n, rank=g.backend.rank, productions=tuple(prods), start=1)


def break_grammar(rng: random.Random, g: Group, grammar: LinearGrammar, where: float) -> LinearGrammar:
    """Append a random letter to the chain production ``A_i -> a A_(i+1) b`` with i ``where`` along the chain.

    The production's lhs is reachable and its rhs derives a terminal word
    without it, so some generated word uses the edit and misses the
    identity.
    """
    n = grammar.nonterminals
    target = max(1, round(where * (n - 1)))
    prods = list(grammar.productions)
    i = next(k for k, p in enumerate(prods) if p.lhs == target and p.rhs == target + 1)
    p = prods[i]
    prods[i] = Production(lhs=p.lhs, alpha=p.alpha, rhs=p.rhs, beta=p.beta + (rng.choice(g.letters),))
    return LinearGrammar(nonterminals=n, rank=grammar.rank, productions=tuple(prods), start=grammar.start)


def flower_nfa(rng: random.Random, g: Group, petals: list[int]) -> Nfa:
    """Petals through the start state, each spelling a random word u then u^-1.

    A petal with half-length k adds 2k - 1 states.  The petals start with
    distinct letters, so every accepted word splits into petals one way
    only: the shape, and with it the number of words up to the oracle's
    bound, is fixed by ``petals``; only the letters are random.
    """
    arcs: set[tuple[int, int, int]] = set()
    phi = [None, g.backend.identity]
    for k, first in zip(petals, rng.sample(g.letters, len(petals))):
        u = [first]
        while len(u) < k:  # freely reduced, so no state inside a petal is final
            a = rng.choice(g.letters)
            if a != -u[-1]:
                u.append(a)
        letters = tuple(u) + tuple(-x for x in reversed(u))
        state = 1
        for i, a in enumerate(letters):
            nxt = 1 if i == len(letters) - 1 else len(phi)
            if nxt != 1:
                phi.append(g.mul(phi[state], g.value((a,))))
            arcs.add((state, a, nxt))
            state = nxt
    n = len(phi) - 1
    finals = frozenset(q for q in range(1, n + 1) if phi[q] == g.backend.identity)
    return Nfa(states=n, rank=g.backend.rank, transitions=frozenset(arcs), start=1, finals=finals)


def flower_grammar(rng: random.Random, g: Group, n: int, loops: int) -> LinearGrammar:
    """A chain of n nonterminals, each with ``loops`` wrapping productions A -> b A b^-1.

    Every nonterminal has the identity as its value: the chain productions
    are A_i -> c A_(i+1) c^-1 and only the last one ends, with the empty word.
    Each nonterminal's letters are distinct, so each word has one derivation.
    """
    prods: list[Production] = []
    for a in range(1, n + 1):
        *wrapping, c = rng.sample(g.letters, loops + 1)
        for b in wrapping:
            prods.append(Production(lhs=a, alpha=(b,), rhs=a, beta=(-b,)))
        if a < n:
            prods.append(Production(lhs=a, alpha=(c,), rhs=a + 1, beta=(-c,)))
    prods.append(Production(lhs=n, alpha=()))
    return LinearGrammar(nonterminals=n, rank=g.backend.rank, productions=tuple(prods), start=1)


def relabel_grammar(rng: random.Random, grammar: LinearGrammar) -> LinearGrammar:
    """The grammar under a random signed permutation of the generators.

    Over a free or free-abelian group this is an automorphism: it keeps
    the answer, every set size and every word length, so the check does
    the same work and holds the same memory on every relabelling.
    """
    images = rng.sample(range(1, grammar.rank + 1), grammar.rank)
    signs = [rng.choice((1, -1)) for _ in images]
    image = {}
    for i, (target, sign) in enumerate(zip(images, signs), 1):
        image[i], image[-i] = sign * target, -sign * target

    def word(w):
        return tuple(image[a] for a in w)

    prods = tuple(
        Production(lhs=p.lhs, alpha=word(p.alpha), rhs=p.rhs, beta=word(p.beta)) for p in grammar.productions
    )
    return LinearGrammar(nonterminals=grammar.nonterminals, rank=grammar.rank, productions=prods, start=grammar.start)


def instance_family(rng, g: Group, kind: str, n: int, breaks, **shape):
    """One holds language and one fails variant per entry of ``breaks``, as (language, holds) pairs.

    ``kind`` is ``path-nfa``, ``flower-nfa``, ``chain-grammar`` or
    ``flower-grammar``; ``breaks`` are the positions, as fractions of the
    size, of each variant's edit.
    """
    if kind == "path-nfa":
        lang = path_nfa(rng, g, n)
    elif kind == "flower-nfa":
        lang = flower_nfa(rng, g, **shape)
    elif kind == "chain-grammar":
        lang = chain_grammar(rng, g, n, **shape)
    else:
        lang = flower_grammar(rng, g, n, **shape)
    edit = break_nfa if isinstance(lang, Nfa) else break_grammar
    return [(lang, True)] + [(edit(rng, g, lang, where), False) for where in breaks]
