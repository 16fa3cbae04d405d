"""Witness-carrying sets of group elements and of element pairs.

These are the label sets the closure algorithms push around: finite
maps from a canonical element to one word that evaluates to it.  No
operation changes the elements of a set it is given (only its
``checked`` flag, below), but an operation may return one of its
operands unchanged: ``union`` returns its left operand when the
right one adds nothing, so callers can test for change with ``is``.
When two witnesses compete for the same element the shorter one wins,
ties broken lexicographically on the letter sequence, so retained
witnesses do not depend on iteration order.

Each set carries a ``checked`` flag: every element has passed the
backend's ``_check``.  The closure kernels ``product`` and ``diamond``
check an operand's elements only while its flag is off, then set it,
and multiply with the backend's unchecked ``_mul``, or, in ``diamond``
over a :class:`FiniteCayley`, read its table as its ``_mul`` does; a
foreign element still raises :class:`BackendMismatch`.  Kernel outputs
and the cells of a level-0 matrix start out checked, and a ``union``
output is checked when both operands are, so over one closure each set
is checked at most once.

``GroupSet`` lives in the semiring of subsets of a group under union
and elementwise product (zero: the empty set, one: the identity
singleton).  ``PairSet`` is the analogue over pairs, multiplied with
the ``diamond`` operation (x, y) . (z, t) = (xz, ty) that models how a
production wraps text around both sides of a nonterminal.
"""

from __future__ import annotations

from .errors import BackendMismatch, CapExceeded
from .groups import Backend, FiniteCayley, Word, inverse_word


def _check_cap(size: int, cap: int | None) -> None:
    if cap is not None and size > cap:
        raise CapExceeded(size)


def _same_backend(x, y) -> None:
    if x.backend is not y.backend and x.backend != y.backend:
        raise BackendMismatch(f"mixed backends: {x.backend!r} vs {y.backend!r}")


class _LabelSet:
    """Finite map from canonical labels to one witness each; never mutated once shared.

    Subclasses fix what a label is: ``evaluate`` computes it from a
    witness, ``witness_key`` orders competing witnesses (its first
    component is ``witness_len``, the number of letters),
    ``arc_witness`` turns an arc's (left, right) words into a witness,
    and ``wrap`` applies a label to the group value of the rest of a walk.
    ``checked`` is set once every label has passed the backend's
    ``_check``; it is a cache and takes no part in equality.
    """

    __slots__ = ("backend", "elements", "checked")

    def __init__(self, backend: Backend, elements: dict | None = None, checked: bool = False):
        self.backend = backend
        self.elements: dict = elements if elements is not None else {}
        self.checked = checked

    @classmethod
    def empty(cls, backend: Backend):
        return cls(backend)

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def __contains__(self, label) -> bool:
        return label in self.elements

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.backend == other.backend
            and self.elements == other.elements
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.elements!r})"

    def best(self, keep):
        """The (label, witness) with the smallest witness among labels ``keep`` accepts, or None."""
        key = self.witness_key
        kept = ((label, wit) for label, wit in self.elements.items() if keep(label))
        return min(kept, key=lambda kv: key(kv[1]), default=None)

    def check_labels(self) -> None:
        """Raise :class:`BackendMismatch` unless every label is canonical; then set ``checked``."""
        check = self.backend._check
        for label in self.elements:
            self.check_label(check, label)
        self.checked = True


class GroupSet(_LabelSet):
    """Finite set of canonical group elements, each with one witness word."""

    __slots__ = ()

    @classmethod
    def identity(cls, backend: Backend) -> "GroupSet":
        return cls(backend, {backend.identity: ()}, True)

    @staticmethod
    def check_label(check, label) -> None:
        check(label)

    @staticmethod
    def witness_key(wit: Word) -> tuple:
        return (len(wit), wit)

    witness_len = staticmethod(len)

    @staticmethod
    def evaluate(backend: Backend, wit: Word):
        return backend.canonicalize(wit)

    @staticmethod
    def arc_witness(left: Word, right: Word) -> Word:
        """An automaton arc's word; its right part is always empty."""
        return left + right

    @staticmethod
    def wrap(backend: Backend, label, rest):
        """The value of a walk that reads ``label`` and then a walk of value ``rest``."""
        return backend._mul(label, rest)

    def best_non_identity(self):
        """The non-identity element with the smallest witness, or None."""
        ident = self.backend.identity
        return self.best(lambda elem: elem != ident)


class PairSet(_LabelSet):
    """Finite set of canonical element pairs, each with a witness word pair."""

    __slots__ = ()

    @classmethod
    def identity(cls, backend: Backend) -> "PairSet":
        e = backend.identity
        return cls(backend, {(e, e): ((), ())}, True)

    @staticmethod
    def check_label(check, label) -> None:
        check(label[0])
        check(label[1])

    @staticmethod
    def witness_key(wit: tuple[Word, Word]) -> tuple:
        wl, wr = wit
        return (len(wl) + len(wr), wl, wr)

    @staticmethod
    def witness_len(wit: tuple[Word, Word]) -> int:
        return len(wit[0]) + len(wit[1])

    @staticmethod
    def evaluate(backend: Backend, wit: tuple[Word, Word]):
        return (backend.canonicalize(wit[0]), backend.canonicalize(wit[1]))

    @staticmethod
    def arc_witness(left: Word, right: Word) -> tuple[Word, Word]:
        return (left, right)

    @staticmethod
    def wrap(backend: Backend, label, rest):
        """The value of a derivation that wraps ``label``'s pair around one of value ``rest``.

        >>> from grouplang import FreeGroup
        >>> PairSet.wrap(FreeGroup(2), ((2,), (-2,)), (2,))  # x2 x2 X2 = x2: passes against x2
        (2,)
        >>> PairSet.wrap(FreeGroup(2), ((1,), (-1,)), (2,))  # x1 x2 X1 != x2: fails
        (1, 2, -1)
        """
        mul = backend._mul
        return mul(mul(label[0], rest), label[1])


def _merge(elements: dict, key, wit: Word) -> None:
    old = elements.get(key)
    if old is None or (len(wit), wit) < (len(old), old):
        elements[key] = wit


def union(x, y, *, cap: int | None = None):
    """Elementwise union; on collisions the better witness is retained."""
    if x.backend is not y.backend:
        _same_backend(x, y)
    if type(x) is not type(y):
        raise BackendMismatch("cannot union a GroupSet with a PairSet")
    xs = x.elements
    if not xs:
        return y
    if not y.elements:
        return x
    # Copied only once ``y`` improves on ``x``.  The keys of ``y`` are
    # distinct, so reading the old witness from ``xs`` stays right.
    merged = xs
    size = x.witness_len
    for elem, wit in y.elements.items():
        old = xs.get(elem)
        if old is not None:
            # witness_key order without building the keys: on equal
            # lengths the witnesses themselves compare as the keys do.
            grown = size(wit) - size(old)
            if grown > 0 or (grown == 0 and not wit < old):
                continue
        if merged is xs:
            merged = dict(xs)
        merged[elem] = wit
    _check_cap(len(merged), cap)
    return x if merged is xs else type(x)(x.backend, merged, x.checked and y.checked)


def product(x: GroupSet, y: GroupSet, *, cap: int | None = None) -> GroupSet:
    """All pairwise products; the zero (empty set) annihilates.

    A plain merge loop: the regular closure calls it at every step, and the exit on the
    arcs at most once.
    """
    if x.backend is not y.backend:
        _same_backend(x, y)
    if not x.elements or not y.elements:
        return GroupSet.empty(x.backend)
    if not x.checked:
        x.check_labels()
    if not y.checked:
        y.check_labels()
    mul = x.backend._mul
    out: dict = {}
    for a, wa in x.elements.items():
        for b, wb in y.elements.items():
            _merge(out, mul(a, b), wa + wb)
            _check_cap(len(out), cap)
    return GroupSet(x.backend, out, True)


def star(x: GroupSet, y: GroupSet, *, cap: int | None = None) -> GroupSet:
    """All conjugates a b a^-1 with a from ``x`` and b from ``y``."""
    _same_backend(x, y)
    if not x.elements or not y.elements:
        return GroupSet.empty(x.backend)
    backend = x.backend
    out: dict = {}
    for a, wa in x.elements.items():
        a_inv = backend.invert(a)
        wa_inv = inverse_word(wa)
        for b, wb in y.elements.items():
            conj = backend.multiply(backend.multiply(a, b), a_inv)
            _merge(out, conj, wa + wb + wa_inv)
            _check_cap(len(out), cap)
    return GroupSet(backend, out)


def diamond(x: PairSet, y: PairSet, *, cap: int | None = None) -> PairSet:
    """Pairwise (a, b) . (c, d) = (ac, db); note the reversed right component.

    Its loop is tuned by hand, unlike :func:`product`'s: the linear closure calls it at every step.
    Over a :class:`FiniteCayley` a second copy of the loop reads the table
    instead of calling ``_mul``, the row of ``al`` once per left element.
    The copy is chosen once per call, so the other backends run the plain
    loop with no test per combination.
    """
    if x.backend is not y.backend:
        _same_backend(x, y)
    xs, ys = x.elements, y.elements
    if not xs or not ys:
        return PairSet.empty(x.backend)
    if not x.checked:
        x.check_labels()
    if not y.checked:
        y.check_labels()
    backend = x.backend
    y_items = [(bl, br, wbl, wbr, len(wbl) + len(wbr)) for (bl, br), (wbl, wbr) in ys.items()]
    out: dict = {}
    get = out.get
    if isinstance(backend, FiniteCayley):
        table = backend.table
        for (al, ar), (wal, war) in xs.items():
            la = len(wal) + len(war)
            row = table[al]
            for bl, br, wbl, wbr, lb in y_items:
                key = (row[bl], table[br][ar])
                old = get(key)
                if old is None:
                    out[key] = (wal + wbl, wbr + war)
                    if cap is not None and len(out) > cap:
                        raise CapExceeded(len(out))
                else:
                    grown = la + lb - len(old[0]) - len(old[1])
                    if grown < 0 or (grown == 0 and (wal + wbl, wbr + war) < old):
                        out[key] = (wal + wbl, wbr + war)
        return PairSet(backend, out, True)
    mul = backend._mul
    for (al, ar), (wal, war) in xs.items():
        la = len(wal) + len(war)
        for bl, br, wbl, wbr, lb in y_items:
            key = (mul(al, bl), mul(br, ar))
            old = get(key)
            if old is None:
                out[key] = (wal + wbl, wbr + war)
                if cap is not None and len(out) > cap:
                    raise CapExceeded(len(out))
            else:
                grown = la + lb - len(old[0]) - len(old[1])
                if grown < 0 or (grown == 0 and (wal + wbl, wbr + war) < old):
                    out[key] = (wal + wbl, wbr + war)
    return PairSet(backend, out, True)


def proj_left(p: PairSet) -> GroupSet:
    out: dict = {}
    for (left, _right), (wl, _wr) in p.elements.items():
        _merge(out, left, wl)
    return GroupSet(p.backend, out)


def proj_right(p: PairSet) -> GroupSet:
    out: dict = {}
    for (_left, right), (_wl, wr) in p.elements.items():
        _merge(out, right, wr)
    return GroupSet(p.backend, out)


def proj_product(p: PairSet) -> GroupSet:
    """Image of each pair under multiplication of its components."""
    backend = p.backend
    out: dict = {}
    for (left, right), (wl, wr) in p.elements.items():
        _merge(out, backend.multiply(left, right), wl + wr)
    return GroupSet(backend, out)


def triple_literal(x: GroupSet, y: GroupSet, z: GroupSet, *, cap: int | None = None) -> GroupSet:
    """All products a b c b^-1 with the three factors drawn independently.

    Kept for comparison with :func:`triple_paired`; drawing the outer
    factors independently can manufacture values no actual derivation
    produces.  Computed as ``product(x, star(y, z))``, which keeps the
    minimal witnesses because a shared prefix keeps the witness order.
    Left multiplication by one ``a`` is injective, so ``star`` never
    outgrows the result: the cap fires exactly when the result outgrows
    it.
    """
    _same_backend(x, y)
    _same_backend(y, z)
    if not x.elements:
        return GroupSet.empty(x.backend)
    return product(x, star(y, z, cap=cap), cap=cap)


def triple_paired(p: PairSet, v: GroupSet, *, cap: int | None = None) -> GroupSet:
    """All products u w_mid w w_mid^-1 where (u, w) is one pair from ``p``.

    Unlike :func:`triple_literal` the outer factors come from the same
    pair, so every value corresponds to an actual cycle label wrapped
    around an actual tail.
    """
    _same_backend(p, v)
    if not p.elements or not v.elements:
        return GroupSet.empty(p.backend)
    backend = p.backend
    out: dict = {}
    for (u, w), (wu, ww) in p.elements.items():
        for mid, wmid in v.elements.items():
            mid_inv = backend.invert(mid)
            value = backend.multiply(
                backend.multiply(backend.multiply(u, mid), w), mid_inv
            )
            _merge(out, value, wu + wmid + ww + inverse_word(wmid))
            _check_cap(len(out), cap)
    return GroupSet(backend, out)
