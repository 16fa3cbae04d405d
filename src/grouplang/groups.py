"""Group backends over a symmetric generator alphabet.

A word is a tuple of signed integers: letter ``i`` (1-based) stands for
the i-th generator and ``-i`` for its inverse, so inverting a word is
reversing it and flipping signs.  Each backend maps words to a canonical
form on which plain ``==`` decides equality in the group; a word belongs
to the group's identity language exactly when it canonicalizes to the
identity.  ``canonicalize`` checks each letter in the same pass that folds
it; the first letter that is not a plain int in range hands the whole word
to :func:`validate_word`, the one place that raises
:class:`LetterOutOfRange`.

>>> FreeGroup(1).canonicalize((1, -1, 1))
(1,)
>>> Cyclic(3).word_in_group_language((1, 1, 1))
True
"""

from __future__ import annotations

import json
import operator
import warnings
from pathlib import Path

from .errors import BackendMismatch, CayleyTableError, InputError, LetterOutOfRange
from .records import Record

Word = tuple[int, ...]

# Free abelian elements are rank-length exponent tuples, so the rank is bounded.
MAX_FREE_ABELIAN_RANK = 1024

# Cayley tables up to this size get the exhaustive O(size^3) associativity check.
ASSOC_CHECK_LIMIT = 64


def inverse_word(word: Word) -> Word:
    """Reverse the word and invert every letter: (uv)^-1 = v^-1 u^-1."""
    return tuple(-x for x in reversed(word))


def validate_word(word: Word, rank: int) -> None:
    """Raise :class:`LetterOutOfRange` at the first letter that is not an int in ±1..rank.

    Bools and floats are refused; other int subclasses pass, and each
    backend's ``canonicalize`` folds them again as plain ints.
    """
    for x in word:
        if not isinstance(x, int) or isinstance(x, bool) or x == 0 or abs(x) > rank:
            raise LetterOutOfRange(f"letter {x!r} outside the signed range 1..{rank}")


def word_to_tokens(word: Word) -> str:
    """Render a word as space-separated tokens: x3 for a generator, X3 for its inverse.

    >>> word_to_tokens((1, -2))
    'x1 X2'
    >>> word_to_tokens(())
    '(eps)'
    """
    if not word:
        return "(eps)"
    return " ".join(f"x{x}" if x > 0 else f"X{-x}" for x in word)


def word_from_tokens(text: str) -> Word:
    """Parse the token syntax produced by :func:`word_to_tokens`."""
    text = text.strip()
    if not text or text == "(eps)":
        return ()
    letters = []
    for tok in text.split():
        sign = 1 if tok[0] == "x" else -1 if tok[0] == "X" else 0
        if sign == 0 or not tok[1:].isdigit() or int(tok[1:]) < 1:
            raise InputError(f"bad word token {tok!r}; expected x<n> or X<n>")
        letters.append(sign * int(tok[1:]))
    return tuple(letters)


class GroupBackend:
    """Shared behavior for all backends; concrete classes add canonical forms."""

    rank: int

    @property
    def identity(self):
        raise NotImplementedError

    def canonicalize(self, word: Word):
        """The canonical form of the element ``word`` multiplies out to.

        One pass over the word checks each letter as it folds it.  At the
        first letter that is not a plain int in ±1..rank the word goes to
        :func:`validate_word`: it raises :class:`LetterOutOfRange`, or the
        letters are int subclasses and the word is folded again as ints.
        """
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        """The product ``ab`` of two elements already checked with ``_check``.

        Nothing is checked here; given elements that are not canonical, the
        result is undefined.
        """
        raise NotImplementedError

    def _check(self, a) -> None:
        """Raise :class:`BackendMismatch` unless ``a`` is an element in canonical form."""
        raise NotImplementedError

    def word_in_group_language(self, word: Word) -> bool:
        """Does ``word`` multiply out to the identity?"""
        return self.canonicalize(word) == self.identity


class FreeGroup(GroupBackend, Record, frozen=True):
    """Free group on ``rank`` generators; canonical form is the freely reduced word."""

    rank: int

    def __post_init__(self):
        if not isinstance(self.rank, int) or isinstance(self.rank, bool) or self.rank < 1:
            raise InputError("free group rank must be a positive integer")

    @property
    def identity(self) -> Word:
        return ()

    def canonicalize(self, word: Word) -> Word:
        """Freely reduce the word, checking each letter as it is read."""
        rank = self.rank
        out: list[int] = []
        last = 0  # out[-1], or 0 while out is empty
        for x in word:
            if type(x) is not int or not 0 < abs(x) <= rank:
                validate_word(word, rank)
                return self.canonicalize(tuple(map(int, word)))
            if x == -last:
                out.pop()
                last = out[-1] if out else 0
            else:
                out.append(x)
                last = x
        return tuple(out)

    def multiply(self, a: Word, b: Word) -> Word:
        self._check(a)
        self._check(b)
        return self._mul(a, b)

    def _mul(self, a: Word, b: Word) -> Word:
        """Cancel the n letters where the two words meet, then join what is left.

        Both words are reduced, so only the last n letters of ``a`` and
        the first n of ``b`` can cancel.
        """
        n = 0
        end = len(a) - 1
        for y in b:
            if n > end or a[end - n] != -y:
                break
            n += 1
        return a[:len(a) - n] + b[n:] if n else a + b

    def invert(self, a: Word) -> Word:
        self._check(a)
        return tuple(-x for x in reversed(a))

    def _check(self, a) -> None:
        """A reduced word: a tuple of ints in ±1..rank, no bools, no letter next to its inverse."""
        if isinstance(a, tuple):
            rank = self.rank
            prev = 0
            for x in a:
                # The type test reads ``type`` first: plain ints are the common case.
                if type(x) is not int and (not isinstance(x, int) or isinstance(x, bool)):
                    break
                if not 0 < abs(x) <= rank or x == -prev:
                    break
                prev = x
            else:
                return
        raise BackendMismatch(f"{a!r} is not a free-group element (reduced word over ±1..{self.rank})")


class FreeAbelian(GroupBackend, Record, frozen=True):
    """Free abelian group of ``rank``; canonical form is the exponent vector."""

    rank: int

    def __post_init__(self):
        if not isinstance(self.rank, int) or isinstance(self.rank, bool) or self.rank < 1:
            raise InputError("free abelian rank must be a positive integer")
        if self.rank > MAX_FREE_ABELIAN_RANK:
            raise InputError(f"free abelian rank must be at most {MAX_FREE_ABELIAN_RANK}")

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def canonicalize(self, word: Word) -> tuple[int, ...]:
        """Count each generator's exponent, checking each letter as it is counted."""
        rank = self.rank
        vec = [0] * rank
        for x in word:
            if type(x) is not int:
                break
            if 0 < x <= rank:
                vec[x - 1] += 1
            elif 0 < -x <= rank:
                vec[-x - 1] -= 1
            else:
                break
        else:
            return tuple(vec)
        validate_word(word, rank)
        return self.canonicalize(tuple(map(int, word)))

    def multiply(self, a, b):
        self._check(a)
        self._check(b)
        return self._mul(a, b)

    def _mul(self, a, b):
        """Exponents add; both vectors have length ``rank``."""
        return tuple(map(operator.add, a, b))

    def invert(self, a):
        self._check(a)
        return tuple(-p for p in a)

    def _check(self, a) -> None:
        """An exponent vector: a tuple of ``rank`` ints, no bools."""
        if isinstance(a, tuple) and len(a) == self.rank:
            for p in a:
                if type(p) is not int and (not isinstance(p, int) or isinstance(p, bool)):
                    break
            else:
                return
        raise BackendMismatch(f"{a!r} is not a length-{self.rank} integer exponent vector")


class Cyclic(GroupBackend, Record, frozen=True):
    """Cyclic group of ``order`` on one generator; canonical form is the residue."""

    order: int

    def __post_init__(self):
        if not isinstance(self.order, int) or isinstance(self.order, bool) or self.order < 1:
            raise InputError("cyclic order must be a positive integer")

    @property
    def rank(self) -> int:
        return 1

    @property
    def identity(self) -> int:
        return 0

    def canonicalize(self, word: Word) -> int:
        """Sum the letters, checking each is a plain 1 or -1 as it is added."""
        total = 0
        for x in word:
            if type(x) is not int or (x != 1 and x != -1):
                validate_word(word, 1)
                return self.canonicalize(tuple(map(int, word)))
            total += x
        return total % self.order

    def multiply(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._mul(a, b)

    def _mul(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def invert(self, a: int) -> int:
        self._check(a)
        return (-a) % self.order

    def _check(self, a) -> None:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.order:
            raise BackendMismatch(f"{a!r} is not a residue modulo {self.order}")


class FiniteCayley(GroupBackend, Record, frozen=True):
    """Finite group given by a multiplication table; canonical form is the element index.

    The table is validated at construction: the identity row and column
    must act trivially, every row and column must be a permutation, and
    associativity is checked exhaustively while ``size`` stays within
    ``ASSOC_CHECK_LIMIT`` (beyond it the O(size^3) sweep is skipped with
    a warning).  Generator inverses are derived from the table rather
    than supplied; the inverse of every element and right multiplication
    by every signed letter are tabulated once.
    """

    size: int
    identity_index: int
    table: tuple[tuple[int, ...], ...]
    generator_images: tuple[int, ...]
    _inverses: tuple[int, ...]
    _letter_steps: dict[int, tuple[int, ...]]

    def __post_init__(self):
        s = self.size
        if not isinstance(s, int) or isinstance(s, bool) or s < 1:
            raise CayleyTableError("size must be a positive integer")
        if not 0 <= self.identity_index < s:
            raise CayleyTableError(f"identity index {self.identity_index} out of range 0..{s - 1}")
        if len(self.table) != s or any(len(row) != s for row in self.table):
            raise CayleyTableError(f"table must be {s}x{s}")
        for row in self.table:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < s:
                    raise CayleyTableError(f"table entry {v!r} out of range 0..{s - 1}")
        e = self.identity_index
        for a in range(s):
            if self.table[e][a] != a or self.table[a][e] != a:
                raise CayleyTableError(f"index {e} does not act as the identity on {a}")
        full = set(range(s))
        for a in range(s):
            if set(self.table[a]) != full:
                raise CayleyTableError(f"row {a} is not a permutation")
            if {self.table[b][a] for b in range(s)} != full:
                raise CayleyTableError(f"column {a} is not a permutation")
        if s <= ASSOC_CHECK_LIMIT:
            for a in range(s):
                ta = self.table[a]
                for b in range(s):
                    tab = ta[b]
                    tb = self.table[b]
                    for c in range(s):
                        if self.table[tab][c] != ta[tb[c]]:
                            raise CayleyTableError(
                                f"not associative at ({a}, {b}, {c})"
                            )
        else:
            warnings.warn(
                f"table size {s} exceeds the associativity check limit "
                f"{ASSOC_CHECK_LIMIT}; skipping the exhaustive check",
                stacklevel=2,
            )
        if not self.generator_images:
            raise CayleyTableError("at least one generator image is required")
        for g in self.generator_images:
            if not isinstance(g, int) or isinstance(g, bool) or not 0 <= g < s:
                raise CayleyTableError(f"generator image {g!r} out of range 0..{s - 1}")
        # Rows are permutations, so each holds the identity exactly once.
        inverses = tuple(row.index(e) for row in self.table)
        object.__setattr__(self, "_inverses", inverses)
        images = {}
        for i, g in enumerate(self.generator_images, 1):
            images[i] = g
            images[-i] = inverses[g]
        # _letter_steps[x][a] is the index of a times the image of letter x.
        steps = {x: tuple(row[g] for row in self.table) for x, g in images.items()}
        object.__setattr__(self, "_letter_steps", steps)

    @property
    def rank(self) -> int:
        return len(self.generator_images)

    @property
    def identity(self) -> int:
        return self.identity_index

    def canonicalize(self, word: Word) -> int:
        """Fold the word through the letter tables, checking each letter as it is read.

        Only plain ints are looked up: ``True`` or ``1.0`` would find the
        key of letter 1.  A letter with no table (0 or beyond the rank)
        misses its key.
        """
        acc = self.identity_index
        steps = self._letter_steps
        try:
            for x in word:
                if type(x) is not int:
                    break
                acc = steps[x][acc]
            else:
                return acc
        except KeyError:
            pass
        validate_word(word, self.rank)
        return self.canonicalize(tuple(map(int, word)))

    def multiply(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._mul(a, b)

    def _mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def invert(self, a: int) -> int:
        self._check(a)
        return self._inverses[a]

    def _check(self, a) -> None:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.size:
            raise BackendMismatch(f"{a!r} is not an element index below {self.size}")


Backend = FreeGroup | FreeAbelian | Cyclic | FiniteCayley

_GROUP_FIELDS = {
    "free": {"kind", "rank"},
    "free_abelian": {"kind", "rank"},
    "cyclic": {"kind", "order"},
    "cayley": {"kind", "size", "identity", "table", "generator_images"},
}

_PRESENTATION_KEYS = ("relators", "relations", "presentation")


def require_int(v, what: str, minimum: int) -> int:
    """``v`` itself, if it is an integer (not a bool) of at least ``minimum``."""
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise InputError(f"{what} must be an integer >= {minimum}, got {v!r}")
    return v


def _require_int(obj: dict, key: str, minimum: int) -> int:
    if key not in obj:
        raise InputError(f"missing field {key!r}")
    return require_int(obj[key], f"field {key!r}", minimum)


def parse_group(obj: dict) -> Backend:
    """Build a backend from a parsed group-specification object."""
    if not isinstance(obj, dict):
        raise InputError("group specification must be a JSON object")
    for key in _PRESENTATION_KEYS:
        if key in obj:
            raise InputError(
                "groups given by defining relators are not supported (their word "
                "problem is undecidable in general); use kind free, free_abelian, "
                "cyclic, or cayley"
            )
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _GROUP_FIELDS:
        raise InputError(
            f"field 'kind' must be one of {sorted(_GROUP_FIELDS)}, got {kind!r}"
        )
    unknown = set(obj) - _GROUP_FIELDS[kind]
    if unknown:
        raise InputError(f"unknown fields for kind {kind!r}: {sorted(unknown)}")
    if kind == "free":
        return FreeGroup(_require_int(obj, "rank", 1))
    if kind == "free_abelian":
        return FreeAbelian(_require_int(obj, "rank", 1))
    if kind == "cyclic":
        return Cyclic(_require_int(obj, "order", 1))
    size = _require_int(obj, "size", 1)
    identity = _require_int(obj, "identity", 0)
    table = obj.get("table")
    images = obj.get("generator_images")
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise InputError("field 'table' must be a list of rows")
    if not isinstance(images, list):
        raise InputError("field 'generator_images' must be a list")
    return FiniteCayley(
        size=size,
        identity_index=identity,
        table=tuple(tuple(row) for row in table),
        generator_images=tuple(images),
    )


def read_json(path: str | Path):
    """Parse a JSON file; unreadable files and bad JSON raise :class:`InputError`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


def load_group(path: str | Path) -> Backend:
    """Load a group-specification JSON file."""
    return parse_group(read_json(path))
