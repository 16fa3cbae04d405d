"""Exception hierarchy shared by the whole package."""

from __future__ import annotations


class GrouplangError(Exception):
    """Base class for every error raised by this package."""


class InputError(GrouplangError):
    """A group, automaton, or grammar description failed validation."""


class CayleyTableError(InputError):
    """A multiplication table does not describe a group."""


class LetterOutOfRange(InputError):
    """A word contains a letter outside the alphabet's signed index range."""


class BackendMismatch(GrouplangError):
    """Two values that must share a group backend do not."""


class CapExceeded(GrouplangError):
    """A label set grew past the configured cardinality cap.

    Raised by the semiring kernels; ``cell`` is filled in by the caller
    that knows the offending matrix position.
    """

    def __init__(self, cardinality: int):
        self.cardinality = cardinality
        self.cell: tuple[int, int] | None = None
        super().__init__(f"label set grew past the cap (cardinality {cardinality})")


class SingletonViolation(GrouplangError):
    """Early-exit signal: a useful-to-useful cell holds two distinct labels.

    Carries the two witness words so the caller can assemble a
    counterexample without finishing the closure.
    """

    def __init__(self, i: int, j: int, witness_a: tuple[int, ...], witness_b: tuple[int, ...]):
        self.i = i
        self.j = j
        self.witness_a = witness_a
        self.witness_b = witness_b
        super().__init__(f"cell ({i}, {j}) holds two distinct labels")


class BoundExceeded(GrouplangError):
    """Enumeration hit its word-count safety cap before exhausting the length bound."""

    def __init__(self, which: str, limit: int):
        self.which = which
        self.limit = limit
        super().__init__(f"enumeration stopped: {which} cap of {limit} reached")


class InternalInconsistency(GrouplangError):
    """A check reached a state its reasoning rules out: a bug, so callers abort, not report a verdict.

    Raised by ``first_failing_word``, ``_first_step_on_arcs`` and
    ``_failing_conjugate_witnesses`` in ``regular``.
    """
