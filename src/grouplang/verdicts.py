"""Verdict types, run configuration, and operation counters shared by both checks."""

from __future__ import annotations

from .groups import Word, require_int
from .records import Record

# Why a Fails verdict fired.
SIMPLE_PATH = "simple-path"        # an acyclic accepted word already misses the identity
CONJUGATE = "conjugate"            # a cycle's label breaks the conjugation test
DISTINCT_LABELS = "distinct-labels"  # early exit: two walk labels between one state pair


class Holds(Record, frozen=True):
    """Every word of the language maps to the group identity."""


class Fails(Record, frozen=True):
    """The language contains a word that does not map to the identity.

    ``witness`` is such a word, except after the literal test
    (``linear.literal_linear_inclusion``), where the reported violation
    may be spurious and no witness is extracted (``spurious`` is then set).
    """

    witness: Word | None
    reason: str
    state: int | None = None
    spurious: bool = False


class ResourceExceeded(Record, frozen=True):
    """A label set at ``cell`` outgrew the configured cap before a verdict was reached."""

    cell: tuple[int, int] | None
    cardinality: int


Verdict = Holds | Fails | ResourceExceeded


class OpCounters(Record):
    """Counts of the semiring calls one check makes.

    A regular check decided on the arcs (see ``regular._arc_exit``) makes
    at most one ``product`` and one ``union``; one that runs the closure
    counts every step it makes.  Only the reference checks, the paper's
    conjugate test and the literal test, count ``stars`` and ``triples``.
    """

    unions: int = 0
    products: int = 0
    stars: int = 0
    diamonds: int = 0
    triples: int = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self._fields}


class RunConfig(Record, frozen=True):
    """Knobs for one inclusion check.

    ``set_cap`` bounds the label sets the pivot closure computes, never
    the input's level-0 cells.  A check builds and closes the label
    matrix only when the potential, on the arcs, finds a violation, so a
    language that holds never reaches the cap; the reference checks
    close the matrix of every non-empty language.
    """

    set_cap: int = 4096

    def __post_init__(self):
        require_int(self.set_cap, "set_cap", 1)


# Shared by the checks when no configuration is given; frozen, so never altered.
DEFAULT_CONFIG = RunConfig()
