"""Verdict types, run configuration, and operation counters shared by both checks."""

from __future__ import annotations

from .errors import InputError
from .groups import Word
from .records import Record

# Why a Fails verdict fired.
SIMPLE_PATH = "simple-path"        # an acyclic accepted word already misses the identity
CONJUGATE = "conjugate"            # a cycle's label breaks the conjugation test
DISTINCT_LABELS = "distinct-labels"  # early exit: two walk labels between one state pair


class Holds(Record, frozen=True):
    """Every word of the language maps to the group identity."""


class Fails(Record, frozen=True):
    """The language contains a word that does not map to the identity.

    ``witness`` is such a word, except in literal-bracket mode where the
    reported violation may be spurious and no witness is extracted
    (``spurious`` is then set).
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

    The pivot steps of the regular closure that the potential settles
    (see ``regular.pivot_closure``) make no call and are not counted.
    ``triples`` counts literal mode's triples, the only test after a linear closure.
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
    the input's level-0 cells.  The potential test runs on the arcs
    first; the label matrix is built and closed only when it finds a
    violation, or in literal mode.  A language that holds is decided
    without a matrix or label sets and never reaches the cap.
    ``literal_omega10`` switches the linear check's cycle test to the
    independent-projection form, kept only to demonstrate that it can
    reject valid inclusions; it turns the cycle scan off and runs on the
    closed matrix, the linear check's only test after its closure.
    """

    set_cap: int = 4096
    literal_omega10: bool = False

    def __post_init__(self):
        if self.set_cap < 1:
            raise InputError("set_cap must be >= 1")


# Shared by the checks when no configuration is given; frozen, so never altered.
DEFAULT_CONFIG = RunConfig()
