"""Inclusion of regular and linear languages in group identity languages.

The identity language of a group generated by a signed alphabet is the
set of words that multiply out to the group identity.  This package
decides whether every word of a regular language (given as an NFA) or a
linear language (given as a linear grammar) lies in that set, extracts
a counterexample word when one exists, and ships an independent
brute-force oracle for cross-checking.
"""

from .errors import (
    BackendMismatch,
    BoundExceeded,
    CapExceeded,
    CayleyTableError,
    GrouplangError,
    InputError,
    InternalInconsistency,
    LetterOutOfRange,
    SingletonViolation,
)
from .groups import (
    Backend,
    Cyclic,
    FiniteCayley,
    FreeAbelian,
    FreeGroup,
    Word,
    inverse_word,
    load_group,
    parse_group,
    word_from_tokens,
    word_to_tokens,
)
from .linear import (
    LinearGrammar,
    Production,
    build_grammar_matrix,
    check_linear_inclusion,
    closure_pairs,
    grammar_to_dict,
    literal_linear_inclusion,
    load_grammar,
    nfa_to_right_linear,
    parse_grammar,
    useful_nonterminals,
)
from .regular import (
    LabelMatrix,
    Nfa,
    build_initial_matrix,
    check_regular_inclusion,
    closure,
    extract_witness,
    load_nfa,
    nfa_to_dict,
    parse_nfa,
    useful_states,
)
from .semiring import (
    GroupSet,
    PairSet,
    diamond,
    product,
    proj_left,
    proj_product,
    proj_right,
    star,
    triple_literal,
    triple_paired,
    union,
)
from .verdicts import (
    CONJUGATE,
    DISTINCT_LABELS,
    SIMPLE_PATH,
    Fails,
    Holds,
    OpCounters,
    ResourceExceeded,
    RunConfig,
    Verdict,
)

__version__ = "0.1.0"

# The oracle is not needed to run a check, so its module is imported on the
# first use of one of these names (PEP 562).
_ORACLE_NAMES = frozenset({
    "EnumerationBound",
    "OracleFails",
    "OracleHolds",
    "brute_force_inclusion",
    "counterexample_bound_linear",
    "counterexample_bound_regular",
    "enumerate_grammar_words",
    "enumerate_nfa_words",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        value = globals()[name] = getattr(oracle, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Spelled out so that ``from grouplang import *`` still brings the oracle names.
__all__ = sorted({n for n in globals() if not n.startswith("_")} | _ORACLE_NAMES)
