"""The benchmark's tracer hooks the package by module attribute; those attributes must stay.

``bench/tracing.py`` replaces named functions of ``grouplang.regular``,
``grouplang.linear`` and ``grouplang.cli`` with timing wrappers.  If a
refactor removes one of them, or stops calling through it, the traced
benchmark run breaks or silently loses its per-layer numbers.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import grouplang.linear
import grouplang.regular
from grouplang import FreeGroup, LinearGrammar, OpCounters, Production
from grouplang.linear import load_grammar
from grouplang.regular import load_nfa

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_inputs"


def _traced_checks(monkeypatch, automata, grammars):
    """Check the languages over FreeGroup(1) under the tracer; return it and the checks' counters."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    originals = [getattr(module, attr) for module, attr, _name in tracing.SPANS]
    backend = FreeGroup(1)
    counters = OpCounters()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for language in automata:
            grouplang.regular.check_regular_inclusion(language, backend, None, counters)
        for language in grammars:
            grouplang.linear.check_linear_inclusion(language, backend, None, counters)
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _name in tracing.SPANS] == originals
    return tracer, counters


def _traced_sample_checks(monkeypatch):
    """Two automata (nfa_cancel holds, nfa_star fails) and one holding grammar."""
    return _traced_checks(
        monkeypatch,
        [load_nfa(SAMPLES / "nfa_cancel.json"), load_nfa(SAMPLES / "nfa_star.json")],
        [load_grammar(SAMPLES / "grammar_balanced.json")],
    )


def test_tracer_installs_and_sees_both_checks(monkeypatch, no_potential):
    tracer, counters = _traced_sample_checks(monkeypatch)
    # nfa_cancel's first semiring step fills an empty cell, so its closure
    # runs; nfa_star exits at its first step, on its arcs, with no closure.
    assert tracer.completed["regular.closure"] == 1
    assert tracer.raised["regular.closure", "SingletonViolation"] == 0
    assert tracer.completed["linear.closure"] == 1
    assert tracer.opcounter_view() == counters.as_dict()
    assert counters.products and counters.diamonds and counters.unions


def test_tracer_sees_the_closure_only_on_failures(monkeypatch):
    # nfa_cancel and grammar_balanced hold, and nfa_star fails at its
    # first semiring step, which the check finds on its arcs: that direct
    # exit enters neither the matrix builder nor the closure.
    tracer, counters = _traced_sample_checks(monkeypatch)
    entered = set(tracer.completed) | {name for name, _exc in tracer.raised}
    assert entered & {"regular.build", "regular.closure", "linear.build", "linear.closure"} == set()
    assert tracer.completed["semiring.product"] == tracer.completed["semiring.union"] == 1
    assert tracer.opcounter_view() == counters.as_dict()


# Every span the default check enters on some holding or failing language.
# The useful-vertex spans are not among them: the potential finds those
# vertices on its own sweep, inside ``*.tests``.
DEFAULT_PATH_SPANS = (
    "regular.build",
    "regular.closure",
    "regular.witness",
    "regular.tests",
    "linear.build",
    "linear.closure",
    "linear.tests",
    "semiring.product",
    "semiring.union",
    "semiring.diamond",
)


def test_the_default_path_enters_every_span(monkeypatch):
    # nfa_even fails, but its first semiring step, at pivot 1, fills the
    # empty cell (2, 2), so the check falls back to the matrix and the
    # closure.  S -> x1 A, A -> x1 generates x1 x1: the closure's one
    # diamond step fills the start-to-sink cell, whose test then fails.
    fails_late = LinearGrammar(
        nonterminals=2, rank=1, productions=(Production(1, (1,), 2), Production(2, (1,)))
    )
    tracer, counters = _traced_checks(
        monkeypatch,
        [load_nfa(SAMPLES / "nfa_cancel.json"), load_nfa(SAMPLES / "nfa_even.json")],
        [load_grammar(SAMPLES / "grammar_balanced.json"), fails_late],
    )
    entered = set(tracer.completed) | {name for name, _exc in tracer.raised}
    assert [name for name in DEFAULT_PATH_SPANS if name not in entered] == []
    assert tracer.opcounter_view() == counters.as_dict()


def test_a_holding_check_enters_no_useful_vertex_or_build_span(monkeypatch):
    # The potential decides nfa_cancel and grammar_balanced on their arcs.
    tracer, counters = _traced_checks(
        monkeypatch,
        [load_nfa(SAMPLES / "nfa_cancel.json")],
        [load_grammar(SAMPLES / "grammar_balanced.json")],
    )
    entered = set(tracer.completed) | {name for name, _exc in tracer.raised}
    assert {"regular.tests", "linear.tests"} <= entered
    skipped = {"regular.useful_states", "regular.build", "linear.useful", "linear.build"}
    assert entered & skipped == set()
    assert counters == OpCounters()
