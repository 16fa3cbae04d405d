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
from grouplang import FreeGroup, OpCounters
from grouplang.linear import load_grammar
from grouplang.regular import load_nfa

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_inputs"


def _traced_sample_checks(monkeypatch):
    """Run two automata and one grammar under the tracer; return it and the checks' counters."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    originals = [getattr(module, attr) for module, attr, _name in tracing.SPANS]
    backend = FreeGroup(1)
    counters = OpCounters()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for language in (load_nfa(SAMPLES / "nfa_cancel.json"), load_nfa(SAMPLES / "nfa_star.json")):
            grouplang.regular.check_regular_inclusion(language, backend, None, counters)
        grammar = load_grammar(SAMPLES / "grammar_balanced.json")
        grouplang.linear.check_linear_inclusion(grammar, backend, None, counters)
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _name in tracing.SPANS] == originals
    return tracer, counters


def test_tracer_installs_and_sees_both_checks(monkeypatch, no_potential):
    tracer, counters = _traced_sample_checks(monkeypatch)
    assert tracer.completed["regular.closure"] == 1
    assert tracer.raised["regular.closure", "SingletonViolation"] == 1
    assert tracer.completed["linear.closure"] == 1
    assert tracer.opcounter_view() == counters.as_dict()
    assert counters.products and counters.diamonds and counters.unions


def test_tracer_sees_the_closure_only_on_failures(monkeypatch):
    # nfa_cancel and grammar_balanced hold, so only nfa_star runs a closure.
    tracer, counters = _traced_sample_checks(monkeypatch)
    assert tracer.completed["regular.closure"] == 0
    assert tracer.raised["regular.closure", "SingletonViolation"] == 1
    assert tracer.completed["linear.closure"] == 0
    assert tracer.opcounter_view() == counters.as_dict()
