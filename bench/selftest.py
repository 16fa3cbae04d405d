"""Check the known-answer generators against the brute-force oracle at small sizes.

    python3 bench/selftest.py

For ``SEEDS`` seeds, every group and every generator shape the benchmark uses, this builds
small holds instances and their one-edit fails variants (and, where the
benchmark relabels them, their relabellings), enumerates each
language up to the counterexample bound and asserts that the oracle's
answer equals the generator's.  Instances whose enumeration would pass
``MAX_WORDS`` are skipped and counted.  Exits 1 on any disagreement.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from grouplang import (  # noqa: E402
    BoundExceeded,
    EnumerationBound,
    Nfa,
    OracleHolds,
    brute_force_inclusion,
    counterexample_bound_linear,
    counterexample_bound_regular,
    enumerate_grammar_words,
    enumerate_nfa_words,
)
from instances import instance_family, make_groups, relabel_grammar  # noqa: E402

SEEDS = 5
MAX_WORDS = 200_000
BREAKS = (0.2, 0.5, 0.8, 1.0)
SHAPES = [
    ("path-nfa", 2, {}),
    ("path-nfa", 3, {}),
    ("path-nfa", 4, {}),
    ("flower-nfa", 0, {"petals": [1, 1]}),
    ("flower-nfa", 0, {"petals": [1, 2]}),
    ("chain-grammar", 2, {}),
    ("chain-grammar", 3, {}),
    ("flower-grammar", 2, {"loops": 1}),
    ("flower-grammar", 3, {"loops": 2}),
]


def oracle_holds(lang, backend) -> bool:
    if isinstance(lang, Nfa):
        bound = EnumerationBound(counterexample_bound_regular(lang), MAX_WORDS)
        words = enumerate_nfa_words(lang, bound)
    else:
        bound = EnumerationBound(max(1, counterexample_bound_linear(lang)), MAX_WORDS)
        words = enumerate_grammar_words(lang, bound)
    return isinstance(brute_force_inclusion(words, backend), OracleHolds)


def main() -> int:
    groups = make_groups()
    checked = skipped = wrong = 0
    for seed in range(SEEDS):
        rng = random.Random(seed)
        for g in groups.values():
            for kind, n, shape in SHAPES:
                family = instance_family(rng, g, kind, n, BREAKS, **shape)
                if kind == "chain-grammar" and g.name == "free2":  # as linear-closure relabels them
                    family += [(relabel_grammar(rng, lang), holds) for lang, holds in family]
                for lang, holds in family:
                    try:
                        agrees = oracle_holds(lang, g.backend) == holds
                    except BoundExceeded:
                        skipped += 1
                        continue
                    checked += 1
                    if not agrees:
                        wrong += 1
                        print(f"disagree: {kind} over {g.name}, known answer holds={holds}: {lang}")
    print(f"{checked} instances agree with the oracle: {checked - wrong}; skipped (too many words): {skipped}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
