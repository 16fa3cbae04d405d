"""Command-line frontend.

Exit codes: 0 when the inclusion holds (or enumeration/generation
succeeded), 1 when a check found the language not included, 2 for
resource exhaustion or bad input; a closed stdout ends only the output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from pathlib import Path

from .errors import BackendMismatch, BoundExceeded, GrouplangError, InputError
from .groups import load_group, read_json, require_int, word_to_tokens
from .linear import check_linear_inclusion, grammar_to_dict, literal_linear_inclusion, parse_grammar
from .regular import check_regular_inclusion, nfa_to_dict, parse_nfa, require_rank
from .verdicts import Fails, Holds, OpCounters, ResourceExceeded, RunConfig

# ``check`` is the common command and never calls the oracle or the corpus
# generator, so those modules are imported by the commands that use them.
# The checks and loaders stay module attributes: bench/tracing.py wraps them.

_LITERAL_WARNING = (
    "literal-omega10 mode applies the unpaired cycle-context test; "
    "reported violations may be spurious and no witness is extracted"
)


def _load_language(path: str):
    """Return ("automaton", Nfa) or ("linear_grammar", LinearGrammar)."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: language description must be a JSON object")
    kind = obj.get("kind")
    if kind is None:
        kind = "automaton" if "states" in obj else "linear_grammar" if "nonterminals" in obj else None
    if kind == "automaton":
        return kind, parse_nfa(obj)
    if kind == "linear_grammar":
        return kind, parse_grammar(obj)
    raise InputError(
        f"{path}: cannot tell the language kind; expected a 'kind' field of "
        "'automaton' or 'linear_grammar'"
    )


def _print(line: str = "", **options) -> bool:
    """``print`` to stdout; once the reader has closed it, False, with stdout then os.devnull."""
    try:
        print(line, **options)
        return True
    except BrokenPipeError:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return False


def _emit_report(report: dict, as_json: bool) -> None:
    if as_json:
        _print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        if key == "witness" and value is not None:
            value = json.dumps(value)
        elif key == "counters":
            value = " ".join(f"{k}={v}" for k, v in value.items())
        _print(f"{key}: {value}")


def cmd_check(args) -> int:
    backend = load_group(args.group_file)
    kind, language = _load_language(args.language_file)
    config = RunConfig(set_cap=args.set_cap)
    counters = OpCounters()
    started = time.perf_counter()
    if kind == "automaton":
        verdict = check_regular_inclusion(language, backend, config, counters)
    elif args.literal_omega10:
        verdict = literal_linear_inclusion(language, backend, config, counters)
    else:
        verdict = check_linear_inclusion(language, backend, config, counters)
    elapsed_ms = round((time.perf_counter() - started) * 1000, 3)

    report = {
        "verdict": None,
        "witness": None,
        "witness_tokens": None,
        "reason": None,
        "counters": counters.as_dict(),
        "elapsed_ms": elapsed_ms,
    }
    if isinstance(verdict, Holds):
        report["verdict"] = "holds"
        code = 0
    elif isinstance(verdict, Fails):
        report["verdict"] = "fails"
        reason = verdict.reason
        if verdict.state is not None:
            reason += f" (state {verdict.state})"
        if verdict.spurious:
            reason += " [may be spurious]"
        report["reason"] = reason
        if verdict.witness is not None:
            report["witness"] = list(verdict.witness)
            report["witness_tokens"] = word_to_tokens(verdict.witness)
        code = 1
    else:
        assert isinstance(verdict, ResourceExceeded)
        report["verdict"] = "resource_exceeded"
        report["reason"] = (
            f"set cap exceeded at cell {verdict.cell} (cardinality {verdict.cardinality})"
        )
        code = 2
    if args.literal_omega10 and kind == "linear_grammar" and not args.json:
        print(f"warning: {_LITERAL_WARNING}", file=sys.stderr)
    _emit_report(report, args.json)
    return code


def cmd_oracle(args) -> int:
    from .oracle import (
        EnumerationBound,
        OracleFails,
        brute_force_inclusion,
        counterexample_bound_linear,
        counterexample_bound_regular,
    )

    backend = load_group(args.group_file)
    kind, language = _load_language(args.language_file)
    require_rank("automaton" if kind == "automaton" else "grammar", language.rank, backend)
    if args.max_len is not None:
        bound_len = args.max_len
    elif kind == "automaton":
        bound_len = counterexample_bound_regular(language)
    else:
        bound_len = counterexample_bound_linear(language)
    bound = EnumerationBound(max_word_length=bound_len, max_words=args.max_words)
    words = _enumerate(kind, language, bound)
    started = time.perf_counter()
    result = brute_force_inclusion(words, backend)
    elapsed_ms = round((time.perf_counter() - started) * 1000, 3)

    report = {
        "verdict": None,
        "bound": bound_len,
        "witness": None,
        "witness_tokens": None,
        "words_checked": result.words_checked,
        "elapsed_ms": elapsed_ms,
    }
    if isinstance(result, OracleFails):
        report["verdict"] = "fails"
        report["witness"] = list(result.witness)
        report["witness_tokens"] = word_to_tokens(result.witness)
        code = 1
    else:
        report["verdict"] = "holds-at-bound"
        code = 0
    if args.json:
        _print(json.dumps(report, indent=2))
    elif code == 1:
        _print(f"fails: witness {report['witness_tokens']} ({report['witness']})")
    elif result.words_checked == 0:
        _print(f"holds-at-bound {bound_len} (empty language)")
    else:
        _print(f"holds-at-bound {bound_len} ({result.words_checked} words checked)")
    return code


def _enumerate(kind: str, language, bound):
    from .oracle import enumerate_grammar_words, enumerate_nfa_words

    if kind == "automaton":
        return enumerate_nfa_words(language, bound)
    return enumerate_grammar_words(language, bound)


def cmd_enumerate(args) -> int:
    from .oracle import EnumerationBound

    kind, language = _load_language(args.language_file)
    bound = EnumerationBound(max_word_length=args.max_len, max_words=args.max_words)
    for word in _enumerate(kind, language, bound):
        if not _print(word_to_tokens(word)):
            break
    return 0


def cmd_gen_corpus(args) -> int:
    import random

    from .corpus import random_linear_grammar, random_nfa

    if not 0 <= args.density <= 1:
        raise InputError(f"--density must be in [0, 1], got {args.density!r}")
    rng = random.Random(args.seed)
    out_dir = Path(args.out_dir)
    for index in range(args.count):
        if args.kind == "nfa":
            instance = random_nfa(
                rng,
                max_states=args.states,
                rank=args.rank,
                density=args.density,
                inverse_paired=rng.random() < 0.5,
            )
            payload = nfa_to_dict(instance)
        else:
            instance = random_linear_grammar(
                rng,
                max_nonterminals=args.nonterminals,
                rank=args.rank,
                mirrored=rng.random() < 0.5,
            )
            payload = grammar_to_dict(instance)
        path = out_dir / f"{args.kind}_{args.seed}_{index:04d}.json"
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc
        _print(str(path))
    return 0


_MAX_WORDS_HELP = (
    "stop with an error after this many words; it caps the words emitted, "
    "not memory: all words of one length are built before any is emitted"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouplang",
        description=(
            "Decide whether a regular or linear language is contained in the "
            "identity language of a group"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="decide the inclusion and name a counterexample when it fails"
    )
    check.add_argument("group_file")
    check.add_argument("language_file")
    check.add_argument(
        "--set-cap",
        type=int,
        default=RunConfig.set_cap,
        help=(
            "max elements per label set the closure computes, never the input's "
            "own arc labels; binds only where the closure runs (failing "
            "languages, --literal-omega10)"
        ),
    )
    check.add_argument(
        "--literal-omega10",
        action="store_true",
        help=(
            "use the independent-projection form of the cycle-context test "
            "(grammars only; may report spurious violations; kept for comparison)"
        ),
    )
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_check)

    oracle = sub.add_parser("oracle", help="brute-force enumeration check up to a length bound")
    oracle.add_argument("group_file")
    oracle.add_argument("language_file")
    oracle.add_argument("--max-len", type=int, help="override the derived length bound")
    oracle.add_argument("--max-words", type=int, default=1_000_000, help=_MAX_WORDS_HELP)
    oracle.add_argument("--json", action="store_true")
    oracle.set_defaults(func=cmd_oracle)

    enum = sub.add_parser("enumerate", help="list language words in length-lex order")
    enum.add_argument("language_file")
    enum.add_argument("--max-len", type=int, required=True)
    enum.add_argument("--max-words", type=int, default=100_000, help=_MAX_WORDS_HELP)
    enum.set_defaults(func=cmd_enumerate)

    gen = sub.add_parser("gen-corpus", help="write seeded random instances as JSON files")
    gen.add_argument("--kind", choices=("nfa", "grammar"), required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--states", type=int, default=5, help="max states (nfa)")
    gen.add_argument("--nonterminals", type=int, default=4, help="max nonterminals (grammar)")
    gen.add_argument("--rank", type=int, default=2)
    gen.add_argument("--density", type=float, default=0.2, help="arc density (nfa)")
    gen.add_argument("--out-dir", default=".")
    gen.set_defaults(func=cmd_gen_corpus)
    return parser


# Integer options of any command that must be at least 1 when given.
_POSITIVE_OPTIONS = ("set_cap", "max_len", "max_words", "count", "states", "nonterminals", "rank")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # restores the caller's warning display on return
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            for option in _POSITIVE_OPTIONS:
                if getattr(args, option, None) is not None:
                    require_int(getattr(args, option), "--" + option.replace("_", "-"), 1)
            return args.func(args)
        except (BoundExceeded, InputError, BackendMismatch) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except GrouplangError as exc:
            print(f"internal error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # a bug, not a verdict: never exit 1 or print a traceback
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        finally:
            _print(end="", flush=True)  # a closed stdout shows here at the latest, not at exit


if __name__ == "__main__":
    sys.exit(main())
