"""CLI contract: exit codes, report schemas, token output, corpus generation."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouplang
from grouplang import cli, word_from_tokens
from grouplang.cli import main
from grouplang.groups import MAX_FREE_ABELIAN_RANK, load_group
from grouplang.linear import load_grammar
from grouplang.regular import load_nfa

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"

CHECK_REPORT_SCHEMA = {
    "type": "object",
    "required": ["verdict", "witness", "witness_tokens", "reason", "counters", "elapsed_ms"],
    "additionalProperties": False,
    "properties": {
        "verdict": {"enum": ["holds", "fails", "resource_exceeded"]},
        "witness": {"type": ["array", "null"], "items": {"type": "integer"}},
        "witness_tokens": {"type": ["string", "null"]},
        "reason": {"type": ["string", "null"]},
        "counters": {
            "type": "object",
            "required": ["unions", "products", "stars", "diamonds", "triples"],
            "additionalProperties": False,
            "properties": {
                k: {"type": "integer", "minimum": 0}
                for k in ("unions", "products", "stars", "diamonds", "triples")
            },
        },
        "elapsed_ms": {"type": "number", "minimum": 0},
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_json(capsys, *argv):
    code, out, _err = run(capsys, *argv, "--json")
    report = json.loads(out)
    return code, report


def test_check_holds_exit_zero(capsys):
    code, report = check_json(
        capsys, "check", str(SAMPLES / "group_free1.json"), str(SAMPLES / "nfa_cancel.json")
    )
    assert code == 0
    assert report["verdict"] == "holds"
    jsonschema.validate(report, CHECK_REPORT_SCHEMA)


def test_check_fails_with_witness_tokens(capsys):
    code, report = check_json(
        capsys, "check", str(SAMPLES / "group_cyclic3.json"), str(SAMPLES / "grammar_squares.json")
    )
    assert code == 1
    assert report["verdict"] == "fails"
    assert report["witness"] == [1, 1]
    assert report["witness_tokens"] == "x1 x1"
    jsonschema.validate(report, CHECK_REPORT_SCHEMA)


def test_check_cap_exhaustion_exit_two(capsys, no_potential):
    code, report = check_json(
        capsys,
        "check",
        str(SAMPLES / "group_free1.json"),
        str(SAMPLES / "grammar_mixed_steps.json"),
        "--set-cap",
        "2",
    )
    assert code == 2
    assert report["verdict"] == "resource_exceeded"
    assert "(1, 1)" in report["reason"]
    jsonschema.validate(report, CHECK_REPORT_SCHEMA)


# S -> x S X | xx S XX | A, A -> eps | x: it generates x, so it fails.
_CAPPED_FAILING_GRAMMAR = {
    "kind": "linear_grammar",
    "nonterminals": 2,
    "alphabet_rank": 1,
    "start": 1,
    "productions": [
        {"lhs": 1, "alpha": [1], "rhs": 1, "beta": [-1]},
        {"lhs": 1, "alpha": [1, 1], "rhs": 1, "beta": [-1, -1]},
        {"lhs": 1, "alpha": [], "rhs": 2, "beta": []},
        {"lhs": 2, "alpha": []},
        {"lhs": 2, "alpha": [1]},
    ],
}


# S -> x S X | xx S XX | xxx S XXX | eps: three labels in one input cell, and it holds.
_NESTED_GRAMMAR = {
    "kind": "linear_grammar",
    "nonterminals": 1,
    "alphabet_rank": 1,
    "start": 1,
    "productions": [
        {"lhs": 1, "alpha": [1], "rhs": 1, "beta": [-1]},
        {"lhs": 1, "alpha": [1, 1], "rhs": 1, "beta": [-1, -1]},
        {"lhs": 1, "alpha": [1, 1, 1], "rhs": 1, "beta": [-1, -1, -1]},
        {"lhs": 1, "alpha": []},
    ],
}


def test_check_cap_only_binds_when_the_closure_runs(capsys, tmp_path):
    # The potential decides the holding grammar without label sets.
    code, report = check_json(
        capsys,
        "check",
        str(SAMPLES / "group_free1.json"),
        str(SAMPLES / "grammar_mixed_steps.json"),
        "--set-cap",
        "2",
    )
    assert code == 0
    assert report["verdict"] == "holds"
    # The input's own cells are never capped: the potential decides first.
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps(_NESTED_GRAMMAR), encoding="utf-8")
    code, report = check_json(
        capsys, "check", str(SAMPLES / "group_free1.json"), str(nested), "--set-cap", "2"
    )
    assert code == 0
    assert report["verdict"] == "holds"
    # A failing grammar still runs the closure, which caps.
    lang = tmp_path / "capped.json"
    lang.write_text(json.dumps(_CAPPED_FAILING_GRAMMAR), encoding="utf-8")
    code, report = check_json(
        capsys, "check", str(SAMPLES / "group_free1.json"), str(lang), "--set-cap", "2"
    )
    assert code == 2
    assert report["verdict"] == "resource_exceeded"
    assert "(1, 1)" in report["reason"]
    jsonschema.validate(report, CHECK_REPORT_SCHEMA)
    code, report = check_json(capsys, "check", str(SAMPLES / "group_free1.json"), str(lang))
    assert code == 1
    assert (report["witness"], report["reason"]) == ([1], "simple-path")


def test_check_literal_mode_warns_and_fails(capsys):
    code, out, err = run(
        capsys,
        "check",
        str(SAMPLES / "group_free1.json"),
        str(SAMPLES / "grammar_mixed_steps.json"),
        "--literal-omega10",
    )
    assert code == 1
    assert "spurious" in err
    assert "fails" in out
    # The mode applies to grammars only: an automaton's run is unchanged.
    files = [str(SAMPLES / "group_cyclic2.json"), str(SAMPLES / "nfa_even.json")]
    code, out, err = run(capsys, "check", *files, "--literal-omega10")
    plain_code, plain_out, _ = run(capsys, "check", *files)
    assert (code, err) == (plain_code, "")

    def timeless(text):
        return [line for line in text.splitlines() if not line.startswith("elapsed_ms:")]

    assert timeless(out) == timeless(plain_out)


def test_check_text_output(capsys):
    code, out, _ = run(
        capsys, "check", str(SAMPLES / "group_cyclic2.json"), str(SAMPLES / "nfa_star.json")
    )
    assert code == 1
    assert "verdict: fails" in out
    assert "witness_tokens: x1" in out


def test_check_rank_mismatch_exit_two(capsys):
    code, _, err = run(
        capsys, "check", str(SAMPLES / "group_free2.json"), str(SAMPLES / "nfa_star.json")
    )
    assert code == 2
    assert "rank" in err


def test_check_bad_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad), str(SAMPLES / "nfa_star.json"))
    assert code == 2
    assert "line" in err


_AUTOMATON = {
    "kind": "automaton",
    "states": 2,
    "alphabet_rank": 1,
    "transitions": [[1, 1, 2]],
    "start": 1,
    "finals": [2],
}
_GRAMMAR = {
    "kind": "linear_grammar",
    "nonterminals": 1,
    "alphabet_rank": 1,
    "productions": [{"lhs": 1, "alpha": [1], "rhs": 1, "beta": [-1]}, {"lhs": 1, "alpha": []}],
    "start": 1,
}
MALFORMED_LANGUAGES = {
    "states-string": {**_AUTOMATON, "states": "2"},
    "rank-string": {**_AUTOMATON, "alphabet_rank": "1"},
    "start-bool": {**_AUTOMATON, "start": True},
    "final-bool": {**_AUTOMATON, "finals": [True]},
    "endpoint-bool": {**_AUTOMATON, "transitions": [[True, 1, 2]]},
    "letter-bool": {**_AUTOMATON, "transitions": [[1, True, 2]]},
    "nonterminals-string": {**_GRAMMAR, "nonterminals": "1"},
    "lhs-string": {**_GRAMMAR, "productions": [{"lhs": "1", "alpha": []}]},
    "rhs-bool": {**_GRAMMAR, "productions": [{"lhs": 1, "alpha": [], "rhs": True, "beta": [1]}]},
    "not-utf8": b'{"kind": "automaton", "states": "\xff"}',
    "nested-too-deeply": b"[" * 100_000,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_LANGUAGES))
def test_malformed_language_exit_two(tmp_path, capsys, name):
    content = MALFORMED_LANGUAGES[name]
    path = tmp_path / "lang.json"
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    code, _, err = run(capsys, "check", str(SAMPLES / "group_free1.json"), str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


_CAYLEY = {"kind": "cayley", "size": 2, "identity": 0, "table": [[0, 1], [1, 0]], "generator_images": [1]}
# (file, is it the group file, the error line; "{path}" stands for the file's path)
INPUT_ERRORS = {
    "language-array": ([], False, "{path}: language description must be a JSON object"),
    "transitions-not-list": (
        {**_AUTOMATON, "transitions": {}},
        False,
        "field 'transitions' must be a list of [from, letter, to]",
    ),
    "finals-not-list": ({**_AUTOMATON, "finals": 2}, False, "field 'finals' must be a list of states"),
    "start-out-of-range": ({**_AUTOMATON, "start": 99}, False, "start state 99 out of range 1..2"),
    "final-out-of-range": ({**_AUTOMATON, "finals": [99]}, False, "final state 99 out of range 1..2"),
    "productions-not-list": (
        {**_GRAMMAR, "productions": {}},
        False,
        "field 'productions' must be a list",
    ),
    "grammar-start-out-of-range": ({**_GRAMMAR, "start": 99}, False, "start 99 out of range 1..1"),
    "lhs-out-of-range": (
        {**_GRAMMAR, "productions": [{"lhs": 99, "alpha": []}]},
        False,
        "production lhs 99 out of range",
    ),
    "rhs-out-of-range": (
        {**_GRAMMAR, "productions": [{"lhs": 1, "alpha": [], "rhs": 99, "beta": []}]},
        False,
        "production rhs 99 out of range",
    ),
    "group-array": ([], True, "group specification must be a JSON object"),
    "table-not-list": ({**_CAYLEY, "table": {}}, True, "field 'table' must be a list of rows"),
    "images-not-list": (
        {**_CAYLEY, "generator_images": 1},
        True,
        "field 'generator_images' must be a list",
    ),
    "identity-out-of-range": ({**_CAYLEY, "identity": 5}, True, "identity index 5 out of range 0..1"),
    "identity-not-identity": (
        {**_CAYLEY, "identity": 1},
        True,
        "index 1 does not act as the identity on 0",
    ),
    "column-not-permutation": (
        {**_CAYLEY, "size": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]},
        True,
        "column 1 is not a permutation",
    ),
    "no-generator-images": (
        {**_CAYLEY, "generator_images": []},
        True,
        "at least one generator image is required",
    ),
    "image-out-of-range": (
        {**_CAYLEY, "generator_images": [2]},
        True,
        "generator image 2 out of range 0..1",
    ),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_error_names_its_cause(tmp_path, capsys, name):
    content, is_group, message = INPUT_ERRORS[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    group, language = SAMPLES / "group_free1.json", SAMPLES / "nfa_cancel.json"
    if is_group:
        group = path
    else:
        language = path
    code, _, err = run(capsys, "check", str(group), str(language))
    assert code == 2
    assert err == f"error: {message.format(path=path)}\n"


# Each count a group file gives, in a file that is otherwise valid.
_GROUP_COUNTS = [
    ({"kind": "free", "rank": 1}, "rank"),
    ({"kind": "free_abelian", "rank": 1}, "rank"),
    ({"kind": "cyclic", "order": 2}, "order"),
    (_CAYLEY, "size"),
    (_CAYLEY, "identity"),
]


@pytest.mark.parametrize("value", ["2", True])
@pytest.mark.parametrize(
    "spec, field", [pytest.param(*row, id=f"{row[0]['kind']}.{row[1]}") for row in _GROUP_COUNTS]
)
def test_group_count_of_another_type_exit_two(tmp_path, capsys, spec, field, value):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({**spec, field: value}), encoding="utf-8")
    code, out, err = run(capsys, "check", str(path), str(SAMPLES / "nfa_cancel.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _cli_process(argv, stdout=subprocess.DEVNULL):
    """Run the CLI on ``argv`` in a fresh interpreter; return its exit code and stderr."""
    src = str(Path(grouplang.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "grouplang.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, text=True
    )
    return proc.returncode, proc.stderr


_FREE1_STAR = [str(SAMPLES / "group_free1.json"), str(SAMPLES / "nfa_star.json")]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["enumerate", _FREE1_STAR[1], "--max-len", "25"], 0),
        (["check", *_FREE1_STAR], 1),
        (["check", "--json", *_FREE1_STAR], 1),
        (["oracle", *_FREE1_STAR], 1),
    ],
    ids=["enumerate", "check", "check-json", "oracle"],
)
def test_closed_stdout_keeps_the_exit_code(argv, code):
    # The reader of the pipe is gone before the command writes a byte.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        assert _cli_process(argv, stdout=write_end) == (code, "")
    finally:
        os.close(write_end)


def test_cayley_past_the_check_limit_warns_in_one_line(tmp_path):
    n = 70
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    group = tmp_path / "group.json"
    group.write_text(
        json.dumps({"kind": "cayley", "size": n, "identity": 0, "table": table, "generator_images": [1]}),
        encoding="utf-8",
    )
    assert _cli_process(["check", str(group), str(SAMPLES / "nfa_cancel.json")]) == (
        0,
        "warning: table size 70 exceeds the associativity check limit 64; skipping the exhaustive check\n",
    )


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("oracle", "--max-len", "0"),
        ("oracle", "--max-words", "0"),
        ("check", "--set-cap", "0"),
        ("check", "--set-cap", "-5"),
        ("enumerate", "--max-len", "0"),
        ("enumerate", "--max-words", "0"),
    ],
)
def test_oracle_max_len_zero_exit_two(capsys, command, option, value):
    files = [str(SAMPLES / "nfa_star.json")]
    if command != "enumerate":
        files.insert(0, str(SAMPLES / "group_free1.json"))
    elif option != "--max-len":
        files += ["--max-len", "3"]
    code, out, err = run(capsys, command, *files, option, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {option} must be an integer >= 1, got {value}\n"


def test_oracle_fails_single_generator(capsys):
    nfa_file = SAMPLES / "nfa_star.json"
    code, report = check_json(capsys, "oracle", str(SAMPLES / "group_free1.json"), str(nfa_file))
    assert code == 1
    assert report["witness_tokens"] == "x1"


def test_oracle_holds_at_bound(capsys):
    code, out, _ = run(
        capsys,
        "oracle",
        str(SAMPLES / "group_cyclic2.json"),
        str(SAMPLES / "nfa_even.json"),
        "--max-len",
        "12",
    )
    assert code == 0
    assert "holds-at-bound 12" in out


def test_oracle_empty_language(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(
        json.dumps(
            {
                "kind": "linear_grammar",
                "nonterminals": 1,
                "alphabet_rank": 1,
                "productions": [{"lhs": 1, "alpha": [1], "rhs": 1, "beta": []}],
                "start": 1,
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "oracle", str(SAMPLES / "group_free1.json"), str(empty))
    assert code == 0
    assert "empty language" in out


def test_oracle_word_cap_exit_two(capsys):
    code, _, err = run(
        capsys,
        "oracle",
        str(SAMPLES / "group_cyclic2.json"),
        str(SAMPLES / "nfa_even.json"),
        "--max-len",
        "30",
        "--max-words",
        "3",
    )
    assert code == 2
    assert "max_words" in err


def test_enumerate_balanced_grammar(capsys):
    code, out, _ = run(
        capsys, "enumerate", str(SAMPLES / "grammar_balanced.json"), "--max-len", "4"
    )
    assert code == 0
    assert out.splitlines() == ["(eps)", "x1 X1", "x1 x1 X1 X1"]


def test_enumerate_single_word_automaton(tmp_path, capsys):
    nfa = tmp_path / "one.json"
    nfa.write_text(
        json.dumps(
            {
                "kind": "automaton",
                "states": 2,
                "alphabet_rank": 1,
                "transitions": [[1, 1, 2]],
                "start": 1,
                "finals": [2],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "enumerate", str(nfa), "--max-len", "1")
    assert code == 0
    assert out.splitlines() == ["x1"]


def test_enumerate_no_finals_empty_output(tmp_path, capsys):
    nfa = tmp_path / "none.json"
    nfa.write_text(
        json.dumps(
            {
                "kind": "automaton",
                "states": 1,
                "alphabet_rank": 1,
                "transitions": [],
                "start": 1,
                "finals": [],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "enumerate", str(nfa), "--max-len", "3")
    assert code == 0
    assert out == ""


def test_language_kind_inferred_without_kind_field(tmp_path, capsys):
    nfa = tmp_path / "nokind.json"
    nfa.write_text(
        json.dumps(
            {
                "states": 1,
                "alphabet_rank": 1,
                "transitions": [],
                "start": 1,
                "finals": [1],
            }
        ),
        encoding="utf-8",
    )
    code, _, _ = run(capsys, "check", str(SAMPLES / "group_free1.json"), str(nfa))
    assert code == 0


def test_gen_corpus_is_deterministic(tmp_path, capsys):
    args = [
        "gen-corpus",
        "--kind",
        "nfa",
        "--seed",
        "42",
        "--count",
        "3",
        "--rank",
        "2",
    ]
    code, _, _ = run(capsys, *args, "--out-dir", str(tmp_path / "a"))
    assert code == 0
    code, _, _ = run(capsys, *args, "--out-dir", str(tmp_path / "b"))
    assert code == 0
    for name in ("nfa_42_0000.json", "nfa_42_0001.json", "nfa_42_0002.json"):
        first = (tmp_path / "a" / name).read_text(encoding="utf-8")
        second = (tmp_path / "b" / name).read_text(encoding="utf-8")
        assert first == second
        load_nfa(tmp_path / "a" / name)


def test_gen_corpus_grammar_files_parse(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "gen-corpus",
        "--kind",
        "grammar",
        "--seed",
        "7",
        "--count",
        "4",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    files = sorted(tmp_path.glob("grammar_7_*.json"))
    assert len(files) == 4
    for path in files:
        load_grammar(path)


@pytest.mark.parametrize(
    "option, value",
    [
        ("--count", "0"),
        ("--count", "-1"),
        ("--states", "0"),
        ("--nonterminals", "0"),
        ("--rank", "0"),
        ("--density", "1.5"),
        ("--density", "-0.1"),
        ("--density", "nan"),
    ],
)
def test_gen_corpus_rejects_bad_numbers(tmp_path, capsys, option, value):
    kind = "grammar" if option == "--nonterminals" else "nfa"
    out_dir = tmp_path / "out"
    code, out, err = run(
        capsys, "gen-corpus", "--kind", kind, "--seed", "1", option, value, "--out-dir", str(out_dir)
    )
    assert code == 2
    assert out == ""
    if option == "--density":
        assert err == f"error: --density must be in [0, 1], got {float(value)!r}\n"
    else:
        assert err == f"error: {option} must be an integer >= 1, got {value}\n"
    assert not out_dir.exists()


def test_gen_corpus_unusable_out_dir_exit_two(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for out_dir in (taken, taken / "below"):
        code, out, err = run(
            capsys, "gen-corpus", "--kind", "nfa", "--seed", "1", "--out-dir", str(out_dir)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {out_dir / 'nfa_1_0000.json'}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.read_text(encoding="utf-8") == ""


# -- start-up: what ``check`` imports ------------------------------------------

# The names the package exported when every submodule was imported eagerly.
EXPORTS = {
    "errors": "BackendMismatch BoundExceeded CapExceeded CayleyTableError GrouplangError "
    "InputError InternalInconsistency LetterOutOfRange SingletonViolation",
    "groups": "Backend Cyclic FiniteCayley FreeAbelian FreeGroup Word inverse_word load_group "
    "parse_group word_from_tokens word_to_tokens",
    "linear": "LinearGrammar Production build_grammar_matrix check_linear_inclusion closure_pairs "
    "grammar_to_dict literal_linear_inclusion load_grammar nfa_to_right_linear parse_grammar "
    "useful_nonterminals",
    "oracle": "EnumerationBound OracleFails OracleHolds brute_force_inclusion "
    "counterexample_bound_linear counterexample_bound_regular enumerate_grammar_words "
    "enumerate_nfa_words",
    "regular": "LabelMatrix Nfa build_initial_matrix check_regular_inclusion closure "
    "extract_witness load_nfa nfa_to_dict parse_nfa useful_states",
    "semiring": "GroupSet PairSet diamond product proj_left proj_product proj_right star "
    "triple_literal triple_paired union",
    "verdicts": "CONJUGATE DISTINCT_LABELS SIMPLE_PATH Fails Holds OpCounters ResourceExceeded "
    "RunConfig Verdict",
}

# Run in a fresh interpreter: which modules ``import grouplang.cli`` loads,
# and whether the lazily resolved oracle names then import from the package.
_IMPORT_PROBE = """
import json, sys
import grouplang.cli
loaded = [m for m in sys.argv[1:] if m in sys.modules]
from grouplang import *
from grouplang import OracleFails, enumerate_nfa_words
import grouplang.oracle as oracle
print(json.dumps({
    "loaded": loaded,
    "star": sorted(set(sys.argv[1:]) & set(globals())),
    "same": OracleFails is oracle.OracleFails and EnumerationBound is oracle.EnumerationBound,
}))
"""


def test_cli_import_skips_dataclasses_oracle_and_corpus():
    src = str(Path(grouplang.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    unwanted = ["dataclasses", "inspect", "grouplang.oracle", "grouplang.corpus"]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *unwanted, *EXPORTS["oracle"].split()],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    probe = json.loads(proc.stdout)
    assert probe["loaded"] == []
    assert probe["star"] == sorted(EXPORTS["oracle"].split())
    assert probe["same"] is True


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_package_exports_are_the_submodule_objects(module):
    sub = importlib.import_module(f"grouplang.{module}")
    for name in EXPORTS[module].split():
        assert getattr(grouplang, name) is getattr(sub, name), name


def test_cli_keeps_the_attributes_the_tracer_wraps():
    import grouplang.linear
    import grouplang.regular

    assert cli.check_regular_inclusion is grouplang.regular.check_regular_inclusion
    assert cli.check_linear_inclusion is grouplang.linear.check_linear_inclusion
    assert cli.load_group is grouplang.groups.load_group
    assert callable(cli._load_language)


def _pairings():
    groups = {
        1: ["group_free1.json", "group_cyclic2.json", "group_cyclic3.json"],
        2: ["group_free2.json", "group_abelian2.json", "group_sym3.json"],
    }
    languages = {
        "nfa_cancel.json": 1,
        "nfa_star.json": 1,
        "nfa_even.json": 1,
        "nfa_outback.json": 2,
        "grammar_balanced.json": 1,
        "grammar_squares.json": 1,
        "grammar_mixed_steps.json": 1,
    }
    for lang, rank in languages.items():
        for group in groups[rank]:
            yield group, lang


def test_check_and_oracle_agree_on_all_bundled_examples(capsys):
    for group, lang in _pairings():
        check_code, check_out, _ = run(
            capsys, "check", str(SAMPLES / group), str(SAMPLES / lang)
        )
        oracle_code, _, _ = run(
            capsys, "oracle", str(SAMPLES / group), str(SAMPLES / lang)
        )
        assert check_code in (0, 1)
        assert check_code == oracle_code, (group, lang, check_out)


def test_witness_tokens_feed_back_into_membership(capsys):
    for group, lang in _pairings():
        code, report = check_json(capsys, "check", str(SAMPLES / group), str(SAMPLES / lang))
        if code != 1:
            continue
        word = word_from_tokens(report["witness_tokens"])
        assert list(word) == report["witness"]
        backend = load_group(SAMPLES / group)
        assert not backend.word_in_group_language(word)
        if lang.startswith("nfa_"):
            assert load_nfa(SAMPLES / lang).accepts(word)
        else:
            assert load_grammar(SAMPLES / lang).generates(word)


# (unions, products, stars, diamonds, triples) of ``check --json`` for every
# sample pair of matching rank, as the closure computed them before its
# kernels were rewritten.  A kernel or loop change that drops or adds a
# semiring call changes these.  ``check`` runs with early exit on, so the
# regular check never reaches its conjugate test and makes no ``star`` call,
# and a completed paired closure proves a grammar's inclusion, so the linear
# check makes no triple.
PINNED_COUNTERS = {
    ("group_abelian2.json", "nfa_outback.json"): (22, 22, 0, 0, 0),
    ("group_free2.json", "nfa_outback.json"): (22, 22, 0, 0, 0),
    ("group_sym3.json", "nfa_outback.json"): (22, 22, 0, 0, 0),
    ("group_cyclic2.json", "nfa_cancel.json"): (1, 1, 0, 0, 0),
    ("group_cyclic3.json", "nfa_cancel.json"): (1, 1, 0, 0, 0),
    ("group_free1.json", "nfa_cancel.json"): (1, 1, 0, 0, 0),
    ("group_cyclic2.json", "nfa_even.json"): (5, 5, 0, 0, 0),
    ("group_cyclic3.json", "nfa_even.json"): (3, 3, 0, 0, 0),
    ("group_free1.json", "nfa_even.json"): (3, 3, 0, 0, 0),
    ("group_cyclic2.json", "nfa_star.json"): (1, 1, 0, 0, 0),
    ("group_cyclic3.json", "nfa_star.json"): (1, 1, 0, 0, 0),
    ("group_free1.json", "nfa_star.json"): (1, 1, 0, 0, 0),
    ("group_cyclic2.json", "grammar_balanced.json"): (2, 0, 0, 2, 0),
    ("group_cyclic3.json", "grammar_balanced.json"): (2, 0, 0, 2, 0),
    ("group_free1.json", "grammar_balanced.json"): (2, 0, 0, 2, 0),
    ("group_cyclic2.json", "grammar_mixed_steps.json"): (2, 0, 0, 2, 0),
    ("group_cyclic3.json", "grammar_mixed_steps.json"): (2, 0, 0, 2, 0),
    ("group_free1.json", "grammar_mixed_steps.json"): (2, 0, 0, 2, 0),
    ("group_cyclic2.json", "grammar_squares.json"): (2, 0, 0, 2, 0),
    ("group_cyclic3.json", "grammar_squares.json"): (0, 0, 0, 0, 0),
    ("group_free1.json", "grammar_squares.json"): (0, 0, 0, 0, 0),
}


def test_check_counters_are_pinned_on_all_bundled_examples(capsys, no_potential):
    assert set(PINNED_COUNTERS) == set(_pairings())
    for (group, lang), pinned in PINNED_COUNTERS.items():
        _code, report = check_json(capsys, "check", str(SAMPLES / group), str(SAMPLES / lang))
        counters = report["counters"]
        got = tuple(counters[k] for k in ("unions", "products", "stars", "diamonds", "triples"))
        assert got == pinned, (group, lang)


# The sample pairs whose language fails.  The potential decides the
# other fourteen without any semiring work; these still run the closure.
SAMPLE_FAILS = {
    ("group_cyclic3.json", "nfa_even.json"),
    ("group_free1.json", "nfa_even.json"),
    ("group_cyclic2.json", "nfa_star.json"),
    ("group_cyclic3.json", "nfa_star.json"),
    ("group_free1.json", "nfa_star.json"),
    ("group_cyclic3.json", "grammar_squares.json"),
    ("group_free1.json", "grammar_squares.json"),
}


def test_check_counters_on_the_default_path(capsys):
    for (group, lang), pinned in PINNED_COUNTERS.items():
        code, report = check_json(capsys, "check", str(SAMPLES / group), str(SAMPLES / lang))
        assert code == (1 if (group, lang) in SAMPLE_FAILS else 0), (group, lang)
        counters = report["counters"]
        got = tuple(counters[k] for k in ("unions", "products", "stars", "diamonds", "triples"))
        assert got == (pinned if (group, lang) in SAMPLE_FAILS else (0, 0, 0, 0, 0)), (group, lang)


_HUGE = 10**30  # a JSON integer no list length can reach


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_huge_rank_exits_two_without_traceback(tmp_path, capsys, command):
    # The free-abelian loader rejects ranks past its bound as bad input.
    for rank in (_HUGE, MAX_FREE_ABELIAN_RANK + 1):
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"kind": "free_abelian", "rank": rank}), encoding="utf-8")
        lang = tmp_path / "lang.json"
        lang.write_text(json.dumps({**_AUTOMATON, "alphabet_rank": rank}), encoding="utf-8")
        code, _, err = run(capsys, command, str(group), str(lang))
        assert code == 2, rank
        assert err.startswith("error:"), rank
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "group, lang",
    [("group_free2.json", "nfa_cancel.json"), ("group_abelian2.json", "grammar_mixed_steps.json")],
)
def test_oracle_rejects_a_rank_mismatch_as_check_does(capsys, group, lang):
    paths = (str(SAMPLES / group), str(SAMPLES / lang))
    check = run(capsys, "check", *paths)
    oracle = run(capsys, "oracle", *paths)
    assert check[0] == oracle[0] == 2
    assert check[2] == oracle[2]
    assert oracle[2].startswith("error:") and "does not match backend rank" in oracle[2]


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_unexpected_exception_is_an_internal_error_exit_two(monkeypatch, capsys, command):
    def broken(args):
        raise RuntimeError("broken subcommand")

    monkeypatch.setattr(cli, f"cmd_{command}", broken)
    pair = (SAMPLES / "group_cyclic3.json", SAMPLES / "nfa_even.json")
    code, _, err = run(capsys, command, *map(str, pair))
    assert code == 2
    assert err.startswith("internal error: RuntimeError: broken subcommand")
    assert "Traceback" not in err


def test_a_package_error_that_is_not_an_input_error_is_an_internal_error(monkeypatch, capsys):
    def broken(args):
        raise grouplang.InternalInconsistency("no counterexample among the candidates")

    monkeypatch.setattr(cli, "cmd_check", broken)
    pair = (SAMPLES / "group_cyclic3.json", SAMPLES / "nfa_even.json")
    code, out, err = run(capsys, "check", *map(str, pair))
    assert (code, out) == (2, "")
    assert err == "internal error: no counterexample among the candidates\n"


# -- fuzzing: mutated sample files never crash the CLI ------------------------

# Small integers keep the oracle's enumeration small.
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.just(_HUGE)
    | st.just(-_HUGE)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.text(max_size=3)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=2),
    max_leaves=5,
)


def _paths(doc, prefix=()):
    """Paths (tuples of keys and indexes) to every value inside ``doc``."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


def _mutate(data, doc) -> None:
    """One edit below the top level: a new value, a deletion, a wrapping list or a new field."""
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    edit = data.draw(st.sampled_from(["replace", "delete", "wrap", "add-field"]))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if edit == "replace":
        parent[last] = data.draw(_json_values)
    elif edit == "delete":
        del parent[last]
    elif edit == "wrap":
        parent[last] = [parent[last]]
    elif isinstance(parent[last], dict):
        parent[last][data.draw(st.text(max_size=8))] = data.draw(_json_values)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_sample_files_never_crash_the_cli(tmp_path_factory, data):
    # One file of a matching pair is edited, so most edits reach past the
    # rank check into the loaders, the checks and the oracle.
    pair = data.draw(st.sampled_from(sorted(_pairings())))
    edited = data.draw(st.sampled_from([0, 1]))
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = []
    for index, name in enumerate(pair):
        doc = json.loads((SAMPLES / name).read_text(encoding="utf-8"))
        if index == edited:
            for _ in range(data.draw(st.integers(1, 3))):
                if isinstance(doc, (dict, list)) and doc:
                    _mutate(data, doc)
        path = tmp / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    for argv in (["check", *paths, "--json"], ["oracle", *paths, "--max-words", "500"]):
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = main(argv)
        # Bad input is reported as ``error:``; ``internal error:`` is a bug.
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert not err.getvalue().startswith("internal error:"), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
