"""Golden output of ``grouplang check`` on every sample group and language.

Each of the 42 sample pairs runs with and without ``--json`` and with and
without ``--literal-omega10``. The exit code, stdout and stderr must equal
the recorded ones in ``golden_check.json``; only the ``elapsed_ms`` value
is masked, because it is a wall-clock time.

Regenerate the file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_check.py
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from grouplang.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
GOLDEN = Path(__file__).resolve().parent / "golden_check.json"
FLAG_SETS = ((), ("--json",), ("--literal-omega10",), ("--json", "--literal-omega10"))
_ELAPSED = re.compile(r'("?elapsed_ms"?: )[-+.0-9eE]+')


def _cases():
    groups = sorted(p.name for p in SAMPLES.glob("group_*.json"))
    languages = sorted(p.name for p in SAMPLES.glob("*.json") if not p.name.startswith("group_"))
    return [
        (group, language, flags) for group in groups for language in languages for flags in FLAG_SETS
    ]


def _key(group, language, flags):
    return " ".join((group, language) + flags)


def _run(group, language, flags):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["check", str(SAMPLES / group), str(SAMPLES / language), *flags])
    return {"exit": code, "stdout": _ELAPSED.sub(r"\1<elapsed>", out.getvalue()), "stderr": err.getvalue()}


CASES = _cases()


def test_the_sample_inputs_give_42_pairs():
    assert len(CASES) == 42 * len(FLAG_SETS)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group,language,flags", CASES, ids=[_key(*c) for c in CASES])
def test_check_output_matches_the_golden_file(golden, group, language, flags):
    assert _run(group, language, flags) == golden[_key(group, language, flags)]


if __name__ == "__main__":
    results = {_key(*case): _run(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} cases to {GOLDEN}", file=sys.stderr)
