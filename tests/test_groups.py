"""Backend canonical forms, group operations, and the group file format."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouplang import (
    BackendMismatch,
    CayleyTableError,
    Cyclic,
    FiniteCayley,
    FreeAbelian,
    FreeGroup,
    InputError,
    LetterOutOfRange,
    inverse_word,
    load_group,
    parse_group,
    word_from_tokens,
    word_to_tokens,
)
from grouplang.groups import ASSOC_CHECK_LIMIT, MAX_FREE_ABELIAN_RANK, validate_word
from conftest import symmetric_group, symmetric_group_3


def test_canonicalize_free_group_reduces():
    assert FreeGroup(1).canonicalize((1, -1, 1)) == (1,)


def test_canonicalize_free_abelian_commutes():
    assert FreeAbelian(2).canonicalize((1, 2, -1)) == (0, 1)


def test_canonicalize_cyclic_wraps():
    assert Cyclic(3).canonicalize((1, 1, 1, 1)) == 1


def test_canonicalize_cayley_transposition_squares_to_identity(s3):
    # Expected value computed by composing the permutations directly.
    transposition = (1, 0, 2)
    squared = tuple(transposition[transposition[x]] for x in range(3))
    assert squared == (0, 1, 2)
    assert s3.canonicalize((1, 1)) == s3.identity


def test_multiply_free_group_cancels():
    assert FreeGroup(1).multiply((1,), (-1,)) == ()


def test_multiply_cyclic():
    assert Cyclic(5).multiply(3, 4) == 2


def test_multiply_free_group_cancels_at_seam():
    assert FreeGroup(2).multiply((1, 2), (-2,)) == (1,)


def test_invert_free_group_reverses():
    assert FreeGroup(2).invert((1, 2)) == (-2, -1)


def test_invert_cyclic():
    assert Cyclic(4).invert(3) == 1


def test_invert_cayley_identity(s3):
    assert s3.invert(s3.identity) == s3.identity


def test_is_identity():
    assert FreeGroup(1).is_identity(())
    assert not Cyclic(2).is_identity(1)
    assert FreeAbelian(2).is_identity((0, 0))


def test_word_in_group_language():
    assert FreeGroup(1).word_in_group_language((1, -1))
    assert Cyclic(2).word_in_group_language((1, 1))
    assert not Cyclic(3).word_in_group_language((1, 1))


def test_letter_out_of_range():
    with pytest.raises(LetterOutOfRange):
        FreeGroup(1).canonicalize((2,))
    with pytest.raises(LetterOutOfRange):
        Cyclic(3).canonicalize((2,))
    with pytest.raises(LetterOutOfRange):
        FreeAbelian(2).canonicalize((0,))


def test_backend_mismatch_on_foreign_elements():
    with pytest.raises(BackendMismatch):
        Cyclic(3).multiply(1, 5)
    with pytest.raises(BackendMismatch):
        FreeAbelian(2).multiply((1,), (0, 0))
    with pytest.raises(BackendMismatch):
        FreeGroup(1).invert(3)


def test_free_backends_reject_non_canonical_elements():
    with pytest.raises(BackendMismatch):
        FreeGroup(2).multiply((1, -1), (7,))
    with pytest.raises(BackendMismatch):
        FreeGroup(2).multiply((2, -2), (1,))
    with pytest.raises(BackendMismatch):
        FreeGroup(2).invert((1, 3))
    with pytest.raises(BackendMismatch):
        FreeGroup(2).invert((False,))
    with pytest.raises(BackendMismatch):
        FreeAbelian(2).multiply((0.5, 1), (1, 1))
    with pytest.raises(BackendMismatch):
        FreeAbelian(2).invert((1, True))
    assert FreeGroup(2).multiply((1, -2), (2, 2)) == (1, 2)
    assert FreeAbelian(2).multiply((-3, 1), (1, 1)) == (-2, 2)


_BACKENDS = [FreeGroup(2), FreeAbelian(2), Cyclic(5), symmetric_group_3()]

words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10).map(tuple)


def _words_for(backend):
    letters = [s * i for i in range(1, backend.rank + 1) for s in (1, -1)]
    return st.lists(st.sampled_from(letters), max_size=10).map(tuple)


backend_and_words = st.sampled_from(_BACKENDS).flatmap(
    lambda b: st.tuples(st.just(b), _words_for(b), _words_for(b))
)


@settings(max_examples=60, deadline=None)
@given(case=backend_and_words)
def test_canonicalize_is_a_homomorphism(case):
    backend, u, v = case
    left = backend.canonicalize(u + v)
    right = backend.multiply(backend.canonicalize(u), backend.canonicalize(v))
    assert left == right


@settings(max_examples=60, deadline=None)
@given(w=words)
def test_free_group_canonicalize_idempotent(w):
    fg = FreeGroup(2)
    reduced = fg.canonicalize(w)
    assert fg.canonicalize(reduced) == reduced


@settings(max_examples=60, deadline=None)
@given(case=backend_and_words)
def test_word_times_inverse_is_identity(case):
    backend, w, _ = case
    assert backend.word_in_group_language(w + inverse_word(w))


@settings(max_examples=60, deadline=None)
@given(case=backend_and_words)
def test_invert_matches_inverse_word(case):
    backend, w, _ = case
    assert backend.invert(backend.canonicalize(w)) == backend.canonicalize(inverse_word(w))


@settings(max_examples=200, deadline=None)
@given(u=words, v=words)
def test_free_group_mul_cancels_only_at_the_seam(u, v):
    fg = FreeGroup(2)
    a, b = fg.canonicalize(u), fg.canonicalize(v)
    assert fg._mul(a, b) == fg.canonicalize(a + b)


@settings(max_examples=100, deadline=None)
@given(u=words, v=words)
def test_free_abelian_mul_adds_exponents(u, v):
    ab = FreeAbelian(2)
    a, b = ab.canonicalize(u), ab.canonicalize(v)
    assert ab._mul(a, b) == tuple(p + q for p, q in zip(a, b))


@pytest.mark.parametrize("k", [3, 4])
def test_cayley_canonicalize_matches_the_per_letter_product(k):
    g = symmetric_group(k)

    def per_letter(word):
        acc = g.identity
        for x in word:
            img = g.generator_images[abs(x) - 1]
            if x < 0:
                img = g.invert(img)
            acc = g.table[acc][img]
        return acc

    for length in range(5):
        for word in itertools.product((1, -1, 2, -2), repeat=length):
            assert g.canonicalize(word) == per_letter(word)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("where", ["alone", "inside"])
def test_cayley_canonicalize_rejects_bad_letters_like_validate_word(k, where):
    g = symmetric_group(k)
    for bad in (0, g.rank + 1, -(g.rank + 1), True, 1.0, "x"):
        word = (bad,) if where == "alone" else (1, -2, bad, 2)
        with pytest.raises(LetterOutOfRange) as expected:
            validate_word(word, g.rank)
        with pytest.raises(LetterOutOfRange) as got:
            g.canonicalize(word)
        assert str(got.value) == str(expected.value), bad


def test_cayley_canonicalize_accepts_int_subclass_letters():
    class Letter(int):
        pass

    g = symmetric_group(4)
    word = (1, -2, 2, 1, -1, 2)
    assert g.canonicalize(tuple(Letter(x) for x in word)) == g.canonicalize(word)


def test_inverse_word_is_involution():
    w = (1, -2, 2, 1)
    assert inverse_word(inverse_word(w)) == w


def test_cayley_generator_inverse_derived_from_table(s3):
    for i in (1, 2):
        assert s3.canonicalize((-i,)) == s3.invert(s3.canonicalize((i,)))


@pytest.mark.parametrize("k", [3, 4])
def test_cayley_invert_reads_the_inverse_table(k):
    g = symmetric_group(k)
    for a in range(g.size):
        assert g.invert(a) == g.table[a].index(g.identity)
        assert g.multiply(a, g.invert(a)) == g.identity
    for foreign in (g.size, -1, True, "0"):
        with pytest.raises(BackendMismatch):
            g.invert(foreign)
        with pytest.raises(BackendMismatch):
            g.multiply(g.identity, foreign)


def test_cayley_rejects_broken_identity():
    with pytest.raises(CayleyTableError):
        FiniteCayley(size=2, identity_index=0, table=((0, 1), (1, 1)), generator_images=(1,))


def test_cayley_rejects_non_permutation_row():
    with pytest.raises(CayleyTableError):
        FiniteCayley(size=2, identity_index=0, table=((0, 1), (1, 1)), generator_images=(1,))
    with pytest.raises(CayleyTableError):
        FiniteCayley(
            size=3,
            identity_index=0,
            table=((0, 1, 2), (1, 1, 0), (2, 0, 1)),
            generator_images=(1,),
        )


def test_cayley_rejects_non_associative_table():
    # Start from the cyclic table of order 6 and swap an intercalate:
    # rows and columns stay permutations, the identity still works, but
    # the result cannot be associative (it would have to be a group).
    table = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    assert table[1][1] == table[4][4] and table[1][4] == table[4][1]
    table[1][1], table[1][4] = table[1][4], table[1][1]
    table[4][1], table[4][4] = table[4][4], table[4][1]
    with pytest.raises(CayleyTableError, match="associative"):
        FiniteCayley(
            size=6,
            identity_index=0,
            table=tuple(tuple(r) for r in table),
            generator_images=(1,),
        )


def test_cayley_skips_associativity_past_limit():
    n = ASSOC_CHECK_LIMIT + 1
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    with pytest.warns(UserWarning, match="skipping"):
        FiniteCayley(size=n, identity_index=0, table=table, generator_images=(1,))


def test_free_abelian_rank_is_bounded():
    assert FreeAbelian(MAX_FREE_ABELIAN_RANK).rank == MAX_FREE_ABELIAN_RANK
    with pytest.raises(InputError, match="at most"):
        FreeAbelian(MAX_FREE_ABELIAN_RANK + 1)


def test_all_backends_canonicalize_epsilon_to_identity(s3):
    for backend in [FreeGroup(3), FreeAbelian(2), Cyclic(7), s3]:
        assert backend.canonicalize(()) == backend.identity


def test_parse_group_roundtrip(tmp_path):
    spec = {"kind": "cyclic", "order": 6}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert load_group(path) == Cyclic(6)


def test_parse_group_rejects_unknown_fields():
    with pytest.raises(InputError, match="unknown"):
        parse_group({"kind": "free", "rank": 2, "color": "blue"})


def test_parse_group_rejects_presentations():
    with pytest.raises(InputError, match="undecidable"):
        parse_group({"kind": "free", "rank": 2, "relators": [[1, 1]]})


def test_parse_group_rejects_bad_kind():
    with pytest.raises(InputError, match="kind"):
        parse_group({"kind": "braid", "rank": 2})
    for kind in (["free"], {"free": 1}):
        with pytest.raises(InputError, match="kind"):
            parse_group({"kind": kind, "rank": 2})


def test_parse_group_cayley(s3):
    obj = {
        "kind": "cayley",
        "size": 6,
        "identity": s3.identity_index,
        "table": [list(row) for row in s3.table],
        "generator_images": list(s3.generator_images),
    }
    assert parse_group(obj) == s3


def test_load_group_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "free",}', encoding="utf-8")
    with pytest.raises(InputError, match="line 1"):
        load_group(path)


def test_word_tokens_roundtrip():
    assert word_to_tokens((1, -2)) == "x1 X2"
    assert word_to_tokens(()) == "(eps)"
    assert word_from_tokens("x1 X2") == (1, -2)
    assert word_from_tokens("(eps)") == ()
    with pytest.raises(InputError):
        word_from_tokens("y1")


def test_s3_is_really_symmetric_group(s3):
    # Sanity for the fixture itself: 6 elements, generators generate everything.
    seen = {s3.identity}
    frontier = [s3.identity]
    while frontier:
        a = frontier.pop()
        for img in s3.generator_images:
            b = s3.multiply(a, img)
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    assert len(seen) == 6
    transposition = s3.canonicalize((1,))
    cycle = s3.canonicalize((2,))
    assert s3.multiply(transposition, transposition) == s3.identity
    assert s3.multiply(cycle, s3.multiply(cycle, cycle)) == s3.identity
