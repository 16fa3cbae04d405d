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
from grouplang.semiring import GroupSet, PairSet, diamond, product, union
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
    assert FreeGroup(1).identity == ()
    assert Cyclic(2).identity != 1
    assert FreeAbelian(2).identity == (0, 0)


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


class Letter(int):
    """An int subclass: a letter ``validate_word`` accepts unless it is 0 or out of range."""


# Backends besides FiniteCayley, at the smallest rank or order and above it.
_FREE_AND_CYCLIC = [FreeGroup(1), FreeGroup(2), FreeAbelian(1), FreeAbelian(3), Cyclic(1), Cyclic(4)]


def _assert_rejects_bad_letters_like_validate_word(g, where):
    for bad in (0, g.rank + 1, -(g.rank + 1), True, 1.0, "x"):
        word = (bad,) if where == "alone" else (1, -g.rank, bad, g.rank)
        with pytest.raises(LetterOutOfRange) as expected:
            validate_word(word, g.rank)
        with pytest.raises(LetterOutOfRange) as got:
            g.canonicalize(word)
        assert str(got.value) == str(expected.value), bad


def _assert_accepts_int_subclass_letters(g):
    word = (1, -g.rank, g.rank, 1, -1, g.rank)
    assert g.canonicalize(tuple(Letter(x) for x in word)) == g.canonicalize(word)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("where", ["alone", "inside"])
def test_cayley_canonicalize_rejects_bad_letters_like_validate_word(k, where):
    _assert_rejects_bad_letters_like_validate_word(symmetric_group(k), where)


@pytest.mark.parametrize("backend", _FREE_AND_CYCLIC, ids=repr)
@pytest.mark.parametrize("where", ["alone", "inside"])
def test_canonicalize_rejects_bad_letters_like_validate_word(backend, where):
    _assert_rejects_bad_letters_like_validate_word(backend, where)


def test_cayley_canonicalize_accepts_int_subclass_letters():
    _assert_accepts_int_subclass_letters(symmetric_group(4))


@pytest.mark.parametrize("backend", _FREE_AND_CYCLIC, ids=repr)
def test_canonicalize_accepts_int_subclass_letters(backend):
    _assert_accepts_int_subclass_letters(backend)


def _two_pass_canonicalize(backend, word):
    """``canonicalize`` with ``validate_word`` as a pass of its own: the reference."""
    if isinstance(backend, FiniteCayley):
        if all(type(x) is int for x in word):
            acc = backend.identity_index
            try:
                for x in word:
                    acc = backend._letter_steps[x][acc]
                return acc
            except KeyError:
                pass
        validate_word(word, backend.rank)
        return _two_pass_canonicalize(backend, tuple(map(int, word)))
    validate_word(word, backend.rank)
    if isinstance(backend, FreeGroup):
        out = []
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)
    if isinstance(backend, FreeAbelian):
        vec = [0] * backend.rank
        for x in word:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(vec)
    total = 0
    for x in word:
        total += 1 if x > 0 else -1
    return total % backend.order


def _outcome(canonicalize, *args):
    try:
        return "value", canonicalize(*args)
    except LetterOutOfRange as exc:
        return "error", str(exc)


def _any_letters_for(backend):
    """Letters in and just out of range, as ints or ``Letter``, and non-int letters."""
    near = st.integers(-(backend.rank + 1), backend.rank + 1)
    odd = st.sampled_from([True, False, 1.0, -1.0, "x", None])
    return st.one_of(near, near.map(Letter), odd)


_ONE_PASS_BACKENDS = _FREE_AND_CYCLIC + [symmetric_group_3(), symmetric_group(4)]

backend_and_any_word = st.sampled_from(_ONE_PASS_BACKENDS).flatmap(
    lambda b: st.tuples(
        st.just(b),
        st.one_of(_words_for(b), st.lists(_any_letters_for(b), max_size=12).map(tuple)),
    )
)


@settings(max_examples=300, deadline=None)
@given(case=backend_and_any_word)
def test_one_pass_canonicalize_matches_the_two_pass_reference(case):
    backend, word = case
    assert _outcome(backend.canonicalize, word) == _outcome(_two_pass_canonicalize, backend, word)


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


# -- backends as records: equality, hashing, immutability, constructor, repr --

Z2_TABLE = ((0, 1), (1, 0))


def test_backends_of_different_kinds_are_never_equal():
    assert FreeGroup(2) != FreeAbelian(2)
    assert FreeAbelian(2) != FreeGroup(2)
    assert Cyclic(1) != FreeGroup(1)
    assert FreeGroup(2) == FreeGroup(2) and FreeGroup(2) != FreeGroup(3)


def test_equal_backends_hash_equal_and_share_a_dict_key(s3):
    twin = FiniteCayley(s3.size, s3.identity_index, s3.table, s3.generator_images)
    for a, b in ((FreeGroup(2), FreeGroup(rank=2)), (FreeAbelian(3), FreeAbelian(3)),
                 (Cyclic(4), Cyclic(order=4)), (s3, twin)):
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert {a: "first", b: "second"} == {a: "second"}


def test_backend_fields_refuse_assignment_and_deletion():
    g = FreeGroup(2)
    with pytest.raises(AttributeError, match="cannot assign to field 'rank'"):
        g.rank = 3
    with pytest.raises(AttributeError):
        g.anything = 1
    with pytest.raises(AttributeError, match="cannot delete field 'rank'"):
        del g.rank
    assert g == FreeGroup(2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: FreeGroup(),
        lambda: FreeGroup(1, 2),
        lambda: FreeGroup(rank=1, order=2),
        lambda: FreeGroup(1, rank=1),
        lambda: Cyclic(rank=2),
        lambda: FiniteCayley(2, 0, Z2_TABLE),
        lambda: FiniteCayley(2, 0, Z2_TABLE, (1,), _inverses=(0, 1)),
    ],
)
def test_backend_constructor_rejects_missing_and_extra_arguments(make):
    with pytest.raises(TypeError):
        make()


def test_backend_reprs_are_pinned():
    assert repr(FreeGroup(2)) == "FreeGroup(rank=2)"
    assert repr(FreeAbelian(3)) == "FreeAbelian(rank=3)"
    assert repr(Cyclic(5)) == "Cyclic(order=5)"
    assert repr(FiniteCayley(2, 0, Z2_TABLE, (1,))) == (
        "FiniteCayley(size=2, identity_index=0, table=((0, 1), (1, 0)), generator_images=(1,))"
    )


def test_mixed_backend_message_names_both_backends():
    with pytest.raises(BackendMismatch) as info:
        union(GroupSet(FreeGroup(1)), GroupSet(Cyclic(2)))
    assert str(info.value) == "mixed backends: FreeGroup(rank=1) vs Cyclic(order=2)"
    for kernel, kind in ((union, GroupSet), (product, GroupSet), (diamond, PairSet)):
        with pytest.raises(BackendMismatch) as info:
            kernel(kind.identity(FreeGroup(1)), kind.identity(Cyclic(2)))
        assert str(info.value) == "mixed backends: FreeGroup(rank=1) vs Cyclic(order=2)"
        # Equal backends built apart are one group.
        assert kernel(kind.identity(FreeGroup(1)), kind.identity(FreeGroup(1))) == kind.identity(FreeGroup(1))


def test_cayley_equality_and_repr_ignore_the_tabulated_fields():
    a = FiniteCayley(2, 0, Z2_TABLE, (1,))
    b = FiniteCayley(size=2, identity_index=0, table=Z2_TABLE, generator_images=(1,))
    object.__setattr__(b, "_letter_steps", {})
    object.__setattr__(b, "_inverses", ())
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert "_inverses" not in repr(a) and "_letter_steps" not in repr(a)
    assert a != FiniteCayley(2, 0, Z2_TABLE, (0, 1))
