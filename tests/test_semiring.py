"""Label-set operations: documented behavior, semiring laws, witness discipline."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relabelled, symmetric_group_3
from grouplang import (
    BackendMismatch,
    CapExceeded,
    Cyclic,
    FreeAbelian,
    FreeGroup,
    GroupSet,
    PairSet,
    diamond,
    inverse_word,
    product,
    proj_left,
    proj_product,
    proj_right,
    star,
    triple_literal,
    triple_paired,
    union,
)
from grouplang.errors import SingletonViolation
from grouplang.linear import build_grammar_matrix, closure_pairs, load_grammar, useful_nonterminals
from grouplang.regular import build_initial_matrix, closure, load_nfa, useful_states
from grouplang.semiring import _LabelSet

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"

FG1 = FreeGroup(1)
FG2 = FreeGroup(2)
FG4 = FreeGroup(4)


def gset(backend, *witness_words):
    out = GroupSet(backend, None, True)
    for w in witness_words:
        w = tuple(w)
        key = backend.canonicalize(w)
        old = out.elements.get(key)
        if old is None or GroupSet.witness_key(w) < GroupSet.witness_key(old):
            out.elements[key] = w
    return out


def check_witnesses(s):
    """Every stored witness evaluates to its label."""
    for label, wit in s.elements.items():
        assert s.evaluate(s.backend, wit) == label, (wit, label)


def pset(backend, *witness_pairs):
    out = PairSet.empty(backend)
    for wl, wr in witness_pairs:
        wl, wr = tuple(wl), tuple(wr)
        key = (backend.canonicalize(wl), backend.canonicalize(wr))
        old = out.elements.get(key)
        if old is None or PairSet.witness_key((wl, wr)) < PairSet.witness_key(old):
            out.elements[key] = (wl, wr)
    return out


# union


def test_union_with_empty_is_identity():
    e = GroupSet.identity(FG1)
    assert union(e, GroupSet.empty(FG1)) == e


def test_union_dedupes_canonically():
    x = gset(FG1, [1])
    also_x = gset(FG1, [1, 1, -1])  # same element, longer witness
    merged = union(x, also_x)
    assert frozenset(merged.elements) == {(1,)}
    assert merged.elements[(1,)] == (1,)


def test_union_keeps_distinct_elements():
    merged = union(gset(FG1, [1]), GroupSet.identity(FG1))
    assert frozenset(merged.elements) == {(1,), ()}


def test_union_tie_break_is_lexicographic():
    ab = FreeAbelian(2)
    merged = union(gset(ab, [2, 1]), gset(ab, [1, 2]))
    assert merged.elements[(1, 1)] == (1, 2)
    # Same result regardless of operand order.
    assert union(gset(ab, [1, 2]), gset(ab, [2, 1])).elements[(1, 1)] == (1, 2)


def test_union_rejects_mixed_backends():
    with pytest.raises(BackendMismatch):
        union(gset(FG1, [1]), gset(FG2, [1]))


def test_union_cap():
    with pytest.raises(CapExceeded):
        union(gset(FG1, [1]), gset(FG1, []), cap=1)


# product


def test_product_cancels():
    assert frozenset(product(gset(FG1, [1]), gset(FG1, [-1])).elements) == {()}


def test_product_identity_is_unit():
    y = gset(FG1, [1], [1, 1])
    assert product(GroupSet.identity(FG1), y) == y


def test_product_empty_annihilates():
    y = gset(FG1, [1])
    assert product(GroupSet.empty(FG1), y) == GroupSet.empty(FG1)
    assert product(y, GroupSet.empty(FG1)) == GroupSet.empty(FG1)


# star


def test_star_conjugates():
    result = star(gset(FG2, [1]), gset(FG2, [2]))
    assert frozenset(result.elements) == {(1, 2, -1)}
    assert result.elements[(1, 2, -1)] == (1, 2, -1)


def test_star_of_identity_collapses():
    x = gset(FG2, [1], [2, 2])
    assert frozenset(star(x, GroupSet.identity(FG2)).elements) == {()}


def test_star_is_trivial_in_abelian_groups():
    ab = FreeAbelian(2)
    x = gset(ab, [1], [2])
    y = gset(ab, [1, 2], [-1])
    assert frozenset(star(x, y).elements) == frozenset(y.elements)


# diamond


def test_diamond_composes_with_reversed_right():
    p = pset(FG4, ([1], [2]))
    q = pset(FG4, ([3], [4]))
    result = diamond(p, q)
    assert frozenset(result.elements) == {((1, 3), (4, 2))}
    assert result.elements[((1, 3), (4, 2))] == ((1, 3), (4, 2))


def test_diamond_identity_is_unit():
    y = pset(FG1, ([1], [-1]), ([1, 1], []))
    assert diamond(PairSet.identity(FG1), y) == y


def test_diamond_squares_balanced_pair():
    p = pset(FG1, ([1], [-1]))
    assert frozenset(diamond(p, p).elements) == {((1, 1), (-1, -1))}


def test_diamond_keeps_the_least_word_of_an_equal_length_tie():
    # Two combinations give (x1, e), each with 3 letters.  The first met,
    # x's x1 with y's identity, spells (2, -2, 1); the later one, x's
    # identity with y's x1, spells the lexicographically smaller (1, 2, -2).
    x = pset(FG2, ([2, -2, 1], []), ([], []))
    y = pset(FG2, ([], []), ([1, 2, -2], []))
    x1, e = FG2.canonicalize((1,)), FG2.identity
    assert list(x.elements) == [(x1, e), (e, e)] and list(y.elements) == [(e, e), (x1, e)]
    assert diamond(x, y).elements[x1, e] == ((1, 2, -2), ())


# projections


def test_proj_product_multiplies_components():
    p = pset(FG4, ([1], [2]))
    assert frozenset(proj_product(p).elements) == {(1, 2)}


def test_proj_product_of_balanced_pair_is_identity():
    p = pset(FG2, ([1, 2], [-2, -1]))
    assert frozenset(proj_product(p).elements) == {()}


def test_proj_left_of_identity_pair():
    assert frozenset(proj_left(PairSet.identity(FG1)).elements) == {()}


def test_proj_left_right_witnesses():
    p = pset(FG2, ([1], [2]))
    assert proj_left(p).elements[(1,)] == (1,)
    assert proj_right(p).elements[(2,)] == (2,)


# triples


def test_triple_literal_with_identity_middle():
    x, y, z = gset(FG2, [1]), GroupSet.identity(FG2), gset(FG2, [2])
    assert frozenset(triple_literal(x, y, z).elements) == {(1, 2)}


def test_triple_literal_conjugating_identity():
    x, y, z = GroupSet.identity(FG1), gset(FG1, [1]), GroupSet.identity(FG1)
    assert frozenset(triple_literal(x, y, z).elements) == {()}


def test_triple_literal_commutative_case():
    ab = FreeAbelian(1)
    x, y, z = gset(ab, [1]), gset(ab, [1, 1]), gset(ab, [-1])
    assert frozenset(triple_literal(x, y, z).elements) == {(0,)}


def test_triple_paired_balanced():
    p = pset(FG1, ([1], [-1]))
    v = GroupSet.identity(FG1)
    assert frozenset(triple_paired(p, v).elements) == {()}


def test_triple_paired_vs_literal_discrepancy():
    """Drawing the outer factors independently manufactures spurious values."""
    p = pset(FG1, ([1], [-1]), ([1, 1], [-1, -1]))
    v = GroupSet.identity(FG1)
    paired = triple_paired(p, v)
    assert frozenset(paired.elements) == {()}

    literal = triple_literal(proj_left(p), v, proj_right(p))
    # Independent verification by enumerating all cross combinations.
    expected = set()
    for a in proj_left(p).elements:
        for b in v.elements:
            for c in proj_right(p).elements:
                expected.add(
                    FG1.multiply(FG1.multiply(FG1.multiply(a, b), c), FG1.invert(b))
                )
    assert expected == {(), (1,), (-1,)}
    assert frozenset(literal.elements) == expected


def test_triple_paired_in_cyclic_two():
    c2 = Cyclic(2)
    p = pset(c2, ([1], [1]))
    v = GroupSet.identity(c2)
    assert frozenset(triple_paired(p, v).elements) == {0}


# properties

_LAW_BACKENDS = [FreeGroup(2), Cyclic(3)]


def _sets_for(backend):
    letters = [s * i for i in range(1, backend.rank + 1) for s in (1, -1)]
    word = st.lists(st.sampled_from(letters), max_size=3).map(tuple)
    return st.lists(word, max_size=3).map(
        lambda ws: gset(backend, *ws)
    )


law_triples = st.sampled_from(_LAW_BACKENDS).flatmap(
    lambda b: st.tuples(st.just(b), _sets_for(b), _sets_for(b), _sets_for(b))
)


@settings(max_examples=80, deadline=None)
@given(case=law_triples)
def test_semiring_laws(case):
    backend, x, y, z = case
    empty = GroupSet.empty(backend)
    one = GroupSet.identity(backend)
    assert union(union(x, y), z) == union(x, union(y, z))
    assert union(x, y) == union(y, x)
    assert union(x, empty) == x
    assert product(product(x, y), z) == product(x, product(y, z))
    assert product(one, x) == x
    assert product(x, one) == x
    assert product(empty, x) == empty
    assert product(x, empty) == empty
    assert product(x, union(y, z)) == union(product(x, y), product(x, z))
    assert product(union(x, y), z) == union(product(x, z), product(y, z))


@settings(max_examples=80, deadline=None)
@given(case=law_triples)
def test_cardinality_bounds_and_witness_soundness(case):
    backend, x, y, _ = case
    for result in (product(x, y), star(x, y), union(x, y)):
        check_witnesses(result)
    if x and y:
        assert len(product(x, y)) <= len(x) * len(y)
        assert len(star(x, y)) <= len(x) * len(y)


def _pairs_for(backend):
    letters = [s * i for i in range(1, backend.rank + 1) for s in (1, -1)]
    word = st.lists(st.sampled_from(letters), max_size=2).map(tuple)
    return st.lists(st.tuples(word, word), max_size=3).map(
        lambda ps: pset(backend, *ps)
    )


pair_triples = st.sampled_from(_LAW_BACKENDS).flatmap(
    lambda b: st.tuples(st.just(b), _pairs_for(b), _pairs_for(b), _pairs_for(b))
)


@settings(max_examples=80, deadline=None)
@given(case=pair_triples)
def test_diamond_laws(case):
    backend, x, y, z = case
    one = PairSet.identity(backend)
    # Associativity is a statement about the pair sets; the retained
    # witnesses may differ between groupings when collisions happen at
    # different intermediate stages.
    left = diamond(diamond(x, y), z)
    right = diamond(x, diamond(y, z))
    assert frozenset(left.elements) == frozenset(right.elements)
    assert diamond(one, x) == x
    assert diamond(x, one) == x
    for result in (diamond(x, y), union(x, y), left, right):
        check_witnesses(result)


@settings(max_examples=60, deadline=None)
@given(case=pair_triples)
def test_pair_inverse_composes_to_identity(case):
    backend, x, _, _ = case
    for (left, right), (wl, wr) in x.elements.items():
        inv = pset(backend, (inverse_word(wl), inverse_word(wr)))
        composed = diamond(pset(backend, (wl, wr)), inv)
        assert frozenset(composed.elements) == {(backend.identity, backend.identity)}


@settings(max_examples=60, deadline=None)
@given(case=pair_triples)
def test_projection_identity(case):
    """proj_product(p . q) equals proj_left(p) * proj_product(q) * proj_right(p)."""
    backend, x, y, _ = case
    for p, wp in x.elements.items():
        for q, wq in y.elements.items():
            ps_p = pset(backend, wp)
            ps_q = pset(backend, wq)
            left = proj_product(diamond(ps_p, ps_q))
            right = product(
                proj_left(ps_p), product(proj_product(ps_q), proj_right(ps_p))
            )
            assert frozenset(left.elements) == frozenset(right.elements)


def test_product_cap_exceeded_reports_cardinality():
    x = gset(FG1, [1], [1, 1])
    y = gset(FG1, [], [-1])
    with pytest.raises(CapExceeded) as exc:
        product(x, y, cap=2)
    assert exc.value.cardinality == 3


# kernels against a naive all-combinations reference

# S3 once more with its indices reversed, so its identity is index 5.
S3_RELABELLED = relabelled(symmetric_group_3(), (5, 4, 3, 2, 1, 0))
_KERNEL_BACKENDS = [Cyclic(3), symmetric_group_3(), FreeGroup(2), S3_RELABELLED]
_KERNEL_IDS = ["Cyclic", "FiniteCayley", "FreeGroup", "FiniteCayley-relabelled"]


def _words(backend, max_size):
    letters = [s * i for i in range(1, backend.rank + 1) for s in (1, -1)]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(tuple)


def _groupsets(backend):
    return st.lists(_words(backend, 3), max_size=4).map(
        lambda ws: gset(backend, *ws)
    )


def _pairsets(backend):
    word = _words(backend, 2)
    return st.lists(st.tuples(word, word), max_size=4).map(lambda ps: pset(backend, *ps))


def _naive_best(combinations, key):
    """Every (label, witness) combination kept with its minimal witness."""
    out: dict = {}
    for label, wit in combinations:
        if label not in out or key(wit) < key(out[label]):
            out[label] = wit
    return out


def _naive_product(x, y):
    mul = x.backend.multiply
    return _naive_best(
        ((mul(a, b), wa + wb) for a, wa in x.elements.items() for b, wb in y.elements.items()),
        GroupSet.witness_key,
    )


def _naive_diamond(x, y):
    mul = x.backend.multiply
    return _naive_best(
        (
            ((mul(al, bl), mul(br, ar)), (wal + wbl, wbr + war))
            for (al, ar), (wal, war) in x.elements.items()
            for (bl, br), (wbl, wbr) in y.elements.items()
        ),
        PairSet.witness_key,
    )


def _naive_union(x, y):
    return _naive_best(
        list(x.elements.items()) + list(y.elements.items()), type(x).witness_key
    )


def _snapshot(*sets):
    return [dict(s.elements) for s in sets]


def _assert_kernel(kernel, naive, x, y, cap):
    """``kernel`` equals ``naive``: same labels, same witnesses, same cap failure."""
    before = _snapshot(x, y)
    expected = naive(x, y)
    # product and diamond stop as soon as a result outgrows the cap; union
    # reports its full size, and a union with an empty side returns the other.
    if kernel is union:
        over = x.elements and y.elements and cap is not None and len(expected) > cap
        cardinality = len(expected)
    else:
        over = cap is not None and len(expected) > cap
        cardinality = cap + 1 if over else None
    if over:
        with pytest.raises(CapExceeded) as exc:
            kernel(x, y, cap=cap)
        assert exc.value.cardinality == cardinality
    else:
        result = kernel(x, y, cap=cap)
        assert type(result) is type(x) and result.backend == x.backend
        assert result.elements == expected
        if kernel is union and expected == x.elements and x.elements:
            assert result is x
    assert _snapshot(x, y) == before


caps = st.none() | st.integers(0, 8)

kernel_groupsets = st.sampled_from(_KERNEL_BACKENDS).flatmap(
    lambda b: st.tuples(_groupsets(b), _groupsets(b), caps)
)
kernel_pairsets = st.sampled_from(_KERNEL_BACKENDS).flatmap(
    lambda b: st.tuples(_pairsets(b), _pairsets(b), caps)
)


@settings(max_examples=150, deadline=None)
@given(case=kernel_groupsets)
def test_product_and_union_match_naive_reference(case):
    x, y, cap = case
    _assert_kernel(product, _naive_product, x, y, cap)
    _assert_kernel(union, _naive_union, x, y, cap)
    _assert_kernel(union, _naive_union, x, x, cap)


@settings(max_examples=150, deadline=None)
@given(case=kernel_pairsets)
def test_diamond_and_union_match_naive_reference(case):
    x, y, cap = case
    _assert_kernel(diamond, _naive_diamond, x, y, cap)
    _assert_kernel(union, _naive_union, x, y, cap)


def _naive_triple(x, y, z):
    mul, inv = x.backend.multiply, x.backend.invert
    return _naive_best(
        (
            (mul(mul(mul(a, b), c), inv(b)), wa + wb + wc + inverse_word(wb))
            for a, wa in x.elements.items()
            for b, wb in y.elements.items()
            for c, wc in z.elements.items()
        ),
        GroupSet.witness_key,
    )


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(_KERNEL_BACKENDS).flatmap(
        lambda b: st.tuples(_groupsets(b), _groupsets(b), _groupsets(b), caps)
    )
)
def test_triple_literal_matches_naive_reference(case):
    x, y, z, cap = case
    expected = _naive_triple(x, y, z)
    if cap is not None and len(expected) > cap:
        with pytest.raises(CapExceeded) as exc:
            triple_literal(x, y, z, cap=cap)
        assert exc.value.cardinality == cap + 1
    else:
        assert triple_literal(x, y, z, cap=cap).elements == expected


def test_best_picks_the_smallest_accepted_witness():
    x = gset(FG2, [], [2, 1], [1, 2], [1, 1, 1])
    assert x.best(lambda elem: True) == ((), ())
    assert x.best(lambda elem: elem != ()) == ((1, 2), (1, 2))
    assert x.best(lambda elem: False) is None
    assert x.best_non_identity() == ((1, 2), (1, 2))


def test_union_returns_left_operand_when_nothing_is_added():
    x = gset(FG2, [1], [2], [1, 2])
    assert union(x, x) is x
    assert union(x, gset(FG2, [2, 2, -2], [1])) is x  # longer witness, known element
    grown = union(x, gset(FG2, [-1]))
    assert grown is not x and (-1,) not in x


# Foreign values per backend: out of range, or of the wrong type.  None of
# them equals an element, so each is a key of its own in a set's dict.
_FOREIGN = {
    Cyclic(3): [3, -1],
    symmetric_group_3(): [6, "0"],
    FreeGroup(2): [1, "x1"],
    S3_RELABELLED: [6, "5"],
}


@pytest.mark.parametrize("backend", _KERNEL_BACKENDS, ids=_KERNEL_IDS)
def test_kernels_reject_a_foreign_element_inside_a_set(backend):
    ident = backend.identity
    gen = backend.canonicalize((1,))
    plain = GroupSet(backend, {ident: (), gen: (1,)})
    pairs = PairSet(backend, {(ident, ident): ((), ()), (gen, ident): ((1,), ())})
    for key in _FOREIGN[backend]:
        # The foreign element sits last, after elements that multiply fine.
        bad = GroupSet(backend, {ident: (), gen: (1,), key: (1, 1)})
        for x, y in ((bad, plain), (plain, bad), (bad, GroupSet.identity(backend))):
            with pytest.raises(BackendMismatch):
                product(x, y)
        bad_pair = PairSet(backend, {(ident, ident): ((), ()), (gen, key): ((1,), (1,))})
        for x, y in ((bad_pair, pairs), (pairs, bad_pair)):
            with pytest.raises(BackendMismatch):
                diamond(x, y)
        lone = GroupSet(backend, {key: ()})
        for x, y in ((lone, GroupSet.identity(backend)), (GroupSet.identity(backend), lone)):
            with pytest.raises(BackendMismatch):
                product(x, y)


# singleton operands, as in the early-exit closure: a 1x1 product, a union merging one label


@pytest.mark.parametrize("cap", [None, 1, 0])
def test_one_by_one_product(cap):
    x, y = gset(FG2, [1, 2]), gset(FG2, [-2, 1])
    if cap == 0:
        with pytest.raises(CapExceeded) as exc:
            product(x, y, cap=cap)
        assert exc.value.cardinality == 1
        return
    result = product(x, y, cap=cap)
    assert result.elements == {(1, 1): (1, 2, -2, 1)}
    assert result.checked and x.elements == {(1, 2): (1, 2)}


@pytest.mark.parametrize("cap", [None, 1, 0])
def test_one_label_union(cap):
    ab = FreeAbelian(2)
    x = gset(ab, [2, 1])
    tie = gset(ab, [1, 2])  # same element, same length, smaller witness
    loses = gset(ab, [2, 1, 1, -1])  # same element, longer witness
    new = gset(ab, [1])
    if cap == 0:
        # The left operand alone is over the cap, also when nothing is added.
        for y in (tie, loses, new):
            with pytest.raises(CapExceeded) as exc:
                union(x, y, cap=cap)
            assert exc.value.cardinality == len(union(x, y))
        return
    won = union(x, tie, cap=cap)
    assert won.elements == {(1, 1): (1, 2)} and won is not x
    assert union(tie, x, cap=cap) is tie
    assert union(x, loses, cap=cap) is x
    if cap == 1:
        with pytest.raises(CapExceeded) as exc:
            union(x, new, cap=cap)
        assert exc.value.cardinality == 2
    else:
        grown = union(x, new, cap=cap)
        assert grown.elements == {(1, 1): (2, 1), (1, 0): (1,)}
        assert x.elements == {(1, 1): (2, 1)}


def test_union_output_is_checked_when_both_operands_are():
    checked = gset(FG2, [1])
    fresh = GroupSet(FG2, {(2,): (2,)})
    assert union(checked, gset(FG2, [2])).checked
    assert not union(checked, fresh).checked
    assert not union(fresh, checked).checked


# Elements that are not canonical: a letter next to its inverse, a letter
# out of range, a bool, and non-integer exponents.
_NON_CANONICAL = [
    (FreeGroup(2), (1, -1)),
    (FreeGroup(2), (2, 1, -1)),
    (FreeGroup(2), (3,)),
    (FreeGroup(2), (True,)),
    (FreeAbelian(2), (0.5, 1)),
    (FreeAbelian(2), (True, 0)),
]


@pytest.mark.parametrize("backend, elem", _NON_CANONICAL, ids=repr)
def test_kernels_reject_a_fresh_set_with_a_non_canonical_element(backend, elem):
    ident = backend.identity
    # The bad element alone, and after one that multiplies fine.
    for make in (lambda: GroupSet(backend, {elem: (1,)}), lambda: GroupSet(backend, {ident: (), elem: (2,)})):
        for first in (True, False):
            bad, good = make(), GroupSet.identity(backend)
            with pytest.raises(BackendMismatch):
                product(bad, good) if first else product(good, bad)
            assert not bad.checked
    pairs = PairSet.identity(backend)
    for key in ((elem, ident), (ident, elem)):
        for first in (True, False):
            bad = PairSet(backend, {key: ((1,), ())})
            with pytest.raises(BackendMismatch):
                diamond(bad, pairs) if first else diamond(pairs, bad)


def _record_check_labels(monkeypatch) -> list:
    """Every set ``check_labels`` runs on, kept alive so that no two share an id."""
    seen = []
    original = _LabelSet.check_labels

    def recording(self):
        seen.append(self)
        original(self)

    monkeypatch.setattr(_LabelSet, "check_labels", recording)
    return seen


def _close(mat, early_fail=True):
    try:
        if isinstance(mat.empty, PairSet):
            closure_pairs(mat)
        else:
            closure(mat, early_fail=early_fail)
    except SingletonViolation:
        pass


@pytest.mark.parametrize("early_fail", [True, False])
def test_each_set_is_checked_at_most_once_over_one_closure(monkeypatch, early_fail):
    seen = _record_check_labels(monkeypatch)
    a = load_nfa(SAMPLES / "nfa_star.json")
    g = load_grammar(SAMPLES / "grammar_squares.json")
    backend = FreeGroup(1)
    builds = [
        lambda: build_initial_matrix(a, backend, useful=useful_states(a)),
        lambda: build_grammar_matrix(g, backend, useful=useful_nonterminals(g)),
    ]
    # Built cells start out checked, so a closure checks nothing.
    for build in builds:
        _close(build(), early_fail)
    assert seen == []
    # Cells made by hand start unchecked: each is checked once, on first use.
    level0 = []
    for build in builds:
        mat = build()
        for cell in mat.cells.values():
            cell.checked = False
            level0.append(cell)
        _close(mat, early_fail)
    assert seen
    assert all(any(s is cell for cell in level0) for s in seen)
    assert len({id(s) for s in seen}) == len(seen)
