import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_double_poset, weighted
from qsymdp import qsym
from qsymdp.compositions import (
    Composition,
    _parts,
    all_descents,
    comp_of_subset,
    compositions_of,
    conjugate,
    cube,
    reverse,
    sort_key,
)
from qsymdp.gamma import antipode_theorem_check, gamma
from qsymdp.oracles import antipode_recursive, product_truncation_matches
from qsymdp.poset import all_double_posets, build
from qsymdp.qsym import (
    ONE,
    ZERO,
    BoundExceededError,
    QSymElem,
    antipode_closed,
    antipode_masks,
    coproduct,
    counit,
    format_coproduct,
    format_qsym,
    fundamental,
    linear_combination,
    monomial,
    product,
    rights_by_left,
)

M = lambda *parts: monomial(Composition(parts))


def test_monomial_rejects_non_integer_parts():
    with pytest.raises(ValueError, match="composition parts must be integers"):
        monomial([1.5, "2"])


def all_basis_upto(n):
    return [Composition(a) for k in range(n + 1) for a in compositions_of(k)]


def test_monomial_examples():
    assert M() == ONE
    assert (M(2) + M(2)).coeff(Composition([2])) == 2


def test_product_m1_m1():
    assert product(M(1), M(1)) == M(2) + M(1, 1).scale(2)


def test_product_unit_law():
    f = M(2, 1) + M(3).scale(Fraction(1, 2))
    assert product(ONE, f) == f
    assert product(f, ONE) == f


def test_product_commutative_associative_sampled():
    basis = [Composition(a) for a in [(), (1,), (2,), (1, 1), (2, 1)]]
    for a, b in itertools.combinations(basis, 2):
        assert product(monomial(a), monomial(b)) == product(monomial(b), monomial(a))
    triples = [((1,), (1,), (1,)), ((1,), (2,), (1,)), ((1, 1), (1,), (1,))]
    for a, b, c in triples:
        fa, fb, fc = M(*a), M(*b), M(*c)
        assert product(product(fa, fb), fc) == product(fa, product(fb, fc))


def test_product_matches_polynomial_product():
    basis = all_basis_upto(6)
    for a in basis:
        for b in basis:
            if sum(a) + sum(b) <= 6:
                assert product_truncation_matches(M(*a), M(*b), sum(a) + sum(b))


def test_product_integer_coefficients():
    for a in all_basis_upto(3):
        for b in all_basis_upto(2):
            for alpha, c in product(monomial(a), monomial(b)).terms.items():
                assert c.denominator == 1 and c >= 0


def test_product_is_refused_only_above_its_quasi_shuffle_count(monkeypatch):
    # the count is exact: the coefficients of M_a * M_b sum to the quasi-shuffles of a and b
    f = M(1, 2) + M(3) + M(1, 1, 1).scale(2)
    g = M(2, 1) + M(1) + ONE
    shuffles = sum(sum(product(M(*a), M(*b)).terms.values()) for a in f.terms for b in g.terms)
    expected = product(f, g)
    monkeypatch.setattr(qsym, "ENUM_LIMIT", shuffles)
    assert product(f, g) == expected
    monkeypatch.setattr(qsym, "ENUM_LIMIT", shuffles - 1)
    with pytest.raises(BoundExceededError, match=f"^product needs {shuffles} quasi-shuffles, above limit {shuffles - 1}$"):
        product(f, g)


def test_coproduct_splits():
    assert coproduct(M(2, 3)) == {((), (2, 3)): 1, ((2,), (3,)): 1, ((2, 3), ()): 1}


def test_coproduct_grouplike_unit():
    assert coproduct(ONE) == {((), ()): 1}


def coproduct_text_by_pairs(f):
    """The text of the coproduct table grouped by left, each M_beta and each right through format_qsym."""
    rights = rights_by_left(coproduct(f))
    return "\n".join(
        f"{format_qsym(monomial(beta))} (x) {format_qsym(QSymElem(rights[beta]))}"
        for beta in sorted(rights, key=sort_key)
    )


def assert_table_is_deconcatenation(f):
    """One entry c M_beta (x) M_gamma per cut of each term c M_alpha, alpha = beta.gamma."""
    table = coproduct(f)
    assert len(table) == sum(len(alpha) + 1 for alpha in f.terms)
    assert all(f.terms[beta + gamma] == c for (beta, gamma), c in table.items())


def test_format_coproduct_on_gamma_of_every_small_double_poset():
    for n in range(4):
        for poset in all_double_posets(n):
            for w in ((), tuple(1 + i % 2 for i in range(poset.size))):
                f = gamma(weighted(poset, w))
                assert format_coproduct(f) == coproduct_text_by_pairs(f)
                assert_table_is_deconcatenation(f)


def test_format_coproduct_examples():
    assert format_coproduct(ZERO) == ""
    assert format_coproduct(ONE) == "M() (x) M()"
    f = M(2, 1).scale(-2) + M(2).scale(Fraction(1, 3)) + M(1).scale(-1) + ONE.scale(5)
    assert format_coproduct(f) == (
        "M() (x) 5*M() - M(1) + 1/3*M(2) - 2*M(2,1)\n"
        "M(1) (x) -M()\n"
        "M(2) (x) 1/3*M() - 2*M(1)\n"
        "M(2,1) (x) -2*M()"
    )
    assert format_coproduct(M(15) + M(12, 3)) == "M() (x) M(15) + M(12,3)\nM(12) (x) M(3)\nM(15) (x) M()\nM(12,3) (x) M()"


def test_counit_axiom():
    f = M(2, 1).scale(3) + M(1).scale(Fraction(1, 2)) + ONE.scale(5)
    recovered = linear_combination(
        (c * counit(monomial(beta)), monomial(gamma)) for (beta, gamma), c in coproduct(f).items()
    )
    assert recovered == f


def test_counit_examples():
    assert counit(ONE) == 1
    assert counit(M(3, 1)) == 0
    assert counit(ONE.scale(5) + M(2).scale(7)) == 5


def test_antipode_closed_examples():
    for n in range(1, 6):
        assert antipode_closed(M(n)) == -M(n)
    assert antipode_closed(M(1, 1)) == M(2) + M(1, 1)
    assert antipode_closed(ONE) == ONE


def test_antipode_recursive_bottom():
    assert antipode_recursive(M(2)) == -M(2)


def test_antipode_axiom_upto_6():
    # the closed form's axiom is part of the antipode-consistency suite
    for alpha in all_basis_upto(6):
        f = monomial(alpha)
        acc = linear_combination(
            (c, product(antipode_recursive(monomial(beta)), monomial(gamma)))
            for (beta, gamma), c in coproduct(f).items()
        )
        assert acc == ONE.scale(counit(f))


def test_bialgebra_compatibility():
    small = all_basis_upto(3)
    for a in small:
        for b in small:
            if sum(a) + sum(b) > 5:
                continue
            # componentwise product of the two coproducts
            table = {}
            for (l1, r1), c1 in coproduct(monomial(a)).items():
                for (l2, r2), c2 in coproduct(monomial(b)).items():
                    left = product(monomial(l1), monomial(l2))
                    right = product(monomial(r1), monomial(r2))
                    for x, cx in left.terms.items():
                        for y, cy in right.terms.items():
                            table[(x, y)] = table.get((x, y), 0) + c1 * c2 * cx * cy
            assert {k: v for k, v in table.items() if v} == coproduct(product(monomial(a), monomial(b)))


def test_fundamental_examples():
    for n in range(1, 6):
        full = sum(
            (monomial(b) for b in compositions_of(n)),
            ZERO,
        )
        assert fundamental(Composition([n])) == full
        assert fundamental(Composition([1] * n)) == monomial(Composition([1] * n))
    assert fundamental(Composition()) == ONE


def test_antipode_fundamental_identity():
    alpha = Composition([1, 2])
    assert conjugate(alpha) == alpha
    assert antipode_closed(fundamental(alpha)) == fundamental(alpha).scale(-1)


def test_antipode_closed_matches_recursive_upto_8():
    for alpha in all_basis_upto(8):
        m = monomial(alpha)
        s = antipode_closed(m)
        assert s == antipode_recursive(m)
        assert antipode_closed(s) == m


def test_antipode_of_fundamental_is_signed_conjugate_upto_10():
    for alpha in all_basis_upto(10):
        n = sum(alpha)
        assert antipode_closed(fundamental(alpha)) == fundamental(conjugate(alpha)).scale((-1) ** n)


def test_format_qsym_examples():
    f = M(2).scale(-1) + M(1, 1).scale(Fraction(3, 2)) + ONE.scale(2)
    assert format_qsym(f) == "2*M() - M(2) + 3/2*M(1,1)"
    assert format_qsym(-f) == "-2*M() + M(2) - 3/2*M(1,1)"
    assert format_qsym(ZERO) == "0"
    assert format_qsym(antipode_closed(monomial((10, 2)))) == "M(12) + M(2,10)"


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), max_size=2).map(Composition),
    st.lists(st.integers(min_value=1, max_value=3), max_size=2).map(Composition),
)
def test_product_commutes_random(a, b):
    assert product(monomial(a), monomial(b)) == product(monomial(b), monomial(a))


@st.composite
def sparse_mixed_degree(draw):
    """0-6 terms of degree 0-8 with int or Fraction coefficients; a term may be
    drawn twice with opposite coefficients, so that it cancels."""
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(0, 8))
        alpha = comp_of_subset(n, draw(st.integers(0, all_descents(n))) & all_descents(n))
        c = draw(st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4))
        pairs.append((c, monomial(alpha)))
        if draw(st.booleans()):
            pairs.append((-c, monomial(alpha)))
    return linear_combination(pairs)


@settings(max_examples=200, deadline=None)
@given(sparse_mixed_degree())
def test_antipode_closed_matches_recursive_on_sparse_mixed_degree(f):
    s = antipode_closed(f)
    assert s == antipode_recursive(f)
    assert antipode_closed(s) == f
    assert all(s.terms.values())


@st.composite
def dense_support(draw):
    """Gamma of a random double poset with |E| <= 5 and weights 1-3, or over half
    of the compositions of some n <= 8 with nonzero coefficients -3..3: supports
    whose OR cube has no more cells than the cubes of their masks together."""
    if draw(st.booleans()):
        p = random_double_poset(draw(st.integers(0, 5)), draw(st.randoms(use_true_random=False)))
        return gamma(weighted(p, [draw(st.integers(1, 3)) for _ in p.elements]))
    every = list(compositions_of(draw(st.integers(0, 8))))
    chosen = draw(st.lists(st.sampled_from(every), min_size=len(every) // 2 + 1, unique=True))
    return QSymElem({alpha: draw(st.integers(-3, -1) | st.integers(1, 3)) for alpha in chosen})


@settings(max_examples=200, deadline=None)
@given(dense_support())
def test_antipode_closed_matches_recursive_on_dense_supports(f):
    s = antipode_closed(f)
    assert s == antipode_recursive(f)
    assert antipode_closed(s) == f


def with_reversed_descents(n, masks):
    """The sum of the M_alpha of degree n with D(rev alpha) in masks."""
    return linear_combination((1, monomial(reverse(comp_of_subset(n, m)))) for m in masks)


def bits(lo, hi):
    return sum(1 << d for d in range(lo, hi + 1))


def test_antipode_of_a_spread_out_support_takes_the_maximal_masks():
    # D(rev alpha) = {40 - k}, 39 masks of one bit each: the OR cube would have 2^39 cells
    f = linear_combination((1, M(k, 40 - k)) for k in range(1, 40))
    start = time.perf_counter()
    s = antipode_closed(f)
    assert time.perf_counter() - start < 0.1
    assert s == antipode_recursive(f)


@pytest.mark.parametrize(
    "masks, tops",
    [
        # 2^6 cells over the OR against 6 * 2^1 over the masks: a cube per mask
        ([1 << d for d in (1, 3, 5, 7, 9, 11)], [1 << d for d in (1, 3, 5, 7, 9, 11)]),
        # 2^4 over the OR against 2^2 + 2^2 + 2^1: a cube per maximal mask
        ([bits(1, 2), bits(3, 4), 1 << 4], [bits(1, 2), bits(3, 4)]),
        # 2^3 over the OR against 2^2 + 2^2: one cube
        ([bits(1, 2), bits(2, 3)], [bits(1, 3)]),
        ([bits(1, 11), 1 << 4], [bits(1, 11)]),
    ],
)
def test_antipode_takes_the_or_cube_when_it_has_no_more_cells_than_the_masks(monkeypatch, masks, tops):
    f = with_reversed_descents(12, masks)
    expected = antipode_recursive(f)
    cubes = []
    monkeypatch.setattr(qsym, "cube", lambda n, low, top: cubes.append(top) or cube(n, low, top))
    assert antipode_closed(f) == expected
    assert sorted(cubes) == sorted(tops)


def test_antipode_falls_back_to_the_maximal_masks_when_the_or_cube_is_over_the_limit(monkeypatch):
    # the OR {1..7} has 128 cells, no more than 32 + 32 + 32 + 16 + 16, but over
    # the limit; the maximal masks {1..5}, {2..6}, {3..7} take 96 cells
    f = with_reversed_descents(10, [bits(1, 5), bits(2, 6), bits(3, 7), bits(1, 4), bits(2, 5)])
    expected = antipode_recursive(f)
    monkeypatch.setattr(qsym, "ENUM_LIMIT", 100)
    assert antipode_closed(f) == expected
    # the maximal masks {1..5}, ..., {4..8} take 128 cells: refused, as before the OR cube
    g = with_reversed_descents(10, [bits(1, 5), bits(2, 6), bits(3, 7), bits(4, 8)])
    with pytest.raises(BoundExceededError, match="^antipode in degree 10 needs over 100 cell words$"):
        antipode_closed(g)


def test_antipode_of_one_mask_per_degree_fills_its_cube_without_a_pass(monkeypatch):
    # one term per degree: every sub-mask of its mask sums to its value, so no
    # Yates cube is built; checked against the recursion for every alpha of n <= 8
    monkeypatch.setattr(qsym, "_antipode_cube", None)
    for n in range(9):
        for alpha in compositions_of(n):
            f = M(*alpha)
            assert antipode_closed(f) == antipode_recursive(f)
            assert antipode_closed(f.scale(-3)) == antipode_recursive(f).scale(-3)
    f = M(2, 1).scale(5) + M(1, 1, 1, 1).scale(-2) + M(3, 1, 2)
    assert antipode_closed(f) == antipode_recursive(f)


@st.composite
def homogeneous_masks(draw):
    """(n, {descent mask: c}) for a degree-n element as `gamma_masks` returns
    one, n <= 24, coefficients -3..3 but 0: each mask holds bit 0 and the cuts of
    its composition.  Up to 8 masks of up to 4 cuts each, so the supports run
    from one mask through dense ones to ones spread out over n."""
    n = draw(st.integers(0, 24))
    coeff = st.integers(-3, -1) | st.integers(1, 3)
    if n < 2:
        return n, {n: draw(coeff)}  # the mask of () is 0, that of (1) is 1
    cuts = st.sets(st.integers(1, n - 1), max_size=4)
    chosen = draw(st.lists(cuts, min_size=1, max_size=8))
    return n, {1 | sum(1 << cut for cut in each): draw(coeff) for each in chosen}


def test_antipode_of_drawn_masks_is_that_of_their_compositions_in_every_cover():
    # antipode_masks against antipode_closed on the same element's compositions,
    # under the limit and under a drawn one: the same terms, no zero, or the same
    # refusal.  The drawn elements must reach each cover: one mask (no Yates
    # pass), the OR cube (one pass) and the maximal masks (one pass each)
    reached = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(homogeneous_masks(), st.integers(1, 300))
    def check(degree_and_masks, limit):
        n, masks = degree_and_masks
        f = QSymElem({_parts(n, mask): c for mask, c in masks.items()})
        passes = []
        with pytest.MonkeyPatch.context() as mp:
            cube_pass = qsym._antipode_cube
            mp.setattr(qsym, "_antipode_cube", lambda *args: passes.append(args) or cube_pass(*args))
            s = antipode_masks(n, masks)
        reached.add(min(len(passes), 2))
        assert {_parts(n, mask): c for mask, c in s.items()} == antipode_closed(f).terms
        assert 0 not in s.values()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qsym, "ENUM_LIMIT", limit)
            outcomes = []
            for route in (lambda: antipode_masks(n, masks), lambda: antipode_closed(f)):
                try:
                    route()
                    outcomes.append("built")
                except BoundExceededError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    check()
    assert reached == {0, 1, 2}


def test_antipode_of_one_mask_is_refused_at_the_same_bound(monkeypatch):
    # D(rev alpha) = {1..6} has 64 cells and {1..7} 128; the limit is 100
    f = with_reversed_descents(10, [bits(1, 6)])
    expected = antipode_recursive(f)  # its products need over 100 quasi-shuffles
    monkeypatch.setattr(qsym, "ENUM_LIMIT", 100)
    assert antipode_closed(f) == expected
    with pytest.raises(BoundExceededError, match="^antipode in degree 10 needs over 100 cell words$"):
        antipode_closed(with_reversed_descents(10, [bits(1, 7)]))


def test_antipode_charges_each_degree_against_its_own_limit(monkeypatch):
    # degree 10 takes the OR cube {1..7}, 128 cells; the 20 one-bit masks of
    # degree 41 take a cube of 2 cells each, 40 in all: over 140 only if the
    # degrees shared one bound
    f = with_reversed_descents(10, [bits(1, 5), bits(2, 6), bits(3, 7), bits(1, 4), bits(2, 5)])
    f = f + with_reversed_descents(41, [1 << d for d in range(1, 40, 2)])
    monkeypatch.setattr(qsym, "ENUM_LIMIT", 140)
    s = antipode_closed(f)
    monkeypatch.undo()  # the recursive antipode's products need over 140 quasi-shuffles
    assert len(s.terms) == 73
    assert s == antipode_recursive(f)


@settings(max_examples=200, deadline=None)
@given(sparse_mixed_degree())
def test_format_coproduct_matches_pair_by_pair_text(f):
    assert format_coproduct(f) == coproduct_text_by_pairs(f)
    assert_table_is_deconcatenation(f)


def reference_qsym_text(terms):
    """The text of the sum of c M_alpha over terms, one str per part and per term."""
    text = ""
    for alpha in sorted(terms, key=sort_key):
        c = terms[alpha]
        body = ("" if abs(c) == 1 else f"{abs(c)}*") + "M(" + ",".join(str(p) for p in alpha) + ")"
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text or "0"


def reference_coproduct_text(f):
    """The lines M(beta) (x) right of the deconcatenations alpha = beta.gamma of f's terms."""
    rights = {}
    for alpha, c in f.terms.items():
        for k in range(len(alpha) + 1):
            rights.setdefault(alpha[:k], {})[alpha[k:]] = c
    return "\n".join(
        "M(" + ",".join(str(p) for p in beta) + ") (x) " + reference_qsym_text(rights[beta])
        for beta in sorted(rights, key=sort_key)
    )


@st.composite
def many_digit_parts(draw):
    """0-6 terms of 0-5 parts from 1 to 5000 (some from a small pool, so that
    parts repeat) with int or Fraction coefficients, +-1 among them; a term may
    be drawn twice with opposite coefficients, so that it cancels."""
    part = st.integers(1, 5000) | st.sampled_from([1, 9, 10, 99, 100, 4999, 5000])
    coeff = st.sampled_from([1, -1, Fraction(1), Fraction(-1)]) | st.integers(-20, 20) | st.fractions(-20, 20, max_denominator=12)
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        c = draw(coeff)
        alpha = Composition(draw(st.lists(part, max_size=5)))
        pairs.append((c, monomial(alpha)))
        if draw(st.booleans()):
            pairs.append((-c, monomial(alpha)))
    return linear_combination(pairs)


@settings(max_examples=200, deadline=None)
@given(many_digit_parts())
@example(M(10, 2).scale(-1) + M(5000, 10, 10).scale(Fraction(-7, 3)) + ONE.scale(12))
def test_format_matches_reference_renderer_on_many_digit_parts(f):
    assert format_qsym(f) == reference_qsym_text(f.terms)
    assert format_coproduct(f) == reference_coproduct_text(f)


@pytest.mark.parametrize("n", [5, 6])
def test_antipode_theorem_on_antichain_with_spread_weights(n):
    # weights 1, 2, 4, ...: the descent masks of Gamma spread over 2^n - 2
    # positions, too many for one cube over their union
    labels = "abcdef"[:n]
    d = build(labels, [], [], w=tuple(2**i for i in range(n)))
    assert antipode_theorem_check(d)
