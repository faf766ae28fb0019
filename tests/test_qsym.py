import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qsymdp.compositions import Composition, compositions_of, conjugate
from qsymdp.oracles import antipode_recursive, product_truncation_matches
from qsymdp.qsym import (
    ONE,
    QSymElem,
    ZERO,
    antipode_closed,
    binomial,
    coproduct,
    counit,
    format_qsym,
    fundamental,
    monomial,
    parse_qsym,
    product,
    ps1,
)

M = lambda *parts: monomial(Composition(parts))


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


def test_coproduct_splits():
    terms = coproduct(M(2, 3))
    table = {tuple(l.sorted_terms()[0][0]): r for l, r in terms}
    assert table[()] == M(2, 3)
    assert table[(2,)] == M(3)
    assert table[(2, 3)] == ONE
    assert len(terms) == 3


def test_coproduct_grouplike_unit():
    assert coproduct(ONE) == [(ONE, ONE)]


def test_counit_axiom():
    f = M(2, 1).scale(3) + M(1).scale(Fraction(1, 2)) + ONE.scale(5)
    recovered = ZERO
    for left, right in coproduct(f):
        recovered = recovered + right.scale(counit(left))
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
        acc = ZERO
        for left, right in coproduct(f):
            acc = acc + product(antipode_recursive(left), right)
        assert acc == ONE.scale(counit(f))


def test_bialgebra_compatibility():
    small = all_basis_upto(3)
    for a in small:
        for b in small:
            if sum(a) + sum(b) > 5:
                continue
            lhs = coproduct(product(monomial(a), monomial(b)))
            # componentwise product of the two coproducts
            table = {}
            for l1, r1 in coproduct(monomial(a)):
                for l2, r2 in coproduct(monomial(b)):
                    left = product(l1, l2)
                    right = product(r1, r2)
                    for x, cx in left.terms.items():
                        for y, cy in right.terms.items():
                            table[(x, y)] = table.get((x, y), Fraction(0)) + cx * cy
            lhs_table = {}
            for l, r in lhs:
                for x, cx in l.terms.items():
                    for y, cy in r.terms.items():
                        lhs_table[(x, y)] = lhs_table.get((x, y), Fraction(0)) + cx * cy
            assert {k: v for k, v in table.items() if v} == {
                k: v for k, v in lhs_table.items() if v
            }


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


def _ps1_by_substitution(f, q):
    # literal substitution x_1..x_q -> 1
    total = Fraction(0)
    for alpha, c in f.terms.items():
        count = 0
        for positions in itertools.combinations(range(q), len(alpha)):
            count += 1
        total += c * count
    return total


def test_ps1_examples():
    for q in range(6):
        assert ps1(M(2, 1), q) == Fraction(q * (q - 1), 2)
        assert ps1(M(2, 1), q) == _ps1_by_substitution(M(2, 1), q)
    assert ps1(ONE, 7) == 1
    assert ps1(fundamental(Composition([1, 1])), 3) == 3


def test_binomial_negative_argument():
    assert binomial(-2, 2) == 3
    assert binomial(-1, 3) == -1
    assert binomial(4, 2) == 6


def test_format_and_parse_round_trip():
    f = M(2).scale(-1) + M(1, 1).scale(Fraction(3, 2)) + ONE.scale(2)
    assert parse_qsym(format_qsym(f)) == f
    assert format_qsym(ZERO) == "0"
    assert parse_qsym("0") == ZERO


@given(
    st.dictionaries(
        st.lists(st.integers(min_value=1, max_value=4), max_size=3).map(
            lambda p: Composition(p)
        ),
        st.fractions(min_value=-5, max_value=5),
        max_size=4,
    )
)
def test_parse_format_round_trip_random(terms):
    f = QSymElem(terms)
    assert parse_qsym(format_qsym(f)) == f


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), max_size=2).map(Composition),
    st.lists(st.integers(min_value=1, max_value=3), max_size=2).map(Composition),
)
def test_product_commutes_random(a, b):
    assert product(monomial(a), monomial(b)) == product(monomial(b), monomial(a))
