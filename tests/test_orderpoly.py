from fractions import Fraction

import pytest

from qsymdp.equivariant import build_action
from qsymdp.gamma import NotTertispecialError, WeightedDoublePoset
from qsymdp.oracles import count_coeven_orbits_bruteforce, count_orbits_bruteforce
from qsymdp.orderpoly import OrderPolynomial, order_polynomial, reciprocity_check
from qsymdp.poset import build


def antichain(n):
    labs = [chr(ord("a") + i) for i in range(n)]
    return WeightedDoublePoset(poset=build(labs, [], []), w={})


def chain(n):
    labs = [chr(ord("a") + i) for i in range(n)]
    gens = list(zip(labs, labs[1:]))
    return WeightedDoublePoset(poset=build(labs, gens, gens), w={})


def trivial_action(base):
    return build_action(base, [])


def swap_action(base):
    labs = list(base.poset.elements)
    gen = {labs[0]: labs[1], labs[1]: labs[0]}
    gen.update({e: e for e in labs[2:]})
    return build_action(base, [gen])


def test_order_polynomial_chain():
    # weak 2-chain counts pairs 1 <= i <= j <= q: C(q,1) + C(q,2)
    omega = order_polynomial(trivial_action(chain(2)))
    assert omega.binom_coeffs == (Fraction(0), Fraction(1), Fraction(1))
    assert [omega(q) for q in range(5)] == [0, 1, 3, 6, 10]
    assert omega.power_coeffs() == (Fraction(0), Fraction(1, 2), Fraction(1, 2))


def test_order_polynomial_antichain():
    omega = order_polynomial(trivial_action(antichain(2)))
    assert [omega(q) for q in range(4)] == [0, 1, 4, 9]


def test_order_polynomial_ignores_weights():
    base = WeightedDoublePoset(poset=build("ab", [], []), w={"a": 2, "b": 2})
    omega = order_polynomial(trivial_action(base))
    assert omega(3) == 9


def test_order_polynomial_matches_bruteforce():
    actions = [
        trivial_action(chain(2)),
        trivial_action(chain(3)),
        trivial_action(antichain(3)),
        swap_action(antichain(2)),
        swap_action(antichain(3)),
    ]
    for a in actions:
        omega = order_polynomial(a)
        for q in range(5):
            assert omega(q) == count_orbits_bruteforce(a, q)


def test_coeven_counts_swap():
    # swapped 2-antichain: diagonal partitions are fixed by the odd swap
    a = swap_action(antichain(2))
    assert count_orbits_bruteforce(a, 2) == 3
    assert count_coeven_orbits_bruteforce(a, 2) == 1


def test_reciprocity_chain_and_antichain():
    for base in (chain(2), chain(3), antichain(2), antichain(3)):
        a = trivial_action(base)
        for q in range(1, 5):
            assert reciprocity_check(a, q)


def test_reciprocity_with_group():
    for a in (swap_action(antichain(2)), swap_action(antichain(3))):
        for q in range(1, 4):
            assert reciprocity_check(a, q)


def test_reciprocity_strict_weak_pairing():
    # classic check: weak 2-chain at -q counts strict labelings, with sign
    omega = order_polynomial(trivial_action(chain(2)))
    for q in range(1, 5):
        strict_count = q * (q - 1) // 2
        assert omega(-q) == strict_count


def test_reciprocity_requires_tertispecial():
    base = WeightedDoublePoset(poset=build("ab", [("a", "b")], []), w={})
    with pytest.raises(NotTertispecialError):
        reciprocity_check(trivial_action(base), 2)


def test_order_polynomial_negative_evaluation_exact():
    omega = OrderPolynomial(binom_coeffs=(Fraction(0), Fraction(1), Fraction(1)))
    assert omega(-1) == 0
    assert omega(-2) == 1
    assert omega(Fraction(1, 2)) == Fraction(3, 8)
