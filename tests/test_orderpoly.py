import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsymdp.equivariant import build_action, opposite1_action
from qsymdp.gamma import NotTertispecialError, gamma
from qsymdp.oracles import count_coeven_orbits_bruteforce, count_orbits_bruteforce
from qsymdp.orderpoly import OrderPolynomial, binomial, order_polynomial, reciprocity_check
from qsymdp.poset import all_double_posets, build

from conftest import (
    antichain,
    chain,
    isomorphism_class_representatives,
    orbit_counts_by_elements,
    subgroup_generators,
)


def trivial_action(base):
    return build_action(base, [])


def swap_action(base):
    labs = list(base.elements)
    gen = {labs[0]: labs[1], labs[1]: labs[0]}
    gen.update({e: e for e in labs[2:]})
    return build_action(base, [gen])


def test_order_polynomial_chain():
    # weak 2-chain counts pairs 1 <= i <= j <= q: C(q,1) + C(q,2)
    omega = order_polynomial(trivial_action(chain(2)))
    assert omega.binom_coeffs == (Fraction(0), Fraction(1), Fraction(1))
    assert all(type(c) is int for c in omega.binom_coeffs)
    assert [omega(q) for q in range(5)] == [0, 1, 3, 6, 10]
    assert omega.power_coeffs() == (Fraction(0), Fraction(1, 2), Fraction(1, 2))


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
    """order_polynomial is the principal specialization ps1 (x_1..x_q -> 1) of
    Gamma with w identically 1, which sends M_alpha to C(q, len(alpha))."""
    strict = chain(2, strict=True)  # Gamma = M(1,1) = F(1,1); its ps1 is that of M(2,1)
    omega = order_polynomial(trivial_action(strict))
    for q in range(6):
        assert omega(q) == Fraction(q * (q - 1), 2)
        assert omega(q) == _ps1_by_substitution(gamma(strict), q)
    assert order_polynomial(trivial_action(antichain(0)))(7) == 1  # Gamma = ONE
    assert omega(3) == 3
    for base in all_double_posets(3):
        omega = order_polynomial(trivial_action(base))
        assert all(omega(q) == _ps1_by_substitution(gamma(base), q) for q in range(4))


def test_binomial_negative_argument():
    assert binomial(-2, 2) == 3
    assert binomial(-1, 3) == -1
    assert binomial(4, 2) == 6


def test_binomial_matches_comb():
    # C(q, k) = comb(q, k) for q >= 0, and (-1)^k comb(k - q - 1, k) for q < 0
    for q in range(-8, 9):
        for k in range(9):
            want = math.comb(q, k) if q >= 0 else (-1) ** k * math.comb(k - q - 1, k)
            value = binomial(q, k)
            assert type(value) is int and value == want, (q, k)


def power_coeffs_by_recursion(binom_coeffs):
    """The power-basis coefficients by C(q, k) = C(q, k-1) (q - k + 1) / k, in Fractions."""
    out = [Fraction(0)] * (len(binom_coeffs) or 1)
    basis = [Fraction(1)]  # C(q, k) in the power basis
    for k, c in enumerate(binom_coeffs):
        if k:
            basis = [(lo - (k - 1) * hi) / k for lo, hi in zip([0, *basis], [*basis, 0])]
        for j, p in enumerate(basis):
            out[j] += c * p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


@settings(max_examples=200, deadline=None)
@example(binom_coeffs=())
@example(binom_coeffs=(0,))
@given(binom_coeffs=st.lists(st.integers(-5, 5), max_size=10).map(tuple))
def test_power_coeffs_match_the_fraction_recursion(binom_coeffs):
    power = OrderPolynomial(binom_coeffs).power_coeffs()
    assert power == power_coeffs_by_recursion(binom_coeffs)
    assert all(type(c) is Fraction for c in power)


def test_order_polynomial_antichain():
    omega = order_polynomial(trivial_action(antichain(2)))
    assert [omega(q) for q in range(4)] == [0, 1, 4, 9]


def test_order_polynomial_ignores_weights():
    base = build("ab", [], [], w=(2, 2))
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
    base = build("ab", [("a", "b")], [])
    with pytest.raises(NotTertispecialError):
        reciprocity_check(trivial_action(base), 2)


def test_order_polynomial_negative_evaluation_exact():
    # C(q, 1) + C(q, 2) = q(q + 1)/2, summed in ints at every integer q
    omega = OrderPolynomial(binom_coeffs=(0, 1, 1))
    assert omega(-1) == 0
    assert omega(-2) == 1
    for q in range(-8, 9):
        assert type(omega(q)) is int and omega(q) == q * (q + 1) // 2


def walk_counts(a, q):
    return count_orbits_bruteforce(a, q), count_coeven_orbits_bruteforce(a, q)


@pytest.mark.parametrize("n", [0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_orbit_walk_matches_the_element_by_element_counts(n):
    # every (isomorphism class, subgroup of Aut) pair, on (E, <1, <2) and (E, >1, <2)
    for base in isomorphism_class_representatives(n):
        for gens in subgroup_generators(base):
            a = build_action(base, gens)
            for action in (a, opposite1_action(a)):
                for q in range(4):
                    assert walk_counts(action, q) == orbit_counts_by_elements(action, q), (p, gens, q)


def test_orbit_walk_under_the_symmetric_group_on_6():
    labs = "abcdef"
    swap = {"a": "b", "b": "a", **{e: e for e in labs[2:]}}
    cycle = {e: labs[(i + 1) % 6] for i, e in enumerate(labs)}
    a = build_action(antichain(6), [swap, cycle])
    assert a.order == 720 and len(a.generators) == 2
    for q in range(5):
        # orbits: the multisets of 6 values in [q]; coeven: the sets
        expected = (math.comb(q + 5, 6), math.comb(q, 6))
        assert walk_counts(a, q) == orbit_counts_by_elements(a, q) == expected


def test_orbit_walk_under_the_trivial_group():
    for base in (chain(3), chain(3, strict=True), antichain(3)):
        a = build_action(base, [])
        assert a.generators == ()
        for q in range(4):
            assert walk_counts(a, q) == orbit_counts_by_elements(a, q)
            assert walk_counts(a, q)[0] == walk_counts(a, q)[1]


def test_orbit_walk_with_the_identity_and_repeated_generators():
    labs = "abc"
    identity = {e: e for e in labs}
    swap = {"a": "b", "b": "a", "c": "c"}
    cycle = {"a": "b", "b": "c", "c": "a"}
    for gens in ([identity], [identity, swap], [swap, swap], [cycle, identity, cycle], [swap, cycle, swap, identity]):
        a = build_action(antichain(3), gens)
        assert len(a.generators) == len(gens)  # kept as given, identities and repeats too
        for q in range(5):
            assert walk_counts(a, q) == orbit_counts_by_elements(a, q), (gens, q)
