"""Equivariant order polynomials and combinatorial reciprocity."""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .equivariant import GroupAction, gamma_equivariant, opposite1_action
from .gamma import NotTertispecialError, WeightedDoublePoset
# The brute-force counts live in oracles; both names stay bound here because
# perfbench/checks.py imports them from qsymdp.orderpoly.
from .oracles import count_coeven_orbits_bruteforce, count_orbits_bruteforce
from .poset import is_tertispecial


def binomial(q, k: int) -> Fraction:
    """Generalized binomial C(q, k) = q(q-1)...(q-k+1)/k!, valid for negative q."""
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(q) - i
    den = 1
    for i in range(1, k + 1):
        den *= i
    return num / den


class OrderPolynomial:
    """A polynomial stored in the binomial basis: sum of c_k * C(q, k), c_k ints."""

    __slots__ = ("binom_coeffs",)

    def __init__(self, binom_coeffs: Tuple[int, ...]):
        self.binom_coeffs = binom_coeffs

    def __call__(self, q) -> Fraction:
        return sum(
            (c * binomial(q, k) for k, c in enumerate(self.binom_coeffs)),
            Fraction(0),
        )

    def power_coeffs(self) -> Tuple[Fraction, ...]:
        """Coefficients in the power basis, constant term first."""
        out = [Fraction(0)] * (len(self.binom_coeffs) or 1)
        basis = [Fraction(1)]  # C(q, k) in the power basis
        for k, c in enumerate(self.binom_coeffs):
            if k:  # C(q, k) = C(q, k-1) (q - k + 1) / k
                basis = [(lo - (k - 1) * hi) / k for lo, hi in zip([0, *basis], [*basis, 0])]
            for j, p in enumerate(basis):
                out[j] += c * p
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)


def _all_ones_action(a: GroupAction) -> GroupAction:
    return a.with_base(WeightedDoublePoset(poset=a.base.poset, w={}))


def order_polynomial(a: GroupAction) -> OrderPolynomial:
    """Omega(q) = number of G-orbits of E-partitions into [q]: the principal
    specialization (x_1 = ... = x_q = 1, the rest 0) of the equivariant
    generating function with w identically 1, which sends M_alpha to
    C(q, len(alpha)), so c_k sums the coefficients of the alpha with k parts."""
    g = gamma_equivariant(_all_ones_action(a))
    n = a.base.poset.size
    coeffs = [0] * (n + 1)
    for alpha, c in g.terms.items():
        coeffs[len(alpha)] += c
    return OrderPolynomial(binom_coeffs=tuple(coeffs))


def reciprocity_check(a: GroupAction, q: int) -> bool:
    """True iff Omega(-q) = (-1)^|E| * (number of E-coeven G-orbits of
    E-partitions of (E, >1, <2) into [q])."""
    if not is_tertispecial(a.base.poset):
        raise NotTertispecialError("reciprocity requires a tertispecial base poset")
    omega = order_polynomial(a)
    flipped = opposite1_action(a)
    rhs = (-1) ** a.base.poset.size * count_coeven_orbits_bruteforce(flipped, q)
    return omega(-q) == rhs
