"""Equivariant order polynomials and combinatorial reciprocity."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

from .equivariant import GroupAction, opposite1_action, orbit_sum
from .gamma import NotTertispecialError
# The brute-force counts live in oracles; both names stay bound here because
# perfbench/checks.py imports them from qsymdp.orderpoly.
from .oracles import count_coeven_orbits_bruteforce, count_orbits_bruteforce
from .poset import DoublePoset, is_tertispecial


def binomial(q: int, k: int) -> int:
    """Generalized binomial C(q, k) = q(q-1)...(q-k+1)/k! for any integer q,
    negative ones included: the falling product of k consecutive integers is
    divisible by k!, so one floor division is exact."""
    falling = 1
    for i in range(k):
        falling *= q - i
    return falling // math.factorial(k)


class OrderPolynomial:
    """A polynomial stored in the binomial basis: sum of c_k * C(q, k), c_k ints."""

    __slots__ = ("binom_coeffs",)

    def __init__(self, binom_coeffs: Tuple[int, ...]):
        self.binom_coeffs = binom_coeffs

    def __call__(self, q: int) -> int:
        return sum(c * binomial(q, k) for k, c in enumerate(self.binom_coeffs))

    def power_coeffs(self) -> Tuple[Fraction, ...]:
        """Coefficients in the power basis, constant term first: with n the
        top degree, n! C(q, k) = (n!/k!) q(q-1)...(q-k+1), so the sum is taken
        in ints and each coefficient divided by n! once."""
        n = max(len(self.binom_coeffs) - 1, 0)
        whole, out = math.factorial(n), [0] * (n + 1)
        falling = [1]  # q(q-1)...(q-k+1) in the power basis
        for k, c in enumerate(self.binom_coeffs):
            if k:
                falling = [lo - (k - 1) * hi for lo, hi in zip([0, *falling], [*falling, 0])]
            scale = c * (whole // math.factorial(k))
            for j, p in enumerate(falling):
                out[j] += scale * p
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(Fraction(c, whole) for c in out)


def order_polynomial(a: GroupAction) -> OrderPolynomial:
    """Omega(q) = number of G-orbits of E-partitions into [q]: the principal
    specialization (x_1 = ... = x_q = 1, the rest 0) of the equivariant
    generating function with w identically 1, which sends M_alpha to
    C(q, len(alpha)), so c_k sums the coefficients of the alpha with k parts:
    those of the descent masks of popcount k in the orbit sum."""
    b = a.base
    _, masks = orbit_sum(DoublePoset(b.elements, b.lt1, b.lt2), a.order, a.classes)
    coeffs = [0] * (b.size + 1)
    for mask, c in masks.items():
        coeffs[mask.bit_count()] += c
    return OrderPolynomial(binom_coeffs=tuple(coeffs))


def reciprocity_check(a: GroupAction, q: int) -> bool:
    """True iff Omega(-q) = (-1)^|E| * (number of E-coeven G-orbits of
    E-partitions of (E, >1, <2) into [q])."""
    if not is_tertispecial(a.base):
        raise NotTertispecialError("reciprocity requires a tertispecial base poset")
    omega = order_polynomial(a)
    flipped = opposite1_action(a)
    rhs = (-1) ** a.base.size * count_coeven_orbits_bruteforce(flipped, q)
    return omega(-q) == rhs
