"""Equivariant order polynomials and combinatorial reciprocity."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .equivariant import GroupAction, gamma_equivariant, opposite1_action
from .gamma import NotTertispecialError, WeightedDoublePoset
# The brute-force counts live in oracles; both names stay bound here because
# perfbench/checks.py imports them from qsymdp.orderpoly.
from .oracles import count_coeven_orbits_bruteforce, count_orbits_bruteforce
from .poset import is_tertispecial
from .qsym import binomial


@dataclass(frozen=True)
class OrderPolynomial:
    """A polynomial stored in the binomial basis: sum of c_k * C(q, k)."""

    binom_coeffs: Tuple[Fraction, ...]

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
    base = WeightedDoublePoset(poset=a.base.poset, w={})
    return GroupAction(base=base, elements=a.elements, classes=a.classes)


def order_polynomial(a: GroupAction) -> OrderPolynomial:
    """Omega(q) = number of G-orbits of E-partitions into [q], via ps1 of the
    equivariant generating function with w identically 1.

    The count holds on a tertispecial base only.  Elsewhere a quotient E^g can
    order two orbits strictly where no pair of members is ordered: on
    E = {a, b, c, d} with b <1 c, d <1 a, a <2 b, c <2 d under (a c)(b d),
    Omega(1) = 1/2 against 1 orbit, and Omega(2) = 5 against 6 orbits."""
    g = gamma_equivariant(_all_ones_action(a))
    n = a.base.poset.size
    coeffs = [Fraction(0)] * (n + 1)
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
