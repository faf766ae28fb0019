"""Equivariant order polynomials and combinatorial reciprocity."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .equivariant import GroupAction, gamma_equivariant, opposite1_action, sign_of
from .gamma import NotTertispecialError, WeightedDoublePoset
from .oracles import epartitions_into
from .poset import is_tertispecial
from .qsym import ENUM_LIMIT, BoundExceededError, binomial


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
    return GroupAction(base=base, elements=a.elements)


def order_polynomial(a: GroupAction) -> OrderPolynomial:
    """Omega(q) = number of G-orbits of E-partitions into [q], via ps1 of the
    equivariant generating function with w identically 1."""
    g = gamma_equivariant(_all_ones_action(a))
    n = a.base.poset.size
    coeffs = [Fraction(0)] * (n + 1)
    for alpha, c in g.terms.items():
        coeffs[len(alpha)] += c
    return OrderPolynomial(binom_coeffs=tuple(coeffs))


def _act(g, values: Tuple[int, ...]) -> Tuple[int, ...]:
    """Action on maps as value vectors over declaration index: (g pi)(e) = pi(g^{-1} e)."""
    out = [0] * len(g)
    for i, v in zip(g, values):
        out[i] = v
    return tuple(out)


def _orbit_decomposition(a: GroupAction, partitions: List[Dict[str, int]]):
    """Split E-partitions into G-orbits; each orbit is a list of maps."""
    vectors = [tuple(pi[e] for e in a.base.poset.elements) for pi in partitions]
    index = {v: i for i, v in enumerate(vectors)}
    seen = [False] * len(partitions)
    orbits = []
    for i, v in enumerate(vectors):
        if seen[i]:
            continue
        orbit = []
        for g in a.elements:
            j = index[_act(g, v)]
            if not seen[j]:
                seen[j] = True
                orbit.append(partitions[j])
        orbits.append(orbit)
    return orbits


def enumerate_partitions(a: GroupAction, q: int) -> List[Dict[str, int]]:
    """All E-partitions of the base poset with values in {1,...,q}, from the
    brute-force oracle after a check of the number of maps it would try."""
    n = a.base.poset.size
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q ** n > ENUM_LIMIT:
        raise BoundExceededError(f"{q}^{n} assignments exceed limit {ENUM_LIMIT}")
    return epartitions_into(a.base, q)


def count_orbits_bruteforce(a: GroupAction, q: int) -> int:
    """Number of G-orbits of E-partitions into [q], by direct enumeration."""
    return len(_orbit_decomposition(a, enumerate_partitions(a, q)))


def _is_coeven(a: GroupAction, pi: Dict[str, int]) -> bool:
    v = tuple(pi[e] for e in a.base.poset.elements)
    return not any(sign_of(g) < 0 and _act(g, v) == v for g in a.elements)


def count_coeven_orbits_bruteforce(a: GroupAction, q: int) -> int:
    """Number of E-coeven G-orbits of E-partitions into [q]."""
    orbits = _orbit_decomposition(a, enumerate_partitions(a, q))
    return sum(1 for orbit in orbits if _is_coeven(a, orbit[0]))


def reciprocity_check(a: GroupAction, q: int) -> bool:
    """True iff Omega(-q) = (-1)^|E| * (number of E-coeven G-orbits of
    E-partitions of (E, >1, <2) into [q])."""
    if not is_tertispecial(a.base.poset):
        raise NotTertispecialError("reciprocity requires a tertispecial base poset")
    omega = order_polynomial(a)
    flipped = opposite1_action(a)
    rhs = (-1) ** a.base.poset.size * count_coeven_orbits_bruteforce(flipped, q)
    return omega(-q) == rhs
