"""Brute-force reference computations, used by the self-test harness, the
tests, and the orbit counts on the right-hand side of reciprocity.

The truncation references go through the raw definitions (all maps E -> [m],
polynomials in m variables), never through the down-set chain sum or the
quasi-shuffle, so that agreement is a genuine two-route check.  The recursive
antipode solves m(S x id)Delta = u eps, independently of the closed form.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .compositions import Composition
from .gamma import WeightedDoublePoset, epartition_test
from .qsym import ONE, ZERO, QSymElem, _apply_linear, monomial, product

Poly = Dict[Tuple[int, ...], Fraction]


def _expand(f: QSymElem, m: int) -> Poly:
    """Expand f as a polynomial in x_1..x_m; keys are exponent vectors."""
    poly: Poly = {}
    for alpha, c in f.terms.items():
        for positions in itertools.combinations(range(m), len(alpha)):
            exps = [0] * m
            for pos, part in zip(positions, alpha):
                exps[pos] = part
            key = tuple(exps)
            poly[key] = poly.get(key, Fraction(0)) + c
    return poly


def product_truncation_matches(f: QSymElem, g: QSymElem, m: int) -> bool:
    """True iff product(f, g) in m variables equals the polynomial product of
    f and g in m variables (exact when m >= deg f + deg g)."""
    poly: Poly = {}
    pg = _expand(g, m)
    for ea, ca in _expand(f, m).items():
        for eb, cb in pg.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            poly[key] = poly.get(key, Fraction(0)) + ca * cb
    return _expand(product(f, g), m) == {k: c for k, c in poly.items() if c}


@lru_cache(maxsize=None)
def _antipode_recursive_basis(alpha: Composition) -> QSymElem:
    if len(alpha) == 0:
        return ONE
    acc = ZERO
    for k in range(len(alpha)):
        acc = acc + product(
            _antipode_recursive_basis(Composition(alpha[:k])),
            monomial(Composition(alpha[k:])),
        )
    return -acc


def antipode_recursive(f: QSymElem) -> QSymElem:
    """Antipode computed degree-by-degree from m(S x id)Delta = u eps."""
    return _apply_linear(_antipode_recursive_basis, f)


def epartitions_into(d: WeightedDoublePoset, m: int) -> List[Dict[str, int]]:
    """All E-partitions with values in {1,...,m}, by filtering all maps."""
    elems = d.poset.elements
    holds = epartition_test(d.poset, d.poset.lt1)
    return [
        dict(zip(elems, values))
        for values in itertools.product(range(1, m + 1), repeat=len(elems))
        if holds(values)
    ]


def gamma_truncated_bruteforce(d: WeightedDoublePoset, m: int) -> Poly:
    """The truncation of Gamma(E, w) to m variables, summed map by map."""
    poly: Poly = {}
    for pi in epartitions_into(d, m):
        exps = [0] * m
        for e, i in pi.items():
            exps[i - 1] += d.w[e]
        key = tuple(exps)
        poly[key] = poly.get(key, Fraction(0)) + 1
    return poly


def gamma_truncation_matches(d: WeightedDoublePoset, f: QSymElem, m: int) -> bool:
    """True iff f, expanded in m variables, equals the brute-force truncation."""
    return _expand(f, m) == gamma_truncated_bruteforce(d, m)
