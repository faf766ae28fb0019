"""Brute-force reference computations, used by the self-test harness, the
tests, and the orbit counts on the right-hand side of reciprocity.

The truncation references go through the raw definitions (all maps E -> [m],
polynomials in m variables), never through the down-set chain sum or the
quasi-shuffle, so that agreement is a genuine two-route check.  The recursive
antipode solves m(S x id)Delta = u eps, independently of the closed form.  The
fundamental expansion of Gamma over linear extensions is a third route, for
special double posets, that shares no code with the other two.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .compositions import Composition
from .gamma import WeightedDoublePoset, epartition_test
from .poset import is_special
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


def gamma_linear_extensions(d: WeightedDoublePoset) -> QSymElem:
    """Gamma(E, w) of a special double poset (<2 total) by the fundamental
    expansion (Stanley's P-partition lemma; Gessel 1984): the E-partitions are
    the maps that weakly increase along a linear extension L of <1, strictly at
    its descents i, where L_i+1 <2 L_i.  Each L gives one M_alpha per cut set
    containing its descents, alpha the weights of L's blocks between the cuts
    (with unit weights, F_Des(L)).  L grows by removing <1-minimal elements.
    """
    p = d.poset
    if not is_special(p):
        raise ValueError("the linear-extension expansion needs <2 to be total")
    n, w = p.size, [d.w[e] for e in p.elements]
    below = [sum(1 << i for i in range(n) if p.lt1[i] >> j & 1) for j in range(n)]
    runs: Dict[tuple, int] = {}  # (weights along L, descents of L) -> number of such L
    stack = [((), (), -1, (1 << n) - 1)]  # (weights, descents, last element, elements left)
    while stack:
        weights, descents, last, left = stack.pop()
        if not left:
            runs[weights, descents] = runs.get((weights, descents), 0) + 1
        for j in range(n):
            if left >> j & 1 and not below[j] & left:
                at = len(weights)
                des = descents + (at,) if at and p.lt2[j] >> last & 1 else descents
                stack.append((weights + (w[j],), des, j, left & ~(1 << j)))
    terms: Dict[Tuple[int, ...], int] = {}
    for (weights, descents), count in runs.items():
        sums = list(itertools.accumulate(weights, initial=0))
        free = [i for i in range(1, n) if i not in descents]
        for k in range(len(free) + 1):
            for extra in itertools.combinations(free, k):  # the cut sets containing the descents
                cuts = [0, *sorted(descents + extra), n]
                alpha = tuple(sums[b] - sums[a] for a, b in zip(cuts, cuts[1:]) if a < b)  # E = {}: ()
                terms[alpha] = terms.get(alpha, 0) + count
    return QSymElem(terms)
