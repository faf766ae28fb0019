"""Brute-force reference computations, used by the self-test harness, the
tests, and the orbit counts on the right-hand side of reciprocity.  No other
module enumerates all maps E -> [m] or counts orbits map by map.

The truncation references go through the raw definitions (all maps E -> [m],
polynomials in m variables), never through the down-set chain sum or the
quasi-shuffle, so that agreement is a genuine two-route check.  The
E-partition test of a map and the semistandard-tableau test of a filling are
the definitions the fast routes are gated against; `_epartition_vectors`, the
one enumeration of all maps, refuses more than ENUM_LIMIT of them, and
`epartitions_into` gives its E-partitions as maps from the labels.  The G-orbits
(and E-coeven G-orbits) of E-partitions into [q] are counted by splitting that
enumeration into orbits, for the order polynomial and reciprocity.  The
recursive antipode solves m(S x id)Delta = u eps, independently of the closed
form.  The fundamental expansion of Gamma over linear extensions is a third
route, for special double posets, that shares no code with the other two.
The orbit sums are also summed element by element, in Fractions, as the paper
defines them, against the class sums of the equivariant module; the
automorphisms of a weighted double poset are found among all n! permutations.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .compositions import Composition
from .equivariant import GroupAction, Permutation, quotient_by, sign_of
from .gamma import NotTertispecialError, WeightedDoublePoset, gamma
from .poset import DoublePoset, Rel, index_pairs, is_special, is_tertispecial
from .qsym import ENUM_LIMIT, ONE, ZERO, BoundExceededError, Coeff, QSymElem, linear_combination, monomial, product
from .young import Cell, SkewShape

Poly = Dict[Tuple[int, ...], Coeff]


def _expand(f: QSymElem, m: int) -> Poly:
    """Expand f as a polynomial in x_1..x_m; keys are exponent vectors."""
    poly: Poly = {}
    for alpha, c in f.terms.items():
        for positions in itertools.combinations(range(m), len(alpha)):
            exps = [0] * m
            for pos, part in zip(positions, alpha):
                exps[pos] = part
            key = tuple(exps)
            poly[key] = poly.get(key, 0) + c
    return poly


def product_truncation_matches(f: QSymElem, g: QSymElem, m: int) -> bool:
    """True iff product(f, g) in m variables equals the polynomial product of
    f and g in m variables (exact when m >= deg f + deg g)."""
    poly: Poly = {}
    pg = _expand(g, m)
    for ea, ca in _expand(f, m).items():
        for eb, cb in pg.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            poly[key] = poly.get(key, 0) + ca * cb
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
    return linear_combination((c, _antipode_recursive_basis(alpha)) for alpha, c in f.terms.items())


def epartition_test(p: DoublePoset, rel: Rel) -> Callable[[Sequence[int]], bool]:
    """The test of a vector of values over declaration index: it weakly
    increases along each pair i < j of rel, strictly when j <2 i."""
    checks = [(i, j, p.lt2[j] >> i & 1) for i, j in index_pairs(rel)]

    def holds(values: Sequence[int]) -> bool:
        for i, j, strict in checks:
            if values[i] + strict > values[j]:
                return False
        return True

    return holds


def _is_epartition_on(d: WeightedDoublePoset, rel: Rel, pi: Mapping[str, int]) -> bool:
    elements = d.poset.elements
    if set(pi) != set(elements):
        raise ValueError("partition map must be total on the ground set")
    return epartition_test(d.poset, rel)([pi[e] for e in elements])


def is_epartition(d: WeightedDoublePoset, pi: Mapping[str, int]) -> bool:
    """Weakly increasing along <1, strictly when the <2-reversal triggers."""
    return _is_epartition_on(d, d.poset.lt1, pi)


def is_epartition_covers(d: WeightedDoublePoset, pi: Mapping[str, int]) -> bool:
    """Cover-based E-partition test; valid only for tertispecial posets."""
    p = d.poset
    if not is_tertispecial(p):
        raise NotTertispecialError("cover-based test requires a tertispecial poset")
    return _is_epartition_on(d, p.covers(p.lt1), pi)


def is_ssyt(shape: SkewShape, filling: Mapping[Cell, int]) -> bool:
    """Rows weakly increase left to right; columns strictly increase downward."""
    cells = set(shape.cells)
    if set(filling) != cells:
        raise ValueError("filling must be total on the cells")
    for (i, j) in cells:
        if (i, j + 1) in cells and not filling[(i, j)] <= filling[(i, j + 1)]:
            return False
        if (i + 1, j) in cells and not filling[(i, j)] < filling[(i + 1, j)]:
            return False
    return True


def _epartition_vectors(d: WeightedDoublePoset, m: int) -> List[Tuple[int, ...]]:
    """All E-partitions with values in {1,...,m}, as value vectors over the
    declaration index, by filtering all maps, after a check of the number of
    maps it would try."""
    n = d.poset.size
    if m < 0:
        raise ValueError("q must be nonnegative")
    if m ** n > ENUM_LIMIT:
        raise BoundExceededError(f"{m}^{n} assignments exceed limit {ENUM_LIMIT}")
    holds = epartition_test(d.poset, d.poset.lt1)
    return [values for values in itertools.product(range(1, m + 1), repeat=n) if holds(values)]


def epartitions_into(d: WeightedDoublePoset, m: int) -> List[Dict[str, int]]:
    """All E-partitions with values in {1,...,m}, as maps from the labels."""
    return [dict(zip(d.poset.elements, values)) for values in _epartition_vectors(d, m)]


def gamma_truncated_bruteforce(d: WeightedDoublePoset, m: int) -> Poly:
    """The truncation of Gamma(E, w) to m variables, summed map by map."""
    w = [d.w[e] for e in d.poset.elements]
    poly: Poly = {}
    for values in _epartition_vectors(d, m):
        exps = [0] * m
        for weight, i in zip(w, values):
            exps[i - 1] += weight
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + 1
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


def orbit_sum_by_elements(a: GroupAction, plus: bool = False) -> QSymElem:
    """Gamma(E, w, G), or Gamma+(E, w, G) if ``plus``: (1/|G|) sum over every
    g in G of Gamma(E^g, w^g), each term times sign(g) if ``plus``."""
    terms = [(sign_of(g) if plus else 1, gamma(quotient_by(g, a.base))) for g in a.elements]
    return linear_combination(terms).scale(Fraction(1, a.order))


def _act(g, values: Tuple[int, ...]) -> Tuple[int, ...]:
    """Action on maps as value vectors over declaration index: (g pi)(e) = pi(g^{-1} e)."""
    out = [0] * len(g)
    for i, v in zip(g, values):
        out[i] = v
    return tuple(out)


def _orbit_decomposition(a: GroupAction, vectors: List[Tuple[int, ...]]) -> List[List[Tuple[int, ...]]]:
    """Split E-partitions, as value vectors, into G-orbits; each orbit is a list of vectors."""
    index = {v: i for i, v in enumerate(vectors)}
    seen = [False] * len(vectors)
    orbits = []
    for i, v in enumerate(vectors):
        if seen[i]:
            continue
        orbit = []
        for g in a.elements:
            j = index[_act(g, v)]
            if not seen[j]:
                seen[j] = True
                orbit.append(vectors[j])
        orbits.append(orbit)
    return orbits


def count_orbits_bruteforce(a: GroupAction, q: int) -> int:
    """Number of G-orbits of E-partitions into [q], by direct enumeration."""
    return len(_orbit_decomposition(a, _epartition_vectors(a.base, q)))


def _is_coeven(v: Tuple[int, ...], odd: List[Permutation]) -> bool:
    """True iff no odd permutation of G, from ``odd``, fixes the value vector v."""
    return not any(_act(g, v) == v for g in odd)


def count_coeven_orbits_bruteforce(a: GroupAction, q: int) -> int:
    """Number of E-coeven G-orbits of E-partitions into [q]."""
    orbits = _orbit_decomposition(a, _epartition_vectors(a.base, q))
    odd = [g for g in a.elements if sign_of(g) < 0]
    return sum(1 for orbit in orbits if _is_coeven(orbit[0], odd))


def automorphisms(d: WeightedDoublePoset) -> List[Permutation]:
    """Every permutation of the declaration indices that preserves <1, <2 and w,
    in lexicographic order: a bijection that maps each order into itself maps
    it onto itself, as the order is finite."""
    p = d.poset
    w = [d.w[e] for e in p.elements]
    pairs = [(rel, i, j) for rel in (p.lt1, p.lt2) for i, j in index_pairs(rel)]
    return [
        perm
        for perm in itertools.permutations(range(p.size))
        if all(w[perm[i]] == w[i] for i in range(p.size)) and all(rel[perm[i]] >> perm[j] & 1 for rel, i, j in pairs)
    ]
