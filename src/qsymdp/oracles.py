"""Brute-force reference computations, used by the self-test harness, the
tests, and the orbit counts on the right-hand side of reciprocity.  No other
module enumerates all maps E -> [m] or counts orbits map by map.

The truncation references go through the raw definitions (all maps E -> [m],
polynomials in m variables), never through the down-set chain sum or the
quasi-shuffle, so that agreement is a genuine two-route check.  The
E-partition definition and the semistandard-tableau test of a filling are the
definitions the fast routes are gated against.  The E-partition definition is
written once, as the (i, j, strict) list of `_epartition_pairs`:
`is_epartition` applies it to one map from the declaration index, the index
of the orders and of the weights d.w of the one `DoublePoset` it takes
(`is_epartition_covers` applies it to the covers of <1 only, from
`poset.covers`), and `_epartition_vectors` filters all maps E -> [m] by it,
one pair at a time; `epartitions_into` gives the result as such maps.
`_all_maps` is the one enumeration of all maps, and refuses more than
ENUM_LIMIT of them before it builds one.  Three
bounded tables hold what depends on no poset: `_map_table`, all maps per
(|E|, m), up to MAP_TABLE_LIMIT of them; `_exponent_table`, the monomial of
each of those maps per (weights, m); and `_monomial_exponents`, the monomials
of M_alpha per (alpha, m).  The brute force is still brute force: every call
tests every map against the definition, and only the list of maps and their
monomials are reused.  `gamma_truncations_match` enumerates a poset's
E-partitions into [m] once and counts one truncation of Gamma per claimed
(weights, Gamma) pair, so a gate of several weightings tests each map once per
poset and keeps nothing past the call; with no claimed term of more than |E|
parts, m = |E| variables decide Gamma exactly.  The G-orbits (and E-coeven
G-orbits) of E-partitions into [q] are counted by walking that enumeration
along the group's generators, with a parity per vector to find the odd
stabilisers, for the order polynomial and reciprocity.  The recursive
antipode solves m(S x id)Delta = u eps, independently of the closed form.  The fundamental expansion of Gamma over
linear extensions is a third route, for special double posets, that shares no
code with the other two; `build_Yh`, the special cell poset of a skew shape,
takes skew Schur functions along it.  The orbit sums are also summed element
by element, as the paper defines them, against the class sums: so the classes,
their sizes and signs are checked, and only `equivariant.orbit_sum` is shared;
the automorphisms of a double poset, those permutations that preserve <1, <2
and w, are found among all n! permutations.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from .compositions import Composition
from .equivariant import GroupAction, Permutation, orbit_sum, precompose, sign_of
from .gamma import NotTertispecialError
from .poset import DoublePoset, Rel, covers, index_pairs, is_special, is_tertispecial
from .qsym import ENUM_LIMIT, ONE, ZERO, BoundExceededError, Coeff, QSymElem, linear_combination, monomial, product
from .young import Cell, SkewShape, cell_poset

Poly = Dict[Tuple[int, ...], Coeff]


# Bound of each oracle table.  `selftest --max-size 4` reads 18 tables of all
# maps per (|E|, m), 8 of their monomials per (weights, m) and 48 of the
# monomials of M_alpha per (alpha, m), about 48400, 96700 and 851000 times; 64
# entries keep them all.
ORACLE_CACHE_SIZE = 64
# The most maps E -> [m] kept as a table.  selftest and the tests reuse a few
# small (|E|, m); a larger enumeration is used once, and is streamed:
# `reciprocity --q 11` on a 6-chain (1771561 maps) took 1.14 s and 203 MB
# tabulated, and 0.35 s and 16 MB streamed.
MAP_TABLE_LIMIT = 4096


@lru_cache(maxsize=ORACLE_CACHE_SIZE)
def _monomial_exponents(alpha: Tuple[int, ...], m: int) -> Tuple[Tuple[int, ...], ...]:
    """The exponent vectors of the monomials of M_alpha in x_1..x_m."""
    out = []
    for positions in itertools.combinations(range(m), len(alpha)):
        exps = [0] * m
        for pos, part in zip(positions, alpha):
            exps[pos] = part
        out.append(tuple(exps))
    return tuple(out)


def _expansion_entries(f: QSymElem, m: int) -> int:
    """The entries of f's exponent vectors in m variables: C(m, len(alpha))
    vectors of m entries per term alpha."""
    return m * sum(math.comb(m, len(alpha)) for alpha in f.terms)


def _expand(f: QSymElem, m: int) -> Poly:
    """Expand f as a polynomial in x_1..x_m; keys are exponent vectors.  More
    than ENUM_LIMIT vector entries are refused before any vector is built."""
    if _expansion_entries(f, m) > ENUM_LIMIT:
        raise BoundExceededError(f"expanding in {m} variables needs over {ENUM_LIMIT} exponent entries")
    poly: Poly = {}
    for alpha, c in f.terms.items():
        for key in _monomial_exponents(alpha, m):
            poly[key] = poly.get(key, 0) + c
    return poly


def product_truncation_matches(f: QSymElem, g: QSymElem, m: int) -> bool:
    """True iff product(f, g) in m variables equals the polynomial product of
    f and g in m variables (exact when m >= deg f + deg g).  The pairwise
    products, of m entries each, are bounded like an expansion."""
    if _expansion_entries(f, m) * _expansion_entries(g, m) // max(m, 1) > ENUM_LIMIT:
        raise BoundExceededError(f"multiplying in {m} variables needs over {ENUM_LIMIT} exponent entries")
    truncation = _expand(product(f, g), m)
    poly: Poly = {}
    pg = _expand(g, m)
    for ea, ca in _expand(f, m).items():
        for eb, cb in pg.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            poly[key] = poly.get(key, 0) + ca * cb
    return truncation == {k: c for k, c in poly.items() if c}


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


def _epartition_pairs(p: DoublePoset, rel: Rel) -> List[Tuple[int, int, int]]:
    """The definition of an E-partition on rel: one (i, j, strict) per pair
    i < j of rel, strict = 1 where j <2 i; a vector of values over declaration
    index is one iff values[i] + strict <= values[j] for each."""
    return [(i, j, p.lt2[j] >> i & 1) for i, j in index_pairs(rel)]


def _is_epartition_on(d: DoublePoset, rel: Rel, pi: Mapping[int, int]) -> bool:
    """pi weakly increases along each pair i < j of rel, strictly when j <2 i."""
    if set(pi) != set(range(d.size)):
        raise ValueError("partition map must be total on the ground set")
    return all(pi[i] + strict <= pi[j] for i, j, strict in _epartition_pairs(d, rel))


def is_epartition(d: DoublePoset, pi: Mapping[int, int]) -> bool:
    """Weakly increasing along <1, strictly when the <2-reversal triggers; pi
    maps each declaration index to its value."""
    return _is_epartition_on(d, d.lt1, pi)


def is_epartition_covers(d: DoublePoset, pi: Mapping[int, int]) -> bool:
    """Cover-based E-partition test; valid only for tertispecial posets."""
    if not is_tertispecial(d):
        raise NotTertispecialError("cover-based test requires a tertispecial poset")
    return _is_epartition_on(d, covers(d.lt1), pi)


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


def build_Yh(shape: SkewShape) -> DoublePoset:
    """The special variant of `young.build_Y`, a second route to the skew
    Schur function: same <1, but <2 is the total reading order
    (i,j) <h (i',j') iff i > i', or i = i' and j < j'."""
    return cell_poset(shape, lambda a, b: a[0] > b[0] or (a[0] == b[0] and a[1] < b[1]))


def _all_maps(n: int, m: int) -> Iterable[Tuple[int, ...]]:
    """Every map from n elements to {1,...,m}, as value vectors over the
    declaration index in lexicographic order; more than ENUM_LIMIT are refused
    before the first is built.  At most MAP_TABLE_LIMIT maps come from a
    cached table, more from a fresh iterator."""
    if m ** n > ENUM_LIMIT:
        raise BoundExceededError(f"{m}^{n} assignments exceed limit {ENUM_LIMIT}")
    if m ** n > MAP_TABLE_LIMIT:
        return itertools.product(range(1, m + 1), repeat=n)
    return _map_table(n, m)


@lru_cache(maxsize=ORACLE_CACHE_SIZE)
def _map_table(n: int, m: int) -> Tuple[Tuple[int, ...], ...]:
    """The maps of `_all_maps(n, m)` as a tuple."""
    return tuple(itertools.product(range(1, m + 1), repeat=n))


def _keep(vectors: Iterable[Tuple[int, ...]], i: int, j: int, strict: int) -> Iterator[Tuple[int, ...]]:
    """The vectors that satisfy the pair (i, j, strict) of the definition."""
    return (v for v in vectors if v[i] + strict <= v[j])


def _epartition_vectors(d: DoublePoset, m: int) -> Iterator[Tuple[int, ...]]:
    """All E-partitions with values in {1,...,m}, as value vectors over the
    declaration index: all maps, filtered by one pair of the definition after
    another, lazily, so that a streamed enumeration holds only what its
    caller keeps.  A negative m, or more than ENUM_LIMIT maps, are refused
    before the first map is built."""
    if m < 0:
        raise ValueError("q must be nonnegative")
    vectors = _all_maps(d.size, m)
    for i, j, strict in _epartition_pairs(d, d.lt1):
        vectors = _keep(vectors, i, j, strict)
    return vectors


def epartitions_into(d: DoublePoset, m: int) -> List[Dict[int, int]]:
    """All E-partitions with values in {1,...,m}, as maps from the
    declaration index, the index of the weights d.w."""
    return [dict(enumerate(values)) for values in _epartition_vectors(d, m)]


def _exponents(w: Tuple[int, ...], m: int, values: Tuple[int, ...]) -> Tuple[int, ...]:
    """The exponent vector of prod_i x_{values[i]}^{w[i]} in x_1..x_m."""
    exps = [0] * m
    for weight, i in zip(w, values):
        exps[i - 1] += weight
    return tuple(exps)


@lru_cache(maxsize=ORACLE_CACHE_SIZE)
def _exponent_table(w: Tuple[int, ...], m: int) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
    """`_exponents` of every map in `_map_table(len(w), m)`."""
    return {values: _exponents(w, m, values) for values in _map_table(len(w), m)}


def gamma_truncations_match(d: DoublePoset, claims: Iterable[Tuple[Tuple[int, ...], QSymElem]], m: int) -> List[bool]:
    """One verdict per claim (w, f), that f is Gamma(E, w) of d's orders with the
    weights w over the declaration index: f has no term of more than |E| parts,
    as no E-partition takes more than |E| values, and f expanded in m variables
    equals the truncation of Gamma(E, w) to m variables, summed map by map.

    The E-partitions into [m] are enumerated once, every map tested against
    the definition, and each is counted into one truncation per claim; d.w is
    not read.  Tabulated maps are kept as a tuple of E-partitions for the
    claims, streamed ones are counted as they come.  The brute force, and so
    its bound, comes before any f is read.
    """
    claims, n = list(claims), d.size
    if any(len(w) != n for w, _ in claims):
        raise ValueError("weight function must be total on the ground set")
    counts = [Counter() for _ in claims]
    vectors = _epartition_vectors(d, m)
    if m ** n > MAP_TABLE_LIMIT:  # the maps were not tabulated
        for values in vectors:
            for count, (w, _) in zip(counts, claims):
                count[_exponents(w, m, values)] += 1
    else:
        vectors = tuple(vectors)
        for count, (w, _) in zip(counts, claims):
            count.update(map(_exponent_table(w, m).__getitem__, vectors))
    return [
        max(map(len, f.terms), default=0) <= n and _expand(f, m) == count
        for count, (_, f) in zip(counts, claims)
    ]


def gamma_truncation_matches(d: DoublePoset, f: QSymElem, m: int) -> bool:
    """`gamma_truncations_match` of the one claim (d.w, f): exact for m >= |E|."""
    return gamma_truncations_match(d, [(d.w, f)], m)[0]


def gamma_linear_extensions(d: DoublePoset) -> QSymElem:
    """Gamma(E, w) of a special double poset (<2 total) by the fundamental
    expansion (Stanley's P-partition lemma; Gessel 1984): the E-partitions are
    the maps that weakly increase along a linear extension L of <1, strictly at
    its descents i, where L_i+1 <2 L_i.  Each L gives one M_alpha per cut set
    containing its descents, alpha the weights of L's blocks between the cuts
    (with unit weights, F_Des(L)).  L grows by removing <1-minimal elements.
    """
    if not is_special(d):
        raise ValueError("the linear-extension expansion needs <2 to be total")
    n, w = d.size, d.w
    below = [sum(1 << i for i in range(n) if d.lt1[i] >> j & 1) for j in range(n)]
    runs: Dict[tuple, int] = {}  # (weights along L, descents of L) -> number of such L
    stack = [((), (), -1, (1 << n) - 1)]  # (weights, descents, last element, elements left)
    while stack:
        weights, descents, last, left = stack.pop()
        if not left:
            runs[weights, descents] = runs.get((weights, descents), 0) + 1
        for j in range(n):
            if left >> j & 1 and not below[j] & left:
                at = len(weights)
                des = descents + (at,) if at and d.lt2[j] >> last & 1 else descents
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
    g in G of Gamma(E^g, w^g), each term times sign(g) if ``plus``, as the
    paper defines them, with no reduction to conjugacy classes."""
    return orbit_sum(a.base, a.order, ((g, sign_of(g) if plus else 1) for g in a.elements))


def _orbit_walk(a: GroupAction, q: int) -> Tuple[int, int]:
    """The number of G-orbits of E-partitions into [q], and of E-coeven ones.

    Every map is tested against the definition; then each orbit is walked
    from its first E-partition along the edges v -> v o g, one per generator
    g (the action of g^-1: the inverses generate G too, with the same
    signs), and each vector it reaches gets the parity of a group element
    that takes the root to it.  The orbit is coeven iff no edge contradicts
    those parities: an edge v -> v o g with parity(v o g) != parity(v) +
    parity(g) closes a walk from the root back to itself, an odd element of
    the root's stabiliser, and conversely every element of the stabiliser is
    such a closed walk.
    """
    generators = [(precompose(g), sign_of(g) < 0) for g in a.generators]
    parity: Dict[Tuple[int, ...], bool] = {}
    orbits = coeven = 0
    for root in _epartition_vectors(a.base, q):
        if root in parity:
            continue
        parity[root] = False
        stack, consistent = [root], True
        while stack:
            v = stack.pop()
            odd_v = parity[v]
            for right, odd in generators:
                u, p = right(v), odd_v ^ odd
                seen = parity.get(u)
                if seen is None:
                    parity[u] = p
                    stack.append(u)
                elif seen != p:
                    consistent = False
        orbits += 1
        coeven += consistent
    return orbits, coeven


def count_orbits_bruteforce(a: GroupAction, q: int) -> int:
    """Number of G-orbits of E-partitions into [q], by direct enumeration."""
    return _orbit_walk(a, q)[0]


def count_coeven_orbits_bruteforce(a: GroupAction, q: int) -> int:
    """Number of E-coeven G-orbits of E-partitions into [q]: those whose
    members no odd element of G fixes."""
    return _orbit_walk(a, q)[1]


def automorphisms(d: DoublePoset) -> List[Permutation]:
    """Every permutation of the declaration indices that preserves <1, <2 and w,
    in lexicographic order: a bijection that maps each order into itself maps
    it onto itself, as the order is finite."""
    w = d.w
    pairs = [(rel, i, j) for rel in (d.lt1, d.lt2) for i, j in index_pairs(rel)]
    return [
        perm
        for perm in itertools.permutations(range(d.size))
        if all(w[perm[i]] == w[i] for i in range(d.size)) and all(rel[perm[i]] >> perm[j] & 1 for rel, i, j in pairs)
    ]
