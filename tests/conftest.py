import itertools
import random
from fractions import Fraction

import pytest

from qsymdp.compositions import _parts
from qsymdp.equivariant import build_action, sign_of
from qsymdp.gamma import _chain_sum, gamma_of_orders, strict_pairs
from qsymdp.oracles import _epartition_vectors, automorphisms
from qsymdp.poset import (
    DoublePoset,
    _incomparable2,
    all_double_posets,
    build,
    index_pairs,
    is_tertispecial,
    squeeze,
    transpose,
)
from qsymdp.qsym import QSymElem
from qsymdp.young import Partition, SkewShape


def labels_for(n):
    return [chr(ord("a") + i) for i in range(n)]


def antichain(n, w=None) -> DoublePoset:
    """The antichain on the first n labels; w defaults to all ones."""
    return build(labels_for(n), [], [], w=w or ())


def chain(n, strict=False) -> DoublePoset:
    """The chain a <1 b <1 ... on the first n labels, with <2 = <1, or with <2
    the reverse of <1 if strict (then an E-partition increases strictly)."""
    labs = labels_for(n)
    gens = list(zip(labs, labs[1:]))
    lt2 = [(b, a) for a, b in gens] if strict else gens
    return build(labs, gens, lt2)


def weighted(d: DoublePoset, w=()) -> DoublePoset:
    """d with the weights w over its declaration index (all ones if empty)."""
    return DoublePoset(elements=d.elements, lt1=d.lt1, lt2=d.lt2, w=w)


def restrict(d: DoublePoset, mask: int) -> DoublePoset:
    """The weighted double poset induced on the elements whose declaration index is set in mask."""
    if mask < 0 or mask >> d.size:
        raise ValueError(f"mask {mask:#b} has bits outside the {d.size} elements")
    return DoublePoset(
        elements=tuple(e for i, e in enumerate(d.elements) if mask >> i & 1),
        lt1=squeeze(d.lt1, mask),
        lt2=squeeze(d.lt2, mask),
        w=tuple(x for i, x in enumerate(d.w) if mask >> i & 1),
    )


def disjoint_union(d1: DoublePoset, d2: DoublePoset) -> DoublePoset:
    """Tagged disjoint union, with the weights of both; labels become '0.x' and '1.y'."""
    n = d1.size
    return DoublePoset(
        elements=tuple(f"0.{e}" for e in d1.elements) + tuple(f"1.{e}" for e in d2.elements),
        lt1=d1.lt1 + tuple(up << n for up in d2.lt1),
        lt2=d1.lt2 + tuple(up << n for up in d2.lt2),
        w=d1.w + d2.w,
    )


def random_double_poset(n, rng: random.Random) -> DoublePoset:
    labs = labels_for(n)

    def pairs_along_a_permutation():
        # every pair follows one random order, so the closure is acyclic
        along, density = rng.sample(labs, n), rng.random()
        return [(a, b) for i, a in enumerate(along) for b in along[i + 1:] if rng.random() < density]

    return build(labs, pairs_along_a_permutation(), pairs_along_a_permutation())


def random_tertispecial_posets(n, count, seed=20240817):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_double_poset(n, rng)
        if is_tertispecial(d):
            out.append(d)
    return out


def less1(d, a, b) -> bool:
    """a <1 b in d, by label."""
    return bool(d.lt1[d.elements.index(a)] >> d.elements.index(b) & 1)


def less2(d, a, b) -> bool:
    """a <2 b in d, by label."""
    return bool(d.lt2[d.elements.index(a)] >> d.elements.index(b) & 1)


def is_semispecial(d) -> bool:
    """True iff every <1-comparable pair is <2-comparable."""
    return not any(a & b for a, b in zip(d.lt1, _incomparable2(d)))


def pairs(d, rel):
    """The label pairs (a, b) with a < b in rel, in declaration order."""
    return [(d.elements[i], d.elements[j]) for i, j in index_pairs(rel)]


def opposite2(d) -> DoublePoset:
    return DoublePoset(elements=d.elements, lt1=d.lt1, lt2=transpose(d.lt2))


def to_dict(d) -> dict:
    """d as a poset JSON document."""
    return {
        "elements": list(d.elements),
        "lt1": sorted([a, b] for a, b in pairs(d, d.lt1)),
        "lt2": sorted([a, b] for a, b in pairs(d, d.lt2)),
    }


def _act(g, values):
    """Action on maps as value vectors over declaration index: (g pi)(e) = pi(g^{-1} e)."""
    out = [0] * len(g)
    for i, v in zip(g, values):
        out[i] = v
    return tuple(out)


def _orbit_decomposition(a, vectors):
    """Split E-partitions, as value vectors, into G-orbits by applying every
    element of G; each orbit is a list of vectors."""
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


def _is_coeven(v, odd):
    """True iff no odd permutation of G, from ``odd``, fixes the value vector v."""
    return not any(_act(g, v) == v for g in odd)


def orbit_counts_by_elements(a, q):
    """The numbers of G-orbits and of E-coeven G-orbits of E-partitions into
    [q], element by element: the reference for the oracles' generator walk."""
    orbits = _orbit_decomposition(a, list(_epartition_vectors(a.base, q)))
    odd = [g for g in a.elements if sign_of(g) < 0]
    return len(orbits), sum(1 for orbit in orbits if _is_coeven(orbit[0], odd))


def orbit_tallies(a, m):
    """Exponent-vector tallies of G-orbits (and coeven orbits) of
    E-partitions into [m], directly from the definitions."""
    orbits = _orbit_decomposition(a, list(_epartition_vectors(a.base, m)))
    odd = [g for g in a.elements if sign_of(g) < 0]
    all_counts = {}
    coeven_counts = {}
    for orbit in orbits:
        values = orbit[0]
        exps = [0] * m
        for weight, v in zip(a.base.w, values):
            exps[v - 1] += weight
        key = tuple(exps)
        all_counts[key] = all_counts.get(key, Fraction(0)) + 1
        if _is_coeven(values, odd):
            coeven_counts[key] = coeven_counts.get(key, Fraction(0)) + 1
    return all_counts, coeven_counts


def _image(d, perm) -> DoublePoset:
    """d relabeled by the permutation i -> perm[i] of the declaration indices."""

    def move(rel):
        out = [0] * d.size
        for i, j in index_pairs(rel):
            out[perm[i]] |= 1 << perm[j]
        return tuple(out)

    return DoublePoset(elements=d.elements, lt1=move(d.lt1), lt2=move(d.lt2))


def isomorphism_class_representatives(n):
    """One double poset on a, b, ... per isomorphism class, each the one with
    the lexicographically least (lt1, lt2) among its images under S_n."""
    perms = list(itertools.permutations(range(n)))
    seen, reps = set(), []
    for d in all_double_posets(n):
        if (d.lt1, d.lt2) in seen:
            continue
        images = {(e.lt1, e.lt2) for e in (_image(d, p) for p in perms)}
        seen |= images
        lt1, lt2 = min(images)
        reps.append(DoublePoset(elements=d.elements, lt1=lt1, lt2=lt2))
    return reps


def subgroup_generators(d: DoublePoset):
    """Generators, as label maps, of every subgroup of Aut(d), one pair per
    subgroup: the closure of each pair of automorphisms.  For |E| <= 4 that is
    every subgroup, as every subgroup of S_4 is generated by two elements."""
    labels = d.elements
    seen, out = set(), []
    for pair in itertools.combinations_with_replacement(automorphisms(d), 2):
        gens = [{e: labels[i] for e, i in zip(labels, g)} for g in pair]
        elements = build_action(d, gens).elements
        if elements not in seen:
            seen.add(elements)
            out.append(gens)
    return out


def aut_orbit_weight(d: DoublePoset):
    """A weight constant on each Aut(d)-orbit, 2 on the even-numbered orbits
    (by least member) and 1 on the others, so never 1 everywhere."""
    auts = automorphisms(d)
    least = [min(g[i] for g in auts) for i in range(d.size)]
    number = {m: k for k, m in enumerate(sorted(set(least)))}
    return tuple(2 - number[m] % 2 for m in least)


def peeled_and_whole(p: DoublePoset, w):
    """Gamma of p with weights w (over the declaration index) as the memoised
    `gamma_of_orders`, which takes the <1-isolated elements out of the chain
    sum, and as the bare chain sum over the whole poset, its descent masks
    read as compositions."""
    key = (p.lt1, strict_pairs(p), tuple(w))
    n, masks = _chain_sum(*key)
    return gamma_of_orders(*key), QSymElem({_parts(n, mask): c for mask, c in masks.items()})


def skew_shapes(n):
    """Every skew shape of n cells up to the order of its edge-connected
    components, one shape per multiset of components.  Rows are built from
    the bottom, as (first column - 1, last column): the bottom row starts in
    column 1, each row is nonempty, and a row that shares no column with the
    row below it touches it at a corner, as any wider gap gives the same cell
    posets.  A shape is kept when its components, read from the bottom and
    each shifted to start in column 1, are in sorted order."""
    out = []

    def grow(left, rows):
        if not left:
            components, start = [], 0
            for k in range(1, len(rows) + 1):
                if k == len(rows) or rows[k][0] >= rows[k - 1][1]:
                    base = rows[start][0]
                    components.append(tuple((m - base, l - base) for m, l in rows[start:k]))
                    start = k
            if components == sorted(components):
                outer = [l for _, l in reversed(rows)]
                inner = [m for m, _ in reversed(rows) if m]
                out.append(SkewShape(outer=Partition(outer), inner=Partition(inner)))
            return
        low, high = rows[-1]
        for m in range(low, high + 1):
            for l in range(max(high, m + 1), m + left + 1):
                grow(left - (l - m), rows + [(m, l)])

    if n == 0:
        return [SkewShape(outer=Partition(), inner=Partition())]
    for first in range(1, n + 1):
        grow(n - first, [(0, first)])
    return out
