import itertools
import json
import random
from fractions import Fraction

import pytest

from qsymdp.equivariant import build_action, sign_of
from qsymdp.gamma import WeightedDoublePoset
from qsymdp.oracles import _is_coeven, _orbit_decomposition, automorphisms, epartitions_into
from qsymdp.poset import (
    DoublePoset,
    _incomparable2,
    all_double_posets,
    build,
    index_pairs,
    is_tertispecial,
    transpose,
)


def labels_for(n):
    return [chr(ord("a") + i) for i in range(n)]


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


def opposite2(d) -> DoublePoset:
    return DoublePoset(elements=d.elements, lt1=d.lt1, lt2=transpose(d.lt2))


def to_json(d) -> str:
    return json.dumps(
        {
            "elements": list(d.elements),
            "lt1": sorted([a, b] for a, b in d.pairs(d.lt1)),
            "lt2": sorted([a, b] for a, b in d.pairs(d.lt2)),
        }
    )


def orbit_tallies(a, m):
    """Exponent-vector tallies of G-orbits (and coeven orbits) of
    E-partitions into [m], directly from the definitions."""
    orbits = _orbit_decomposition(a, epartitions_into(a.base, m))
    odd = [g for g in a.elements if sign_of(g) < 0]
    all_counts = {}
    coeven_counts = {}
    for orbit in orbits:
        pi = orbit[0]
        exps = [0] * m
        for e, v in pi.items():
            exps[v - 1] += a.base.w[e]
        key = tuple(exps)
        all_counts[key] = all_counts.get(key, Fraction(0)) + 1
        if _is_coeven(a, pi, odd):
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


def subgroup_generators(d: WeightedDoublePoset):
    """Generators, as label maps, of every subgroup of Aut(d), one pair per
    subgroup: the closure of each pair of automorphisms.  For |E| <= 4 that is
    every subgroup, as every subgroup of S_4 is generated by two elements."""
    labels = d.poset.elements
    seen, out = set(), []
    for pair in itertools.combinations_with_replacement(automorphisms(d), 2):
        gens = [{e: labels[i] for e, i in zip(labels, g)} for g in pair]
        elements = build_action(d, gens).elements
        if elements not in seen:
            seen.add(elements)
            out.append(gens)
    return out


def aut_orbit_weight(d: WeightedDoublePoset):
    """A weight constant on each Aut(d)-orbit, 2 on the even-numbered orbits
    (by least member) and 1 on the others, so never 1 everywhere."""
    auts = automorphisms(d)
    labels = d.poset.elements
    least = [min(g[i] for g in auts) for i in range(len(labels))]
    number = {m: k for k, m in enumerate(sorted(set(least)))}
    return {e: 2 - number[least[i]] % 2 for i, e in enumerate(labels)}
