import random

import pytest

from qsymdp.poset import DoublePoset, all_double_posets, build, is_tertispecial


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
