import itertools
import random

import pytest

from qsymdp.poset import DoublePoset, all_double_posets, build, is_tertispecial


def labels_for(n):
    return [chr(ord("a") + i) for i in range(n)]


def random_double_poset(n, rng: random.Random) -> DoublePoset:
    labs = labels_for(n)
    pairs = [(a, b) for a, b in itertools.permutations(labs, 2)]

    def random_order():
        while True:
            gens = rng.sample(pairs, k=rng.randint(0, len(pairs) // 2))
            try:
                return build(labs, gens, []).lt1
            except ValueError:
                continue

    return DoublePoset(elements=tuple(labs), lt1=random_order(), lt2=random_order())


def random_tertispecial_posets(n, count, seed=20240817):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_double_poset(n, rng)
        if is_tertispecial(d):
            out.append(d)
    return out
