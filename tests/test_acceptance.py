"""Acceptance gate: one suite per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import functools
import itertools
import random
import subprocess
import sys
from fractions import Fraction

from qsymdp.equivariant import (
    build_action,
    equivariant_theorem_check,
    gamma_equivariant,
)
from qsymdp.gamma import antipode_theorem_check, gamma_product_check, strict_pairs
from qsymdp.oracles import _epartition_pairs, _expand, count_orbits_bruteforce, is_epartition, is_ssyt
from qsymdp.orderpoly import order_polynomial, reciprocity_check
from qsymdp.poset import build
from qsymdp.verify import SUITES
from qsymdp.young import Partition, SkewShape, build_Y, schur_antipode_check, skew_schur

from conftest import all_double_posets, antichain, orbit_tallies, random_tertispecial_posets, weighted


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


@functools.lru_cache(maxsize=None)
def passes(suite, size):
    """Whether the registry's suite passes at the given size, as selftest runs it;
    criteria 2 and 3 share one run of antipode-consistency."""
    return all(SUITES[suite](size))


def test_criterion_1_composition_calculus():
    report("criterion-1 composition-calculus", passes("composition-calculus", 6))  # n < 9


def test_criterion_2_antipode_consistency():
    report("criterion-2 antipode-consistency", passes("antipode-consistency", 6))  # n <= 6


def test_criterion_3_fundamental_antipode():
    # S(F_alpha) = (-1)^n F_{conjugate(alpha)} is part of each antipode-consistency item
    report("criterion-3 fundamental-antipode", passes("antipode-consistency", 6))


def test_criterion_4_gamma_bruteforce():
    # random weights: test_gamma.py::test_gamma_matches_bruteforce_truncation
    report("criterion-4 gamma-bruteforce", passes("gamma-truncation", 3))  # |E| <= 3


def truncation_key(d):
    """All that either side of gamma-truncation reads of d: <1, the strict
    pairs and the oracle's E-partition definition."""
    return (d.lt1, strict_pairs(d), tuple(_epartition_pairs(d, d.lt1)))


def test_criterion_4_weighs_each_poset_by_ones_then_by_1_2_1(monkeypatch):
    # one oracle call per distinct key, with both weightings; two verdicts per poset
    import qsymdp.oracles

    keys, seen = [], []

    def claimed(d, claims, m):
        keys.append(truncation_key(d))
        seen.append([w for w, _ in claims])
        return [True for _ in claims]

    monkeypatch.setattr(qsymdp.oracles, "gamma_truncations_match", claimed)
    posets = [p for n in range(4) for p in all_double_posets(n)]
    verdicts = list(SUITES["gamma-truncation"](3))
    assert len(verdicts) == 2 * len(posets) == 744 and all(verdicts)
    assert len(keys) == len(set(keys)) == 86
    assert set(keys) == {truncation_key(p) for p in posets}
    assert seen == [[(1,) * len(key[0]), (1, 2, 1)[: len(key[0])]] for key in keys]


def test_criterion_4_tells_apart_posets_that_strict_pairs_merges(monkeypatch):
    # a <1 b with b <2 a, its strict pair dropped, shares <1 and the strict
    # pairs with a <1 b alone, which comes first and passes; the oracle's
    # definition in the key keeps the two apart, so the wrong Gamma is caught
    import qsymdp.verify

    honest = qsymdp.verify.gm.strict_pairs
    reversed_chain = build(["a", "b"], [("a", "b")], [("b", "a")])
    assert honest(reversed_chain) != (0, 0)

    def dropped(d):
        if (d.lt1, d.lt2) == (reversed_chain.lt1, reversed_chain.lt2):
            return (0, 0)
        return honest(d)

    monkeypatch.setattr(qsymdp.verify.gm, "strict_pairs", dropped)
    assert not all(SUITES["gamma-truncation"](2))


def test_criterion_5_antipode_theorem():
    ok = passes("antipode-theorem", 3)
    rng = random.Random(11)
    for d in random_tertispecial_posets(4, 100):
        w = tuple(rng.randint(1, 2) for _ in d.elements)
        ok = ok and antipode_theorem_check(weighted(d, w))
    report("criterion-5 antipode-theorem", ok)


def test_criterion_6_coproduct_product_rules():
    ok = passes("coproduct-product-rules", 3)
    rng = random.Random(5)
    pools = {n: all_double_posets(n) for n in range(4)}
    for n1, n2 in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3)]:
        for _ in range(6):
            d1 = rng.choice(pools[n1])
            d2 = rng.choice(pools[n2])
            ok = ok and gamma_product_check(d1, d2)
    report("criterion-6 coproduct-product-rules", ok)


def test_equivariant_reciprocity_suite():
    report("equivariant-reciprocity", passes("equivariant-reciprocity", 3))


def _chain_copies(k, length):
    """k identical <1-chains with ``length`` elements each, <2 = <1."""
    labs = [f"{i}.{j}" for i in range(k) for j in range(length)]
    gens = [
        (f"{i}.{j}", f"{i}.{j + 1}") for i in range(k) for j in range(length - 1)
    ]
    return build(labs, gens, gens)


def _component_permuting_actions(base, k, length):
    def relabel(cmap):
        return {
            f"{i}.{j}": f"{cmap[i]}.{j}" for i in range(k) for j in range(length)
        }

    gens = []
    if k >= 2:
        swap = {i: i for i in range(k)}
        swap[0], swap[1] = 1, 0
        gens.append(relabel(swap))
    if k >= 3:
        gens.append(relabel({i: (i + 1) % k for i in range(k)}))
    yield build_action(base, gens)  # full symmetric group on components
    if k >= 3:
        yield build_action(base, [relabel({i: (i + 1) % k for i in range(k)})])


def _criterion7_actions():
    for n in (2, 3, 4):
        base = antichain(n)
        labs = list(base.elements)
        swap = {e: e for e in labs}
        swap[labs[0]], swap[labs[1]] = labs[1], labs[0]
        cyc = {labs[i]: labs[(i + 1) % n] for i in range(n)}
        yield build_action(base, [swap] + ([cyc] if n >= 3 else []))
        yield build_action(base, [cyc])
    for k in (2, 3):
        for length in (1, 2):
            base = _chain_copies(k, length)
            yield from _component_permuting_actions(base, k, length)


def test_criterion_7_equivariant_theorem():
    ok = True
    for a in _criterion7_actions():
        ok = ok and equivariant_theorem_check(a)
        m = min(4, a.base.size + 1)
        all_counts, coeven_counts = orbit_tallies(a, m)
        ok = ok and _expand(gamma_equivariant(a), m) == all_counts
        ok = ok and _expand(gamma_equivariant(a, plus=True), m) == coeven_counts
    report("criterion-7 equivariant-theorem", ok)


def test_criterion_8_reciprocity():
    ok = True
    actions = list(_criterion7_actions())
    for n in (2, 3):
        actions.append(build_action(_chain_copies(1, n), []))
    for a in actions:
        omega = order_polynomial(a)
        for q in range(5):
            ok = ok and omega(q) == count_orbits_bruteforce(a, q)
        for q in range(1, 5):
            ok = ok and reciprocity_check(a, q)
    report("criterion-8 reciprocity", ok)


def _partitions_of(n, maxpart=None):
    if maxpart is None:
        maxpart = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, maxpart), 0, -1):
        for rest in _partitions_of(n - p, p):
            yield (p,) + rest


def test_criterion_9_young():
    ok = True
    shapes4 = [
        SkewShape(outer=Partition(lam), inner=Partition())
        for n in range(5)
        for lam in _partitions_of(n)
    ] + [SkewShape(outer=Partition([2, 2]), inner=Partition([1]))]
    for sh in shapes4:
        if sh.size > 4:
            continue
        d = build_Y(sh)
        for values in itertools.product((1, 2, 3), repeat=sh.size):
            filling = dict(zip(sh.cells, values))
            pi = dict(enumerate(values))
            ok = ok and is_ssyt(sh, filling) == is_epartition(d, pi)
    for n in range(5):
        for lam in _partitions_of(n):
            sh = SkewShape(outer=Partition(lam), inner=Partition())
            poly = {}
            for values in itertools.product(range(1, n + 2), repeat=sh.size):
                filling = dict(zip(sh.cells, values))
                if is_ssyt(sh, filling):
                    exps = [0] * (n + 1)
                    for v in values:
                        exps[v - 1] += 1
                    key = tuple(exps)
                    poly[key] = poly.get(key, Fraction(0)) + 1
            ok = ok and _expand(skew_schur(sh), n + 1) == poly
    for n in range(6):
        for lam in _partitions_of(n):
            sh = SkewShape(outer=Partition(lam), inner=Partition())
            ok = ok and schur_antipode_check(sh)
    report("criterion-9 young", ok)


def test_criterion_10_cli_determinism():
    cmd = [sys.executable, "-m", "qsymdp.cli", "selftest", "--max-size", "3"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.endswith(b"selftest: PASS\n")
    )
    report("criterion-10 cli-determinism", ok)
