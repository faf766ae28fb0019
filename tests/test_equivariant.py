import dataclasses
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymdp.equivariant import (
    BoundExceededError,
    NotPreservingError,
    action_from_json,
    build_action,
    equivariant_theorem_check,
    gamma_equivariant,
    gamma_plus,
    opposite1_action,
    orbits_of,
    quotient_by,
    sign_of,
)
from qsymdp.compositions import Composition
from qsymdp.gamma import NotTertispecialError, WeightedDoublePoset, gamma
from qsymdp.oracles import _expand, automorphisms, count_orbits_bruteforce, orbit_sum_by_elements
from qsymdp.orderpoly import order_polynomial, reciprocity_check
from qsymdp.poset import DoublePoset, all_double_posets, build, disjoint_union, index_pairs, is_tertispecial
from qsymdp.qsym import monomial

from conftest import (
    aut_orbit_weight,
    isomorphism_class_representatives,
    less1,
    orbit_tallies,
    subgroup_generators,
)


def antichain(n, w=None):
    labs = [chr(ord("a") + i) for i in range(n)]
    return WeightedDoublePoset(poset=build(labs, [], []), w=w or {})


def swap_gen(a, b, rest=()):
    g = {a: b, b: a}
    g.update({e: e for e in rest})
    return g


def cycle_gen(labs):
    return {labs[i]: labs[(i + 1) % len(labs)] for i in range(len(labs))}


def full_symmetric_action(base):
    labs = list(base.poset.elements)
    gens = []
    if len(labs) >= 2:
        gens.append(swap_gen(labs[0], labs[1], labs[2:]))
    if len(labs) >= 3:
        gens.append(cycle_gen(labs))
    return build_action(base, gens)


def test_build_action_closure():
    a = full_symmetric_action(antichain(3))
    assert a.order == 6
    trivial = build_action(antichain(3), [])
    assert trivial.order == 1


def test_build_action_rejects_non_bijection():
    with pytest.raises(ValueError):
        build_action(antichain(2), [{"a": "a", "b": "a"}])


def test_build_action_rejects_order_breaking():
    base = WeightedDoublePoset(poset=build("ab", [("a", "b")], []), w={})
    with pytest.raises(NotPreservingError):
        build_action(base, [swap_gen("a", "b")])


def test_build_action_rejects_weight_breaking():
    base = antichain(2, w={"a": 1, "b": 2})
    with pytest.raises(NotPreservingError):
        build_action(base, [swap_gen("a", "b")])


def test_build_action_cap():
    with pytest.raises(BoundExceededError):
        full_symmetric_action_with_cap()


def full_symmetric_action_with_cap():
    base = antichain(5)
    labs = list(base.poset.elements)
    return build_action(base, [swap_gen(labs[0], labs[1], labs[2:]), cycle_gen(labs)], cap=100)


def test_orbits_and_sign():
    assert orbits_of((1, 0, 2)) == [(0, 1), (2,)]
    assert sign_of((1, 0, 2)) == -1
    assert sign_of((1, 2, 0)) == 1
    assert sign_of((0, 1, 2)) == 1


def test_quotient_of_swap():
    base = antichain(2)
    q = quotient_by((1, 0), base)
    assert q.poset.elements == ("a",)
    assert q.w == {"a": 2}


def test_quotient_relations_any_representative():
    # two 2-chains swapped componentwise: quotient is one 2-chain of orbit pairs
    c = build("ab", [("a", "b")], [("a", "b")])
    base_poset = disjoint_union(c, c)
    base = WeightedDoublePoset(poset=base_poset, w={})
    swap = {"0.a": "1.a", "1.a": "0.a", "0.b": "1.b", "1.b": "0.b"}
    a = build_action(base, [swap])
    assert a.order == 2
    g = next(p for p in a.elements if p != tuple(range(4)))
    q = quotient_by(g, base)
    assert q.poset.size == 2
    (u, v) = q.poset.elements
    assert less1(q.poset, u, v) or less1(q.poset, v, u)


def test_gamma_equivariant_trivial_group():
    base = antichain(2)
    a = build_action(base, [])
    assert gamma_equivariant(a) == gamma(base)
    assert gamma_plus(a) == gamma(base)


def test_gamma_equivariant_swap_on_antichain():
    # S2 on a 2-antichain: (Gamma(E) + Gamma(E/swap)) / 2
    base = antichain(2)
    a = build_action(base, [swap_gen("a", "b")])
    M = lambda *p: monomial(Composition(p))
    expected = (M(2) + M(1, 1).scale(2) + M(2)).scale(Fraction(1, 2))
    assert gamma_equivariant(a) == expected
    expected_plus = (M(2) + M(1, 1).scale(2) - M(2)).scale(Fraction(1, 2))
    assert gamma_plus(a) == expected_plus


def test_equivariant_theorem_antichains():
    for n in (2, 3, 4):
        base = antichain(n)
        assert equivariant_theorem_check(full_symmetric_action(base))
        if n >= 3:
            cyc = build_action(base, [cycle_gen(list(base.poset.elements))])
            assert equivariant_theorem_check(cyc)


def test_equivariant_theorem_component_swap():
    c = build("ab", [("a", "b")], [("a", "b")])
    base = WeightedDoublePoset(poset=disjoint_union(c, c), w={})
    swap = {"0.a": "1.a", "1.a": "0.a", "0.b": "1.b", "1.b": "0.b"}
    assert equivariant_theorem_check(build_action(base, [swap]))


def test_equivariant_theorem_requires_tertispecial():
    base = WeightedDoublePoset(poset=build("ab", [("a", "b")], []), w={})
    with pytest.raises(NotTertispecialError):
        equivariant_theorem_check(build_action(base, []))


def test_orbit_stabilizer_sizes():
    # |orbit of e| * |stabilizer of e| = |G| for every ground-set element
    a = full_symmetric_action(antichain(4))
    for i in range(a.base.poset.size):
        orbit = {perm[i] for perm in a.elements}
        stab = [perm for perm in a.elements if perm[i] == i]
        assert len(orbit) * len(stab) == a.order


def test_action_from_json():
    base = antichain(2)
    a = action_from_json(base, json.dumps({"generators": [{"a": "b", "b": "a"}]}))
    assert a.order == 2
    with pytest.raises(ValueError):
        action_from_json(base, json.dumps({}))


# --- the class sums against the element-by-element oracle -------------------


def permuting_blocks(blocks, images):
    """The generator sending block b to block images[b], member by member."""
    return {e: f for b, image in enumerate(images) for e, f in zip(blocks[b], blocks[image])}


def block_group(blocks, group):
    """Generators of the cyclic, dihedral or symmetric group on the blocks."""
    k = len(blocks)
    gens = [permuting_blocks(blocks, [(b + 1) % k for b in range(k)])] if k > 1 else []
    if group == "dihedral" and k > 2:
        gens.append(permuting_blocks(blocks, [-b % k for b in range(k)]))
    if group == "symmetric" and k > 2:
        gens.append(permuting_blocks(blocks, [{0: 1, 1: 0}.get(b, b) for b in range(k)]))
    return gens


def copies(component, k):
    """k copies of a double poset, its elements weighing 1, 2, 1, ...; copy c
    of element e is labelled c.e."""
    n = component.size
    poset = DoublePoset(
        elements=tuple(f"{c}.{e}" for c in range(k) for e in component.elements),
        lt1=tuple(up << c * n for c in range(k) for up in component.lt1),
        lt2=tuple(up << c * n for c in range(k) for up in component.lt2),
    )
    w = {f"{c}.{e}": 1 + j % 2 for c in range(k) for j, e in enumerate(component.elements)}
    blocks = [poset.elements[c * n:(c + 1) * n] for c in range(k)]
    return WeightedDoublePoset(poset=poset, w=w), blocks


def is_connected(p):
    """Whether <1 and <2 together connect the ground set."""
    reach, frontier = 1, [0]
    while frontier:
        i = frontier.pop()
        for j in range(p.size):
            if not reach >> j & 1 and (p.lt1[i] | p.lt2[i]) >> j & 1 | (p.lt1[j] | p.lt2[j]) >> i & 1:
                reach |= 1 << j
                frontier.append(j)
    return reach == (1 << p.size) - 1


def tertispecial_components(n):
    """One connected tertispecial double poset on n elements per isomorphism class."""
    seen, out = set(), []
    for p in all_double_posets(n):
        if not (is_tertispecial(p) and is_connected(p)):
            continue
        key = min(  # the least relabelling of both orders
            tuple(tuple(sorted((perm[i], perm[j]) for i, j in index_pairs(rel))) for rel in (p.lt1, p.lt2))
            for perm in itertools.permutations(range(n))
        )
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def assert_class_sums_match_oracle(a):
    f, f_plus = gamma_equivariant(a), gamma_plus(a)
    assert f == orbit_sum_by_elements(a)
    assert f_plus == orbit_sum_by_elements(a, plus=True)
    if is_tertispecial(a.base.poset):
        assert all(type(c) is int for c in (*f.terms.values(), *f_plus.terms.values()))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("group", ["cyclic", "dihedral", "symmetric"])
@pytest.mark.parametrize("weight", [1, 2])
def test_class_sums_match_oracle_on_antichains(n, group, weight):
    base = antichain(n, w={chr(ord("a") + i): weight for i in range(n)})
    a = build_action(base, block_group([(e,) for e in base.poset.elements], group))
    assert_class_sums_match_oracle(a)


@pytest.mark.parametrize(
    "size, k",
    # three copies of the 31 three-element components take 5 s
    [(2, 2), (2, 3), (3, 2), pytest.param(3, 3, marks=pytest.mark.slow)],
)
def test_class_sums_match_oracle_on_component_copies(size, k):
    components = tertispecial_components(size)
    assert len(components) == {2: 3, 3: 31}[size]
    for component in components:
        base, blocks = copies(component, k)
        for group in ("cyclic", "symmetric") if k > 2 else ("cyclic",):
            assert_class_sums_match_oracle(build_action(base, block_group(blocks, group)))


def test_class_sums_match_oracle_on_six_antichain_under_s6():
    base = antichain(6)
    a = build_action(base, block_group([(e,) for e in base.poset.elements], "symmetric"))
    assert (a.order, len(a.classes)) == (720, 11)
    assert_class_sums_match_oracle(a)


@st.composite
def symmetric_weighted_posets(draw, max_size=4):
    """A weighted double poset on at most max_size elements with a drawn
    automorphism sigma.  Each order keeps a drawn subset of the pairs along a
    drawn permutation, closed, then intersected with its sigma-images until it
    is sigma-invariant (an intersection of strict orders is one); w is drawn
    constant on the cycles of sigma."""
    n = draw(st.integers(0, max_size))
    labels = [chr(ord("a") + i) for i in range(n)]
    sigma = tuple(draw(st.permutations(range(n))))

    def order():
        along = draw(st.permutations(labels))
        pairs = [(a, b) for i, a in enumerate(along) for b in along[i + 1:]]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        rel = set(index_pairs(build(labels, [p for p, k in zip(pairs, keep) if k], []).lt1))
        while True:
            image = rel & {(sigma[i], sigma[j]) for i, j in rel}
            if image == rel:
                return [(labels[i], labels[j]) for i, j in rel]
            rel = image

    poset = build(labels, order(), order())
    drawn = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    w = {e: drawn[min(cycle)] for cycle in orbits_of(sigma) for e in (labels[i] for i in cycle)}
    return WeightedDoublePoset(poset=poset, w=w), sigma


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_class_sums_match_oracle_on_drawn_actions(data):
    base, sigma = data.draw(symmetric_weighted_posets())
    labels = base.poset.elements
    auts = automorphisms(base)
    assert sigma in auts
    gens = [sigma] + data.draw(st.lists(st.sampled_from(auts), max_size=1))
    a = build_action(base, [{e: labels[i] for e, i in zip(labels, g)} for g in gens])
    assert set(a.elements) <= set(auts)
    assert_class_sums_match_oracle(a)


def test_orbit_sums_of_a_non_tertispecial_base_keep_fractions():
    # b <1 c and d <1 a, weakly; but the quotient by (a c)(b d) orders the
    # orbit {b, d} strictly below {a, c}, because a <2 b
    base = WeightedDoublePoset(poset=build("abcd", [("b", "c"), ("d", "a")], [("a", "b"), ("c", "d")]), w={})
    a = build_action(base, [{"a": "c", "b": "d", "c": "a", "d": "b"}])
    f = gamma_equivariant(a)
    assert f == orbit_sum_by_elements(a)
    assert Fraction(1, 2) in f.terms.values()
    assert gamma_plus(a) == orbit_sum_by_elements(a, plus=True)


def test_automorphisms_by_brute_force():
    assert len(automorphisms(antichain(4))) == 24
    assert automorphisms(antichain(3, w={"a": 1, "b": 2, "c": 1})) == [(0, 1, 2), (2, 1, 0)]
    chain = WeightedDoublePoset(poset=build("abc", [("a", "b"), ("b", "c")], []), w={})
    assert automorphisms(chain) == [(0, 1, 2)]
    two_chains = WeightedDoublePoset(poset=build("abcd", [("a", "b"), ("c", "d")], [("b", "a")]), w={})
    assert automorphisms(two_chains) == [(0, 1, 2, 3)]


# --- the conjugacy classes ---------------------------------------------------


def conjugacy_classes_by_brute_force(a):
    """{least member: size} over the classes {k g k^-1 : k in G}."""
    inverse = {k: tuple(sorted(range(len(k)), key=k.__getitem__)) for k in a.elements}
    out = {}
    for g in a.elements:
        cls = {tuple(k[g[inverse[k][i]]] for i in range(len(g))) for k in a.elements}
        out[min(cls)] = len(cls)
    return out


def symmetric_on_antichain(n):
    base = antichain(n)
    return build_action(base, block_group([(e,) for e in base.poset.elements], "symmetric"))


@pytest.mark.parametrize("n, partitions", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)])
def test_symmetric_group_has_a_class_per_partition(n, partitions):
    a = symmetric_on_antichain(n)
    assert len(a.classes) == partitions
    assert sum(size for _, size in a.classes) == a.order
    assert all(a.order % size == 0 for _, size in a.classes)


def test_class_counts_of_dihedral_and_cyclic_groups():
    d5 = build_action(antichain(5), block_group([(e,) for e in "abcde"], "dihedral"))
    c6 = build_action(antichain(6), block_group([(e,) for e in "abcdef"], "cyclic"))
    assert (d5.order, len(d5.classes)) == (10, 4)
    assert (c6.order, len(c6.classes)) == (6, 6)
    assert [size for _, size in c6.classes] == [1] * 6


def test_classes_are_the_conjugacy_classes():
    actions = [symmetric_on_antichain(n) for n in range(1, 6)]
    for group in ("cyclic", "dihedral"):
        actions += [build_action(antichain(n), block_group([(e,) for e in "abcdef"[:n]], group)) for n in range(1, 7)]
    base, blocks = copies(build("ab", [("a", "b")], [("a", "b")]), 3)
    actions.append(build_action(base, block_group(blocks, "symmetric")))
    for a in actions:
        assert dict(a.classes) == conjugacy_classes_by_brute_force(a)
        assert sum(size for _, size in a.classes) == a.order
        assert all(a.order % size == 0 for _, size in a.classes)
        assert opposite1_action(a).classes == a.classes


def test_class_sizes_of_one_fail_the_gate():
    for n in (3, 4):
        a = symmetric_on_antichain(n)
        unweighted = dataclasses.replace(a, classes=tuple((g, 1) for g, _ in a.classes))
        for plus in (False, True):
            try:
                wrong = (gamma_plus if plus else gamma_equivariant)(unweighted)
            except AssertionError:
                continue  # the sum was not even divisible by |G|
            assert wrong != orbit_sum_by_elements(a, plus=plus)


def equivariant_gate_failures(n):
    """The exhaustive equivariant gate at |E| = n: on every tertispecial
    double poset up to isomorphism, under every subgroup of its automorphism
    group, with unit weights and with a weight constant on each Aut-orbit,
    the equivariant antipode theorem, Gamma(E, w, G) and Gamma+(E, w, G) in n
    variables against the orbit tallies, the order polynomial against the
    orbit counts at q = 0..2 and reciprocity at q = 0..2.  Returns the number
    of (class, subgroup) pairs and the failed checks."""
    pairs, failures = 0, []
    for p in isomorphism_class_representatives(n):
        if not is_tertispecial(p):
            continue
        unit = WeightedDoublePoset(p)
        for gens in subgroup_generators(unit):
            pairs += 1
            for base in (unit, WeightedDoublePoset(p, aut_orbit_weight(unit))):
                a = build_action(base, gens)
                all_counts, coeven_counts = orbit_tallies(a, n)
                omega = order_polynomial(a)
                checks = {
                    "theorem": equivariant_theorem_check(a),
                    "orbit tallies": _expand(gamma_equivariant(a), n) == all_counts,
                    "coeven tallies": _expand(gamma_plus(a), n) == coeven_counts,
                }
                for q in range(3):
                    checks[f"order polynomial at {q}"] = omega(q) == count_orbits_bruteforce(a, q)
                    checks[f"reciprocity at {q}"] = reciprocity_check(a, q)
                failures += [(p, gens, base.w, name) for name, ok in checks.items() if not ok]
    return pairs, failures


def test_isomorphism_class_counts():
    # double posets up to isomorphism: 1, 1, 5, 65 (Burnside)
    assert [len(isomorphism_class_representatives(n)) for n in range(4)] == [1, 1, 5, 65]


def test_subgroups_of_the_antichain_automorphisms():
    # S_3 has 6 subgroups; S_2 has 2
    assert len(subgroup_generators(antichain(3))) == 6
    assert len(subgroup_generators(antichain(2))) == 2


@pytest.mark.parametrize("n", [0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_equivariant_gate_on_every_class_and_subgroup(n):
    pairs, failures = equivariant_gate_failures(n)
    assert pairs > 0
    assert failures == []
