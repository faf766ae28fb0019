import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsymdp.equivariant import (
    BoundExceededError,
    GroupAction,
    NotPreservingError,
    _quotient_orders,
    action_from_dict,
    build_action,
    equivariant_theorem_check,
    gamma_equivariant,
    opposite1_action,
    orbit_sum,
    orbits_of,
    sign_of,
)
from qsymdp.compositions import Composition, _parts
from qsymdp.gamma import NotTertispecialError, gamma, strict_pairs
from qsymdp.oracles import _expand, automorphisms, count_orbits_bruteforce, orbit_sum_by_elements
from qsymdp.orderpoly import order_polynomial, reciprocity_check
from qsymdp.poset import DoublePoset, all_double_posets, build, index_pairs, is_tertispecial, transpose
from qsymdp.qsym import linear_combination, monomial

from conftest import (
    antichain,
    disjoint_union,
    aut_orbit_weight,
    isomorphism_class_representatives,
    less1,
    less2,
    orbit_tallies,
    subgroup_generators,
    weighted,
)


def swap_gen(a, b, rest=()):
    g = {a: b, b: a}
    g.update({e: e for e in rest})
    return g


def cycle_gen(labs):
    return {labs[i]: labs[(i + 1) % len(labs)] for i in range(len(labs))}


def full_symmetric_action(base):
    labs = list(base.elements)
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
    base = build("ab", [("a", "b")], [])
    with pytest.raises(NotPreservingError):
        build_action(base, [swap_gen("a", "b")])


def test_build_action_rejects_weight_breaking():
    base = antichain(2, w=(1, 2))
    with pytest.raises(NotPreservingError) as exc:
        build_action(base, [swap_gen("a", "b")])
    assert exc.value.witness == ("w", "a")  # the first label whose image weighs otherwise


def test_build_action_reports_a_broken_lt2_pair_before_a_broken_weight():
    # a <2 b only, weights 1, 2: the swap breaks both, and <2 is checked first
    base = build("ab", [], [("a", "b")], w=(1, 2))
    with pytest.raises(NotPreservingError) as exc:
        build_action(base, [swap_gen("a", "b")])
    assert exc.value.witness == ("lt2", ("a", "b"))
    assert str(exc.value) == "permutation {'a': 'b', 'b': 'a'} does not preserve ('lt2', ('a', 'b'))"


def test_build_action_cap():
    with pytest.raises(BoundExceededError):
        full_symmetric_action_with_cap()


def full_symmetric_action_with_cap():
    base = antichain(5)
    labs = list(base.elements)
    return build_action(base, [swap_gen(labs[0], labs[1], labs[2:]), cycle_gen(labs)], cap=100)


def test_orbits_and_sign():
    assert orbits_of((1, 0, 2)) == [(0, 1), (2,)]
    for n in range(6):
        for perm in itertools.permutations(range(n)):
            out = orbits_of(perm)
            assert sorted(i for cycle in out for i in cycle) == list(range(n))
            assert all(perm[i] in cycle for cycle in out for i in cycle)
            assert out == sorted(out)
    assert sign_of((1, 0, 2)) == -1
    assert sign_of((1, 2, 0)) == 1
    assert sign_of((0, 1, 2)) == 1


def test_orbit_sum_refuses_a_sum_that_the_group_order_does_not_divide():
    # one term Gamma(point) = M(1) over |G| = 2: not a sum over all of a group of order 2
    with pytest.raises(AssertionError, match=r"\|G\| = 2"):
        orbit_sum(antichain(1), 2, [((0,), 1)])


def quotient_of(g, d):
    """(<1, strict pairs, w) of E^g, as `orbit_sum` reads them from E."""
    return _quotient_orders(orbits_of(g), d.lt1, strict_pairs(d), d.w)


def test_quotient_of_swap():
    base = antichain(2)
    assert orbits_of((1, 0)) == [(0, 1)]
    assert quotient_of((1, 0), base) == ((0,), (0,), (2,))


def test_quotient_relations_any_representative():
    # two 2-chains swapped componentwise: quotient is one 2-chain of orbit pairs
    c = build("ab", [("a", "b")], [("a", "b")])
    base = disjoint_union(c, c)
    swap = {"0.a": "1.a", "1.a": "0.a", "0.b": "1.b", "1.b": "0.b"}
    a = build_action(base, [swap])
    assert a.order == 2
    g = next(p for p in a.elements if p != tuple(range(4)))
    assert orbits_of(g) == [(0, 2), (1, 3)]
    assert quotient_of(g, base) == ((0b10, 0), (0, 0), (2, 2))


def test_gamma_equivariant_trivial_group():
    base = antichain(2)
    a = build_action(base, [])
    assert gamma_equivariant(a) == gamma(base)
    assert gamma_equivariant(a, plus=True) == gamma(base)


def test_gamma_equivariant_swap_on_antichain():
    # S2 on a 2-antichain: (Gamma(E) + Gamma(E/swap)) / 2
    base = antichain(2)
    a = build_action(base, [swap_gen("a", "b")])
    M = lambda *p: monomial(Composition(p))
    expected = (M(2) + M(1, 1).scale(2) + M(2)).scale(Fraction(1, 2))
    assert gamma_equivariant(a) == expected
    expected_plus = linear_combination([(1, M(2) + M(1, 1).scale(2)), (-1, M(2))]).scale(Fraction(1, 2))
    assert gamma_equivariant(a, plus=True) == expected_plus


def test_equivariant_theorem_antichains():
    for n in (2, 3, 4):
        base = antichain(n)
        assert equivariant_theorem_check(full_symmetric_action(base))
        if n >= 3:
            cyc = build_action(base, [cycle_gen(list(base.elements))])
            assert equivariant_theorem_check(cyc)


def test_equivariant_theorem_component_swap():
    c = build("ab", [("a", "b")], [("a", "b")])
    base = disjoint_union(c, c)
    swap = {"0.a": "1.a", "1.a": "0.a", "0.b": "1.b", "1.b": "0.b"}
    assert equivariant_theorem_check(build_action(base, [swap]))


def test_equivariant_theorem_requires_tertispecial():
    base = build("ab", [("a", "b")], [])
    with pytest.raises(NotTertispecialError):
        equivariant_theorem_check(build_action(base, []))


def test_orbit_stabilizer_sizes():
    # |orbit of e| * |stabilizer of e| = |G| for every ground-set element
    a = full_symmetric_action(antichain(4))
    for i in range(a.base.size):
        orbit = {perm[i] for perm in a.elements}
        stab = [perm for perm in a.elements if perm[i] == i]
        assert len(orbit) * len(stab) == a.order


def test_action_from_json():
    base = antichain(2)
    a = action_from_dict(base, {"generators": [{"a": "b", "b": "a"}]})
    assert a.order == 2
    with pytest.raises(ValueError):
        action_from_dict(base, {})


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
    w = tuple(1 + j % 2 for c in range(k) for j in range(n))
    blocks = [poset.elements[c * n:(c + 1) * n] for c in range(k)]
    return weighted(poset, w), blocks


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
    f, f_plus = gamma_equivariant(a), gamma_equivariant(a, plus=True)
    assert f == orbit_sum_by_elements(a)
    assert f_plus == orbit_sum_by_elements(a, plus=True)
    assert all(type(c) is int for c in (*f.terms.values(), *f_plus.terms.values()))
    return f, f_plus


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("group", ["cyclic", "dihedral", "symmetric"])
@pytest.mark.parametrize("weight", [1, 2])
def test_class_sums_match_oracle_on_antichains(n, group, weight):
    base = antichain(n, w=(weight,) * n)
    a = build_action(base, block_group([(e,) for e in base.elements], group))
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
    a = build_action(base, block_group([(e,) for e in base.elements], "symmetric"))
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
    least = {i: min(cycle) for cycle in orbits_of(sigma) for i in cycle}
    w = tuple(drawn[least[i]] for i in range(n))
    return weighted(poset, w), sigma


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_class_sums_match_oracle_on_drawn_actions(data):
    base, sigma = data.draw(symmetric_weighted_posets())
    labels = base.elements
    auts = automorphisms(base)
    assert sigma in auts
    gens = [sigma] + data.draw(st.lists(st.sampled_from(auts), max_size=1))
    a = build_action(base, [{e: labels[i] for e, i in zip(labels, g)} for g in gens])
    assert set(a.elements) <= set(auts)
    f, f_plus = assert_class_sums_match_oracle(a)
    # orbit_sum_by_elements goes through the same projected orders; the tallies do not.
    # No term of Gamma is longer than |E|, so |E| variables determine it.
    m = base.size
    all_counts, coeven_counts = orbit_tallies(a, m)
    assert _expand(f, m) == all_counts
    assert _expand(f_plus, m) == coeven_counts


def found_base_action():
    """b <1 c and d <1 a, weakly, with a <2 b and c <2 d, under (a c)(b d): a
    quotient that projected all of <2 would order the orbit {b, d} strictly
    below {a, c}, though no member pair is strict."""
    base = build("abcd", [("b", "c"), ("d", "a")], [("a", "b"), ("c", "d")])
    return build_action(base, [{"a": "c", "b": "d", "c": "a", "d": "b"}])


def test_orbit_sums_of_a_non_tertispecial_base_count_orbits():
    a = found_base_action()
    assert not is_tertispecial(a.base)
    f, f_plus = gamma_equivariant(a), gamma_equivariant(a, plus=True)
    assert all(type(c) is int for c in (*f.terms.values(), *f_plus.terms.values()))
    assert f == orbit_sum_by_elements(a)
    assert f_plus == orbit_sum_by_elements(a, plus=True)
    all_counts, coeven_counts = orbit_tallies(a, 4)
    assert _expand(f, 4) == all_counts
    assert _expand(f_plus, 4) == coeven_counts
    omega = order_polynomial(a)
    assert [omega(q) for q in range(4)] == [0, 1, 6, 21] == [count_orbits_bruteforce(a, q) for q in range(4)]


def test_quotient_keeps_only_the_lt2_pairs_that_reverse_lt1():
    a = found_base_action()
    assert orbits_of((2, 3, 0, 1)) == [(0, 2), (1, 3)]
    assert quotient_of((2, 3, 0, 1), a.base) == ((0, 1), (0, 0), (2, 2))


def quotient_by_the_pair_definition(g, d):
    """(orbits, <1, strict pairs, w) of E^g by the pair definition, as index
    relations: the orbits {i, g(i), g(g(i)), ...} ordered by their least
    member, u <1 v iff some a in u, b in v have a <1 b, u <2 v iff some have
    a <2 b and b <1 a, the strict pairs the transpose of that <2, and u
    weighing its members' weights."""
    orbits, seen = [], set()
    for i in range(d.size):
        if i not in seen:
            orbit, j = [i], g[i]
            while j != i:
                orbit.append(j)
                j = g[j]
            seen.update(orbit)
            orbits.append(tuple(sorted(orbit)))
    labels = d.elements
    pairs1, pairs2 = set(), set()
    for u, v in itertools.permutations(range(len(orbits)), 2):
        for a, b in itertools.product(orbits[u], orbits[v]):
            if less1(d, labels[a], labels[b]):
                pairs1.add((u, v))
            if less2(d, labels[a], labels[b]) and less1(d, labels[b], labels[a]):
                pairs2.add((u, v))

    def rows(pairs):
        out = [0] * len(orbits)
        for u, v in pairs:
            out[u] |= 1 << v
        return tuple(out)

    w = tuple(sum(d.w[i] for i in orbit) for orbit in orbits)
    return orbits, rows(pairs1), rows({(v, u) for u, v in pairs2}), w


def test_quotient_matches_its_pair_definition():
    found = found_base_action()
    cases = [(found.base, found.elements)]
    for n in range(4):
        for p in all_double_posets(n):
            for weights in ((1, 1, 1), (1, 2, 1)):
                d = weighted(p, weights[:n])
                cases.append((d, automorphisms(d)))
    for d, group in cases:
        for g in group:
            orbits, lt1, strict, w = quotient_by_the_pair_definition(g, d)
            assert orbits_of(g) == orbits
            assert quotient_of(g, d) == (lt1, strict, w), (d, g)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_mask_orbit_sums_equal_the_sums_by_elements(n):
    # every subgroup of Aut(d), for one double poset per isomorphism class,
    # weighted all 1 and by aut_orbit_weight: the class sum in descent masks is
    # of degree sum(w), keeps no zero, and read as compositions is the sum by elements
    for p in isomorphism_class_representatives(n):
        for w in ((), aut_orbit_weight(p)):
            d = weighted(p, w)
            for gens in subgroup_generators(d):
                a = build_action(d, gens)
                for plus in (False, True):
                    degree, masks = orbit_sum(d, a.order, a.classes, plus)
                    assert degree == sum(d.w) and 0 not in masks.values()
                    terms = {_parts(degree, mask): c for mask, c in masks.items()}
                    assert terms == orbit_sum_by_elements(a, plus).terms, (d, gens, plus)


@pytest.mark.parametrize("n, distinct", [(3, 2), (6, 4)])
def test_orbit_sum_takes_one_gamma_per_orbit_partition(monkeypatch, n, distinct):
    # C_n on the n-antichain: r^k and r^(n-k) have the same orbits, so C3 has
    # 2 orbit partitions (1, r = r^2) and C6 has 4 (1, r = r^5, r^2 = r^4, r^3)
    import qsymdp.equivariant as m

    calls = []
    memo = m.gamma_masks

    def counted(*key):
        calls.append(key)
        return memo(*key)

    monkeypatch.setattr(m, "gamma_masks", counted)
    base = antichain(n)
    a = build_action(base, [cycle_gen(base.elements)])
    assert (a.order, len(a.classes)) == (n, n)
    for plus in (False, True):
        memo.cache_clear()
        calls.clear()
        f = gamma_equivariant(a, plus)
        assert len(calls) == memo.cache_info().misses == distinct
        assert f == orbit_sum_by_elements(a, plus=plus)
        assert _expand(f, n) == orbit_tallies(a, n)[plus]


@pytest.mark.parametrize("n, group", [(4, "symmetric"), (6, "cyclic")])
def test_orbit_sum_walks_each_class_once(monkeypatch, n, group):
    # Gamma+ reads each sign from the cycles that orbit_sum walks to group the
    # classes: one orbits_of call per class, none for a separate sign
    import qsymdp.equivariant as m

    base = antichain(n)
    a = build_action(base, block_group([(e,) for e in base.elements], group))
    assert len(a.classes) == {4: 5, 6: 6}[n]
    calls = []
    walk = m.orbits_of

    def counted(g):
        calls.append(g)
        return walk(g)

    monkeypatch.setattr(m, "orbits_of", counted)
    f = gamma_equivariant(a, plus=True)
    assert len(calls) == len(a.classes)
    assert f == orbit_sum_by_elements(a, plus=True)
    assert _expand(f, n) == orbit_tallies(a, n)[1]


def is_strict_order(rel):
    return all(not up >> i & 1 for i, up in enumerate(rel)) and all(rel[j] & ~rel[i] == 0 for i, j in index_pairs(rel))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_quotient_lt2_is_a_strict_order_inside_the_projection(n):
    for p in isomorphism_class_representatives(n):
        for gens in subgroup_generators(p):
            for g, _ in build_action(p, gens).classes:
                lt2 = transpose(quotient_of(g, p)[1])
                of = {i: k for k, cycle in enumerate(orbits_of(g)) for i in cycle}
                projected = {(of[i], of[j]) for i, j in index_pairs(p.lt2)}
                assert is_strict_order(lt2)
                assert set(index_pairs(lt2)) <= projected


def test_automorphisms_by_brute_force():
    assert len(automorphisms(antichain(4))) == 24
    assert automorphisms(antichain(3, w=(1, 2, 1))) == [(0, 1, 2), (2, 1, 0)]
    chain = build("abc", [("a", "b"), ("b", "c")], [])
    assert automorphisms(chain) == [(0, 1, 2)]
    two_chains = build("abcd", [("a", "b"), ("c", "d")], [("b", "a")])
    assert automorphisms(two_chains) == [(0, 1, 2, 3)]


# --- the conjugacy classes ---------------------------------------------------


def closure_by_left_words(gens, n):
    """The group generated by gens, closed by left-composing generators onto
    the words found so far: x -> g o x, by the definition (g o x)(i) = g(x(i))."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(g[x[i]] for i in range(n))
            if y not in group:
                group.add(y)
                frontier.append(y)
    return group


def conjugacy_classes_by_brute_force(group):
    """(least member, size) per class {k g k^-1 : k in G}, sorted, conjugating
    by every element of the group, not only by its generators."""
    inverse = {k: tuple(sorted(range(len(k)), key=k.__getitem__)) for k in group}
    classes, seen = [], set()
    for g in group:
        if g not in seen:
            cls = {tuple(k[g[inverse[k][i]]] for i in range(len(g))) for k in group}
            seen |= cls
            classes.append((min(cls), len(cls)))
    return sorted(classes)


def reference_actions():
    """The block groups of these tests on antichains of n <= 6 and on component
    copies, and the trivial group on 0 and 1 points under no generator and
    under the identity."""
    for n in range(7):
        base = antichain(n)
        for group in ("cyclic", "dihedral", "symmetric"):
            yield base, block_group([(e,) for e in base.elements], group)
    for size, k in ((2, 2), (2, 3), (3, 2)):
        for component in tertispecial_components(size):
            base, blocks = copies(component, k)
            for group in ("cyclic", "dihedral", "symmetric"):
                yield base, block_group(blocks, group)
    base, blocks = copies(build("ab", [("a", "b")], [("a", "b")]), 3)
    yield base, block_group(blocks, "symmetric")
    for n in (0, 1):
        base = antichain(n)
        yield base, []
        yield base, [{e: e for e in base.elements}]


def symmetric_on_antichain(n):
    base = antichain(n)
    return build_action(base, block_group([(e,) for e in base.elements], "symmetric"))


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
    """The closure and the classes against an independent reference: the
    group closed by left-composing generators, its classes found by
    conjugating with every element."""
    for base, gens in reference_actions():
        labels = base.elements
        group = closure_by_left_words([tuple(labels.index(g[e]) for e in labels) for g in gens], len(labels))
        a = build_action(base, gens)
        assert list(a.elements) == sorted(group)
        assert list(a.classes) == conjugacy_classes_by_brute_force(group)
        assert sum(size for _, size in a.classes) == a.order
        assert all(a.order % size == 0 for _, size in a.classes)
        assert opposite1_action(a).classes == a.classes


def test_class_sizes_of_one_fail_the_gate():
    for n in (3, 4):
        a = symmetric_on_antichain(n)
        unweighted = GroupAction(a.base, a.elements, tuple((g, 1) for g, _ in a.classes), a.generators)
        for plus in (False, True):
            try:
                wrong = gamma_equivariant(unweighted, plus)
            except AssertionError:
                continue  # the sum was not even divisible by |G|
            assert wrong != orbit_sum_by_elements(a, plus=plus)


def refuses_non_tertispecial(check, *args):
    try:
        check(*args)
    except NotTertispecialError:
        return True
    return False


def equivariant_gate_failures(n):
    """The exhaustive equivariant gate at |E| = n: on every double poset up to
    isomorphism, under every subgroup of its automorphism group, with unit
    weights and with a weight constant on each Aut-orbit, Gamma(E, w, G) and
    Gamma+(E, w, G) in n variables against the orbit tallies and the order
    polynomial against the orbit counts at q = 0..2.  On a tertispecial base
    also the equivariant antipode theorem and reciprocity at q = 0..2; on any
    other base both must refuse.  Returns the number of (class, subgroup)
    pairs and the failed checks."""
    pairs, failures = 0, []
    for p in isomorphism_class_representatives(n):
        for gens in subgroup_generators(p):
            pairs += 1
            for base in (p, weighted(p, aut_orbit_weight(p))):
                a = build_action(base, gens)
                all_counts, coeven_counts = orbit_tallies(a, n)
                omega = order_polynomial(a)
                checks = {
                    "orbit tallies": _expand(gamma_equivariant(a), n) == all_counts,
                    "coeven tallies": _expand(gamma_equivariant(a, plus=True), n) == coeven_counts,
                }
                for q in range(3):
                    checks[f"order polynomial at {q}"] = omega(q) == count_orbits_bruteforce(a, q)
                if is_tertispecial(p):
                    checks["theorem"] = equivariant_theorem_check(a)
                    checks.update({f"reciprocity at {q}": reciprocity_check(a, q) for q in range(3)})
                else:
                    checks["theorem refused"] = refuses_non_tertispecial(equivariant_theorem_check, a)
                    checks["reciprocity refused"] = refuses_non_tertispecial(reciprocity_check, a, 0)
                failures += [(p, gens, base.w, name) for name, ok in checks.items() if not ok]
    return pairs, failures


def test_isomorphism_class_counts():
    # double posets up to isomorphism: 1, 1, 5, 65 (Burnside)
    assert [len(isomorphism_class_representatives(n)) for n in range(4)] == [1, 1, 5, 65]


def test_subgroups_of_the_antichain_automorphisms():
    # S_3 has 6 subgroups; S_2 has 2
    assert len(subgroup_generators(antichain(3))) == 6
    assert len(subgroup_generators(antichain(2))) == 2


# (iso class, subgroup of Aut) pairs per |E|: 1, 1, 5, 46 and 815 have a tertispecial base
CLASS_SUBGROUP_PAIRS = {0: 1, 1: 1, 2: 6, 3: 78, 4: 2361}


@pytest.mark.parametrize("n", [0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_equivariant_gate_on_every_class_and_subgroup(n):
    pairs, failures = equivariant_gate_failures(n)
    assert pairs == CLASS_SUBGROUP_PAIRS[n]
    assert failures == []
