import json
from fractions import Fraction

import pytest

from qsymdp.equivariant import (
    BoundExceededError,
    NotPreservingError,
    action_from_json,
    build_action,
    equivariant_theorem_check,
    gamma_equivariant,
    gamma_plus,
    orbits_of,
    quotient_by,
    sign_of,
)
from qsymdp.compositions import Composition
from qsymdp.gamma import NotTertispecialError, WeightedDoublePoset, gamma
from qsymdp.poset import build, disjoint_union
from qsymdp.qsym import monomial


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
    assert q.poset.less1(u, v) or q.poset.less1(v, u)


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
