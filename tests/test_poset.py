import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from qsymdp.poset import (
    AdmissiblePair,
    CycleError,
    DoublePoset,
    admissible_pairs,
    all_strict_orders,
    build,
    disjoint_union,
    down_sets,
    from_json,
    is_semispecial,
    is_special,
    is_tertispecial,
    opposite1,
    opposite2,
    restrict,
    to_json,
    transitive_closure,
)

from conftest import all_double_posets, labels_for, random_double_poset


def test_transitive_closure_chain():
    rel = transitive_closure("abc", [("a", "b"), ("b", "c")])
    assert rel == frozenset({("a", "b"), ("b", "c"), ("a", "c")})


def test_transitive_closure_cycle():
    with pytest.raises(CycleError) as exc:
        transitive_closure("ab", [("a", "b"), ("b", "a")])
    assert exc.value.element in ("a", "b")


def test_transitive_closure_idempotent():
    for d in all_double_posets(3):
        assert transitive_closure(d.elements, d.lt1) == d.lt1


def test_build_rejects_duplicates_and_unknowns():
    with pytest.raises(ValueError):
        build(["a", "a"], [], [])
    with pytest.raises(ValueError):
        build(["a"], [("a", "z")], [])


def test_covers_of_chain():
    d = build("abc", [("a", "b"), ("b", "c")], [])
    assert d.covers(d.lt1) == [("a", "b"), ("b", "c")]


def test_specialness_hierarchy():
    # total <2 chain: special, hence semispecial and tertispecial
    d = build("ab", [("a", "b")], [("a", "b")])
    assert is_special(d) and is_semispecial(d) and is_tertispecial(d)
    # a <1 b with empty <2: none of the three
    d = build("ab", [("a", "b")], [])
    assert not is_special(d) and not is_semispecial(d) and not is_tertispecial(d)
    # 3-chain in <1 whose <2 compares only the cover pairs:
    # tertispecial but not semispecial
    d = build("abc", [("a", "b"), ("b", "c")], [("a", "b"), ("c", "b")])
    assert is_tertispecial(d) and not is_semispecial(d) and not is_special(d)


def test_specialness_implications_exhaustive():
    for d in all_double_posets(3):
        if is_special(d):
            assert is_semispecial(d)
        if is_semispecial(d):
            assert is_tertispecial(d)


def test_opposites_are_involutions():
    for d in all_double_posets(3):
        assert opposite1(opposite1(d)) == d
        assert opposite2(opposite2(d)) == d


def test_opposite1_preserves_tertispecial():
    for d in all_double_posets(3):
        assert is_tertispecial(opposite1(d)) == is_tertispecial(d)


def test_restrict():
    d = build("abc", [("a", "b"), ("b", "c")], [("c", "a")])
    r = restrict(d, ["a", "c"])
    assert r.elements == ("a", "c")
    assert r.lt1 == frozenset({("a", "c")})
    assert r.lt2 == frozenset({("c", "a")})
    with pytest.raises(ValueError):
        restrict(d, ["z"])


def test_disjoint_union_tags():
    d1 = build("ab", [("a", "b")], [])
    d2 = build("a", [], [])
    u = disjoint_union(d1, d2)
    assert u.elements == ("0.a", "0.b", "1.a")
    assert u.lt1 == frozenset({("0.a", "0.b")})


def test_down_sets_of_chain():
    d = build("ab", [("a", "b")], [])
    assert set(down_sets(d)) == {
        frozenset(),
        frozenset({"a"}),
        frozenset({"a", "b"}),
    }


def down_sets_by_filter(d):
    elems = d.elements
    for chi in itertools.product((0, 1), repeat=len(elems)):
        p = frozenset(e for e, c in zip(elems, chi) if c)
        if all(a in p for a, b in d.lt1 if b in p):
            yield p


def test_down_sets_sequence_small():
    for n in range(4):
        for d in all_double_posets(n):
            assert list(down_sets(d)) == list(down_sets_by_filter(d))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=7), st.randoms(use_true_random=False))
def test_down_sets_sequence_drawn(n, rng):
    d = random_double_poset(n, rng)
    assert list(down_sets(d)) == list(down_sets_by_filter(d))


def test_admissible_pairs_against_raw_definition():
    for d in all_double_posets(3):
        got = set((p.p, p.q) for p in admissible_pairs(d))
        expected = set()
        elems = d.elements
        for chi in itertools.product((0, 1), repeat=len(elems)):
            p = tuple(e for e, c in zip(elems, chi) if c)
            q = tuple(e for e in elems if e not in p)
            if not any(d.less1(b, a) for a in p for b in q):
                expected.add((p, q))
        assert got == expected


def test_admissible_pairs_count_antichain():
    d = build("abc", [], [])
    assert len(admissible_pairs(d)) == 8


def test_json_round_trip():
    d = build("abc", [("a", "b")], [("c", "b")])
    assert from_json(to_json(d)) == d
    doc = {"elements": ["x", "y"], "lt1": [["x", "y"]], "lt2": []}
    d2 = from_json(json.dumps(doc))
    assert d2.less1("x", "y") and not d2.less2("x", "y")


def test_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        from_json(json.dumps({"lt1": []}))


def test_all_strict_orders_counts():
    # numbers of strict partial orders on n labeled points: 1, 1, 3, 19
    assert len(all_strict_orders([])) == 1
    assert len(all_strict_orders(["a"])) == 1
    assert len(all_strict_orders(labels_for(2))) == 3
    assert len(all_strict_orders(labels_for(3))) == 19
