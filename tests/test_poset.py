import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qsymdp.gamma import weighted_from_dict
from qsymdp.poset import (
    STRICT_ORDER_COUNTS,
    CycleError,
    DoublePoset,
    all_strict_orders,
    build,
    covers,
    down_sets,
    is_special,
    is_tertispecial,
    opposite1,
    transitive_closure,
)
from qsymdp.qsym import BoundExceededError

from conftest import (
    all_double_posets,
    chain,
    disjoint_union,
    is_semispecial,
    labels_for,
    less1,
    less2,
    opposite2,
    pairs,
    random_double_poset,
    restrict,
    to_dict,
    weighted,
)


def test_transitive_closure_chain():
    rel = transitive_closure("abc", [("a", "b"), ("b", "c")])
    # rel[i] is the bitmask of the j above i: a < b, a < c, b < c
    assert rel == (0b110, 0b100, 0b000)


def test_transitive_closure_cycle():
    with pytest.raises(CycleError) as exc:
        transitive_closure("ab", [("a", "b"), ("b", "a")])
    assert exc.value.element in ("a", "b")


def test_transitive_closure_idempotent():
    for d in all_double_posets(3):
        assert transitive_closure(d.elements, pairs(d, d.lt1)) == d.lt1


def test_build_rejects_duplicates_and_unknowns():
    with pytest.raises(ValueError):
        build(["a", "a"], [], [])
    with pytest.raises(ValueError):
        build(["a"], [("a", "z")], [])


def test_covers_of_chain():
    d = build("abc", [("a", "b"), ("b", "c")], [])
    assert pairs(d, covers(d.lt1)) == [("a", "b"), ("b", "c")]


def test_opposite1_keeps_the_weights():
    d = build("abc", [("a", "b"), ("a", "c")], [("a", "b"), ("c", "a")], w=(1, 2, 1))
    flipped = opposite1(d)
    assert flipped.w == (1, 2, 1)
    assert flipped != d and opposite1(flipped) == d


def test_posets_that_differ_only_in_weights_are_unequal():
    d, e = build("ab", [("a", "b")], [], w=(1, 2)), build("ab", [("a", "b")], [], w=(2, 1))
    assert d != e and hash(d) != hash(e) and len({d, e}) == 2
    assert d == build("ab", [("a", "b")], [], w=[1, 2]) and hash(d) == hash(build("ab", [("a", "b")], [], w=[1, 2]))
    # an empty w is all ones
    assert build("ab", [], []) == build("ab", [], [], w=(1, 1)) != build("ab", [], [], w=(1, 2))


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
    r = restrict(d, 0b101)  # bit i keeps element i: a and c
    assert r.elements == ("a", "c")
    assert pairs(r, r.lt1) == [("a", "c")]
    assert pairs(r, r.lt2) == [("c", "a")]
    assert restrict(d, 0b111) == d and restrict(d, 0).elements == ()
    for out_of_range in (0b1000, 0b1101, -1):
        with pytest.raises(ValueError):
            restrict(d, out_of_range)
    heavy = weighted(chain(3), (1, 2, 1))
    assert restrict(heavy, 0b111) == heavy
    assert restrict(heavy, 0b110).w == (2, 1)


def test_disjoint_union_tags():
    d1 = build("ab", [("a", "b")], [])
    d2 = build("a", [], [])
    u = disjoint_union(d1, d2)
    assert u.elements == ("0.a", "0.b", "1.a")
    assert pairs(u, u.lt1) == [("0.a", "0.b")]
    assert u.w == (1, 1, 1)
    assert disjoint_union(weighted(d1, (2, 3)), weighted(d2, (4,))).w == (2, 3, 4)


def test_down_sets_of_chain():
    d = build("ab", [("a", "b")], [])
    # bit i stands for element i: {}, {a}, {a, b}
    assert set(down_sets(d)) == {0b00, 0b01, 0b11}


def down_sets_by_filter(d):
    elems = d.elements
    for chi in itertools.product((0, 1), repeat=len(elems)):
        p = {e for e, c in zip(elems, chi) if c}
        if all(a in p for a, b in pairs(d, d.lt1) if b in p):
            yield sum(c << i for i, c in enumerate(chi))


def test_down_sets_sequence_small():
    for n in range(4):
        for d in all_double_posets(n):
            assert list(down_sets(d)) == list(down_sets_by_filter(d))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=7), st.randoms(use_true_random=False))
def test_down_sets_sequence_drawn(n, rng):
    d = random_double_poset(n, rng)
    assert list(down_sets(d)) == list(down_sets_by_filter(d))


def admissible_pairs_from_down_sets(d):
    """The admissible pairs (P, Q) of d as label tuples: P a down-set, Q its complement."""
    elems = d.elements
    for mask in down_sets(d):
        p = tuple(e for i, e in enumerate(elems) if mask >> i & 1)
        q = tuple(e for i, e in enumerate(elems) if not mask >> i & 1)
        yield p, q


def test_admissible_pairs_against_raw_definition():
    # (P, Q) is admissible iff no p in P, q in Q has q <1 p, i.e. iff the
    # complement Q of P is an up-set: exactly when P is a down-set
    for d in all_double_posets(3):
        got = set(admissible_pairs_from_down_sets(d))
        expected = set()
        elems = d.elements
        for chi in itertools.product((0, 1), repeat=len(elems)):
            p = tuple(e for e, c in zip(elems, chi) if c)
            q = tuple(e for e in elems if e not in p)
            if not any(less1(d, b, a) for a in p for b in q):
                expected.add((p, q))
        assert got == expected


def test_admissible_pairs_count_antichain():
    d = build("abc", [], [])
    assert len(list(admissible_pairs_from_down_sets(d))) == 8


def test_json_round_trip():
    d = build("abc", [("a", "b")], [("c", "b")])
    assert weighted_from_dict(to_dict(d)) == d
    doc = {"elements": ["x", "y"], "lt1": [["x", "y"]], "lt2": []}
    d2 = weighted_from_dict(doc)
    assert less1(d2, "x", "y") and not less2(d2, "x", "y")


def test_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        weighted_from_dict({"lt1": []})


def test_all_strict_orders_counts():
    # numbers of strict partial orders on n labeled points: 1, 1, 3, 19, 219
    assert len(all_strict_orders([])) == 1
    assert len(all_strict_orders(["a"])) == 1
    assert len(all_strict_orders(labels_for(2))) == 3
    assert len(all_strict_orders(labels_for(3))) == 19
    assert len(all_strict_orders(labels_for(4))) == 219


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_strict_order_counts_table(n):
    # the table that refuses double posets before enumerating their orders
    assert STRICT_ORDER_COUNTS[n] == len(all_strict_orders(labels_for(n)))


def test_enumerations_refuse_above_the_enumeration_limit(monkeypatch):
    import qsymdp.poset as m

    with pytest.raises(BoundExceededError, match="2\\^30 candidate orders on 6 elements exceed ENUM_LIMIT"):
        all_strict_orders(labels_for(6))  # 2^30 vectors; refused before the first
    # 4231^2 > ENUM_LIMIT double posets: refused before any order is enumerated
    def no_orders(labels):
        raise AssertionError("orders enumerated")

    monkeypatch.setattr(m, "all_strict_orders", no_orders)
    monkeypatch.setattr(m, "DoublePoset", None)
    with pytest.raises(BoundExceededError, match="4231\\^2 double posets on 5 elements exceed ENUM_LIMIT"):
        m.all_double_posets(5)
    with pytest.raises(BoundExceededError, match="2\\^30 candidate orders on 6 elements"):
        m.all_double_posets(6)


def label_pairs(d, rel):
    """The relation rel of d as a set of label pairs: rel[i] has bit j iff i < j."""
    e = d.elements
    return {(e[i], e[j]) for i in range(d.size) for j in range(d.size) if rel[i] >> j & 1}


def covers_by_definition(elements, rel):
    return {
        (a, b) for a, b in rel if not any((a, c) in rel and (c, b) in rel for c in elements)
    }


def comparable(rel, a, b):
    return a == b or (a, b) in rel or (b, a) in rel


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=4, max_value=7),
    st.randoms(use_true_random=False),
    st.data(),
)
def test_mask_operations_match_label_pair_definitions(n, rng, data):
    d = random_double_poset(n, rng)
    elems = d.elements
    lt1, lt2 = label_pairs(d, d.lt1), label_pairs(d, d.lt2)
    assert pairs(d, d.lt1) == sorted(lt1, key=lambda p: (elems.index(p[0]), elems.index(p[1])))
    for a, b in itertools.product(elems, repeat=2):
        assert less1(d, a, b) == ((a, b) in lt1)
        assert less2(d, a, b) == ((a, b) in lt2)
    cover_pairs = covers_by_definition(elems, lt1)
    assert set(pairs(d, covers(d.lt1))) == cover_pairs
    assert is_special(d) == all(
        comparable(lt2, a, b) for a, b in itertools.combinations(elems, 2)
    )
    assert is_semispecial(d) == all(comparable(lt2, a, b) for a, b in lt1)
    assert is_tertispecial(d) == all(comparable(lt2, a, b) for a, b in cover_pairs)
    op = opposite1(d)
    assert label_pairs(op, op.lt1) == {(b, a) for a, b in lt1}
    assert label_pairs(op, op.lt2) == lt2
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    subset = {e for i, e in enumerate(elems) if mask >> i & 1}
    r = restrict(d, mask)
    assert r.elements == tuple(e for e in elems if e in subset)
    assert label_pairs(r, r.lt1) == {p for p in lt1 if set(p) <= subset}
    assert label_pairs(r, r.lt2) == {p for p in lt2 if set(p) <= subset}
    other = random_double_poset(data.draw(st.integers(min_value=0, max_value=3)), rng)
    u = disjoint_union(d, other)

    def tagged(prefix, rel):
        return {(f"{prefix}.{a}", f"{prefix}.{b}") for a, b in rel}

    assert u.elements == tuple(f"0.{e}" for e in elems) + tuple(f"1.{e}" for e in other.elements)
    assert label_pairs(u, u.lt1) == tagged(0, lt1) | tagged(1, label_pairs(other, other.lt1))
    assert label_pairs(u, u.lt2) == tagged(0, lt2) | tagged(1, label_pairs(other, other.lt2))


def strict_orders_by_label_pairs(elems):
    """The strict partial orders on elems as sets of label pairs, filtered from
    all 0/1 vectors over the ordered pairs (a, b), a != b, in product order."""
    all_pairs = [(a, b) for a in elems for b in elems if a != b]
    orders = []
    for chi in itertools.product((0, 1), repeat=len(all_pairs)):
        rel = {p for p, c in zip(all_pairs, chi) if c}
        if any((b, a) in rel for a, b in rel):
            continue
        if any(
            (a, c) in rel and (c, b) in rel and (a, b) not in rel
            for a in elems
            for b in elems
            for c in elems
        ):
            continue
        orders.append(rel)
    return orders


def test_all_double_posets_sequence():
    # selftest's product sample (every 37th poset) and the acceptance tests'
    # seeded draws depend on this order
    for n in range(4):
        orders = strict_orders_by_label_pairs(labels_for(n))
        expected = [(lt1, lt2) for lt1 in orders for lt2 in orders]
        got = [(label_pairs(d, d.lt1), label_pairs(d, d.lt2)) for d in all_double_posets(n)]
        assert got == expected
        assert all(d.elements == tuple(labels_for(n)) for d in all_double_posets(n))
