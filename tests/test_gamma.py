import inspect
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qsymdp.compositions import Composition, compositions_of
from qsymdp.gamma import (
    NotTertispecialError,
    WeightedDoublePoset,
    antipode_theorem_check,
    gamma,
    gamma_coproduct_check,
    gamma_product_check,
    weighted_from_json,
)
from qsymdp.oracles import (
    epartitions_into,
    gamma_linear_extensions,
    gamma_truncation_matches,
    is_epartition,
    is_epartition_covers,
)
from qsymdp.poset import build, is_special, is_tertispecial
from qsymdp.qsym import antipode_closed, coproduct, fundamental, monomial, product

from conftest import all_double_posets, random_double_poset, random_tertispecial_posets


def chain(n, strict=False):
    labs = [chr(ord("a") + i) for i in range(n)]
    gens = list(zip(labs, labs[1:]))
    lt2 = [(b, a) for a, b in gens] if strict else gens
    return WeightedDoublePoset(poset=build(labs, gens, lt2), w={})


def test_weight_defaults_to_all_ones():
    d = WeightedDoublePoset(poset=build("ab", [], []), w={})
    assert d.w == {"a": 1, "b": 1}
    assert d.degree == 2


def test_weight_validation():
    p = build("ab", [], [])
    with pytest.raises(ValueError):
        WeightedDoublePoset(poset=p, w={"a": 1})
    with pytest.raises(ValueError):
        WeightedDoublePoset(poset=p, w={"a": 1, "b": 0})
    for w in ({"a": 1.5, "b": True}, {"a": 1, "b": True}, {"a": 2.0, "b": 1}, {"a": 1, "b": "2"}):
        with pytest.raises(ValueError, match="^weights must be positive integers$"):
            WeightedDoublePoset(poset=p, w=w)


def test_gamma_module_not_shadowed_by_function():
    import qsymdp.gamma as m

    assert inspect.ismodule(m) and callable(m.gamma)


def test_is_epartition_chain():
    d = chain(2)  # a <1 b, a <2 b: weak increase suffices
    assert is_epartition(d, {"a": 1, "b": 1})
    assert not is_epartition(d, {"a": 2, "b": 1})
    s = chain(2, strict=True)  # <2 reversed: strict increase required
    assert not is_epartition(s, {"a": 1, "b": 1})
    assert is_epartition(s, {"a": 1, "b": 2})


def test_covers_test_matches_full_test_on_tertispecial():
    for d in all_double_posets(3):
        if not is_tertispecial(d):
            continue
        wd = WeightedDoublePoset(poset=d, w={})
        for values in itertools.product((1, 2, 3), repeat=3):
            pi = dict(zip(d.elements, values))
            assert is_epartition(wd, pi) == is_epartition_covers(wd, pi)


def test_covers_test_rejects_non_tertispecial():
    d = WeightedDoublePoset(poset=build("ab", [("a", "b")], []), w={})
    with pytest.raises(NotTertispecialError):
        is_epartition_covers(d, {"a": 1, "b": 1})


def test_gamma_antichain2():
    d = WeightedDoublePoset(poset=build("ab", [], []), w={})
    # packed maps {a:1,b:1}, {a:1,b:2}, {a:2,b:1}
    assert gamma(d) == monomial(Composition([2])) + 2 * monomial(Composition([1, 1]))


def test_gamma_empty_poset_is_one():
    d = WeightedDoublePoset(poset=build([], [], []), w={})
    assert gamma(d) == monomial(Composition())


def test_gamma_weighted_antichain2():
    d = WeightedDoublePoset(poset=build("ab", [], []), w={"a": 2, "b": 3})
    assert gamma(d) == (
        monomial(Composition([5])) + monomial(Composition([2, 3])) + monomial(Composition([3, 2]))
    )


def test_gamma_antichain8_is_multinomial():
    d = WeightedDoublePoset(poset=build("abcdefgh", [], []), w={})
    expected = {
        alpha: math.factorial(8) // math.prod(math.factorial(a) for a in alpha)
        for alpha in compositions_of(8)
    }
    assert gamma(d).terms == expected


def test_gamma_natural_chain12_is_fundamental():
    labs = [f"e{i}" for i in range(12)]
    gens = list(zip(labs, labs[1:]))
    d = WeightedDoublePoset(poset=build(labs, gens, gens), w={})
    assert gamma(d) == fundamental(Composition([12]))


def test_gamma_chain_is_single_monomial():
    # Example: a <1-chain with strict <2-reversal carrying weights (a1,...,ak)
    # has exactly one packed partition, so Gamma = M_alpha.
    for alpha in [a for n in range(6) for a in compositions_of(n)] + [(1, 2) * 6]:
        labs = [f"e{i}" for i in range(len(alpha))]
        gens = list(zip(labs, labs[1:]))
        lt2 = [(b, a) for a, b in gens]
        d = WeightedDoublePoset(
            poset=build(labs, gens, lt2), w=dict(zip(labs, alpha))
        )
        assert gamma(d) == monomial(Composition(alpha))


def test_gamma_matches_bruteforce_truncation():
    rng = random.Random(20240817)
    for n in range(4):
        for d in all_double_posets(n):
            for w in ({}, {e: rng.randint(1, 2) for e in d.elements}):
                wd = WeightedDoublePoset(poset=d, w=w)
                assert gamma_truncation_matches(wd, gamma(wd), n + 1)


def test_packed_count_matches_bruteforce_packed_filter():
    for d in all_double_posets(3):
        wd = WeightedDoublePoset(poset=d, w={})
        brute = 0
        for pi in epartitions_into(wd, 3):
            image = sorted(set(pi.values()))
            brute += image == list(range(1, len(image) + 1))
        assert sum(gamma(wd).terms.values()) == brute


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=5), st.randoms(use_true_random=False), st.data())
def test_gamma_matches_bruteforce_truncation_drawn(n, rng, data):
    d = random_double_poset(n, rng)
    weights = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    wd = WeightedDoublePoset(poset=d, w=dict(zip(d.elements, weights)))
    assert gamma_truncation_matches(wd, gamma(wd), n + 1)


def test_antipode_theorem_true_on_tertispecial():
    # every tertispecial poset with |E| <= 3: the antipode-theorem suite
    rng = random.Random(7)
    for d in random_tertispecial_posets(4, 25):
        w = {e: rng.randint(1, 2) for e in d.elements}
        assert antipode_theorem_check(WeightedDoublePoset(poset=d, w=w))


def test_antipode_theorem_fails_on_designated_example():
    # a <1 b with empty <2 is not tertispecial and the identity fails
    d = WeightedDoublePoset(poset=build("ab", [("a", "b")], []), w={})
    assert not antipode_theorem_check(d)


def test_coproduct_check_takes_gamma_of_each_restriction_once(monkeypatch):
    import qsymdp.gamma as m

    calls = []

    def counted(d):
        calls.append(d.poset.elements)
        return gamma(d)

    monkeypatch.setattr(m, "gamma", counted)
    assert gamma_coproduct_check(WeightedDoublePoset(poset=build("abc", [], []), w={}))
    # the 8 subsets of the 3-antichain, each once, and E itself for the left side
    assert len(calls) == 9 and len(set(calls)) == 8


def test_gamma_product_rule_sampled():
    rng = random.Random(3)
    pool2 = all_double_posets(2)
    pool3 = all_double_posets(3)
    samples = [(rng.choice(pool2), rng.choice(pool3)) for _ in range(10)]
    samples += [(rng.choice(pool2), rng.choice(pool2)) for _ in range(10)]
    for d1, d2 in samples:
        w1 = {e: rng.randint(1, 2) for e in d1.elements}
        w2 = {e: rng.randint(1, 2) for e in d2.elements}
        assert gamma_product_check(
            WeightedDoublePoset(poset=d1, w=w1),
            WeightedDoublePoset(poset=d2, w=w2),
        )
    anti3 = WeightedDoublePoset(poset=build("abc", [], []), w={"a": 3, "b": 2, "c": 3})
    assert gamma_product_check(anti3, anti3)


def test_coefficients_stay_integers():
    # Gamma counts E-partitions, and product, coproduct and antipode do not divide
    readme = build("abc", [("a", "b"), ("a", "c")], [("a", "b"), ("c", "a")])
    g = gamma(WeightedDoublePoset(poset=readme, w={"a": 1, "b": 2, "c": 1}))
    elems = [g, product(g, g), antipode_closed(g), fundamental((2, 1, 3))]
    elems += [f for pair in coproduct(g) for f in pair]
    assert all(f.terms for f in elems)
    assert all(type(c) is int for f in elems for c in f.terms.values())


def test_weighted_from_json():
    doc = {
        "elements": ["a", "b"],
        "lt1": [["a", "b"]],
        "lt2": [["b", "a"]],
        "w": {"a": 2, "b": 1},
    }
    d = weighted_from_json(json.dumps(doc))
    assert d.w == {"a": 2, "b": 1}
    assert gamma(d) == monomial(Composition([2, 1]))
    doc.pop("w")
    assert weighted_from_json(json.dumps(doc)).w == {"a": 1, "b": 1}


def assert_linear_extensions_match(n):
    # every special double poset on n elements, weights all 1 and 1, 2, 3, 1, ...
    for d in all_double_posets(n):
        if is_special(d):
            for w in ({}, {e: 1 + i % 3 for i, e in enumerate(d.elements)}):
                wd = WeightedDoublePoset(poset=d, w=w)
                assert gamma_linear_extensions(wd) == gamma(wd)


def test_linear_extensions_match_gamma_exhaustive():
    for n in range(4):
        assert_linear_extensions_match(n)
    with pytest.raises(ValueError):  # <2 not total
        gamma_linear_extensions(WeightedDoublePoset(poset=build("ab", [], []), w={}))


@pytest.mark.slow
def test_linear_extensions_match_gamma_size4():
    assert_linear_extensions_match(4)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=5, max_value=7), st.randoms(use_true_random=False), st.data())
def test_linear_extensions_match_gamma_drawn(n, rng, data):
    # <1 generated by pairs that follow one random order, so it is acyclic; <2 another order
    labs = [chr(ord("a") + i) for i in range(n)]
    along1, along2, density = rng.sample(labs, n), rng.sample(labs, n), rng.random()
    lt1 = [(a, b) for i, a in enumerate(along1) for b in along1[i + 1:] if rng.random() < density]
    weights = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    d = build(labs, lt1, zip(along2, along2[1:]))
    wd = WeightedDoublePoset(poset=d, w=dict(zip(labs, weights)))
    assert gamma_linear_extensions(wd) == gamma(wd)


@pytest.mark.slow
def test_gamma_truncation_exhaustive_size4():
    # every double poset with |E| = 4 (219^2 of them), two weightings
    for d in all_double_posets(4):
        for w in ({}, {e: 1 + i % 2 for i, e in enumerate(d.elements)}):
            wd = WeightedDoublePoset(poset=d, w=w)
            assert gamma_truncation_matches(wd, gamma(wd), 4)
