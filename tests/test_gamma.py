import inspect
import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from qsymdp.compositions import Composition, compositions_of, conjugate, descent_set
from qsymdp.gamma import (
    NotTertispecialError,
    antipode_theorem_check,
    antipode_theorem_sides,
    gamma,
    gamma_coproduct_check,
    gamma_product_check,
    strict_pairs,
    weighted_from_dict,
)
from qsymdp.oracles import (
    epartitions_into,
    gamma_linear_extensions,
    gamma_truncation_matches,
    is_epartition,
    is_epartition_covers,
    product_truncation_matches,
)
from qsymdp.poset import DoublePoset, build, is_special, is_tertispecial, opposite1, squeeze
from qsymdp.qsym import BoundExceededError, antipode_closed, coproduct, fundamental, monomial, product

from conftest import (
    all_double_posets,
    chain,
    less1,
    less2,
    opposite2,
    peeled_and_whole,
    random_double_poset,
    random_tertispecial_posets,
    restrict,
    weighted,
)


def test_weight_defaults_to_all_ones():
    d = build("ab", [], [])
    assert d.w == (1, 1)
    assert sum(d.w) == 2


def test_weight_validation():
    p = build("ab", [], [])
    with pytest.raises(ValueError):
        build("ab", [], [], w=(1,))
    with pytest.raises(ValueError):
        build("ab", [], [], w=(1, 0))
    for w in ((1.5, True), (1, True), (2.0, 1), (1, "2")):
        with pytest.raises(ValueError, match="^weights must be positive integers$"):
            DoublePoset(p.elements, p.lt1, p.lt2, w)


def test_weights_are_a_tuple_over_the_declaration_index():
    p = build("ab", [], [])
    for w in ({"a": 1, "b": 2}, {1: 1, 2: 1}):  # not weighed by the keys
        with pytest.raises(ValueError, match="^weights are a sequence over the declaration index"):
            build("ab", [], [], w=w)
    for w in ((1,), (1, 2, 3), [2, 1, 1]):
        with pytest.raises(ValueError, match="^weight function must be total on the ground set$"):
            DoublePoset(p.elements, p.lt1, p.lt2, w)
    assert build("ab", [], [], w=[2, 1]).w == DoublePoset(p.elements, p.lt1, p.lt2, [2, 1]).w == (2, 1)


def test_gamma_module_not_shadowed_by_function():
    import qsymdp.gamma as m

    assert inspect.ismodule(m) and callable(m.gamma)


def test_is_epartition_chain():
    d = chain(2)  # a <1 b, a <2 b: weak increase suffices
    assert is_epartition(d, {0: 1, 1: 1})
    assert not is_epartition(d, {0: 2, 1: 1})
    s = chain(2, strict=True)  # <2 reversed: strict increase required
    assert not is_epartition(s, {0: 1, 1: 1})
    assert is_epartition(s, {0: 1, 1: 2})
    for partial in ({0: 1}, {"a": 1, "b": 2}):  # keyed by declaration index, total
        with pytest.raises(ValueError, match="^partition map must be total on the ground set$"):
            is_epartition(s, partial)


def test_covers_test_matches_full_test_on_tertispecial():
    for d in all_double_posets(3):
        if not is_tertispecial(d):
            continue
        for values in itertools.product((1, 2, 3), repeat=3):
            pi = dict(enumerate(values))
            assert is_epartition(d, pi) == is_epartition_covers(d, pi)


def test_covers_test_rejects_non_tertispecial():
    d = build("ab", [("a", "b")], [])
    with pytest.raises(NotTertispecialError):
        is_epartition_covers(d, {0: 1, 1: 1})


def test_gamma_antichain2():
    d = build("ab", [], [])
    # packed maps {a:1,b:1}, {a:1,b:2}, {a:2,b:1}
    assert gamma(d) == monomial(Composition([2])) + monomial(Composition([1, 1])).scale(2)


def test_gamma_empty_poset_is_one():
    d = build([], [], [])
    assert gamma(d) == monomial(Composition())


def test_gamma_weighted_antichain2():
    d = build("ab", [], [], w=(2, 3))
    assert gamma(d) == (
        monomial(Composition([5])) + monomial(Composition([2, 3])) + monomial(Composition([3, 2]))
    )


def test_gamma_antichain8_is_multinomial():
    d = build("abcdefgh", [], [])
    expected = {
        alpha: math.factorial(8) // math.prod(math.factorial(a) for a in alpha)
        for alpha in compositions_of(8)
    }
    assert gamma(d).terms == expected


def test_gamma_natural_chain12_is_fundamental():
    labs = [f"e{i}" for i in range(12)]
    gens = list(zip(labs, labs[1:]))
    d = build(labs, gens, gens)
    assert gamma(d) == fundamental(Composition([12]))


def test_gamma_chain_is_single_monomial():
    # Example: a <1-chain with strict <2-reversal carrying weights (a1,...,ak)
    # has exactly one packed partition, so Gamma = M_alpha.
    for alpha in [a for n in range(9) for a in compositions_of(n)] + [(1, 2) * 6]:
        labs = [f"e{i}" for i in range(len(alpha))]
        gens = list(zip(labs, labs[1:]))
        lt2 = [(b, a) for a, b in gens]
        d = build(labs, gens, lt2, w=alpha)
        assert gamma(d) == monomial(Composition(alpha))


def zigzag_chain(alpha):
    """The chain e0 <1 e1 <1 ... on |alpha| elements whose <2 runs against <1
    exactly at the descents: e_i <2 e_(i-1) if i is in D(alpha), else e_(i-1) <2 e_i."""
    labs = [f"e{i}" for i in range(sum(alpha))]
    gens = list(zip(labs, labs[1:]))
    d = descent_set(alpha)
    lt2 = [(b, a) if d >> i & 1 else (a, b) for i, (a, b) in enumerate(gens, 1)]
    return build(labs, gens, lt2)


def test_zigzag_chain_is_fundamental():
    # a route to F_alpha that does not go through compositions_between
    for n in range(10):
        for alpha in compositions_of(n):
            assert gamma(zigzag_chain(alpha)) == fundamental(alpha)


def test_antipode_theorem_on_zigzag_chain_is_conjugate_rule():
    # every <1-cover of the chain is <2-comparable, so the antipode theorem
    # holds, and on it both sides read S(F_alpha) = (-1)^n F_conj(alpha)
    for n in range(9):
        for alpha in compositions_of(n):
            d = zigzag_chain(alpha)
            assert is_tertispecial(d)
            expected = fundamental(conjugate(alpha)).scale((-1) ** n)
            assert antipode_theorem_sides(d) == (expected, expected)


def test_gamma_matches_bruteforce_truncation():
    rng = random.Random(20240817)
    for n in range(4):
        for d in all_double_posets(n):
            for w in ((), tuple(rng.randint(1, 2) for _ in d.elements)):
                wd = weighted(d, w)
                assert gamma_truncation_matches(wd, gamma(wd), n + 1)
                # each coefficient counts E-partitions, so the coproduct table's sums of products hold no zero
                assert all(c > 0 for c in gamma(wd).terms.values())


def test_packed_count_matches_bruteforce_packed_filter():
    for d in all_double_posets(3):
        brute = 0
        for pi in epartitions_into(d, 3):
            image = sorted(set(pi.values()))
            brute += image == list(range(1, len(image) + 1))
        assert sum(gamma(d).terms.values()) == brute


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=5), st.randoms(use_true_random=False), st.data())
def test_gamma_matches_bruteforce_truncation_drawn(n, rng, data):
    d = random_double_poset(n, rng)
    weights = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    wd = weighted(d, weights)
    assert gamma_truncation_matches(wd, gamma(wd), n + 1)


def test_antipode_theorem_true_on_tertispecial():
    # every tertispecial poset with |E| <= 3: the antipode-theorem suite
    rng = random.Random(7)
    for d in random_tertispecial_posets(4, 25):
        w = tuple(rng.randint(1, 2) for _ in d.elements)
        assert antipode_theorem_check(weighted(d, w))


def test_antipode_theorem_fails_on_designated_example():
    # a <1 b with empty <2 is not tertispecial and the identity fails
    d = build("ab", [("a", "b")], [])
    assert not antipode_theorem_check(d)


def test_antipode_theorem_holds_exactly_on_the_tertispecial_posets():
    # the converse census: for |E| <= 3 the identity fails on every
    # non-tertispecial double poset, under either weighting
    posets = [d for n in range(4) for d in all_double_posets(n)]
    tert = [d for d in posets if is_tertispecial(d)]
    assert (len(posets) - len(tert), len(tert)) == (176, 196)
    for d in posets:
        for w in ((), tuple(1 + i % 2 for i in range(d.size))):
            assert antipode_theorem_check(weighted(d, w)) == is_tertispecial(d)


def test_coproduct_check_takes_gamma_of_each_restriction_once(monkeypatch):
    import qsymdp.gamma as m

    calls = []
    memo = m.gamma_of_orders

    def counted(*key):
        calls.append(key)
        return memo(*key)

    monkeypatch.setattr(m, "gamma_of_orders", counted)
    m.coproduct_check_of_orders.cache_clear()  # a memoised verdict would call nothing
    # distinct weights give each subset of the 3-antichain its own key
    assert gamma_coproduct_check(build("abc", [], [], w=(1, 2, 3)))
    # the 8 subsets, each once, and E itself for the left side
    assert len(calls) == 9 and len(set(calls)) == 8


def test_strict_pairs_match_the_definition():
    # strict[i] holds j exactly when i <1 j and j <2 i
    for n in range(4):
        for p in all_double_posets(n):
            want = tuple(
                sum(1 << j for j, b in enumerate(p.elements) if less1(p, a, b) and less2(p, b, a))
                for a in p.elements
            )
            assert strict_pairs(p) == want, p


@pytest.mark.parametrize("n", [0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_index_routes_match_the_labelled_posets(n):
    # the coproduct check squeezes the strict pairs of E by mask; the antipode
    # sides take the flipped Gamma of opposite1(E), which must carry E's weights
    for p in all_double_posets(n):
        strict = strict_pairs(p)
        for mask in range(1 << n):
            assert squeeze(strict, mask) == strict_pairs(restrict(p, mask)), (p, mask)
        for w in ((), tuple(1 + i % 2 for i in range(p.size))):
            d = weighted(p, w)
            flipped = gamma(weighted(opposite1(p), d.w)).scale((-1) ** n)
            assert antipode_theorem_sides(d) == (antipode_closed(gamma(d)), flipped)


@pytest.mark.parametrize("n", [0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_reversing_both_orders_reverses_gamma(n):
    # phi -> k + 1 - phi takes the packed E-partitions of (E, <1, <2) onto those
    # of (E, >1, >2), so Gamma(E, >1, >2) = rev Gamma(E, <1, <2), rev M_alpha = M_rev(alpha)
    for p in all_double_posets(n):
        both = opposite1(opposite2(p))
        for w in ((), tuple(1 + i % 2 for i in range(p.size))):
            reversed_terms = {alpha[::-1]: c for alpha, c in gamma(weighted(p, w)).terms.items()}
            assert gamma(weighted(both, w)).terms == reversed_terms


@pytest.mark.parametrize("n", [0, 1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_peeled_gamma_equals_the_chain_sum_on_every_double_poset(n):
    for d in all_double_posets(n):
        for w in ([1] * n, [1 + i % 2 for i in range(n)]):
            peeled, whole = peeled_and_whole(d, w)
            assert peeled == whole, (d, w)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False), st.data())
def test_peeled_gamma_equals_the_chain_sum_drawn(n, rng, data):
    # a drawn double poset with a drawn nonempty set of elements cut out of <1;
    # what is left of <1 is still transitive, and <2 keeps its pairs
    d = random_double_poset(n, rng)
    isolated = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
    cut = sum(1 << i for i in isolated)
    lt1 = tuple(0 if i in isolated else up & ~cut for i, up in enumerate(d.lt1))
    w = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    peeled, whole = peeled_and_whole(DoublePoset(d.elements, lt1, d.lt2), w)
    assert peeled == whole


def test_gamma_antichain12_takes_the_peel():
    import qsymdp.gamma as m

    m.gamma_of_orders.cache_clear()
    d = build("abcdefghijkl", [], [])
    start = time.perf_counter()
    terms = gamma(d).terms
    assert time.perf_counter() - start < 0.5  # the chain sum takes seconds
    assert terms == {
        alpha: math.factorial(12) // math.prod(math.factorial(a) for a in alpha) for alpha in compositions_of(12)
    }
    assert m.gamma_of_orders.cache_info()[:2] == (0, 1)


def test_gamma_is_memoised_on_orders_and_weights():
    import qsymdp.gamma as m

    cache = m.gamma_of_orders
    assert callable(cache.cache_clear) and 0 < cache.cache_info().maxsize < math.inf
    cache.cache_clear()
    d = build("abc", [("a", "b")], [("b", "a")], w=(1, 2, 1))
    relabelled = build("xyz", [("x", "y")], [("y", "x")], w=(1, 2, 1))
    first = gamma(d)
    assert cache.cache_info()[:2] == (0, 1)  # (hits, misses)
    assert gamma(relabelled) == first and cache.cache_info()[:2] == (1, 1)
    reweighted = weighted(d, (2, 1, 1))
    assert gamma(reweighted) != first and cache.cache_info()[:2] == (1, 2)
    # <2 is read only on <1-comparable pairs: c <2 a and b <2 c change no strict pair
    w = d.w
    same_strict = build("abc", [("a", "b")], [("b", "c"), ("c", "a")], w=w)
    assert gamma(same_strict) == first and cache.cache_info()[:2] == (2, 2)
    # a <2 b makes the pair a <1 b weak: a new key
    weak = build("abc", [("a", "b")], [("a", "b")], w=w)
    assert gamma(weak) != first and cache.cache_info()[:2] == (2, 3)


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("qsymdp."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def test_memoised_check_verdicts_equal_the_cold_ones():
    # a memo key that left out something a check reads would hand a poset the
    # verdict of an earlier poset with the same key; a verdict computed with
    # every cache cleared cannot
    import qsymdp.gamma as m

    for cache in (m.coproduct_check_of_orders, m.antipode_check_of_orders):
        assert cache.cache_info().maxsize == m.GAMMA_CACHE_SIZE
    posets = [
        weighted(p, w) for n in range(4) for p in all_double_posets(n) for w in ((), tuple(1 + i % 2 for i in range(n)))
    ]
    _clear_package_caches()
    warm = [(gamma_coproduct_check(d), antipode_theorem_check(d)) for d in posets]
    for d, verdicts in zip(posets, warm):
        _clear_package_caches()
        coproduct_rule = gamma_coproduct_check(d)
        _clear_package_caches()
        assert (coproduct_rule, antipode_theorem_check(d)) == verdicts, d
    assert {v for _, v in warm} == {False, True}


def test_antipode_verdict_is_keyed_on_the_flipped_strict_pairs():
    # a <1 b with a <2 b is tertispecial and the theorem holds; with no <2 it
    # fails.  The two share <1, the strict pairs and w, and differ only in the
    # strict pairs of opposite1, which the memo key must therefore hold
    holds = build("ab", [("a", "b")], [("a", "b")])
    fails = build("ab", [("a", "b")], [])
    assert (holds.lt1, strict_pairs(holds), holds.w) == (fails.lt1, strict_pairs(fails), fails.w)
    assert strict_pairs(opposite1(holds)) != strict_pairs(opposite1(fails))
    for first, second in ((holds, fails), (fails, holds)):
        _clear_package_caches()
        assert [antipode_theorem_check(first), antipode_theorem_check(second)] == [first is holds, second is holds]


def test_refused_gamma_is_refused_again():
    huge = build("a", [], [], w=(10**21,))
    for _ in range(2):
        with pytest.raises(BoundExceededError, match="2000000"):
            gamma(huge)


def test_refused_enumeration_is_refused_again():
    import qsymdp.oracles as m

    d = chain(3)
    tables = (m._map_table, m._exponent_table, m._monomial_exponents)
    before = [t.cache_info().currsize for t in tables]
    for _ in range(2):
        with pytest.raises(BoundExceededError, match="200\\^3 assignments exceed limit 2000000"):
            epartitions_into(d, 200)
        with pytest.raises(BoundExceededError, match="200\\^3"):  # before f is expanded in 200 variables
            gamma_truncation_matches(d, gamma(d), 200)
    assert [t.cache_info().currsize for t in tables] == before
    # above MAP_TABLE_LIMIT the maps are streamed, not tabulated
    assert 17**3 > m.MAP_TABLE_LIMIT
    assert len(epartitions_into(d, 17)) == math.comb(19, 3)
    assert gamma_truncation_matches(d, gamma(d), 17)
    assert [t.cache_info().currsize for t in tables[:2]] == before[:2]


def test_expansion_is_refused_before_it_is_built():
    # Gamma of the 3-chain in 200 variables: 1353400 exponent vectors of 200 entries
    import qsymdp.oracles as m

    f = gamma(chain(3))
    before = m._monomial_exponents.cache_info().currsize
    for check in (lambda: m._expand(f, 200), lambda: product_truncation_matches(f, f, 200)):
        start = time.perf_counter()
        with pytest.raises(BoundExceededError, match="in 200 variables needs over 2000000 exponent entries"):
            check()
        assert time.perf_counter() - start < 0.1
    assert m._monomial_exponents.cache_info().currsize == before
    assert product_truncation_matches(f, f, 6)


def test_gamma_product_rule_sampled():
    rng = random.Random(3)
    pool2 = all_double_posets(2)
    pool3 = all_double_posets(3)
    samples = [(rng.choice(pool2), rng.choice(pool3)) for _ in range(10)]
    samples += [(rng.choice(pool2), rng.choice(pool2)) for _ in range(10)]
    for d1, d2 in samples:
        w1 = tuple(rng.randint(1, 2) for _ in d1.elements)
        w2 = tuple(rng.randint(1, 2) for _ in d2.elements)
        assert gamma_product_check(
            weighted(d1, w1),
            weighted(d2, w2),
        )
    anti3 = build("abc", [], [], w=(3, 2, 3))
    assert gamma_product_check(anti3, anti3)


def test_coefficients_stay_integers():
    # Gamma counts E-partitions, and product, coproduct and antipode do not divide
    readme = build("abc", [("a", "b"), ("a", "c")], [("a", "b"), ("c", "a")])
    g = gamma(weighted(readme, (1, 2, 1)))
    tables = [f.terms for f in (g, product(g, g), antipode_closed(g), fundamental((2, 1, 3)))] + [coproduct(g)]
    assert all(tables)
    assert all(type(c) is int and c for table in tables for c in table.values())


def test_weighted_from_json():
    doc = {
        "elements": ["a", "b"],
        "lt1": [["a", "b"]],
        "lt2": [["b", "a"]],
        "w": {"a": 2, "b": 1},
    }
    d = weighted_from_dict(doc)
    assert d.w == (2, 1)
    assert gamma(d) == monomial(Composition([2, 1]))
    doc.pop("w")
    assert weighted_from_dict(doc).w == (1, 1)
    # read in the order of "elements", not in the order of the object's keys
    assert weighted_from_dict({"elements": ["b", "a"], "w": {"a": 2, "b": 1}}).w == (1, 2)


def assert_linear_extensions_match(n):
    # every special double poset on n elements, weights all 1 and 1, 2, 3, 1, ...
    for d in all_double_posets(n):
        if is_special(d):
            for w in ((), tuple(1 + i % 3 for i in range(d.size))):
                wd = weighted(d, w)
                assert gamma_linear_extensions(wd) == gamma(wd)


def test_linear_extensions_match_gamma_exhaustive():
    for n in range(4):
        assert_linear_extensions_match(n)
    with pytest.raises(ValueError):  # <2 not total
        gamma_linear_extensions(build("ab", [], []))


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
    wd = weighted(d, weights)
    assert gamma_linear_extensions(wd) == gamma(wd)


@pytest.mark.slow
def test_gamma_truncation_exhaustive_size4():
    # every double poset with |E| = 4 (219^2 of them), two weightings
    for d in all_double_posets(4):
        for w in ((), tuple(1 + i % 2 for i in range(d.size))):
            wd = weighted(d, w)
            assert gamma_truncation_matches(wd, gamma(wd), 4)
