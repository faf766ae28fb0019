import pytest
from hypothesis import given, strategies as st

from qsymdp.compositions import (
    Composition,
    DescentSet,
    comp_of_subset,
    compositions_of,
    conjugate,
    descent_set,
    format_composition,
    parse_composition,
    reverse,
)
from qsymdp.verify import compositions_round_trip, descent_sets_round_trip

comps = st.lists(st.integers(min_value=1, max_value=6), max_size=6).map(Composition)


def test_composition_rejects_nonpositive_parts():
    with pytest.raises(ValueError):
        Composition([2, 0, 1])


def test_descent_set_examples():
    assert descent_set(Composition()) == DescentSet(n=0, members=frozenset())
    assert descent_set(Composition([2, 1, 3])) == DescentSet(
        n=6, members=frozenset({2, 3})
    )
    # prefix sums of (3,1,1,1,1,1,4)
    assert descent_set(Composition([3, 1, 1, 1, 1, 1, 4])) == DescentSet(
        n=12, members=frozenset({3, 4, 5, 6, 7, 8})
    )


def test_comp_of_subset_examples():
    assert comp_of_subset(DescentSet(n=3, members=frozenset({1}))) == Composition(
        [1, 2]
    )
    assert comp_of_subset(DescentSet(n=0, members=frozenset())) == Composition()
    assert comp_of_subset(DescentSet(n=6, members=frozenset({2, 3}))) == Composition(
        [2, 1, 3]
    )


def test_descent_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        DescentSet(n=3, members=frozenset({3}))


def test_reverse_examples():
    assert reverse(Composition([2, 1, 3])) == Composition([3, 1, 2])
    assert reverse(Composition()) == Composition()
    assert reverse(Composition([5])) == Composition([5])


def test_conjugate_examples():
    assert conjugate(Composition([1, 2])) == Composition([1, 2])
    for n in range(1, 7):
        assert conjugate(Composition([n])) == Composition([1] * n)
    assert conjugate(Composition()) == Composition()


# the composition-calculus suite one n at a time, so that a failure names its n
@pytest.mark.parametrize("n", range(9))
def test_descent_comp_mutually_inverse(n):
    assert all(compositions_round_trip(n)) and all(descent_sets_round_trip(n))


@pytest.mark.parametrize("n", range(9))
def test_descents_of_reversal(n):
    assert all(compositions_round_trip(n))


def test_conjugate_is_involution_small():
    for n in range(9):
        for alpha in compositions_of(n):
            assert conjugate(conjugate(alpha)) == alpha


def test_compositions_of_count():
    # 2^(n-1) compositions of n >= 1
    for n in range(1, 9):
        assert len(list(compositions_of(n))) == 2 ** (n - 1)
    assert list(compositions_of(0)) == [Composition()]


@given(comps)
def test_text_round_trip(alpha):
    assert parse_composition(format_composition(alpha)) == alpha


@given(comps)
def test_reverse_involution(alpha):
    assert reverse(reverse(alpha)) == alpha


def test_format_examples():
    assert format_composition(Composition()) == "()"
    assert format_composition(Composition([2, 1, 3])) == "(2,1,3)"
