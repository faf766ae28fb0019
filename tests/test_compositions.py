import pytest
from hypothesis import given, strategies as st

from qsymdp.compositions import (
    Composition,
    all_descents,
    comp_of_subset,
    _parts,
    compositions_between,
    compositions_of,
    conjugate,
    cube,
    descent_set,
    format_composition,
    in_sort_key_order,
    parse_composition,
    reverse,
    sort_key,
)
from qsymdp.verify import compositions_round_trip, descent_sets_round_trip
from qsymdp.young import parse_partition

comps = st.lists(st.integers(min_value=1, max_value=6), max_size=6).map(Composition)


def test_composition_rejects_nonpositive_parts():
    with pytest.raises(ValueError):
        Composition([2, 0, 1])
    with pytest.raises(ValueError, match=r"^composition parts must be >= 1, got \(0, 1\)$"):
        Composition([0, 1])


@pytest.mark.parametrize("parts", [[1.5, 2], [2.0], ["2"], [True, 1], "12"])
def test_composition_rejects_non_integer_parts(parts):
    with pytest.raises(ValueError, match="composition parts must be integers"):
        Composition(parts)


def test_descent_set_examples():
    assert descent_set(Composition()) == 0
    assert descent_set(Composition([2, 1, 3])) == 0b1100
    # prefix sums of (3,1,1,1,1,1,4)
    assert descent_set(Composition([3, 1, 1, 1, 1, 1, 4])) == 0b111111000


def test_comp_of_subset_examples():
    assert comp_of_subset(3, 0b10) == Composition([1, 2])
    assert comp_of_subset(0, 0) == Composition()
    assert comp_of_subset(6, 0b1100) == Composition([2, 1, 3])


def test_descent_set_rejects_out_of_range():
    # n < 0, a negative mask, bit 0, a bit >= n
    for n, mask in [(-1, 0), (3, -2), (3, 0b1), (3, 0b11), (3, 0b1000), (2, 0b100), (0, 0b10), (1, 0b10)]:
        with pytest.raises(ValueError):
            comp_of_subset(n, mask)


@pytest.mark.parametrize("n", range(7))
def test_compositions_between_is_the_descent_interval(n):
    every = list(compositions_of(n))
    for high in range(0, all_descents(n) + 1, 2):
        for low in range(0, high + 1, 2):
            if low & ~high:
                continue
            inside = [a for a in every if low & ~descent_set(a) == 0 and descent_set(a) & ~high == 0]
            between = list(compositions_between(n, low, high))
            assert sorted(between) == sorted(inside) and len(set(between)) == len(between)


@pytest.mark.parametrize("n", range(10))
def test_cube_is_the_sub_masks_in_index_order_with_their_compositions(n):
    # every disjoint (low, top) inside {1, ..., n-1}; bit j of a cell's index
    # selects the j-th lowest set bit of top
    for top in range(0, all_descents(n) + 1, 2):
        bits = [1 << d for d in range(n) if top >> d & 1]
        subs = [sum(b for j, b in enumerate(bits) if i >> j & 1) for i in range(1 << len(bits))]
        for low in range(0, all_descents(n) + 1, 2):
            if low & top:
                continue
            assert cube(n, low, top) == (subs, [_parts(n, low | s) for s in subs])


@given(st.lists(st.lists(st.integers(min_value=1, max_value=4), max_size=6).map(tuple), unique=True))
def test_in_sort_key_order_is_sorted_by_sort_key(keys):
    assert in_sort_key_order(keys) == sorted(keys, key=sort_key)


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


@pytest.mark.parametrize(
    "read, text",
    [
        (parse_composition, "(1_0)"),
        (parse_composition, "(+2, 1)"),
        (parse_composition, "(١,٢)"),
        (parse_composition, "(2,)"),
        (parse_partition, "[٢,1]"),
        (parse_partition, "[-1]"),
    ],
)
def test_text_readers_take_ascii_digits_only(read, text):
    with pytest.raises(ValueError):
        read(text)


def test_text_readers_allow_spaces_around_parts():
    assert parse_composition(" ( 2 , 1 ) ") == (2, 1)
    assert parse_partition("[ 2 ,1 ]") == (2, 1)
    assert parse_composition("( )") == ()
