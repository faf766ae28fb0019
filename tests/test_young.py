import itertools
from fractions import Fraction

import pytest

from qsymdp.compositions import Composition
from qsymdp.gamma import gamma
from qsymdp.oracles import build_Yh, gamma_linear_extensions, is_epartition, is_ssyt
from qsymdp.poset import is_special, is_tertispecial
from qsymdp.qsym import monomial
from qsymdp.young import (
    Partition,
    SkewShape,
    build_Y,
    conjugate_partition,
    conjugate_shape,
    parse_partition,
    parse_shape,
    schur_antipode_check,
    skew_schur,
)

from conftest import peeled_and_whole, skew_shapes


def shape(outer, inner=()):
    return SkewShape(outer=Partition(outer), inner=Partition(inner))


def partitions_of(n):
    if n == 0:
        yield Partition()
        return
    def rec(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for p in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - p, p):
                yield (p,) + rest
    for parts in rec(n, n):
        yield Partition(parts)


def ssyt_fillings(sh, m):
    cells = sh.cells
    for values in itertools.product(range(1, m + 1), repeat=len(cells)):
        filling = dict(zip(cells, values))
        if is_ssyt(sh, filling):
            yield filling


def schur_by_ssyt(sh, m):
    """Truncated monomial expansion from semistandard fillings into [m]."""
    poly = {}
    for filling in ssyt_fillings(sh, m):
        exps = [0] * m
        for v in filling.values():
            exps[v - 1] += 1
        key = tuple(exps)
        poly[key] = poly.get(key, Fraction(0)) + 1
    return poly


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])
    for parts in ([2.7, 1], [2.0], ["2"], [True]):
        with pytest.raises(ValueError, match="partition parts must be integers"):
            Partition(parts)
    assert Partition([3, 1]).size == 4


def test_conjugate_partition():
    assert conjugate_partition(Partition([3, 1])) == Partition([2, 1, 1])
    assert conjugate_partition(Partition()) == Partition()
    for n in range(6):
        for lam in partitions_of(n):
            assert conjugate_partition(conjugate_partition(lam)) == lam


def test_skew_shape_cells():
    sh = shape([2, 2], [1])
    assert sh.cells == ((1, 2), (2, 1), (2, 2))
    assert sh.size == 3
    with pytest.raises(ValueError):
        shape([1], [2])


def test_skew_shape_size_counts_cells():
    shapes = [shape(lam) for n in range(9) for lam in partitions_of(n)]
    shapes += [shape([2, 2], [1]), shape([3, 2], [1]), shape([2, 1], [1]), shape([], [])]
    for sh in shapes:
        assert sh.size == len(sh.cells)


def test_conjugate_shape():
    sh = conjugate_shape(shape([2, 2], [1]))
    assert sh.outer == Partition([2, 2]) and sh.inner == Partition([1])


def test_Y_is_tertispecial_and_Yh_is_special():
    for sh in (shape([2, 1]), shape([2, 2], [1]), shape([3, 1]), shape([1])):
        assert is_tertispecial(build_Y(sh))
        assert is_special(build_Yh(sh))


def test_ssyt_matches_epartitions():
    # fillings of up to 4 cells into {1,2,3}: SSYT <-> E-partitions of Y
    shapes = [shape([2, 1]), shape([2, 2]), shape([3, 1]), shape([2, 2], [1]), shape([4])]
    for sh in shapes:
        d = build_Y(sh)
        for values in itertools.product((1, 2, 3), repeat=sh.size):
            filling = dict(zip(sh.cells, values))
            pi = dict(enumerate(values))
            assert is_ssyt(sh, filling) == is_epartition(d, pi)


def test_skew_schur_matches_ssyt_enumeration():
    from qsymdp.oracles import _expand

    for n in range(5):
        for lam in partitions_of(n):
            sh = shape(lam)
            assert _expand(skew_schur(sh), n + 1) == schur_by_ssyt(sh, n + 1)
    sh = shape([2, 2], [1])
    assert _expand(skew_schur(sh), 4) == schur_by_ssyt(sh, 4)


def test_Y_and_Yh_give_same_schur():
    shapes = [shape([2, 1]), shape([3, 2]), shape([2, 2], [1]), shape([3, 1, 1])]
    for sh in shapes:
        assert gamma(build_Y(sh)) == gamma(build_Yh(sh))
    # and the sum of F_Des(T) over standard tableaux T, by the linear-extension oracle
    for n in range(11):
        for lam in partitions_of(n):
            sh = shape(lam)
            assert gamma_linear_extensions(build_Yh(sh)) == skew_schur(sh)


@pytest.mark.slow
def test_Yh_matches_linear_extensions_at_12_cells():
    for lam in partitions_of(12):
        sh = shape(lam)
        assert gamma_linear_extensions(build_Yh(sh)) == skew_schur(sh), lam


def test_schur_examples():
    M = lambda *p: monomial(Composition(p))
    assert skew_schur(shape([1])) == M(1)
    assert skew_schur(shape([1, 1])) == M(1, 1)
    assert skew_schur(shape([2])) == M(2) + M(1, 1)
    assert skew_schur(shape([2, 1])) == M(2, 1) + M(1, 2) + M(1, 1, 1).scale(2)
    assert skew_schur(shape([], [])) == monomial(Composition())


def test_skew_schur_is_symmetric():
    # coefficient of M_alpha depends only on the multiset of parts
    for sh in (shape([2, 1]), shape([3, 2], [1]), shape([2, 2, 1])):
        f = skew_schur(sh)
        for alpha, c in f.terms.items():
            for perm in itertools.permutations(alpha):
                assert f.coeff(Composition(perm)) == c


def test_schur_antipode_identity():
    for n in range(6):
        for lam in partitions_of(n):
            assert schur_antipode_check(shape(lam))
    assert schur_antipode_check(shape([2, 2], [1]))
    assert schur_antipode_check(shape([3, 2], [1]))


def test_schur_antipode_identity_upto_10_cells_and_larger_shapes():
    shapes = [shape(lam) for n in range(11) for lam in partitions_of(n)]
    shapes += [shape([5, 4, 3]), shape([6, 5, 4, 2], [3, 1]), shape([6, 5, 4])]
    for sh in shapes:
        assert schur_antipode_check(sh), sh


@pytest.mark.slow
def test_schur_antipode_identity_at_11_and_12_cells():
    for n in (11, 12):
        for lam in partitions_of(n):
            assert schur_antipode_check(shape(lam)), lam


def test_parse_shape():
    sh = parse_shape("[2,1]/[1]")
    assert sh.outer == Partition([2, 1]) and sh.inner == Partition([1])
    assert parse_shape("[3]").inner == Partition()
    assert parse_partition("[]") == Partition()
    with pytest.raises(ValueError):
        parse_shape("2,1")


# skew shapes up to the order of their components: 1, 1, 3, 7, 19, 47, 125,
# 318, 829, 2128, 5491 for 0..10 cells
SKEW_SHAPE_COUNTS = (1, 1, 3, 7, 19, 47, 125, 318, 829, 2128, 5491)


@pytest.mark.parametrize("n", [*range(8), *(pytest.param(n, marks=pytest.mark.slow) for n in (8, 9, 10))])
def test_peeled_gamma_equals_the_chain_sum_on_every_skew_shape(n):
    shapes = skew_shapes(n)
    assert len(shapes) == SKEW_SHAPE_COUNTS[n]
    for sh in shapes:
        d = build_Y(sh)
        peeled, whole = peeled_and_whole(d, [1] * sh.size)
        assert peeled == whole, sh
