"""Skew Young-diagram double posets and skew Schur functions."""

from __future__ import annotations

import re
from typing import Iterable, Tuple

from .compositions import parse_parts
from .gamma import gamma, gamma_masks, strict_pairs
from .poset import DoublePoset, Rel
from .qsym import QSymElem, antipode_masks

Cell = Tuple[int, int]


class Partition(tuple):
    """A weakly decreasing sequence of positive integers."""

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(parts)
        if not all(type(p) is int for p in parts):  # no bool, float or str
            raise ValueError(f"partition parts must be integers, got {parts}")
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be >= 1, got {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"partition parts must weakly decrease, got {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)


def conjugate_partition(lam: Partition) -> Partition:
    if not lam:
        return Partition()
    return Partition(
        sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1)
    )


class SkewShape:
    """The cells of the Young diagram of outer that are not in that of inner."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition):
        padded = tuple(inner) + (0,) * (len(outer) - len(inner))
        if len(inner) > len(outer) or any(m > l for m, l in zip(padded, outer)):
            raise ValueError(f"inner {tuple(inner)} not contained in outer {tuple(outer)}")
        self.outer, self.inner = outer, inner

    @property
    def cells(self) -> Tuple[Cell, ...]:
        padded = tuple(self.inner) + (0,) * (len(self.outer) - len(self.inner))
        return tuple(
            (i, j)
            for i, (lam, mu) in enumerate(zip(self.outer, padded), start=1)
            for j in range(mu + 1, lam + 1)
        )

    @property
    def size(self) -> int:
        """The number of cells, without building them."""
        return sum(self.outer) - sum(self.inner)


def conjugate_shape(shape: SkewShape) -> SkewShape:
    return SkewShape(
        outer=conjugate_partition(shape.outer),
        inner=conjugate_partition(shape.inner),
    )


def cell_poset(shape: SkewShape, below2) -> DoublePoset:
    """The cells ordered by <1, (i,j) <1 (i',j') iff both coordinates weakly
    increase, and by <2, a <2 b iff below2(a, b); both are transitive as
    given, so no closure is taken."""
    cells = shape.cells

    def rel(less) -> Rel:
        return tuple(sum(1 << j for j, b in enumerate(cells) if less(a, b)) for a in cells)

    lt1 = rel(lambda a, b: a != b and a[0] <= b[0] and a[1] <= b[1])
    labels = tuple(f"{i},{j}" for i, j in cells)
    return DoublePoset(labels, lt1, rel(below2))


def build_Y(shape: SkewShape) -> DoublePoset:
    """The tertispecial double poset on the cells: (i,j) <1 (i',j') iff both
    coordinates weakly increase; (i,j) <2 (i',j') iff i >= i', j <= j'."""
    return cell_poset(shape, lambda a, b: a != b and a[0] >= b[0] and a[1] <= b[1])


def skew_schur(shape: SkewShape) -> QSymElem:
    """The skew Schur function as the generating function of the cell poset."""
    return gamma(build_Y(shape))


def schur_antipode_check(shape: SkewShape) -> bool:
    """True iff S(s_{lambda/mu}) = (-1)^(number of cells) s_{lambda^t/mu^t},
    both sides in descent masks: the Gammas of the two cell posets."""
    y, t = build_Y(shape), build_Y(conjugate_shape(shape))
    n, masks = gamma_masks(y.lt1, strict_pairs(y), y.w)
    sign = (-1) ** shape.size
    rhs = {mask: sign * c for mask, c in gamma_masks(t.lt1, strict_pairs(t), t.w)[1].items()}
    return antipode_masks(n, masks) == rhs


_SHAPE_RE = re.compile(r"^\s*(\[[0-9,\s]*\])\s*(?:/\s*(\[[0-9,\s]*\]))?\s*$")


def parse_partition(text: str) -> Partition:
    return Partition(parse_parts(text, "[]", "partition"))


def parse_shape(text: str) -> SkewShape:
    """CLI syntax: ``[2,1]`` or ``[2,2]/[1]``."""
    m = _SHAPE_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse shape {text!r}")
    outer = parse_partition(m.group(1))
    inner = parse_partition(m.group(2)) if m.group(2) else Partition()
    return SkewShape(outer=outer, inner=inner)
