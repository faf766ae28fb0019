"""Compositions of nonnegative integers and their descent-set calculus."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple


class Composition(tuple):
    """A finite sequence of positive integers.  The empty composition is ``()``."""

    def __new__(cls, parts: Iterable[int] = ()) -> "Composition":
        parts = tuple(parts)
        if not all(type(p) is int for p in parts):  # no bool, float or str
            raise ValueError(f"composition parts must be integers, got {parts}")
        if min(parts, default=1) < 1:
            raise ValueError(f"composition parts must be >= 1, got {parts}")
        return super().__new__(cls, parts)

    def __repr__(self) -> str:
        return f"Composition({tuple(self)!r})"


@dataclass(frozen=True)
class DescentSet:
    """A subset of {1, ..., n-1} together with its ambient size n."""

    n: int
    members: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ambient size must be nonnegative")
        bad = [u for u in self.members if not (1 <= u <= self.n - 1)]
        if bad:
            raise ValueError(f"descent members {bad} outside {{1,...,{self.n - 1}}}")


def sort_key(alpha: Tuple[int, ...]) -> tuple:
    """Deterministic order: by size, then length, then lexicographic on parts."""
    return (sum(alpha), len(alpha), alpha)


def descent_set(alpha: Composition) -> DescentSet:
    """Proper prefix sums of ``alpha``, with ambient size n = |alpha|."""
    sums = list(itertools.accumulate(alpha))
    return DescentSet(n=sum(alpha), members=frozenset(sums[:-1]))


def _parts(n: int, cuts: frozenset) -> Tuple[int, ...]:
    """The parts between the cut points 0 < c_1 < ... < n: successive
    differences of sorted(cuts | {0, n})."""
    pts = sorted(cuts | {0, n})
    return tuple(b - a for a, b in zip(pts, pts[1:]))


def comp_of_subset(d: DescentSet) -> Composition:
    """The unique composition of d.n whose descent set is d."""
    return Composition(_parts(d.n, d.members))


def reverse(alpha: Tuple[int, ...]) -> Tuple[int, ...]:
    return alpha[::-1]


def conjugate(alpha: Composition) -> Composition:
    """The conjugate composition: its descent set is the complement of D(rev alpha)."""
    n = sum(alpha)
    rev_d = descent_set(reverse(alpha)).members
    complement = frozenset(range(1, n)) - rev_d
    return comp_of_subset(DescentSet(n=n, members=complement))


def compositions_between(n: int, low: Iterable[int], high: Iterable[int]) -> Iterator[Tuple[int, ...]]:
    """The compositions of n whose descent set D satisfies low <= D <= high,
    as plain tuples: they are built from cut points, so there is nothing to check."""
    low = frozenset(low)
    extra = sorted(frozenset(high) - low)
    for k in range(len(extra) + 1):
        for sub in itertools.combinations(extra, k):
            yield _parts(n, low.union(sub))


def compositions_of(n: int) -> Iterator[Tuple[int, ...]]:
    """All compositions of n, in the deterministic order of sort_key."""
    return iter(sorted(compositions_between(n, (), range(1, n)), key=sort_key))


def format_composition(alpha: Composition) -> str:
    return "(" + ",".join(str(p) for p in alpha) + ")"


def parse_composition(text: str) -> Composition:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"composition must be parenthesized: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return Composition()
    return Composition(int(p) for p in inner.split(","))
