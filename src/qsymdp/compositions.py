"""Compositions of nonnegative integers and their descent-set calculus."""

from __future__ import annotations

import re
from typing import Iterable, Iterator, List, Tuple


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


def sort_key(alpha: Tuple[int, ...]) -> tuple:
    """Deterministic order: by size, then length, then lexicographic on parts."""
    return (sum(alpha), len(alpha), alpha)


def descent_set(alpha: Tuple[int, ...]) -> int:
    """The proper prefix sums of ``alpha`` as a mask: bit d is set iff d is in D(alpha)."""
    mask, total = 0, 0
    for part in alpha[:-1]:
        total += part
        mask |= 1 << total
    return mask


def all_descents(n: int) -> int:
    """The mask of {1, ..., n-1}, the descent set of (1, ..., 1)."""
    return ((1 << n) - 1) & ~1


def _parts(n: int, mask: int) -> Tuple[int, ...]:
    """The parts between the cut points 0 < c_1 < ... < n, the set bits of mask above bit 0."""
    parts, last, mask = [], 0, (mask | 1 << n) & ~1
    while mask:
        cut = (mask & -mask).bit_length() - 1
        parts.append(cut - last)
        last, mask = cut, mask & (mask - 1)
    return tuple(parts)


def comp_of_subset(n: int, mask: int) -> Composition:
    """The unique composition of n whose descent set is mask, a subset of {1, ..., n-1}."""
    if n < 0:
        raise ValueError("ambient size must be nonnegative")
    if mask < 0 or mask & 1 or mask >> n:
        raise ValueError(f"descent mask {mask:#b} outside {{1,...,{n - 1}}}")
    return Composition(_parts(n, mask))


def reverse(alpha: Tuple[int, ...]) -> Tuple[int, ...]:
    return alpha[::-1]


def conjugate(alpha: Composition) -> Composition:
    """The conjugate composition: its descent set is the complement of D(rev alpha)."""
    n = sum(alpha)
    return Composition(_parts(n, all_descents(n) & ~descent_set(reverse(alpha))))


def cube(n: int, low: int, top: int) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """The 2^k sub-masks s of a k-bit mask top, and beside each the composition
    of n with descent mask low | s, for disjoint low and top inside {1, ..., n-1}.

    The sub-masks come in index order: bit j of the index selects the j-th lowest
    set bit of top, so index 0 is 0 and the last is top.  The compositions are
    built by walking the cuts of low | top from the lowest, starting from (n,):
    each cut splits the last part of every composition built so far, and a cut
    of top appends the split copies, while a cut of low replaces the list with them.
    """
    subs, comps = [0], [(n,)] if n else [()]
    cuts = low | top
    while cuts:
        bit = cuts & -cuts
        cuts ^= bit
        rest = n + 1 - bit.bit_length()  # the last part once split at this cut
        split = [a[:-1] + (a[-1] - rest, rest) for a in comps]
        if bit & top:
            subs += [s | bit for s in subs]
            comps += split
        else:
            comps = split
    return subs, comps


def compositions_between(n: int, low: int, high: int) -> List[Tuple[int, ...]]:
    """The compositions of n whose descent mask D satisfies low <= D <= high,
    as plain tuples: they are built from cut points, so there is nothing to check."""
    return cube(n, low, high & ~low)[1]


def in_sort_key_order(keys: Iterable[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """The keys sorted by sort_key, as three stable sorts with no Python key function:
    by parts, then by length, then by size."""
    return sorted(sorted(sorted(keys), key=len), key=sum)


def compositions_of(n: int) -> Iterator[Tuple[int, ...]]:
    """All compositions of n, in the deterministic order of sort_key."""
    return iter(in_sort_key_order(compositions_between(n, 0, all_descents(n))))


def format_composition(alpha: Composition) -> str:
    return "(" + ",".join(str(p) for p in alpha) + ")"


def parse_parts(text: str, brackets: str, name: str) -> Tuple[int, ...]:
    """The parts of text such as "(3, 1)" for brackets "()": ASCII [0-9]+, spaces around each allowed."""
    text = text.strip()
    if not (text.startswith(brackets[0]) and text.endswith(brackets[1])):
        raise ValueError(f"{name} must be enclosed in {brackets}: {text!r}")
    parts = [p.strip() for p in text[1:-1].split(",")] if text[1:-1].strip() else []
    if not all(re.fullmatch("[0-9]+", p) for p in parts):
        raise ValueError(f"{name} parts must be written in the digits 0-9: {text!r}")
    return tuple(map(int, parts))


def parse_composition(text: str) -> Composition:
    return Composition(parse_parts(text, "()", "composition"))
