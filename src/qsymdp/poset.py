"""Double posets: two strict partial orders and a weight function on one
finite ground set."""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

from .qsym import ENUM_LIMIT, BoundExceededError

Pair = Tuple[str, str]
Rel = Tuple[int, ...]  # rel[i]: bitmask of the j with i < j, over declaration index


class CycleError(ValueError):
    """Raised when transitive closure of order generators yields x < x."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"order generators create a cycle through {element!r}")


def index_pairs(rel: Rel) -> List[Tuple[int, int]]:
    """The pairs (i, j) with i < j in rel, in declaration order: each row's set
    bits are walked lowest first, so the cost is the pairs', not n^2."""
    pairs = []
    for i, up in enumerate(rel):
        while up:
            low = up & -up
            pairs.append((i, low.bit_length() - 1))
            up ^= low
    return pairs


def transpose(rel: Rel) -> Rel:
    """The opposite relation: j < i in the result wherever i < j in rel."""
    out = [0] * len(rel)
    for i, j in index_pairs(rel):
        out[j] |= 1 << i
    return tuple(out)


def covers(rel: Rel) -> Rel:
    """The cover relation of a (transitively closed) strict order."""
    out = [0] * len(rel)
    for i, j in index_pairs(rel):
        out[i] |= rel[j]
    return tuple(up & ~above for up, above in zip(rel, out))


def transitive_closure(elements: Sequence, pairs: Iterable[Pair]) -> Rel:
    """Warshall closure on bitmasks; raises CycleError if any x < x appears."""
    elems = list(elements)
    idx = {e: i for i, e in enumerate(elems)}
    rel = [0] * len(elems)
    for a, b in pairs:
        if a not in idx or b not in idx:
            raise ValueError(f"generator pair ({a!r}, {b!r}) uses unknown elements")
        rel[idx[a]] |= 1 << idx[b]
    for k in range(len(elems)):
        bit, row = 1 << k, rel[k]
        for i, up in enumerate(rel):
            if up & bit:
                rel[i] = up | row
    for i, up in enumerate(rel):
        if up >> i & 1:
            raise CycleError(elems[i])
    return tuple(rel)


class DoublePoset:
    """Finite ground set with two strict partial orders, stored transitively
    closed as bitmasks over the declaration index of the elements, and a
    positive integer weight per element, as a tuple over the same index; an
    empty w weighs each 1."""

    __slots__ = ("elements", "lt1", "lt2", "w")

    def __init__(self, elements: Tuple[str, ...], lt1: Rel, lt2: Rel, w: Iterable[int] = ()):
        if isinstance(w, dict) and w:
            raise ValueError("weights are a sequence over the declaration index, not a map from the labels")
        w = tuple(w)
        if not w:  # all ones, valid by construction
            w = (1,) * len(elements)
        elif len(w) != len(elements):
            raise ValueError("weight function must be total on the ground set")
        elif not all(type(v) is int and v > 0 for v in w):  # no bool, no float
            raise ValueError("weights must be positive integers")
        self.elements, self.lt1, self.lt2, self.w = elements, lt1, lt2, w

    def __eq__(self, other) -> bool:
        return isinstance(other, DoublePoset) and (self.elements, self.lt1, self.lt2, self.w) == (other.elements, other.lt1, other.lt2, other.w)

    def __hash__(self) -> int:
        return hash((self.elements, self.lt1, self.lt2, self.w))

    @property
    def size(self) -> int:
        return len(self.elements)


def build(
    elements: Sequence[str],
    lt1_generators: Iterable[Pair],
    lt2_generators: Iterable[Pair],
    w: Iterable[int] = (),
) -> DoublePoset:
    """Construct a double poset from order generators (closure computed here)
    and weights over the declaration index (all ones if empty)."""
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate element labels")
    return DoublePoset(
        elements=elements,
        lt1=transitive_closure(elements, lt1_generators),
        lt2=transitive_closure(elements, lt2_generators),
        w=w,
    )


def _incomparable2(d: DoublePoset) -> Rel:
    """The <2-incomparable pairs, as a symmetric relation."""
    full = (1 << d.size) - 1
    return tuple(
        full & ~(up | down | 1 << i)
        for i, (up, down) in enumerate(zip(d.lt2, transpose(d.lt2)))
    )


def is_special(d: DoublePoset) -> bool:
    """True iff <2 is a total order."""
    return not any(_incomparable2(d))


def is_tertispecial(d: DoublePoset) -> bool:
    """True iff every <1-cover pair is <2-comparable."""
    return not any(a & b for a, b in zip(covers(d.lt1), _incomparable2(d)))


def opposite1(d: DoublePoset) -> DoublePoset:
    """Replace <1 by its opposite relation, keeping <2 and w."""
    return DoublePoset(elements=d.elements, lt1=transpose(d.lt1), lt2=d.lt2, w=d.w)


def squeeze(rel: Rel, mask: int) -> Rel:
    """rel induced on the indices set in mask, renumbered 0, 1, ... in index order."""
    rank: Dict[int, int] = {}  # old index -> new index
    for i in range(len(rel)):
        if mask >> i & 1:
            rank[i] = len(rank)
    out = []
    for i in rank:
        up, packed = rel[i] & mask, 0
        while up:
            bit = up & -up
            packed |= 1 << rank[bit.bit_length() - 1]
            up ^= bit
        out.append(packed)
    return tuple(out)


def down_sets(d: DoublePoset) -> List[int]:
    """All down-sets of (E, <1) as bitmasks, lexicographic in the
    characteristic vector (element 0 first).  They are the P of the admissible
    pairs (P, Q): no p in P, q in Q with q <1 p, so Q is the complement of P.

    Built in declaration order: e may be left out unless a chosen f has e <1 f,
    and put in unless a left-out f has f <1 e; as <1 is transitive, no branch
    dead-ends.  Each state carries the elements above a left-out one.
    """
    states = [(0, 0)]  # (chosen, blocked)
    for i, up in enumerate(d.lt1):
        bit = 1 << i
        nxt = []
        for chosen, blocked in states:
            if not up & chosen:
                nxt.append((chosen, blocked | up))
            if not blocked & bit:
                nxt.append((chosen | bit, blocked))
        states = nxt
    return [chosen for chosen, _ in states]


def check_order_count(n: int) -> None:
    """Refuse n elements if their 2^(n(n-1)) candidate orders exceed ENUM_LIMIT."""
    if n * (n - 1) >= ENUM_LIMIT.bit_length():  # 2^(n(n-1)) > ENUM_LIMIT, without the power
        # an exponent of over 4300 digits has no decimal str(), so one that long stays a product
        exponent = n * (n - 1) if n < 10**2000 else f"({n}*{n - 1})"
        raise BoundExceededError(f"2^{exponent} candidate orders on {n} elements exceed ENUM_LIMIT {ENUM_LIMIT}")


def all_strict_orders(elements: Sequence[str]) -> List[Rel]:
    """All strict partial orders on the given labels (exhaustive; desk scale):
    the transitive ones among all 0/1 vectors over the pairs i != j, in order.
    More than ENUM_LIMIT vectors are refused before the first is tried."""
    n = len(elements)
    check_order_count(n)
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    orders = []
    for chosen in itertools.product((0, 1), repeat=len(slots)):
        rel = [0] * n
        for (i, j), c in zip(slots, chosen):
            if c:
                rel[i] |= 1 << j
        if all(rel[j] & ~rel[i] == 0 for i, j in index_pairs(rel)):
            orders.append(tuple(rel))
    return orders


# The number of strict partial orders on n labelled elements, n = 0..5 (OEIS A001035).
STRICT_ORDER_COUNTS = (1, 1, 3, 19, 219, 4231)


def check_double_poset_count(n: int) -> None:
    """Refuse n elements if their orders, or their double posets (pairs of
    orders), exceed ENUM_LIMIT, without enumerating either."""
    check_order_count(n)  # from here on n <= 5, inside STRICT_ORDER_COUNTS
    count = STRICT_ORDER_COUNTS[n]
    if count**2 > ENUM_LIMIT:
        raise BoundExceededError(f"{count}^2 double posets on {n} elements exceed ENUM_LIMIT {ENUM_LIMIT}")


@lru_cache(maxsize=len(STRICT_ORDER_COUNTS))  # each suite of a selftest reads them; n past the table is refused
def all_double_posets(n: int) -> Tuple[DoublePoset, ...]:
    """All double posets on the labels a, b, c, ... (n of them), in a fixed order;
    more than ENUM_LIMIT of them are refused before any order is enumerated."""
    check_double_poset_count(n)
    labels = tuple(chr(ord("a") + i) for i in range(n))
    orders = all_strict_orders(labels)
    return tuple(
        DoublePoset(elements=labels, lt1=lt1, lt2=lt2) for lt1 in orders for lt2 in orders
    )
