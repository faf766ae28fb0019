"""Double posets: two strict partial orders on one finite ground set."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

Pair = Tuple[str, str]
Rel = Tuple[int, ...]  # rel[i]: bitmask of the j with i < j, over declaration index


class CycleError(ValueError):
    """Raised when transitive closure of order generators yields x < x."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"order generators create a cycle through {element!r}")


def index_pairs(rel: Rel) -> List[Tuple[int, int]]:
    """The pairs (i, j) with i < j in rel, in declaration order."""
    n = len(rel)
    return [(i, j) for i, up in enumerate(rel) for j in range(n) if up >> j & 1]


def transpose(rel: Rel) -> Rel:
    """The opposite relation: j < i in the result wherever i < j in rel."""
    out = [0] * len(rel)
    for i, j in index_pairs(rel):
        out[j] |= 1 << i
    return tuple(out)


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


@dataclass(frozen=True)
class DoublePoset:
    """Finite ground set with two strict partial orders, stored transitively
    closed as bitmasks over the declaration index of the elements."""

    elements: Tuple[str, ...]
    lt1: Rel
    lt2: Rel

    @property
    def size(self) -> int:
        return len(self.elements)

    def pairs(self, rel: Rel) -> List[Pair]:
        """The label pairs (a, b) with a < b in rel, in declaration order."""
        return [(self.elements[i], self.elements[j]) for i, j in index_pairs(rel)]

    def covers(self, rel: Rel) -> Rel:
        """The cover relation of a (transitively closed) strict order."""
        out = [0] * len(rel)
        for i, j in index_pairs(rel):
            out[i] |= rel[j]
        return tuple(up & ~above for up, above in zip(rel, out))


def build(
    elements: Sequence[str],
    lt1_generators: Iterable[Pair],
    lt2_generators: Iterable[Pair],
) -> DoublePoset:
    """Construct a double poset from order generators (closure computed here)."""
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate element labels")
    return DoublePoset(
        elements=elements,
        lt1=transitive_closure(elements, lt1_generators),
        lt2=transitive_closure(elements, lt2_generators),
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
    return not any(a & b for a, b in zip(d.covers(d.lt1), _incomparable2(d)))


def opposite1(d: DoublePoset) -> DoublePoset:
    """Replace <1 by its opposite relation, keeping <2."""
    return DoublePoset(elements=d.elements, lt1=transpose(d.lt1), lt2=d.lt2)


def restrict(d: DoublePoset, subset: Iterable[str]) -> DoublePoset:
    subset = set(subset)
    unknown = subset - set(d.elements)
    if unknown:
        raise ValueError(f"unknown labels {sorted(unknown)}")
    kept = [i for i, e in enumerate(d.elements) if e in subset]

    def squeeze(rel: Rel) -> Rel:
        return tuple(sum(1 << k for k, j in enumerate(kept) if rel[i] >> j & 1) for i in kept)

    return DoublePoset(
        elements=tuple(d.elements[i] for i in kept), lt1=squeeze(d.lt1), lt2=squeeze(d.lt2)
    )


def disjoint_union(d1: DoublePoset, d2: DoublePoset) -> DoublePoset:
    """Tagged disjoint union; labels become '0.x' and '1.y'."""
    n = d1.size
    return DoublePoset(
        elements=tuple(f"0.{e}" for e in d1.elements) + tuple(f"1.{e}" for e in d2.elements),
        lt1=d1.lt1 + tuple(up << n for up in d2.lt1),
        lt2=d1.lt2 + tuple(up << n for up in d2.lt2),
    )


@dataclass(frozen=True)
class AdmissiblePair:
    """A partition (p, q) of the ground set with p a down-set of <1."""

    p: Tuple[str, ...]
    q: Tuple[str, ...]


def down_sets(d: DoublePoset) -> List[int]:
    """All down-sets of (E, <1) as bitmasks, lexicographic in the
    characteristic vector (element 0 first).

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


def admissible_pairs(d: DoublePoset) -> List[AdmissiblePair]:
    """All admissible partitions (P, Q): no p in P, q in Q with q <1 p."""
    e = d.elements
    return [
        AdmissiblePair(
            p=tuple(x for i, x in enumerate(e) if p >> i & 1),
            q=tuple(x for i, x in enumerate(e) if not p >> i & 1),
        )
        for p in down_sets(d)
    ]


def from_dict(doc: Dict) -> DoublePoset:
    """Poset JSON: {"elements": [labels], "lt1": [[a, b], ...], "lt2": [...]},
    lt1 and lt2 optional; an error names the field at fault."""
    elements = doc.get("elements") if isinstance(doc, dict) else None
    if (
        not isinstance(elements, list)
        or not all(isinstance(e, str) for e in elements)
        or len(set(elements)) != len(elements)
    ):
        raise ValueError("'elements' must be a list of distinct strings")
    orders = []
    for name in ("lt1", "lt2"):
        pairs = doc.get(name, [])
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(x in elements for x in p)
            for p in pairs
        ):
            raise ValueError(f"'{name}' must list pairs [a, b] of labels from 'elements'")
        orders.append([tuple(p) for p in pairs])
    return build(elements, *orders)


def from_json(text: str) -> DoublePoset:
    return from_dict(json.loads(text))


def all_strict_orders(elements: Sequence[str]) -> List[Rel]:
    """All strict partial orders on the given labels (exhaustive; desk scale):
    the transitive ones among all 0/1 vectors over the pairs i != j, in order."""
    n = len(elements)
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


def all_double_posets(n: int) -> List[DoublePoset]:
    """All double posets on the labels a, b, c, ... (n of them), in a fixed order."""
    labels = tuple(chr(ord("a") + i) for i in range(n))
    orders = all_strict_orders(labels)
    return [
        DoublePoset(elements=labels, lt1=lt1, lt2=lt2) for lt1 in orders for lt2 in orders
    ]
