"""Double posets: two strict partial orders on one finite ground set."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

Pair = Tuple[str, str]


class CycleError(ValueError):
    """Raised when transitive closure of order generators yields x < x."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"order generators create a cycle through {element!r}")


def transitive_closure(elements: Sequence, pairs: Iterable[Pair]) -> FrozenSet[Pair]:
    """Warshall closure; raises CycleError if any (x, x) appears."""
    elems = list(elements)
    idx = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    adj = [[False] * n for _ in range(n)]
    for a, b in pairs:
        if a not in idx or b not in idx:
            raise ValueError(f"generator pair ({a!r}, {b!r}) uses unknown elements")
        adj[idx[a]][idx[b]] = True
    for k in range(n):
        ak = adj[k]
        for i in range(n):
            if adj[i][k]:
                ai = adj[i]
                for j in range(n):
                    if ak[j]:
                        ai[j] = True
    for i in range(n):
        if adj[i][i]:
            raise CycleError(elems[i])
    return frozenset(
        (elems[i], elems[j]) for i in range(n) for j in range(n) if adj[i][j]
    )


@dataclass(frozen=True)
class DoublePoset:
    """Finite ground set with two strict partial orders, stored transitively closed."""

    elements: Tuple[str, ...]
    lt1: FrozenSet[Pair]
    lt2: FrozenSet[Pair]

    @property
    def size(self) -> int:
        return len(self.elements)

    def less1(self, a, b) -> bool:
        return (a, b) in self.lt1

    def less2(self, a, b) -> bool:
        return (a, b) in self.lt2

    def covers(self, rel: FrozenSet[Pair]) -> List[Pair]:
        """Cover pairs of a (transitively closed) strict order."""
        out = []
        for a, b in rel:
            if not any((a, c) in rel and (c, b) in rel for c in self.elements):
                out.append((a, b))
        order = {e: i for i, e in enumerate(self.elements)}
        return sorted(out, key=lambda p: (order[p[0]], order[p[1]]))


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


def _comparable(rel: FrozenSet[Pair], a, b) -> bool:
    return a == b or (a, b) in rel or (b, a) in rel


def is_special(d: DoublePoset) -> bool:
    """True iff <2 is a total order."""
    return all(
        _comparable(d.lt2, a, b) for a, b in itertools.combinations(d.elements, 2)
    )


def is_semispecial(d: DoublePoset) -> bool:
    """True iff every <1-comparable pair is <2-comparable."""
    return all(_comparable(d.lt2, a, b) for a, b in d.lt1)


def is_tertispecial(d: DoublePoset) -> bool:
    """True iff every <1-cover pair is <2-comparable."""
    return all(_comparable(d.lt2, a, b) for a, b in d.covers(d.lt1))


def opposite1(d: DoublePoset) -> DoublePoset:
    """Replace <1 by its opposite relation, keeping <2."""
    return DoublePoset(
        elements=d.elements,
        lt1=frozenset((b, a) for a, b in d.lt1),
        lt2=d.lt2,
    )


def opposite2(d: DoublePoset) -> DoublePoset:
    return DoublePoset(
        elements=d.elements,
        lt1=d.lt1,
        lt2=frozenset((b, a) for a, b in d.lt2),
    )


def restrict(d: DoublePoset, subset: Iterable[str]) -> DoublePoset:
    subset = set(subset)
    unknown = subset - set(d.elements)
    if unknown:
        raise ValueError(f"unknown labels {sorted(unknown)}")
    kept = tuple(e for e in d.elements if e in subset)
    return DoublePoset(
        elements=kept,
        lt1=frozenset(p for p in d.lt1 if p[0] in subset and p[1] in subset),
        lt2=frozenset(p for p in d.lt2 if p[0] in subset and p[1] in subset),
    )


def disjoint_union(d1: DoublePoset, d2: DoublePoset) -> DoublePoset:
    """Tagged disjoint union; labels become '0.x' and '1.y'."""

    def tag(prefix, e):
        return f"{prefix}.{e}"

    elements = tuple(tag(0, e) for e in d1.elements) + tuple(
        tag(1, e) for e in d2.elements
    )

    def tagged(rel, prefix):
        return [(tag(prefix, a), tag(prefix, b)) for a, b in rel]

    return DoublePoset(
        elements=elements,
        lt1=frozenset(tagged(d1.lt1, 0) + tagged(d2.lt1, 1)),
        lt2=frozenset(tagged(d1.lt2, 0) + tagged(d2.lt2, 1)),
    )


@dataclass(frozen=True)
class AdmissiblePair:
    """A partition (p, q) of the ground set with p a down-set of <1."""

    p: Tuple[str, ...]
    q: Tuple[str, ...]


def down_sets(d: DoublePoset) -> Iterator[FrozenSet[str]]:
    """All down-sets of (E, <1), lexicographic in the characteristic vector.

    Built in declaration order: e may be left out unless a chosen f has e <1 f,
    and put in if its earlier <1-predecessors are chosen; as <1 is transitive,
    no branch dead-ends.
    """
    elems = d.elements

    def extend(i: int, chosen: FrozenSet[str]):
        if i == len(elems):
            yield chosen
            return
        e = elems[i]
        if not any((e, f) in d.lt1 for f in chosen):
            yield from extend(i + 1, chosen)
        if all(f in chosen for f in elems[:i] if (f, e) in d.lt1):
            yield from extend(i + 1, chosen | {e})

    return extend(0, frozenset())


def admissible_pairs(d: DoublePoset) -> List[AdmissiblePair]:
    """All admissible partitions (P, Q): no p in P, q in Q with q <1 p."""
    out = []
    for p in down_sets(d):
        out.append(
            AdmissiblePair(
                p=tuple(e for e in d.elements if e in p),
                q=tuple(e for e in d.elements if e not in p),
            )
        )
    return out


def to_json(d: DoublePoset) -> str:
    return json.dumps(
        {
            "elements": list(d.elements),
            "lt1": sorted([a, b] for a, b in d.lt1),
            "lt2": sorted([a, b] for a, b in d.lt2),
        }
    )


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


def all_strict_orders(elements: Sequence[str]) -> List[FrozenSet[Pair]]:
    """All strict partial orders on the given labels (exhaustive; desk scale)."""
    elems = list(elements)
    all_pairs = [(a, b) for a in elems for b in elems if a != b]
    orders = []
    for mask in itertools.product((0, 1), repeat=len(all_pairs)):
        rel = frozenset(p for p, c in zip(all_pairs, mask) if c)
        if any((b, a) in rel for a, b in rel):
            continue
        if any(
            (a, c) in rel and (c, b) in rel and (a, b) not in rel
            for a in elems
            for b in elems
            for c in elems
        ):
            continue
        orders.append(rel)
    return orders


def all_double_posets(n: int) -> List[DoublePoset]:
    """All double posets on the labels a, b, c, ... (n of them), in a fixed order."""
    labels = tuple(chr(ord("a") + i) for i in range(n))
    orders = all_strict_orders(labels)
    return [
        DoublePoset(elements=labels, lt1=lt1, lt2=lt2) for lt1 in orders for lt2 in orders
    ]
