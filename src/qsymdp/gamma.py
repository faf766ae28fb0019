"""E-partitions and the quasisymmetric generating function of a weighted double poset."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from .compositions import _parts
from .poset import (
    DoublePoset,
    admissible_pairs,
    disjoint_union,
    down_sets,
    from_dict,
    index_pairs,
    opposite1,
    restrict,
)
from .qsym import QSymElem, antipode_closed, coproduct, product


class NotTertispecialError(ValueError):
    """Raised when an operation requires a tertispecial double poset."""


@dataclass(frozen=True)
class WeightedDoublePoset:
    poset: DoublePoset
    w: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        w = dict(self.w) if self.w else {e: 1 for e in self.poset.elements}
        if set(w) != set(self.poset.elements):
            raise ValueError("weight function must be total on the ground set")
        if any(type(v) is not int or v < 1 for v in w.values()):  # no bool, no float
            raise ValueError("weights must be positive integers")
        object.__setattr__(self, "w", w)

    @property
    def degree(self) -> int:
        return sum(self.w.values())


def gamma(d: WeightedDoublePoset) -> QSymElem:
    """Gamma(E, w) in the monomial basis, summed over chains of <1-down-sets.

    A packed E-partition phi onto {1,...,k} is the same thing as a chain of
    <1-down-sets {} = D_0 < D_1 < ... < D_k = E, with D_i = phi^{-1}{1,...,i},
    in which no block D_i - D_{i-1} holds a pair e <1 f with f <2 e; it
    contributes M_alpha with alpha_i = w(D_i) - w(D_{i-1}).  chains[D] maps the
    mask of the partial weights w(D_0) = 0, ..., w(D_{i-1}) to the number of
    such chains up to D = D_i.
    """
    p = d.poset
    reversed_pairs = [1 << i | 1 << j for i, j in index_pairs(p.lt1) if p.lt2[j] >> i & 1]
    downs = sorted(down_sets(p), key=int.bit_count)
    weight = {s: sum(d.w[e] for i, e in enumerate(p.elements) if s >> i & 1) for s in downs}
    chains: Dict[int, Dict[int, int]] = {0: {0: 1}}
    for top in downs[1:]:
        into: Dict[int, int] = {}
        size = top.bit_count()
        for low in downs:
            if low.bit_count() >= size:
                break
            block = top ^ low
            if low & ~top or any(block & r == r for r in reversed_pairs):
                continue
            cut = 1 << weight[low]
            for mask, c in chains[low].items():
                key = mask | cut
                into[key] = into.get(key, 0) + c
        chains[top] = into
    n = d.degree
    return QSymElem({_parts(n, mask): c for mask, c in chains[downs[-1]].items()})


def _tensor_table(pairs: List[Tuple[QSymElem, QSymElem]]) -> Dict[Tuple[tuple, tuple], int]:
    table: Dict[Tuple[tuple, tuple], int] = {}
    for left, right in pairs:
        for a, ca in left.terms.items():
            for b, cb in right.terms.items():
                key = (a, b)
                table[key] = table.get(key, 0) + ca * cb
    return {k: v for k, v in table.items() if v != 0}


def gamma_coproduct_check(d: WeightedDoublePoset) -> bool:
    """True iff Delta(Gamma(E,w)) equals the sum over admissible pairs (P, Q)
    of Gamma(E|P, w|P) tensor Gamma(E|Q, w|Q)."""
    # a subset can be the P of one pair and the Q of another
    parts: Dict[Tuple[str, ...], QSymElem] = {}

    def part(labels):
        if labels not in parts:
            w = {e: d.w[e] for e in labels}
            parts[labels] = gamma(WeightedDoublePoset(poset=restrict(d.poset, labels), w=w))
        return parts[labels]

    rhs_pairs = [(part(pair.p), part(pair.q)) for pair in admissible_pairs(d.poset)]
    return _tensor_table(coproduct(gamma(d))) == _tensor_table(rhs_pairs)


def antipode_theorem_sides(d: WeightedDoublePoset) -> Tuple[QSymElem, QSymElem]:
    """The two sides S(Gamma((E,<1,<2),w)) and (-1)^|E| Gamma((E,>1,<2),w)."""
    flipped = WeightedDoublePoset(poset=opposite1(d.poset), w=dict(d.w))
    return antipode_closed(gamma(d)), gamma(flipped).scale((-1) ** d.poset.size)


def antipode_theorem_check(d: WeightedDoublePoset) -> bool:
    """True iff the two sides of :func:`antipode_theorem_sides` are equal.

    Guaranteed true for tertispecial posets; reported (not required) otherwise.
    """
    lhs, rhs = antipode_theorem_sides(d)
    return lhs == rhs


def gamma_product_check(d1: WeightedDoublePoset, d2: WeightedDoublePoset) -> bool:
    """True iff Gamma(E | F, w) = Gamma(E, w1) * Gamma(F, w2) on the tagged union."""
    union_poset = disjoint_union(d1.poset, d2.poset)
    weights = [d1.w[e] for e in d1.poset.elements] + [d2.w[e] for e in d2.poset.elements]
    union = WeightedDoublePoset(poset=union_poset, w=dict(zip(union_poset.elements, weights)))
    return gamma(union) == product(gamma(d1), gamma(d2))


def weighted_from_dict(doc: Dict) -> WeightedDoublePoset:
    """Poset JSON extended with optional "w"; omitted w defaults to all-ones."""
    poset = from_dict(doc)
    w = doc.get("w")
    if w is not None and (
        not isinstance(w, dict)
        or not all(type(v) is int for v in w.values())  # no bool, no float
        or (not w and poset.size)
    ):
        raise ValueError("'w' must map every label to an integer weight")
    return WeightedDoublePoset(poset=poset, w=w or {})


def weighted_from_json(text: str) -> WeightedDoublePoset:
    return weighted_from_dict(json.loads(text))
