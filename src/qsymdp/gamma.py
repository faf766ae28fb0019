"""E-partitions and the quasisymmetric generating function of a weighted double poset."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .compositions import Composition
from .poset import (
    DoublePoset,
    Rel,
    admissible_pairs,
    disjoint_union,
    down_sets,
    from_dict,
    index_pairs,
    is_tertispecial,
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
        if any(v < 1 for v in w.values()):
            raise ValueError("weights must be positive integers")
        object.__setattr__(self, "w", w)

    @property
    def degree(self) -> int:
        return sum(self.w.values())


def epartition_test(p: DoublePoset, rel: Rel) -> Callable[[Sequence[int]], bool]:
    """The test of a vector of values over declaration index: it weakly
    increases along each pair i < j of rel, strictly when j <2 i."""
    checks = [(i, j, p.lt2[j] >> i & 1) for i, j in index_pairs(rel)]

    def holds(values: Sequence[int]) -> bool:
        for i, j, strict in checks:
            if values[i] + strict > values[j]:
                return False
        return True

    return holds


def _is_epartition_on(d: WeightedDoublePoset, rel: Rel, pi: Mapping[str, int]) -> bool:
    elements = d.poset.elements
    if set(pi) != set(elements):
        raise ValueError("partition map must be total on the ground set")
    return epartition_test(d.poset, rel)([pi[e] for e in elements])


def is_epartition(d: WeightedDoublePoset, pi: Mapping[str, int]) -> bool:
    """Weakly increasing along <1, strictly when the <2-reversal triggers."""
    return _is_epartition_on(d, d.poset.lt1, pi)


def is_epartition_covers(d: WeightedDoublePoset, pi: Mapping[str, int]) -> bool:
    """Cover-based E-partition test; valid only for tertispecial posets."""
    p = d.poset
    if not is_tertispecial(p):
        raise NotTertispecialError("cover-based test requires a tertispecial poset")
    return _is_epartition_on(d, p.covers(p.lt1), pi)


def gamma(d: WeightedDoublePoset) -> QSymElem:
    """Gamma(E, w) in the monomial basis, summed over chains of <1-down-sets.

    A packed E-partition phi onto {1,...,k} is the same thing as a chain of
    <1-down-sets {} = D_0 < D_1 < ... < D_k = E, with D_i = phi^{-1}{1,...,i},
    in which no block D_i - D_{i-1} holds a pair e <1 f with f <2 e; it
    contributes M_alpha with alpha_i = w(D_i) - w(D_{i-1}).  chains[D] maps
    each alpha to the number of such chains from {} up to D.
    """
    p = d.poset
    reversed_pairs = [1 << i | 1 << j for i, j in index_pairs(p.lt1) if p.lt2[j] >> i & 1]
    downs = sorted(down_sets(p), key=int.bit_count)
    weight = {s: sum(d.w[e] for i, e in enumerate(p.elements) if s >> i & 1) for s in downs}
    chains: Dict[int, Dict[Tuple[int, ...], int]] = {0: {(): 1}}
    for top in downs[1:]:
        into: Dict[Tuple[int, ...], int] = {}
        size = top.bit_count()
        for low in downs:
            if low.bit_count() >= size:
                break
            block = top ^ low
            if low & ~top or any(block & r == r for r in reversed_pairs):
                continue
            part = (weight[top] - weight[low],)
            for alpha, c in chains[low].items():
                key = alpha + part
                into[key] = into.get(key, 0) + c
        chains[top] = into
    return QSymElem(chains[downs[-1]])


def _tensor_table(
    pairs: List[Tuple[QSymElem, QSymElem]]
) -> Dict[Tuple[Composition, Composition], Fraction]:
    table: Dict[Tuple[Composition, Composition], Fraction] = {}
    for left, right in pairs:
        for a, ca in left.terms.items():
            for b, cb in right.terms.items():
                key = (a, b)
                table[key] = table.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in table.items() if v != 0}


def gamma_coproduct_check(d: WeightedDoublePoset) -> bool:
    """True iff Delta(Gamma(E,w)) equals the sum over admissible pairs (P, Q)
    of Gamma(E|P, w|P) tensor Gamma(E|Q, w|Q)."""
    def part(labels):
        w = {e: d.w[e] for e in labels}
        return gamma(WeightedDoublePoset(poset=restrict(d.poset, labels), w=w))

    rhs_pairs = [(part(pair.p), part(pair.q)) for pair in admissible_pairs(d.poset)]
    return _tensor_table(coproduct(gamma(d))) == _tensor_table(rhs_pairs)


def antipode_theorem_sides(d: WeightedDoublePoset) -> Tuple[QSymElem, QSymElem]:
    """The two sides S(Gamma((E,<1,<2),w)) and (-1)^|E| Gamma((E,>1,<2),w)."""
    flipped = WeightedDoublePoset(poset=opposite1(d.poset), w=dict(d.w))
    sign = Fraction(-1) ** d.poset.size
    return antipode_closed(gamma(d)), gamma(flipped).scale(sign)


def antipode_theorem_check(d: WeightedDoublePoset) -> bool:
    """True iff the two sides of :func:`antipode_theorem_sides` are equal.

    Guaranteed true for tertispecial posets; reported (not required) otherwise.
    """
    lhs, rhs = antipode_theorem_sides(d)
    return lhs == rhs


def gamma_product_check(d1: WeightedDoublePoset, d2: WeightedDoublePoset) -> bool:
    """True iff Gamma(E | F, w) = Gamma(E, w1) * Gamma(F, w2) on the tagged union."""
    union_poset = disjoint_union(d1.poset, d2.poset)
    w = {f"0.{e}": v for e, v in d1.w.items()}
    w.update({f"1.{e}": v for e, v in d2.w.items()})
    union = WeightedDoublePoset(poset=union_poset, w=w)
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
