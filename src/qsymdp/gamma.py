"""E-partitions and the quasisymmetric generating function of a weighted double poset."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .compositions import Composition
from .poset import (
    DoublePoset,
    admissible_pairs,
    disjoint_union,
    from_dict,
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


@dataclass(frozen=True)
class PackedPartition:
    """A packed E-partition: values form the initial interval {1,...,k}."""

    values: Tuple[Tuple[str, int], ...]
    k: int

    def as_dict(self) -> Dict[str, int]:
        return dict(self.values)


def _is_epartition_on(d: WeightedDoublePoset, pairs, pi: Mapping[str, int]) -> bool:
    """pi weakly increases along each pair e <1 f, strictly when f <2 e."""
    p = d.poset
    if set(pi) != set(p.elements):
        raise ValueError("partition map must be total on the ground set")
    lt2 = p.lt2
    for e, f in pairs:
        if (f, e) in lt2:
            if pi[e] >= pi[f]:
                return False
        elif pi[e] > pi[f]:
            return False
    return True


def is_epartition(d: WeightedDoublePoset, pi: Mapping[str, int]) -> bool:
    """Weakly increasing along <1, strictly when the <2-reversal triggers."""
    return _is_epartition_on(d, d.poset.lt1, pi)


def is_epartition_covers(d: WeightedDoublePoset, pi: Mapping[str, int]) -> bool:
    """Cover-based E-partition test; valid only for tertispecial posets."""
    p = d.poset
    if not is_tertispecial(p):
        raise NotTertispecialError("cover-based test requires a tertispecial poset")
    return _is_epartition_on(d, p.covers(p.lt1), pi)


def packed_epartitions(d: WeightedDoublePoset) -> List[PackedPartition]:
    """All packed E-partitions, enumerated by backtracking over a linear
    extension of <1; deterministic order by assignment vector."""
    p = d.poset
    order = p.linear_extension1()
    n = len(order)
    if n == 0:
        return [PackedPartition(values=(), k=0)]
    results: List[PackedPartition] = []
    assignment: Dict[str, int] = {}

    def feasible(e: str, value: int) -> bool:
        for f, val in assignment.items():
            if (f, e) in p.lt1:
                if (e, f) in p.lt2:
                    if not val < value:
                        return False
                elif not val <= value:
                    return False
        return True

    def backtrack(i: int):
        if i == n:
            image = sorted(set(assignment.values()))
            if image == list(range(1, len(image) + 1)):
                values = tuple((e, assignment[e]) for e in p.elements)
                results.append(PackedPartition(values=values, k=len(image)))
            return
        e = order[i]
        for value in range(1, n + 1):
            if feasible(e, value):
                assignment[e] = value
                backtrack(i + 1)
                del assignment[e]

    backtrack(0)
    return results


def ev_w(d: WeightedDoublePoset, phi: PackedPartition) -> Composition:
    """Weight composition: alpha_i = sum of w(e) over the fiber phi^{-1}(i)."""
    values = phi.as_dict()
    parts = [0] * phi.k
    for e, i in values.items():
        parts[i - 1] += d.w[e]
    return Composition(parts)


def gamma(d: WeightedDoublePoset) -> QSymElem:
    """Gamma(E, w) as a monomial-basis expansion over packed E-partitions."""
    terms: Dict[Composition, Fraction] = {}
    for phi in packed_epartitions(d):
        alpha = ev_w(d, phi)
        terms[alpha] = terms.get(alpha, Fraction(0)) + 1
    return QSymElem(terms)


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
