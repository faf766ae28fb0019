"""Finite group actions on double posets and orbit generating functions."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .gamma import NotTertispecialError, WeightedDoublePoset, gamma
from .poset import DoublePoset, index_pairs, is_tertispecial, opposite1
from .qsym import QSymElem, antipode_closed, linear_combination

Permutation = Tuple[int, ...]  # image indices over declaration order

DEFAULT_GROUP_CAP = 5040


class NotPreservingError(ValueError):
    """A generator fails to preserve an order relation or the weight."""

    def __init__(self, perm: Mapping[str, str], witness):
        self.perm = dict(perm)
        self.witness = witness
        super().__init__(f"permutation {self.perm} does not preserve {witness}")


class ClosureTooLargeError(RuntimeError):
    """Group closure exceeded the configured cap."""


@dataclass(frozen=True)
class GroupAction:
    """A full finite permutation group acting on a weighted double poset."""

    base: WeightedDoublePoset
    elements: Tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_from_mapping(base: WeightedDoublePoset, mapping: Mapping[str, str]) -> Permutation:
    labels = base.poset.elements
    idx = {e: i for i, e in enumerate(labels)}
    if set(mapping) != set(labels) or set(mapping.values()) != set(labels):
        raise ValueError(f"generator {dict(mapping)} is not a bijection of the ground set")
    return tuple(idx[mapping[e]] for e in labels)


def _validate_preserving(base: WeightedDoublePoset, perm: Permutation) -> None:
    """Raise on the first broken pair or weight, in declaration order of the labels."""
    labels = base.poset.elements
    broken = [
        (name, (labels[i], labels[j]))
        for name, rel in (("lt1", base.poset.lt1), ("lt2", base.poset.lt2))
        for i, j in index_pairs(rel)
        if not rel[perm[i]] >> perm[j] & 1
    ]
    broken += [("w", e) for e, i in zip(labels, perm) if base.w[labels[i]] != base.w[e]]
    if broken:
        raise NotPreservingError({e: labels[i] for e, i in zip(labels, perm)}, broken[0])


def build_action(
    base: WeightedDoublePoset,
    generators: List[Mapping[str, str]],
    cap: int = DEFAULT_GROUP_CAP,
) -> GroupAction:
    """Materialize the group generated by the given permutations.

    Validates that every generator preserves <1, <2 and w; closure is bounded
    by ``cap``.
    """
    n = base.poset.size
    identity = tuple(range(n))
    gens = []
    for mapping in generators:
        perm = _perm_from_mapping(base, mapping)
        _validate_preserving(base, perm)
        gens.append(perm)
    group = {identity}
    frontier = [identity]
    while frontier:
        if len(group) > cap:
            raise ClosureTooLargeError(f"group closure exceeds cap {cap}")
        current = frontier.pop()
        for g in gens:
            nxt = _compose(g, current)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return GroupAction(base=base, elements=tuple(sorted(group)))


def orbits_of(perm: Permutation) -> List[Tuple[int, ...]]:
    """Cycles of a permutation, each sorted, ordered by minimum."""
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        cycle = []
        j = i
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = perm[j]
        out.append(tuple(sorted(cycle)))
    return sorted(out)


@dataclass(frozen=True)
class QuotientPoset:
    """The double poset on g-orbits, with orbit weights summed."""

    orbits: Tuple[Tuple[str, ...], ...]
    quotient: DoublePoset
    wq: Mapping[str, int]


def quotient_by(g: Permutation, base: WeightedDoublePoset) -> QuotientPoset:
    """Quotient double poset E^g: u <i v iff some a in u, b in v have a <i b,
    for g preserving <1 and <2 (then these are orders as they stand); each
    orbit is named by the label of its first member in declaration order."""
    labels = base.poset.elements
    cycles = orbits_of(g)
    of = {i: k for k, cycle in enumerate(cycles) for i in cycle}  # element -> orbit

    def project(rel):
        out = [0] * len(cycles)
        for i, j in index_pairs(rel):
            if of[i] != of[j]:
                out[of[i]] |= 1 << of[j]
        return tuple(out)

    orbits = tuple(tuple(labels[i] for i in cycle) for cycle in cycles)
    quotient = DoublePoset(
        elements=tuple(orbit[0] for orbit in orbits),
        lt1=project(base.poset.lt1),
        lt2=project(base.poset.lt2),
    )
    wq = {orbit[0]: sum(base.w[e] for e in orbit) for orbit in orbits}
    return QuotientPoset(orbits=orbits, quotient=quotient, wq=wq)


def sign_of(g: Permutation) -> int:
    """Permutation sign, as (-1)^(|E| - number of cycles)."""
    return -1 if (len(g) - len(orbits_of(g))) % 2 else 1


def _orbit_sum(a: GroupAction, weight) -> QSymElem:
    """(1/|G|) sum over g of weight(g) Gamma(E^g, w^g)."""
    terms = []
    for g in a.elements:
        q = quotient_by(g, a.base)
        quotient = WeightedDoublePoset(poset=q.quotient, w=dict(q.wq))
        terms.append((weight(g), gamma(quotient)))
    return linear_combination(terms).scale(Fraction(1, a.order))


def gamma_equivariant(a: GroupAction) -> QSymElem:
    """Gamma(E, w, G) = (1/|G|) sum over g of Gamma(E^g, w^g)."""
    return _orbit_sum(a, lambda g: 1)


def gamma_plus(a: GroupAction) -> QSymElem:
    """Gamma+(E, w, G) = (1/|G|) sum over g of sign(g) Gamma(E^g, w^g)."""
    return _orbit_sum(a, sign_of)


def opposite1_action(a: GroupAction) -> GroupAction:
    """The same group acting on (E, >1, <2); permutations preserve >1 too."""
    flipped = WeightedDoublePoset(poset=opposite1(a.base.poset), w=dict(a.base.w))
    return GroupAction(base=flipped, elements=a.elements)


def equivariant_theorem_check(a: GroupAction) -> bool:
    """True iff S(Gamma(E,w,G)) = (-1)^|E| Gamma+((E,>1,<2),w,G)."""
    if not is_tertispecial(a.base.poset):
        raise NotTertispecialError("equivariant antipode theorem requires tertispecial base")
    lhs = antipode_closed(gamma_equivariant(a))
    rhs = gamma_plus(opposite1_action(a)).scale(Fraction(-1) ** a.base.poset.size)
    return lhs == rhs


def action_from_dict(base: WeightedDoublePoset, doc: Dict, cap: int = DEFAULT_GROUP_CAP) -> GroupAction:
    """Group JSON: {"generators": [{"a": "b", "b": "a"}]}."""
    gens = doc.get("generators") if isinstance(doc, dict) else None
    if not isinstance(gens, list) or not all(
        isinstance(g, dict) and all(isinstance(v, str) for v in g.values())
        for g in gens
    ):
        raise ValueError("'generators' must be a list of objects mapping labels to labels")
    return build_action(base, gens, cap=cap)


def action_from_json(base: WeightedDoublePoset, text: str, cap: int = DEFAULT_GROUP_CAP) -> GroupAction:
    return action_from_dict(base, json.loads(text), cap=cap)
