"""Finite group actions on double posets and orbit generating functions.

The orbit sums run over conjugacy classes: E^(k g k^-1) is isomorphic to E^g
as a weighted double poset (k maps the orbits of g onto those of k g k^-1 and
preserves <1, <2 and w), and sign is a class function, so one quotient and one
Gamma per class, weighted by the class size, give the sum over all of G.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .gamma import NotTertispecialError, WeightedDoublePoset, gamma
from .poset import DoublePoset, index_pairs, is_tertispecial, opposite1
from .qsym import BoundExceededError, QSymElem, antipode_closed, linear_combination

Permutation = Tuple[int, ...]  # image indices over declaration order

DEFAULT_GROUP_CAP = 5040


class NotPreservingError(ValueError):
    """A generator fails to preserve an order relation or the weight."""

    def __init__(self, perm: Mapping[str, str], witness):
        self.perm = dict(perm)
        self.witness = witness
        super().__init__(f"permutation {self.perm} does not preserve {witness}")


@dataclass(frozen=True)
class GroupAction:
    """A full finite permutation group acting on a weighted double poset, with
    its conjugacy classes as (least member, class size) pairs."""

    base: WeightedDoublePoset
    elements: Tuple[Permutation, ...]
    classes: Tuple[Tuple[Permutation, int], ...]

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
            raise BoundExceededError(f"group closure exceeds cap {cap}")
        current = frontier.pop()
        for g in gens:
            nxt = _compose(g, current)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    elements = tuple(sorted(group))
    return GroupAction(base=base, elements=elements, classes=_conjugacy_classes(elements, gens))


def _conjugacy_classes(elements: Tuple[Permutation, ...], gens: List[Permutation]) -> Tuple[Tuple[Permutation, int], ...]:
    """One (least member, size) pair per conjugacy class, in sorted order.

    A class is the closure of any member x under x -> h x h^-1 for the
    generators h, written y[h[i]] = h[x[i]]: each conjugation is a bijection of
    the finite group, so closing under the generators closes under their
    inverses too.  Every element is conjugated once by each generator.
    """
    seen = set()
    classes = []
    for g in elements:  # sorted: a class is first met at its least member
        if g in seen:
            continue
        seen.add(g)
        frontier, size = [g], 1
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = [0] * len(x)
                for i, xi in enumerate(x):
                    y[h[i]] = h[xi]
                y = tuple(y)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
                    size += 1
        classes.append((g, size))
    return tuple(classes)


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


def quotient_by(g: Permutation, base: WeightedDoublePoset) -> WeightedDoublePoset:
    """Quotient E^g: u <i v iff some a in u, b in v have a <i b, for g
    preserving <1 and <2 (then these are orders as they stand); each orbit is
    named by the label of its first member in declaration order and weighs the
    sum of its members' weights."""
    labels = base.poset.elements
    cycles = orbits_of(g)
    of = {i: k for k, cycle in enumerate(cycles) for i in cycle}  # element -> orbit

    def project(rel):
        out = [0] * len(cycles)
        for i, j in index_pairs(rel):
            if of[i] != of[j]:
                out[of[i]] |= 1 << of[j]
        return tuple(out)

    names = tuple(labels[cycle[0]] for cycle in cycles)
    quotient = DoublePoset(elements=names, lt1=project(base.poset.lt1), lt2=project(base.poset.lt2))
    w = {name: sum(base.w[labels[i]] for i in cycle) for name, cycle in zip(names, cycles)}
    return WeightedDoublePoset(poset=quotient, w=w)


def sign_of(g: Permutation) -> int:
    """Permutation sign, as (-1)^(|E| - number of cycles)."""
    return -1 if (len(g) - len(orbits_of(g))) % 2 else 1


def _orbit_sum(a: GroupAction, weight) -> QSymElem:
    """(1/|G|) sum over the classes C, with representative g, of |C| weight(g)
    Gamma(E^g, w^g), for a class function weight, summed in ints.

    On a tertispecial base the g-fixed E-partitions are the E^g-partitions, so
    the sum counts orbits and |G| divides it exactly.  Elsewhere E^g can order
    two orbits strictly where no pair of their members is, and the quotient by
    |G| can leave Fractions.
    """
    # a list, so that each Gamma is called from here (perfbench's layer tracer counts them)
    total = linear_combination([(size * weight(g), gamma(quotient_by(g, a.base))) for g, size in a.classes])
    if not is_tertispecial(a.base.poset):
        return total.scale(Fraction(1, a.order))
    if any(c % a.order for c in total.terms.values()):
        raise AssertionError(f"an orbit sum coefficient is not divisible by |G| = {a.order}")
    return QSymElem({alpha: c // a.order for alpha, c in total.terms.items()})


def gamma_equivariant(a: GroupAction) -> QSymElem:
    """Gamma(E, w, G) = (1/|G|) sum over g of Gamma(E^g, w^g); on a
    tertispecial base, the sum over the G-orbits of E-partitions pi of
    x^(w pi) (Burnside), so in integers.

    Computed as (1/|G|) sum over the conjugacy classes C of |C| Gamma(E^g, w^g),
    g in C: conjugate elements give isomorphic quotients, so equal Gammas.
    """
    return _orbit_sum(a, lambda g: 1)


def gamma_plus(a: GroupAction) -> QSymElem:
    """Gamma+(E, w, G) = (1/|G|) sum over g of sign(g) Gamma(E^g, w^g); on a
    tertispecial base, the sum over the E-coeven G-orbits (no odd g fixes
    their members) of x^(w pi), so in integers.

    Computed as (1/|G|) sum over the conjugacy classes C of |C| sign(g)
    Gamma(E^g, w^g), g in C: sign is a class function and conjugate elements
    give isomorphic quotients.
    """
    return _orbit_sum(a, sign_of)


def opposite1_action(a: GroupAction) -> GroupAction:
    """The same group acting on (E, >1, <2); permutations preserve >1 too."""
    flipped = WeightedDoublePoset(poset=opposite1(a.base.poset), w=dict(a.base.w))
    return GroupAction(base=flipped, elements=a.elements, classes=a.classes)


def equivariant_theorem_check(a: GroupAction) -> bool:
    """True iff S(Gamma(E,w,G)) = (-1)^|E| Gamma+((E,>1,<2),w,G)."""
    if not is_tertispecial(a.base.poset):
        raise NotTertispecialError("equivariant antipode theorem requires tertispecial base")
    lhs = antipode_closed(gamma_equivariant(a))
    rhs = gamma_plus(opposite1_action(a)).scale((-1) ** a.base.poset.size)
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


def action_from_json(base: WeightedDoublePoset, text: str) -> GroupAction:
    return action_from_dict(base, json.loads(text))
