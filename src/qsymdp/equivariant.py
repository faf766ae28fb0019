"""Finite group actions on double posets and orbit generating functions.

Every orbit sum is one `orbit_sum` call.  The class sums pass one pair per
conjugacy class: E^(k g k^-1) is isomorphic to E^g as a weighted double poset
(k maps the orbits of g onto those of k g k^-1 and preserves <1, <2 and w),
and sign is a class function, so one Gamma per class, weighted by the class
size, gives the sum over all of G.  Classes with the same orbits (such as
those of g and g^-1 in a cyclic group) share one Gamma, read from the
base's index relations with no quotient poset built.  Gamma+ is the same sum
with ``plus`` set: each term's sign is read from the cycles of g that the
sum walks anyway.  The sum is taken in descent masks, and only
`gamma_equivariant` builds compositions.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

from .gamma import NotTertispecialError, gamma_masks, strict_pairs
from .poset import DoublePoset, Rel, index_pairs, is_tertispecial, opposite1
from .qsym import DEFAULT_GROUP_CAP, BoundExceededError, Masks, QSymElem, antipode_masks, from_masks

Permutation = Tuple[int, ...]  # image indices over declaration order


class NotPreservingError(ValueError):
    """A generator fails to preserve an order relation or the weight."""

    def __init__(self, perm: Mapping[str, str], witness):
        self.perm = dict(perm)
        self.witness = witness
        super().__init__(f"permutation {self.perm} does not preserve {witness}")


class GroupAction:
    """A full finite permutation group acting on a weighted double poset, with
    the generators it was built from and its conjugacy classes as (least
    member, class size) pairs."""

    __slots__ = ("base", "elements", "classes", "generators")

    def __init__(
        self,
        base: DoublePoset,
        elements: Tuple[Permutation, ...],
        classes: Tuple[Tuple[Permutation, int], ...],
        generators: Tuple[Permutation, ...],
    ):
        self.base, self.elements, self.classes, self.generators = base, elements, classes, generators

    @property
    def order(self) -> int:
        return len(self.elements)


def precompose(g: Permutation) -> Callable[[tuple], tuple]:
    """The map x -> x o g on tuples indexed by the points, as one C call:
    itemgetter returns a scalar for one index and raises for none, so on at
    most one point, where g is the identity, it is tuple."""
    return itemgetter(*g) if len(g) > 1 else tuple


def _generator(base: DoublePoset, mapping: Mapping[str, str]) -> Permutation:
    """The permutation that the label map makes, checked to be a bijection of
    the ground set that preserves <1, <2 and w: raises on the first broken pair
    of <1, then of <2, then the first broken weight, in declaration order."""
    labels = base.elements
    if set(mapping) != set(labels) or set(mapping.values()) != set(labels):
        raise ValueError(f"generator {dict(mapping)} is not a bijection of the ground set")
    idx = {e: i for i, e in enumerate(labels)}
    perm = tuple(idx[mapping[e]] for e in labels)
    broken = [
        (name, (labels[i], labels[j]))
        for name, rel in (("lt1", base.lt1), ("lt2", base.lt2))
        for i, j in index_pairs(rel)
        if not rel[perm[i]] >> perm[j] & 1
    ]
    broken += [("w", labels[j]) for j, i in enumerate(perm) if base.w[i] != base.w[j]]
    if broken:
        raise NotPreservingError({e: mapping[e] for e in labels}, broken[0])
    return perm


def build_action(
    base: DoublePoset,
    generators: List[Mapping[str, str]],
    cap: int = DEFAULT_GROUP_CAP,
) -> GroupAction:
    """Materialize the group generated by the given permutations.

    Validates that every generator preserves <1, <2 and w; closure is bounded
    by ``cap``.
    """
    n = base.size
    identity = tuple(range(n))
    gens = [_generator(base, mapping) for mapping in generators]
    rights = [precompose(g) for g in gens]  # x -> x o g generates the same group
    group = {identity}
    frontier = [identity]
    while frontier:
        if len(group) > cap:
            raise BoundExceededError(f"group closure exceeds cap {cap}")
        current = frontier.pop()
        for right in rights:
            nxt = right(current)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    elements = tuple(sorted(group))
    classes = _conjugacy_classes(elements, gens)
    return GroupAction(base=base, elements=elements, classes=classes, generators=tuple(gens))


def _conjugacy_classes(elements: Tuple[Permutation, ...], gens: List[Permutation]) -> Tuple[Tuple[Permutation, int], ...]:
    """One (least member, size) pair per conjugacy class, in sorted order.

    A class is the closure of any member x under x -> h^-1 x h for the
    generators h, taken in C as x o h by h's getter, then h^-1 looked up at
    each entry: each conjugation is a bijection of the finite group, so
    closing under the generators closes under their inverses too.  Every
    element is conjugated once by each generator.
    """
    inverses = [tuple(sorted(range(len(h)), key=h.__getitem__)) for h in gens]
    conjugators = [(precompose(h), inverse.__getitem__) for h, inverse in zip(gens, inverses)]
    seen = set()
    classes = []
    for g in elements:  # sorted: a class is first met at its least member
        if g in seen:
            continue
        seen.add(g)
        frontier, size = [g], 1
        while frontier:
            x = frontier.pop()
            for right, inverse in conjugators:
                y = tuple(map(inverse, right(x)))
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
    return out


def _quotient_orders(
    cycles: List[Tuple[int, ...]], lt1: Rel, strict: Rel, w: Tuple[int, ...]
) -> Tuple[Rel, Rel, Tuple[int, ...]]:
    """<1, the strict pairs and the weights of the quotient E^g, for g
    preserving <1 and <2, from those of E (strict as from `strict_pairs`) and
    the orbits of g, indexed in the order of ``cycles``: u <1 v iff some a in
    u, b in v have a <1 b, u <2 v iff some have a <2 b and b <1 a (Gamma reads
    <2 only where it reverses <1), and u weighs its members' weights.  So the
    E^g-partitions are the g-fixed E-partitions.  The strict pairs of E^g are
    the projected strict pairs of E: they lie inside <1, and the projection
    commutes with transposing."""
    of = [0] * len(w)  # element -> orbit
    for k, cycle in enumerate(cycles):
        for i in cycle:
            of[i] = k

    def project(rel):
        """The row of one member of each orbit, one walk of its set bits.  g
        preserves rel, so i < j gives g^m(i) < g^m(j), with g^m(j) in j's
        orbit: every member's row reaches the same orbits, and one row is the
        union of them all.  No pair lies inside an orbit: i < g^m(i) would
        give i < g^m(i) < ... < i."""
        out = []
        for cycle in cycles:
            up, row = rel[cycle[0]], 0
            while up:
                low = up & -up
                row |= 1 << of[low.bit_length() - 1]
                up ^= low
            out.append(row)
        return tuple(out)

    return project(lt1), project(strict), tuple(sum(w[i] for i in cycle) for cycle in cycles)


def sign_of(g: Permutation) -> int:
    """Permutation sign, as (-1)^(|E| - number of cycles)."""
    return -1 if (len(g) - len(orbits_of(g))) % 2 else 1


def orbit_sum(
    base: DoublePoset, order: int, weighted: Iterable[Tuple[Permutation, int]], plus: bool = False
) -> Tuple[int, Masks]:
    """(1/|G|) sum of c Gamma(E^g, w^g) over the pairs (g, c), each term times
    sign(g) if ``plus``, in ints, for |G| = ``order``: the pairs are G's
    elements with c = 1, or its class representatives with c the class size.
    Gamma(E^g, w^g) sums over the g-fixed E-partitions, so by Burnside the sum
    counts orbits (E-coeven orbits if ``plus``) and |G| divides it exactly, on
    every base.  The sum is returned as (n, {descent mask: c}), as
    `gamma_masks` returns a Gamma, with no zero c: every E^g weighs n = sum(w),
    so the masks of all the terms are of one degree and are added as ints.

    E^g depends on g only through its orbits, and so does sign(g) =
    (-1)^(|E| - number of cycles), read from the same walk of g's cycles, so
    the signed c are summed per orbit partition first: g and g^-1 share one
    Gamma.  Each Gamma is one `gamma_masks` call on the orders of
    `_quotient_orders`, projected from the strict pairs of E, taken once; no
    quotient is built.
    """
    by_orbits: Dict[Tuple[Tuple[int, ...], ...], int] = {}
    for g, c in weighted:
        cycles = tuple(orbits_of(g))
        if plus and (len(g) - len(cycles)) % 2:
            c = -c
        by_orbits[cycles] = by_orbits.get(cycles, 0) + c
    lt1, strict, w = base.lt1, strict_pairs(base), base.w
    total: Masks = {}
    for cycles, c in by_orbits.items():
        for mask, v in gamma_masks(*_quotient_orders(cycles, lt1, strict, w))[1].items():
            total[mask] = total.get(mask, 0) + c * v
    if any(c % order for c in total.values()):
        raise AssertionError(f"an orbit sum coefficient is not divisible by |G| = {order}")
    return sum(w), {mask: c // order for mask, c in total.items() if c}


def gamma_equivariant(a: GroupAction, plus: bool = False) -> QSymElem:
    """Gamma(E, w, G) = (1/|G|) sum over g of Gamma(E^g, w^g): the sum over
    the G-orbits of E-partitions pi of x^(w pi) (Burnside), so in integers.
    If ``plus``, Gamma+(E, w, G), the same sum with each term times sign(g):
    the sum over the E-coeven G-orbits (no odd g fixes their members).
    Summed over the conjugacy classes, each weighted by its size."""
    return from_masks(*orbit_sum(a.base, a.order, a.classes, plus))


def opposite1_action(a: GroupAction) -> GroupAction:
    """The same group acting on (E, >1, <2); permutations preserve >1 too."""
    return GroupAction(opposite1(a.base), a.elements, a.classes, a.generators)


def equivariant_theorem_check(a: GroupAction) -> bool:
    """True iff S(Gamma(E,w,G)) = (-1)^|E| Gamma+((E,>1,<2),w,G), both sides
    in descent masks."""
    if not is_tertispecial(a.base):
        raise NotTertispecialError("equivariant antipode theorem requires tertispecial base")
    n, masks = orbit_sum(a.base, a.order, a.classes)
    sign = (-1) ** a.base.size
    rhs = {mask: sign * c for mask, c in orbit_sum(opposite1(a.base), a.order, a.classes, plus=True)[1].items()}
    return antipode_masks(n, masks) == rhs


def action_from_dict(base: DoublePoset, doc: Dict, cap: int = DEFAULT_GROUP_CAP) -> GroupAction:
    """Group JSON: {"generators": [{"a": "b", "b": "a"}]}."""
    gens = doc.get("generators") if isinstance(doc, dict) else None
    if not isinstance(gens, list) or not all(
        isinstance(g, dict) and all(isinstance(v, str) for v in g.values())
        for g in gens
    ):
        raise ValueError("'generators' must be a list of objects mapping labels to labels")
    return build_action(base, gens, cap=cap)
