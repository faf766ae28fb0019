"""E-partitions and the quasisymmetric generating function of a double poset
with its weights, and the reader of the poset JSON."""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from .compositions import _parts
from .poset import (
    DoublePoset,
    Rel,
    down_sets,
    index_pairs,
    opposite1,
    squeeze,
    transitive_closure,
    transpose,
)
from .qsym import ENUM_LIMIT, BoundExceededError, QSymElem, antipode_closed, coproduct, product


class NotTertispecialError(ValueError):
    """Raised when an operation requires a tertispecial double poset."""


# Bound of gamma_of_orders, the one memo of the package's Gamma layer.
# `selftest --max-size 4` makes 142649 Gamma calls on 6616 (<1, strict pairs,
# weights) keys; all fit.  A module-level lru_cache: clearing the package's
# caches (perfbench does so per op) starts it cold, as a fresh process does.
GAMMA_CACHE_SIZE = 8192


def strict_pairs(p: DoublePoset) -> Rel:
    """strict[i]: the mask of the j with i <1 j and j <2 i, the pairs on which an
    E-partition must increase strictly.  Gamma reads <2 only through them."""
    return tuple(a & b for a, b in zip(p.lt1, transpose(p.lt2)))


def gamma(d: DoublePoset) -> QSymElem:
    """Gamma(E, w) in the monomial basis, summed over chains of <1-down-sets.

    A packed E-partition phi onto {1,...,k} is the same thing as a chain of
    <1-down-sets {} = D_0 < D_1 < ... < D_k = E, with D_i = phi^{-1}{1,...,i},
    in which no block D_i - D_{i-1} holds a pair e <1 f with f <2 e; it
    contributes M_alpha with alpha_i = w(D_i) - w(D_{i-1}).  chains[D] maps the
    mask of the partial weights w(D_0) = 0, ..., w(D_{i-1}) to the number of
    such chains up to D = D_i.  The bound counts each down-set once per 64-bit
    word of a degree-n mask, before any such mask is built.  The <1-isolated
    elements are left out of the chain sum: each is its own <1-component and
    is multiplied in as the factor M_(w_e) (the product rule).

    Gamma depends on neither the labels nor the <2 relations outside <1, so it
    is memoised, in the bounded `gamma_of_orders`, on (<1, the strict pairs of
    `strict_pairs`, the weights in declaration order): relabelled copies, and
    posets that differ in <2 only on <1-incomparable pairs, share one result.
    The returned QSymElem is shared between callers; no caller may mutate its
    terms.  A refused Gamma is not cached.
    """
    return gamma_of_orders(d.lt1, strict_pairs(d), d.w)


@lru_cache(maxsize=GAMMA_CACHE_SIZE)
def gamma_of_orders(lt1: Rel, strict: Rel, w: Tuple[int, ...]) -> QSymElem:
    """Gamma of the double poset with order lt1, strict pairs strict (as from
    `strict_pairs`) and weights w over the declaration index.

    By the product rule, Gamma of a disjoint union is the product of the
    Gammas, so a <1-isolated element e contributes the one factor M_(w_e):
    the isolated elements are taken out, the rest goes through `_chain_sum`,
    and each factor is multiplied in by `_times_part`.  Both work on descent
    masks, which become compositions once, at the end.  A degree past one
    64-bit word per down-set is refused first, as the chain sum would.
    """
    n = sum(w)
    if n // 64 >= ENUM_LIMIT:
        raise BoundExceededError(f"Gamma in degree {n} needs over {ENUM_LIMIT} down-set words")
    related = 0  # the elements in some <1 pair
    for i, up in enumerate(lt1):
        if up:
            related |= up | 1 << i
    if related.bit_count() == len(w):
        n, masks = _chain_sum(lt1, strict, w)
    elif related:
        n, masks = _chain_sum(*_restrict(lt1, strict, w, related))
    else:
        n, masks = 0, {0: 1}  # ONE
    for i, part in enumerate(w):
        if not related >> i & 1:
            n, masks = _times_part(n, masks, part)
    return QSymElem({_parts(n, mask): c for mask, c in masks.items()})


def _restrict(lt1: Rel, strict: Rel, w: Tuple[int, ...], mask: int) -> Tuple[Rel, Rel, Tuple[int, ...]]:
    """<1, the strict pairs and the weights induced on the indices in mask and
    renumbered.  Both orders of E|mask are induced from E, so the strict pairs
    of E|mask are those of E restricted to mask."""
    return squeeze(lt1, mask), squeeze(strict, mask), tuple(x for i, x in enumerate(w) if mask >> i & 1)


def _chain_sum(lt1: Rel, strict: Rel, w: Tuple[int, ...]) -> Tuple[int, Dict[int, int]]:
    """Gamma summed over the chains of <1-down-sets, as `gamma` describes, as
    (n, {descent mask: count}): a mask holds the start 0, w(D_1), ... of each
    part of a degree-n composition, as `_parts` reads it.

    The chain dicts are bounded as the down-sets are: before chains[low] is
    merged into a new dict, the entries stored so far, those of the new dict
    and those of chains[low], each one word per 64 bits of a degree-n mask,
    may not exceed ENUM_LIMIT.
    """
    n = sum(w)
    reversed_pairs = [1 << i | 1 << j for i, j in index_pairs(strict)]
    order = DoublePoset(elements=tuple(map(str, range(len(w)))), lt1=lt1, lt2=lt1)  # down_sets reads only <1
    downs = sorted(down_sets(order), key=int.bit_count)
    if len(downs) * (n // 64 + 1) > ENUM_LIMIT:
        raise BoundExceededError(f"Gamma in degree {n} needs over {ENUM_LIMIT} down-set words")
    weight = {s: sum(w[i] for i in range(len(w)) if s >> i & 1) for s in downs}
    chains: Dict[int, Dict[int, int]] = {0: {0: 1}}
    cap, stored = ENUM_LIMIT // (n // 64 + 1), 1  # the cap on entries, and the entries of the finished dicts
    for top in downs[1:]:
        into: Dict[int, int] = {}
        size = top.bit_count()
        for low in downs:
            if low.bit_count() >= size:
                break
            if low & ~top:
                continue
            block = top ^ low
            for r in reversed_pairs:
                if block & r == r:
                    break
            else:
                below = chains[low]
                if stored + len(into) + len(below) > cap:
                    raise BoundExceededError(f"Gamma in degree {n} needs over {ENUM_LIMIT} chain-dict words")
                cut = 1 << weight[low]
                for mask, c in below.items():
                    key = mask | cut
                    into[key] = into.get(key, 0) + c
        chains[top] = into
        stored += len(into)
    return n, chains[downs[-1]]


def _times_part(n: int, masks: Dict[int, int], a: int) -> Tuple[int, Dict[int, int]]:
    """(n, masks) times M_(a), the quasi-shuffle with one part, on the masks of
    degree-n compositions that `_chain_sum` returns: a goes into each gap of
    alpha, or is added to each part.  For the start b of a part, with low the
    starts below it and hi the rest moved up by a, the insert before that part
    is low | b | hi and the add to it low | b | (hi without b moved up); the
    append starts a part at n.  It makes at most 2 len(alpha) + 1 terms per
    term alpha, and more than ENUM_LIMIT in all are refused before any is."""
    longest = max(map(int.bit_count, masks), default=0)
    if len(masks) * (2 * longest + 1) > ENUM_LIMIT:
        raise BoundExceededError(f"Gamma times M({a}) needs over {ENUM_LIMIT} terms")
    out: Dict[int, int] = {}
    end = 1 << n
    for mask, c in masks.items():
        starts = mask
        while starts:
            b = starts & -starts
            starts ^= b
            low = mask & (b - 1)
            hi = (mask ^ low) << a
            key = low | b | hi
            out[key] = out.get(key, 0) + c
            key ^= b << a
            out[key] = out.get(key, 0) + c
        key = mask | end
        out[key] = out.get(key, 0) + c
    return n + a, out


def gamma_coproduct_check(d: DoublePoset) -> bool:
    """True iff the table of Delta(Gamma(E,w)) equals the summed table of the
    Gamma(E|P, w|P) (x) Gamma(E|Q, w|Q): P a <1-down-set, Q its complement.

    Each part is one `gamma_of_orders` call on the orders and weights of E
    restricted to the subset's mask, with no labelled poset built per subset.
    """
    lt1, strict, w = d.lt1, strict_pairs(d), d.w
    parts: Dict[int, QSymElem] = {}  # on an antichain every subset is both a P and a Q

    def part(mask):
        if mask not in parts:
            parts[mask] = gamma_of_orders(*_restrict(lt1, strict, w, mask))
        return parts[mask]

    full = (1 << d.size) - 1
    rhs: Dict[Tuple[tuple, tuple], int] = {}
    for low in down_sets(d):
        left, right = part(low), part(full ^ low)
        for a, ca in left.terms.items():
            for b, cb in right.terms.items():
                rhs[a, b] = rhs.get((a, b), 0) + ca * cb
    return coproduct(gamma_of_orders(lt1, strict, w)) == rhs


def antipode_theorem_sides(d: DoublePoset) -> Tuple[QSymElem, QSymElem]:
    """The two sides S(Gamma((E,<1,<2),w)) and (-1)^|E| Gamma((E,>1,<2),w);
    opposite1 keeps w, so the flipped side carries the weights of E."""
    return antipode_closed(gamma(d)), gamma(opposite1(d)).scale((-1) ** d.size)


def antipode_theorem_check(d: DoublePoset) -> bool:
    """True iff the two sides of :func:`antipode_theorem_sides` are equal.

    Guaranteed true for tertispecial posets; reported (not required) otherwise.
    """
    lhs, rhs = antipode_theorem_sides(d)
    return lhs == rhs


def gamma_product_check(d1: DoublePoset, d2: DoublePoset) -> bool:
    """True iff Gamma(E | F, w) = Gamma(E, w1) * Gamma(F, w2), the disjoint
    union read from the orders: those of F shifted past the |E| indices of E."""
    n = d1.size
    lt1 = d1.lt1 + tuple(up << n for up in d2.lt1)
    strict = strict_pairs(d1) + tuple(up << n for up in strict_pairs(d2))
    return gamma_of_orders(lt1, strict, d1.w + d2.w) == product(gamma(d1), gamma(d2))


def weighted_from_dict(doc: Dict) -> DoublePoset:
    """Poset JSON: {"elements": [labels], "lt1": [[a, b], ...], "lt2": [...],
    "w": {label: weight}}, lt1, lt2 and w optional; w is read into the
    declaration order, and omitted it weighs each element 1.  An error names
    the field at fault; a cycle in lt1 or lt2 is reported before a fault in w."""
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
    elements = tuple(elements)
    lt1, lt2 = (transitive_closure(elements, pairs) for pairs in orders)
    w = doc.get("w")
    if w is None:
        return DoublePoset(elements, lt1, lt2)
    if (
        not isinstance(w, dict)
        or not all(type(v) is int for v in w.values())  # no bool, no float
        or (not w and elements)
    ):
        raise ValueError("'w' must map every label to an integer weight")
    if set(w) != set(elements):
        raise ValueError("weight function must be total on the ground set")
    return DoublePoset(elements, lt1, lt2, [w[e] for e in elements])
