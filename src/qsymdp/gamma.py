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
from .qsym import ENUM_LIMIT, ONE, BoundExceededError, QSymElem, antipode_closed, coproduct, product


class NotTertispecialError(ValueError):
    """Raised when an operation requires a tertispecial double poset."""


# Bound of gamma_of_orders, and of the bool verdicts of the coproduct and
# antipode checks, each memoised on the orders it reads.  `selftest --max-size 4`
# makes 142649 Gamma calls on 6616 (<1, strict pairs, weights) keys, and checks
# its 48333 posets on 3307 coproduct and 3890 antipode keys (86 and 93 for the
# 372 at size 3); all fit.  Module-level lru_caches: clearing the package's
# caches (perfbench does so per op) starts them cold, as a fresh process does.
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
    and each factor is multiplied in by `_times_part`.  A degree past one
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
        return _chain_sum(lt1, strict, w)
    f = ONE
    if related:
        f = _chain_sum(
            squeeze(lt1, related), squeeze(strict, related), tuple(x for i, x in enumerate(w) if related >> i & 1)
        )
    for i, part in enumerate(w):
        if not related >> i & 1:
            f = _times_part(f, part)
    return f


def _chain_sum(lt1: Rel, strict: Rel, w: Tuple[int, ...]) -> QSymElem:
    """Gamma summed over the chains of <1-down-sets, as `gamma` describes.

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
    return QSymElem({_parts(n, mask): c for mask, c in chains[downs[-1]].items()})


def _times_part(f: QSymElem, a: int) -> QSymElem:
    """f * M_(a), the quasi-shuffle with one part: a goes into each gap of
    alpha, or is added to each part.  It makes at most 2 len(alpha) + 1 terms
    per term alpha, and more than ENUM_LIMIT in all are refused before any is."""
    longest = max(map(len, f.terms), default=0)
    if len(f.terms) * (2 * longest + 1) > ENUM_LIMIT:
        raise BoundExceededError(f"Gamma times M({a}) needs over {ENUM_LIMIT} terms")
    terms: Dict[Tuple[int, ...], int] = {}
    for alpha, c in f.terms.items():
        for k in range(len(alpha) + 1):
            key = alpha[:k] + (a,) + alpha[k:]
            terms[key] = terms.get(key, 0) + c
        for k, part in enumerate(alpha):
            key = alpha[:k] + (part + a,) + alpha[k + 1:]
            terms[key] = terms.get(key, 0) + c
    return QSymElem(terms)


def gamma_coproduct_check(d: DoublePoset) -> bool:
    """True iff the table of Delta(Gamma(E,w)) equals the summed table of the
    Gamma(E|P, w|P) (x) Gamma(E|Q, w|Q): P a <1-down-set, Q its complement.
    Like Gamma, the verdict reads only <1, the strict pairs and w, so it is
    memoised on them in `coproduct_check_of_orders`."""
    return coproduct_check_of_orders(d.lt1, strict_pairs(d), d.w)


@lru_cache(maxsize=GAMMA_CACHE_SIZE)
def coproduct_check_of_orders(lt1: Rel, strict: Rel, w: Tuple[int, ...]) -> bool:
    """The coproduct rule on the double poset with these orders and weights.

    Both sides are read from the orders over the declaration index, with no
    labelled poset built per subset.  The left side is the chain sum of E; each
    part is its own memoised `gamma_of_orders` call on <1, the strict pairs and
    the weights of E squeezed to the subset's mask.  Both orders of E|P are
    induced from E, so the strict pairs of E|P are those of E restricted to P.
    """
    parts: Dict[int, QSymElem] = {}  # a subset can be the P of one pair and the Q of another

    def part(mask):
        if mask not in parts:
            parts[mask] = gamma_of_orders(
                squeeze(lt1, mask), squeeze(strict, mask), tuple(x for i, x in enumerate(w) if mask >> i & 1)
            )
        return parts[mask]

    full = (1 << len(w)) - 1
    rhs: Dict[Tuple[tuple, tuple], int] = {}
    for low in down_sets(DoublePoset(elements=tuple(map(str, range(len(w)))), lt1=lt1, lt2=lt1)):
        left, right = part(low), part(full ^ low)
        for a, ca in left.terms.items():
            for b, cb in right.terms.items():
                rhs[a, b] = rhs.get((a, b), 0) + ca * cb
    return coproduct(gamma_of_orders(lt1, strict, w)) == rhs


def antipode_theorem_sides(d: DoublePoset) -> Tuple[QSymElem, QSymElem]:
    """The two sides S(Gamma((E,<1,<2),w)) and (-1)^|E| Gamma((E,>1,<2),w)."""
    return _antipode_sides(d.lt1, strict_pairs(d), strict_pairs(opposite1(d)), d.w)


def _antipode_sides(lt1: Rel, strict: Rel, flipped_strict: Rel, w: Tuple[int, ...]) -> Tuple[QSymElem, QSymElem]:
    """The two sides from the orders: Gamma(opposite1(E)) has order >1, the
    strict pairs flipped_strict of `strict_pairs(opposite1(E))`, and w."""
    flipped = gamma_of_orders(transpose(lt1), flipped_strict, w)
    return antipode_closed(gamma_of_orders(lt1, strict, w)), flipped.scale((-1) ** len(w))


def antipode_theorem_check(d: DoublePoset) -> bool:
    """True iff the two sides of :func:`antipode_theorem_sides` are equal.

    Guaranteed true for tertispecial posets; reported (not required) otherwise.
    The verdict is memoised on the orders the sides read, and w.
    """
    return antipode_check_of_orders(d.lt1, strict_pairs(d), strict_pairs(opposite1(d)), d.w)


@lru_cache(maxsize=GAMMA_CACHE_SIZE)
def antipode_check_of_orders(lt1: Rel, strict: Rel, flipped_strict: Rel, w: Tuple[int, ...]) -> bool:
    lhs, rhs = _antipode_sides(lt1, strict, flipped_strict, w)
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
