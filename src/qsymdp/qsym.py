"""Quasisymmetric functions in monomial coordinates with exact coefficients,
computed in the monomial basis alone (the product is the quasi-shuffle product,
the antipode a superset-sum transform over descent masks).

Compositions are checked where they enter (monomial, fundamental); inside, keys
are plain tuples of positive parts.  Coefficients are ints: product, coproduct and
antipode keep them integral, and the orbit sums divide by |G| exactly.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add
from typing import Callable, Dict, Iterable, List, Tuple

from .compositions import (
    Composition,
    all_descents,
    compositions_between,
    cube,
    descent_set,
    format_composition,
    in_sort_key_order,
    reverse,
)

Comp = Tuple[int, ...]
Coeff = int

ENUM_LIMIT = 2_000_000  # the most terms, cells or maps one enumeration may build
DEFAULT_GROUP_CAP = 5040  # the largest group materialised from generators unless --group-cap says otherwise


class BoundExceededError(RuntimeError):
    """A group closure above its cap, or an enumeration above its limit."""


class QSymElem:
    """A finite linear combination of monomial basis elements M_alpha.

    Keys are compositions as tuples, checked where they enter; coefficients are
    ints.  Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Comp, Coeff] | None = None):
        self.terms = {alpha: c for alpha, c in (terms or {}).items() if c}

    def coeff(self, alpha: Comp) -> Coeff:
        return self.terms.get(tuple(alpha), 0)

    def sorted_terms(self) -> List[Tuple[Comp, Coeff]]:
        terms = self.terms
        return [(alpha, terms[alpha]) for alpha in in_sort_key_order(terms)]

    def __add__(self, other: "QSymElem") -> "QSymElem":
        return linear_combination(((1, self), (1, other)))

    def __neg__(self) -> "QSymElem":
        return self.scale(-1)

    def scale(self, c: Coeff) -> "QSymElem":
        return QSymElem({a: c * v for a, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, QSymElem) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"QSymElem({format_qsym(self)})"


def monomial(alpha: Iterable[int]) -> QSymElem:
    return QSymElem({Composition(alpha): 1})


ZERO = QSymElem()
ONE = monomial(())


def linear_combination(pairs: Iterable[Tuple[Coeff, QSymElem]]) -> QSymElem:
    """The sum of c * f over the (c, f) pairs, accumulated in one dict."""
    terms: Dict[Comp, Coeff] = {}
    for c, f in pairs:
        for alpha, v in f.terms.items():
            terms[alpha] = terms.get(alpha, 0) + c * v
    return QSymElem(terms)


@lru_cache(maxsize=None)
def _quasi_shuffle(a: Comp, b: Comp) -> Dict[Comp, int]:
    """M_a * M_b as {gamma: multiplicity} over the quasi-shuffles gamma of a and b:
    the first part of gamma is a[0], b[0] or a[0] + b[0] (Hoffman's recursion)."""
    if not a or not b:
        return {a + b: 1}
    terms: Dict[Comp, int] = {}
    for head, rest in (
        (a[0], _quasi_shuffle(a[1:], b)),
        (b[0], _quasi_shuffle(a, b[1:])),
        (a[0] + b[0], _quasi_shuffle(a[1:], b[1:])),
    ):
        for gamma, c in rest.items():
            key = (head,) + gamma
            terms[key] = terms.get(key, 0) + c
    return terms


def product(f: QSymElem, g: QSymElem) -> QSymElem:
    """QSym product, the bilinear extension of the quasi-shuffle product.

    A k-part and an l-part composition have the Delannoy number
    D(k, l) = sum_i C(k, i) C(l, i) 2^i of quasi-shuffles, so the pairs of terms
    have sum_i 2^i (sum_a C(|a|, i)) (sum_b C(|b|, i)); more than ENUM_LIMIT in
    all are refused before any is built.
    """
    top = min(max(map(len, f.terms), default=0), max(map(len, g.terms), default=0))
    shuffles = sum(
        sum(comb(len(a), i) for a in f.terms) * sum(comb(len(b), i) for b in g.terms) << i
        for i in range(top + 1)
    )
    if shuffles > ENUM_LIMIT:
        raise BoundExceededError(f"product needs {shuffles} quasi-shuffles, above limit {ENUM_LIMIT}")
    return linear_combination(
        (cf * cg, QSymElem(_quasi_shuffle(a, b)))
        for a, cf in f.terms.items()
        for b, cg in g.terms.items()
    )


def coproduct(f: QSymElem) -> Dict[Tuple[Comp, Comp], Coeff]:
    """Deconcatenation coproduct, as the sparse tensor table {(beta, gamma): c} of
    the terms c M_beta (x) M_gamma, one per cut alpha = beta.gamma of a term c M_alpha.

    Each pair (beta, gamma) comes from exactly one alpha, so nothing is summed and
    no entry is zero.
    """
    return {(alpha[:k], alpha[k:]): c for alpha, c in f.terms.items() for k in range(len(alpha) + 1)}


def rights_by_left(table: Dict[Tuple[Comp, Comp], Coeff]) -> Dict[Comp, Dict[Comp, Coeff]]:
    """A tensor table {(beta, gamma): c} grouped by left, as {beta: {gamma: c}}."""
    rights: Dict[Comp, Dict[Comp, Coeff]] = {}
    for (beta, gamma), c in table.items():
        rights.setdefault(beta, {})[gamma] = c
    return rights


def counit(f: QSymElem) -> Coeff:
    return f.coeff(())


def antipode_closed(f: QSymElem) -> QSymElem:
    """S(M_alpha) = (-1)^l sum_{D(gamma) subseteq D(rev alpha)} M_gamma, extended linearly.

    In degree n, S(f)[G] = sum over E >= G of c'[E], with c'[D(rev alpha)] = (-1)^l c_alpha:
    a superset-sum.  A degree with one mask E needs no pass: every sub-mask of E
    sums to c'[E].  Otherwise it is run by Yates's passes on sub-cubes of masks that
    cover the degree's support.  The cover is one cube over the OR u of the support's masks
    when 2^|u| <= sum over the support of 2^|m| (a dense support, such as a Gamma's)
    and that cube fits the bound; otherwise it is one cube per maximal mask of the
    support, at most the 2^|D(rev alpha)| cells per term that the closed form visits,
    so a spread-out support never pays for its OR.  The bound, ENUM_LIMIT, is on the
    cells of the cubes of each degree on its own, each counted once per 64-bit word
    of a degree-n mask.
    """
    by_degree: Dict[int, Dict[int, Coeff]] = {}
    for alpha, c in f.terms.items():
        n = sum(alpha)
        if n // 64 >= ENUM_LIMIT:  # one cell is over, so refuse before building a degree-n mask
            raise BoundExceededError(f"antipode in degree {n} needs over {ENUM_LIMIT} cell words")
        by_degree.setdefault(n, {})[descent_set(reverse(alpha))] = -c if len(alpha) & 1 else c
    terms: Dict[Comp, Coeff] = {}
    for n, values in by_degree.items():
        words = n // 64 + 1
        if len(values) == 1:  # every sub-mask of the one mask sums to its value
            (mask, v), = values.items()
            if (1 << mask.bit_count()) * words > ENUM_LIMIT:
                raise BoundExceededError(f"antipode in degree {n} needs over {ENUM_LIMIT} cell words")
            terms.update(dict.fromkeys(compositions_between(n, 0, mask), v))
            continue
        union = 0
        for mask in values:
            union |= mask
        size = 1 << union.bit_count()
        if size <= sum(1 << mask.bit_count() for mask in values) and size * words <= ENUM_LIMIT:
            terms.update(_antipode_cube(n, union, values.get))
            continue
        left, cells = dict(values), 0  # each mask is popped into the first cube that holds it
        for mask in sorted(values, key=int.bit_count, reverse=True):
            if mask in left:
                cells += (1 << mask.bit_count()) * words
                if cells > ENUM_LIMIT:
                    raise BoundExceededError(f"antipode in degree {n} needs over {ENUM_LIMIT} cell words")
                for gamma, v in _antipode_cube(n, mask, left.pop):
                    terms[gamma] = terms.get(gamma, 0) + v
    return QSymElem(terms)


def _antipode_cube(n: int, top: int, value: Callable[[int, int], Coeff]) -> Iterable[Tuple[Comp, Coeff]]:
    """The pairs (composition of n with descent mask s, sum over the E >= s below top
    of value(E, 0)) over the sub-masks s of top: Yates's passes on the cube's list."""
    subs, comps = cube(n, 0, top)
    a = [value(s, 0) for s in subs]
    for _ in range(len(a).bit_length() - 1):
        odd = a[1::2]
        a = list(map(add, a[0::2], odd)) + odd
    return zip(comps, a)


def fundamental(alpha: Iterable[int]) -> QSymElem:
    """The fundamental function F_alpha = sum over beta with D(beta) >= D(alpha) of M_beta."""
    alpha = Composition(alpha)
    n = sum(alpha)
    if n - len(alpha) > ENUM_LIMIT.bit_length() - 1:  # 2^(n - l) > ENUM_LIMIT, without the power
        raise BoundExceededError(f"F{format_composition(alpha)} has 2^{n - len(alpha)} terms, above limit {ENUM_LIMIT}")
    return QSymElem(dict.fromkeys(compositions_between(n, descent_set(alpha), all_descents(n)), 1))


def _term_head(c: Coeff) -> str:
    """The text of a term up to its parts, sign first: " + M(", " - 2*M(", " + 3*M("."""
    mag = abs(c)
    return (" - " if c < 0 else " + ") + ("M(" if mag == 1 else f"{mag}*M(")


def _join_terms(pieces: List[str]) -> str:
    """The signed term texts as one sum, its leading " + " dropped and " - " made "-"."""
    text = "".join(pieces)
    return text[3:] if text[1] == "+" else "-" + text[3:]


class _PartTexts(dict):
    """str(part) per part, built on its first lookup.  One table per rendering
    call: a module-level one would outlive the call, which perfbench models as a
    fresh process per op, and would grow without bound."""

    def __missing__(self, part: int) -> str:
        text = self[part] = str(part)
        return text


def format_qsym(f: QSymElem) -> str:
    """Render as e.g. ``M(2) + 2*M(1,1) - 3*M(3)``; zero prints as ``0``.  A term is
    its coefficient's head, built once per coefficient, and its parts' texts from
    a _PartTexts table local to the call."""
    items = f.sorted_terms()
    if not items:
        return "0"
    heads = {c: _term_head(c) for c in set(f.terms.values())}
    part = _PartTexts().__getitem__
    return _join_terms([heads[c] + ",".join(map(part, alpha)) + ")" for alpha, c in items])


def format_coproduct(f: QSymElem) -> str:
    """The lines ``M(beta) (x) right`` of the table coproduct(f) grouped by its
    lefts beta, in sort_key order, each right as format_qsym prints the sum of
    its c M_gamma; empty for zero.  One pass over f's terms in sort_key order
    fills each right in order (beta is a common prefix of the alpha that reach
    it), and the text of each gamma in alpha = beta.gamma is a slice of alpha's
    text "a1,...,al)", cut after its k-th comma for |beta| = k parts, and built
    as in format_qsym.
    """
    heads = {c: _term_head(c) for c in set(f.terms.values())}
    part = _PartTexts().__getitem__
    rights: Dict[Comp, List[str]] = {}
    for alpha, c in f.sorted_terms():
        head = heads[c]
        text = ",".join(map(part, alpha)) + ")"
        cut = 0
        for k in range(len(alpha)):
            rights.setdefault(alpha[:k], []).append(head + text[cut:])
            cut = text.find(",", cut) + 1
        rights.setdefault(alpha, []).append(head + ")")
    return "\n".join(
        f"M({','.join(map(part, left))}) (x) {_join_terms(rights[left])}" for left in in_sort_key_order(rights)
    )
