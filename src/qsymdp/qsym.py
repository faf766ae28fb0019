"""Quasisymmetric functions in monomial coordinates with exact rational coefficients,
computed in the monomial basis alone (the product is the quasi-shuffle product)."""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from .compositions import (
    Composition,
    compositions_between,
    descent_set,
    format_composition,
    reverse,
    sort_key,
)


class QSymElem:
    """A finite linear combination of monomial basis elements M_alpha.

    Coefficients are exact rationals; zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Composition, Fraction] | None = None):
        cleaned: Dict[Composition, Fraction] = {}
        for alpha, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                cleaned[Composition(alpha)] = c
        self.terms = cleaned

    def coeff(self, alpha: Composition) -> Fraction:
        return self.terms.get(Composition(alpha), Fraction(0))

    def sorted_terms(self) -> List[Tuple[Composition, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: sort_key(t[0]))

    def __add__(self, other: "QSymElem") -> "QSymElem":
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, Fraction(0)) + c
        return QSymElem(out)

    def __sub__(self, other: "QSymElem") -> "QSymElem":
        return self + (-other)

    def __neg__(self) -> "QSymElem":
        return QSymElem({a: -c for a, c in self.terms.items()})

    def scale(self, c) -> "QSymElem":
        c = Fraction(c)
        return QSymElem({a: c * v for a, v in self.terms.items()})

    def __rmul__(self, c) -> "QSymElem":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QSymElem):
            return product(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, QSymElem) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"QSymElem({format_qsym(self)})"


def monomial(alpha: Composition) -> QSymElem:
    return QSymElem({Composition(alpha): Fraction(1)})


ZERO = QSymElem()
ONE = monomial(Composition())


def linear_combination(pairs: Iterable[Tuple[Fraction, QSymElem]]) -> QSymElem:
    """The sum of c * f over the (c, f) pairs, accumulated in one dict."""
    terms: Dict[Composition, Fraction] = {}
    for c, f in pairs:
        for alpha, v in f.terms.items():
            terms[alpha] = terms.get(alpha, 0) + c * v
    return QSymElem(terms)


def _apply_linear(basis_map, f: QSymElem) -> QSymElem:
    """Extend a map on basis elements, alpha -> basis_map(alpha), linearly to f."""
    return linear_combination((c, basis_map(alpha)) for alpha, c in f.terms.items())


@lru_cache(maxsize=None)
def _quasi_shuffle(a: Composition, b: Composition) -> Dict[tuple, int]:
    """M_a * M_b as {gamma: multiplicity} over the quasi-shuffles gamma of a and b:
    the first part of gamma is a[0], b[0] or a[0] + b[0] (Hoffman's recursion)."""
    if not a or not b:
        return {a + b: 1}
    terms: Dict[tuple, int] = {}
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
    """QSym product, the bilinear extension of the quasi-shuffle product."""
    return linear_combination(
        (cf * cg, QSymElem(_quasi_shuffle(a, b)))
        for a, cf in f.terms.items()
        for b, cg in g.terms.items()
    )


def coproduct(f: QSymElem) -> List[Tuple[QSymElem, QSymElem]]:
    """Deconcatenation coproduct, as a list of tensor terms.

    Normalized: left factors are distinct basis elements M_beta, sorted.
    """
    by_left: Dict[Composition, Dict[Composition, Fraction]] = {}
    for alpha, c in f.terms.items():
        for k in range(len(alpha) + 1):
            right = by_left.setdefault(Composition(alpha[:k]), {})
            beta = Composition(alpha[k:])
            right[beta] = right.get(beta, 0) + c
    rights = {left: QSymElem(right) for left, right in by_left.items()}
    return [
        (monomial(left), rights[left])
        for left in sorted(rights, key=sort_key)
        if rights[left]
    ]


def counit(f: QSymElem) -> Fraction:
    return f.coeff(Composition())


@lru_cache(maxsize=None)
def _antipode_closed_basis(alpha: Composition) -> QSymElem:
    rev_d = descent_set(reverse(alpha)).members
    gammas = compositions_between(sum(alpha), (), rev_d)
    return QSymElem(dict.fromkeys(gammas, Fraction(-1) ** len(alpha)))


def antipode_closed(f: QSymElem) -> QSymElem:
    """Antipode via the closed form: S(M_alpha) = (-1)^l sum_{D(gamma) subseteq D(rev alpha)} M_gamma."""
    return _apply_linear(_antipode_closed_basis, f)


def fundamental(alpha: Composition) -> QSymElem:
    """The fundamental function F_alpha = sum over beta with D(beta) >= D(alpha) of M_beta."""
    n = sum(alpha)
    d = descent_set(Composition(alpha)).members
    return QSymElem(dict.fromkeys(compositions_between(n, d, range(1, n)), 1))


def binomial(q, k: int) -> Fraction:
    """Generalized binomial C(q, k) = q(q-1)...(q-k+1)/k!, valid for negative q."""
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(q) - i
    den = 1
    for i in range(1, k + 1):
        den *= i
    return num / den


def ps1(f: QSymElem, q: int) -> Fraction:
    """Principal specialization: substitute 1 for x_1..x_q and 0 for the rest."""
    return sum(
        (c * binomial(q, len(alpha)) for alpha, c in f.terms.items()),
        Fraction(0),
    )


def format_qsym(f: QSymElem) -> str:
    """Render as e.g. ``M(2) + 2*M(1,1) - 1/2*M(3)``; zero prints as ``0``."""
    items = f.sorted_terms()
    if not items:
        return "0"
    pieces = []
    for i, (alpha, c) in enumerate(items):
        mag = abs(c)
        body = format_composition(alpha)
        text = f"M{body}" if mag == 1 else f"{mag}*M{body}"
        if i == 0:
            pieces.append(("-" if c < 0 else "") + text)
        else:
            pieces.append((" - " if c < 0 else " + ") + text)
    return "".join(pieces)


_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?M\(([\d,\s]*)\)$")


def parse_qsym(text: str) -> QSymElem:
    """Parse the output grammar of :func:`format_qsym`."""
    text = text.strip()
    if text == "0":
        return ZERO
    chunks = re.split(r"\s+(?=[+-]\s)", " " + text)
    # normalize: leading sign may be glued to the first term
    terms: Dict[Composition, Fraction] = {}
    for chunk in chunks:
        chunk = chunk.strip()
        sign = Fraction(1)
        if chunk.startswith("+"):
            chunk = chunk[1:].strip()
        elif chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:].strip()
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse QSym term {chunk!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        parts = m.group(2).strip()
        alpha = (
            Composition(int(p) for p in parts.split(",")) if parts else Composition()
        )
        terms[alpha] = terms.get(alpha, Fraction(0)) + sign * coeff
    return QSymElem(terms)
