"""The exhaustive verification suites in one ordered registry, shared by
``qsymdp selftest`` and the acceptance tests: SUITES maps a name to
suite(size), a generator of one bool per counted check.  Every brute-force
side of a check comes from ``oracles``: the all-maps truncation of Gamma, the
recursive antipode and the orbit counts of E-partitions.

Calls go through module attributes, so that wrappers installed on the modules'
names (perfbench's layer tracer) see them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List

from . import compositions as comps
from . import equivariant as equi
from . import gamma as gm
from . import oracles
from . import orderpoly as opoly
from . import poset as pos
from . import qsym


def _all_posets(size: int):
    """Every double poset with |E| <= size, by size; a size over the bound is
    refused before any is enumerated."""
    pos.check_double_poset_count(size)
    return [p for n in range(size + 1) for p in pos.all_double_posets(n)]


def compositions_round_trip(n: int) -> Iterator[bool]:
    """Per alpha of n: comp(D(alpha)) = alpha and D(rev alpha) = n - D(alpha)."""
    for alpha in comps.compositions_of(n):
        d = comps.descent_set(alpha)
        reversed_d = sum(1 << (n - u) for u in range(1, n) if d >> u & 1)
        yield comps.comp_of_subset(n, d) == alpha and comps.descent_set(comps.reverse(alpha)) == reversed_d


def descent_sets_round_trip(n: int) -> Iterator[bool]:
    """Per D in {1, ..., n-1}, for n >= 1: D(comp(D)) = D."""
    for d in range(0, (1 << n) - 1, 2):  # the even masks below 2^n; none for n = 0
        yield comps.descent_set(comps.comp_of_subset(n, d)) == d


def composition_calculus(size: int) -> Iterator[bool]:
    for n in range(size + 3):
        yield from compositions_round_trip(n)
        yield from descent_sets_round_trip(n)


def antipode_consistency(size: int) -> Iterator[bool]:
    """Per M_alpha: S closed = S recursive, S(S(M)) = M, m(S x id)Delta = u eps, and
    S(F_alpha) = (-1)^n F_{conjugate(alpha)}."""
    for n in range(size + 1):
        for alpha in comps.compositions_of(n):
            m = qsym.monomial(alpha)
            s = qsym.antipode_closed(m)
            axiom = qsym.linear_combination(
                (c, qsym.product(qsym.antipode_closed(qsym.monomial(beta)), qsym.monomial(gamma)))
                for (beta, gamma), c in qsym.coproduct(m).items()
            )
            f_conjugate = qsym.fundamental(comps.conjugate(alpha)).scale((-1) ** n)
            yield (
                s == oracles.antipode_recursive(m)
                and qsym.antipode_closed(s) == m
                and axiom == qsym.ONE.scale(qsym.counit(m))
                and qsym.antipode_closed(qsym.fundamental(alpha)) == f_conjugate
            )


def gamma_truncation(size: int) -> Iterator[bool]:
    """Per poset: Gamma against the all-maps oracle, with weights all 1 and 1, 2, 1, ...

    The comparison is in |E| variables, with no term of more than |E| parts,
    and that decides Gamma exactly.  In k variables an M_alpha of at most k
    parts keeps the monomial x_1^alpha_1 ... x_l^alpha_l, which no other M_beta
    has, so those M_alpha stay independent, while one of more parts expands to
    0.  Gamma has no term of more than |E| parts, one part per value of an
    E-partition, and the bound refuses an f that has one.  In |E| + 1 variables
    without the bound, a wrong term of |E| + 2 or more parts would pass.

    The two verdicts are reused within the call by every poset with the same
    <1, strict pairs and E-partition definition: all that the two sides read,
    as the weightings depend on |E| alone.  The definition is the oracle's own
    (i, j, strict) list, so posets that the oracle tells apart never share a
    verdict, however `strict_pairs` reads them.  The oracle is called once per
    key, and enumerates its E-partitions once for both weightings.
    """
    verdicts: Dict[tuple, List[bool]] = {}
    for poset in _all_posets(size):
        n, strict = poset.size, gm.strict_pairs(poset)
        key = (poset.lt1, strict, tuple(oracles._epartition_pairs(poset, poset.lt1)))
        if key not in verdicts:
            weightings = ((1,) * n, tuple(1 + i % 2 for i in range(n)))
            claims = [(w, gm.gamma_of_orders(poset.lt1, strict, w)) for w in weightings]
            verdicts[key] = oracles.gamma_truncations_match(poset, claims, n)
        yield from verdicts[key]


def antipode_theorem(size: int) -> Iterator[bool]:
    """Per poset: the antipode theorem, if tertispecial; then its failure on a <1 b.
    A verdict is reused within the call by every poset with the same <1, strict
    pairs of E and of opposite1(E), and w: all that the two sides read.  The
    strict pairs of the key are taken once per poset and passed to the check."""
    verdicts: Dict[tuple, bool] = {}
    for poset in _all_posets(size):
        if not pos.is_tertispecial(poset):
            yield True
            continue
        strict, flipped = gm.strict_pairs(poset), gm.strict_pairs(pos.opposite1(poset))
        key = (poset.lt1, strict, flipped, poset.w)
        if key not in verdicts:
            verdicts[key] = gm.antipode_theorem_check(poset, strict, flipped)
        yield verdicts[key]
    yield not gm.antipode_theorem_check(pos.build(["a", "b"], [("a", "b")], []))


def coproduct_product_rules(size: int) -> Iterator[bool]:
    """Per poset: the coproduct rule; then the product rule on pairs of a sample of four.
    A verdict is reused within the call by every poset with the same <1, strict
    pairs and w: all that the rule reads.  The strict pairs of the key are taken
    once per poset and passed to the check."""
    verdicts: Dict[tuple, bool] = {}
    sample = []
    for i, poset in enumerate(_all_posets(size)):
        strict = gm.strict_pairs(poset)
        key = (poset.lt1, strict, poset.w)
        if key not in verdicts:
            verdicts[key] = gm.gamma_coproduct_check(poset, strict)
        yield verdicts[key]
        if i % 37 == 0 and poset.size <= 2:
            sample.append(poset)
    for d1, d2 in itertools.product(sample[:4], repeat=2):
        yield gm.gamma_product_check(d1, d2)


def equivariant_reciprocity(size: int) -> Iterator[bool]:
    """Per n-antichain under the cyclic group: the equivariant antipode theorem,
    the order polynomial against orbit counts at q = 0..3, reciprocity at q = 1..3."""
    for n in range(1, size + 1):
        labels = [chr(ord("a") + i) for i in range(n)]
        cycle = {labels[i]: labels[(i + 1) % n] for i in range(n)}
        a = equi.build_action(pos.build(labels, [], []), [cycle])
        yield equi.equivariant_theorem_check(a)
        for q in range(4):
            yield opoly.order_polynomial(a)(q) == oracles.count_orbits_bruteforce(a, q)
        for q in range(1, 4):
            yield opoly.reciprocity_check(a, q)


SUITES: Dict[str, Callable[[int], Iterator[bool]]] = {
    "composition-calculus": composition_calculus,
    "antipode-consistency": antipode_consistency,
    "gamma-truncation": gamma_truncation,
    "antipode-theorem": antipode_theorem,
    "coproduct-product-rules": coproduct_product_rules,
    "equivariant-reciprocity": equivariant_reciprocity,
}
