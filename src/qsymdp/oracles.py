"""Brute-force reference computations, used by the self-test harness, the
tests, and the orbit counts on the right-hand side of reciprocity.

Everything here goes through the raw definitions (all maps E -> [m], the
power-series truncation), never through the down-set chain sum, so that
agreement is a genuine two-route check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Tuple

from .gamma import WeightedDoublePoset, is_epartition
from .qsym import QSymElem, _expand


def epartitions_into(d: WeightedDoublePoset, m: int) -> List[Dict[str, int]]:
    """All E-partitions with values in {1,...,m}, by filtering all maps."""
    elems = d.poset.elements
    out = []
    for values in itertools.product(range(1, m + 1), repeat=len(elems)):
        pi = dict(zip(elems, values))
        if is_epartition(d, pi):
            out.append(pi)
    return out


def gamma_truncated_bruteforce(
    d: WeightedDoublePoset, m: int
) -> Dict[Tuple[int, ...], Fraction]:
    """The truncation of Gamma(E, w) to m variables, summed map by map."""
    poly: Dict[Tuple[int, ...], Fraction] = {}
    for pi in epartitions_into(d, m):
        exps = [0] * m
        for e, i in pi.items():
            exps[i - 1] += d.w[e]
        key = tuple(exps)
        poly[key] = poly.get(key, Fraction(0)) + 1
    return poly


def gamma_truncation_matches(d: WeightedDoublePoset, f: QSymElem, m: int) -> bool:
    """True iff f, expanded in m variables, equals the brute-force truncation."""
    return _expand(f, m) == gamma_truncated_bruteforce(d, m)
