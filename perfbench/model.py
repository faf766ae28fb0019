"""Reference mathematics for checking qsymdp output, written apart from the package.

Nothing here calls qsymdp.  Double posets are held as bitmasks over the
declaration order of their elements; a generating function is evaluated at
integer points by summing over chains of down-sets of <1, which is a
different route from the package's backtracking over packed E-partitions.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Comp = Tuple[int, ...]


class CheckError(ValueError):
    """Output that does not match the expected value."""


# ----------------------------------------------------------------------------
# double posets


def closure(n: int, pairs: Sequence[Tuple[int, int]]) -> List[int]:
    """above[i] = bitmask of j with i < j in the transitive closure."""
    above = [0] * n
    for a, b in pairs:
        above[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if above[i] >> k & 1:
                above[i] |= above[k]
    if any(above[i] >> i & 1 for i in range(n)):
        raise ValueError("order generators contain a cycle")
    return above


class DoublePoset:
    """A weighted double poset given as a poset document (the CLI's JSON)."""

    def __init__(self, doc: Dict):
        self.labels = list(doc["elements"])
        n = self.n = len(self.labels)
        idx = {e: i for i, e in enumerate(self.labels)}
        self.lt1 = closure(n, [(idx[a], idx[b]) for a, b in doc.get("lt1", [])])
        self.lt2 = closure(n, [(idx[a], idx[b]) for a, b in doc.get("lt2", [])])
        w = doc.get("w") or {}
        self.w = [int(w.get(e, 1)) for e in self.labels]
        # e <1 f together with f <2 e forces pi(e) < pi(f)
        self.strict = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if self.lt1[i] >> j & 1 and self.lt2[j] >> i & 1
        ]
        self._steps = None

    @property
    def degree(self) -> int:
        return sum(self.w)

    def covers1(self) -> List[Tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if self.lt1[i] >> j & 1
            and not any(self.lt1[i] >> k & 1 and self.lt1[k] >> j & 1 for k in range(self.n))
        ]

    def is_tertispecial(self) -> bool:
        return all(self.lt2[i] >> j & 1 or self.lt2[j] >> i & 1 for i, j in self.covers1())

    def steps(self):
        """For each down-set D of <1: the (D', w(D' minus D)) one value can add."""
        if self._steps is None:
            n = self.n
            downs = [s for s in range(1 << n) if self._is_down(s)]
            self._steps = {
                d: [
                    (d2, sum(self.w[i] for i in range(n) if (d2 & ~d) >> i & 1))
                    for d2 in downs
                    if d2 & d == d and self._block_ok(d2 & ~d)
                ]
                for d in downs
            }
        return self._steps

    def _is_down(self, s: int) -> bool:
        # no element outside s lies below a member of s
        return all(s >> i & 1 or not (self.lt1[i] & s) for i in range(self.n))

    def _block_ok(self, block: int) -> bool:
        return not any(block >> i & 1 and block >> j & 1 for i, j in self.strict)

    def epartition_sum(self, x: Sequence[int]) -> int:
        """Sum over E-partitions pi: E -> [len(x)] of prod_e x[pi(e)]^w(e)."""
        steps = self.steps()
        v = {0: 1}
        for xi in x:
            nv: Dict[int, int] = defaultdict(int)
            for d, c in v.items():
                for d2, wt in steps[d]:
                    nv[d2] += c * xi**wt
            v = nv
        return v.get((1 << self.n) - 1, 0)

    def count_epartitions(self, m: int) -> int:
        return self.epartition_sum([1] * m)

    def gamma_terms(self) -> Dict[Comp, int]:
        """Gamma in the monomial basis, by brute force over packed maps; tiny posets only."""
        n = self.n
        out: Dict[Comp, int] = defaultdict(int)
        for values in itertools.product(range(1, n + 1), repeat=n):
            k = len(set(values))
            if set(values) != set(range(1, k + 1)):
                continue
            if any(values[i] > values[j] for i in range(n) for j in range(n) if self.lt1[i] >> j & 1):
                continue
            if any(values[i] == values[j] for i, j in self.strict):
                continue
            parts = [0] * k
            for i, v in enumerate(values):
                parts[v - 1] += self.w[i]
            out[tuple(parts)] += 1
        return dict(out)


def skew_shape_doc(outer: Sequence[int], inner: Sequence[int]) -> Dict:
    """The cell double poset of a skew shape, as in the paper: (i,j) <1 (i',j')
    iff both coordinates weakly increase, (i,j) <2 (i',j') iff i >= i', j <= j'."""
    inner = list(inner) + [0] * (len(outer) - len(inner))
    cells = [(i, j) for i, (lam, mu) in enumerate(zip(outer, inner), 1) for j in range(mu + 1, lam + 1)]
    label = "{0},{1}".format
    lt1 = [[label(*a), label(*b)] for a in cells for b in cells if a != b and a[0] <= b[0] and a[1] <= b[1]]
    lt2 = [[label(*a), label(*b)] for a in cells for b in cells if a != b and a[0] >= b[0] and a[1] <= b[1]]
    return {"elements": [label(*c) for c in cells], "lt1": lt1, "lt2": lt2}


# ----------------------------------------------------------------------------
# quasisymmetric functions as coefficient dicts

_TERM = re.compile(r"(-?)(?:(\d+(?:/\d+)?)\*)?M\(([\d,]*)\)")


def _number(text: str):
    c = Fraction(text)
    return c.numerator if c.denominator == 1 else c


def parse_qsym(text: str) -> Dict[Comp, object]:
    """Parse the CLI's text form, e.g. ``M(2) + 2*M(1,1) - 1/2*M(3)``."""
    text = text.strip()
    if text == "0":
        return {}
    pieces = re.split(r" ([+-]) ", text)
    out: Dict[Comp, object] = {}
    for sign, term in zip(["+"] + pieces[1::2], pieces[0::2]):
        m = _TERM.fullmatch(term)
        if not m:
            raise CheckError(f"cannot parse term {term!r}")
        c = _number(m.group(2) or "1")
        if (sign == "-") != (m.group(1) == "-"):
            c = -c
        alpha = tuple(int(p) for p in m.group(3).split(",") if p)
        if alpha in out or c == 0:
            raise CheckError(f"repeated or zero term {term!r}")
        out[alpha] = c
    return out


def eval_monomial(alpha: Comp, x: Sequence[int]) -> int:
    """M_alpha(x) = sum over i_1 < ... < i_l of x_{i_1}^alpha_1 ... x_{i_l}^alpha_l."""
    dp = [1] + [0] * len(alpha)
    for xi in x:
        for j in range(len(alpha), 0, -1):
            dp[j] += dp[j - 1] * xi ** alpha[j - 1]
    return dp[-1]


def eval_qsym(terms: Dict[Comp, object], x: Sequence[int]):
    return sum(c * eval_monomial(a, x) for a, c in terms.items())


def binomial(q: int, k: int) -> Fraction:
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(q - i, i + 1)
    return num


def ps1(terms: Dict[Comp, object], q: int) -> Fraction:
    """Principal specialization x_1 = ... = x_q = 1, as a polynomial in q."""
    return sum((c * binomial(q, len(a)) for a, c in terms.items()), Fraction(0))


def compositions(n: int) -> List[Comp]:
    return [comp_from_descents(n, s) for k in range(n) for s in itertools.combinations(range(1, n), k)]


def descents(alpha: Comp) -> frozenset:
    return frozenset(itertools.accumulate(alpha[:-1]))


def comp_from_descents(n: int, cuts) -> Comp:
    pts = [0, *sorted(cuts), n]
    return tuple(b - a for a, b in zip(pts, pts[1:]))


def antipode_m(alpha: Comp) -> Dict[Comp, int]:
    """S(M_alpha) = (-1)^l(alpha) times the sum of M_gamma over the coarsenings
    gamma of the reversed composition (adjacent parts merged)."""
    rev = alpha[::-1]
    sign = (-1) ** len(alpha)
    out = {}
    for keep in itertools.product((False, True), repeat=max(len(rev) - 1, 0)):
        parts = [rev[0]] if rev else []
        for k, p in zip(keep, rev[1:]):
            if k:
                parts.append(p)
            else:
                parts[-1] += p
        out[tuple(parts)] = sign
    return out


def conjugate(alpha: Comp) -> Comp:
    n = sum(alpha)
    return comp_from_descents(n, set(range(1, n)) - descents(alpha[::-1]))


def fundamental(alpha: Comp) -> Dict[Comp, int]:
    """F_alpha: the sum of M_gamma over the refinements gamma of alpha."""
    out = {}
    for pieces in itertools.product(*(compositions(p) for p in alpha)):
        out[tuple(itertools.chain.from_iterable(pieces))] = 1
    return out
