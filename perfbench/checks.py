"""Per-op correctness checks, run outside the timed region.

Generating functions are checked at seeded integer points: in enough
variables that every monomial coefficient is pinned down (len(x) >= the
longest composition), against the down-set chain sum of model.py, and in
two variables against a sum over qsymdp.oracles.epartitions_into.  Orbit
sums are checked through ps1 at q in -3..3 against the package's brute-force
orbit counts; negative q goes through the equivariant antipode theorem, which
holds because every generated base is tertispecial.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict

from qsymdp.equivariant import action_from_dict, opposite1_action
from qsymdp.gamma import weighted_from_dict
from qsymdp.oracles import epartitions_into
from qsymdp.orderpoly import count_coeven_orbits_bruteforce, count_orbits_bruteforce

import model
from model import CheckError

POINT_RANGE = 1 << 20


class Checker:
    def __init__(self, seed: int):
        self.rng = random.Random(f"check/{seed}")
        self.memo: Dict = {}

    def check(self, op, out: str, rc: int) -> None:
        """Raise CheckError unless (out, rc) is the right answer for op."""
        key = (tuple(op.argv), out, rc)
        if key in self.memo:
            if self.memo[key]:
                raise CheckError(self.memo[key])
            return
        try:
            self._check(op, out, rc)
            self.memo[key] = ""
        except CheckError as exc:
            self.memo[key] = str(exc)
            raise

    def _point(self, m: int):
        return [self.rng.randrange(1, POINT_RANGE) for _ in range(m)]

    def _check(self, op, out: str, rc: int) -> None:
        if rc != 0:
            raise CheckError(f"exit code {rc}")
        lines = out.splitlines()
        kind = op.kind
        if kind.startswith("verify-") or kind == "reciprocity":
            if not lines or lines[-1] != "PASS":
                raise CheckError("verification did not print PASS")
        elif kind == "selftest":
            if not lines or lines[-1] != "selftest: PASS" or any(not l.startswith("ok ") for l in lines[:-1]):
                raise CheckError("selftest did not pass")
        elif kind in ("gamma", "schur"):
            self._gamma(op.data, _one_line(lines))
        elif kind == "coproduct":
            self._coproduct(op.data["model"], lines)
        elif kind == "product":
            self._product(op.data["pair"], _one_line(lines))
        elif kind == "antipode-m":
            _equal(model.parse_qsym(_one_line(lines)), model.antipode_m(op.data["alpha"]))
        elif kind == "antipode-f":
            self._antipode_f(op.data["alpha"], lines)
        elif kind.startswith("equivariant"):
            self._orbit_sum(op.data, _one_line(lines), plus=kind.endswith("--plus"))
        elif kind == "order-poly":
            self._order_poly(op.data, lines)
        else:
            raise CheckError(f"no check for op {kind!r}")

    def _gamma(self, data, text: str) -> None:
        f = model.parse_qsym(text)
        d = data["model"]
        x = self._point(max(d.n, 1))
        if model.eval_qsym(f, x) != d.epartition_sum(x):
            raise CheckError(f"value at {len(x)}-variable point differs from the down-set chain sum")
        x = self._point(2)
        if model.eval_qsym(f, x) != _oracle_sum(data, x):
            raise CheckError("value at 2-variable point differs from oracles.epartitions_into")

    def _coproduct(self, d: model.DoublePoset, lines) -> None:
        x, y = self._point(max(d.n, 1)), self._point(max(d.n, 1))
        total = 0
        for line in lines:
            left, sep, right = line.partition(" (x) ")
            if not sep:
                raise CheckError(f"malformed tensor line {line!r}")
            total += model.eval_qsym(model.parse_qsym(left), x) * model.eval_qsym(model.parse_qsym(right), y)
        if total != d.epartition_sum(x + y):
            raise CheckError("sum of left(x)*right(y) differs from Gamma(x, y)")

    def _product(self, pair, text: str) -> None:
        f = model.parse_qsym(text)
        x = self._point(sum(p["model"].n for p in pair))
        want = pair[0]["model"].epartition_sum(x) * pair[1]["model"].epartition_sum(x)
        if model.eval_qsym(f, x) != want:
            raise CheckError("(fg)(x) differs from f(x) g(x)")

    def _antipode_f(self, alpha, lines) -> None:
        if len(lines) != 2:
            raise CheckError("expected a conjugate line and a sum")
        conj = model.conjugate(alpha)
        if lines[0] != "conjugate: (" + ",".join(map(str, conj)) + ")":
            raise CheckError(f"wrong conjugate line {lines[0]!r}")
        sign = (-1) ** sum(alpha)
        _equal(model.parse_qsym(lines[1]), {a: sign * c for a, c in model.fundamental(conj).items()})

    def _orbit_sum(self, data, text: str, plus: bool) -> None:
        f = model.parse_qsym(text)
        for q in range(-3, 4):
            if model.ps1(f, q) != _orbit_count(data, q, plus):
                raise CheckError(f"ps1 at q={q} differs from the brute-force orbit count")

    def _order_poly(self, data, lines) -> None:
        if len(lines) != 2 or not lines[0].startswith("binomial basis: ") or not lines[1].startswith("power basis: "):
            raise CheckError("expected binomial and power basis lines")
        binom = _poly_terms(lines[0][len("binomial basis: "):], r"(-?\d+(?:/\d+)?)\*C\(q,(\d+)\)")
        power = _poly_terms(lines[1][len("power basis: "):], r"(-?\d+(?:/\d+)?)(?:\*q\^(\d+))?")
        for q in range(-3, 4):
            want = _orbit_count(data, q, plus=False)
            if sum(c * model.binomial(q, k) for k, c in binom) != want:
                raise CheckError(f"binomial form at q={q} differs from the orbit count")
            if sum(c * Fraction(q) ** k for k, c in power) != want:
                raise CheckError(f"power form at q={q} differs from the orbit count")


def _one_line(lines) -> str:
    if len(lines) != 1:
        raise CheckError(f"expected one line of output, got {len(lines)}")
    return lines[0]


def _equal(got: Dict, want: Dict) -> None:
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))[:3]
        raise CheckError(f"coefficients differ, e.g. {diff}")


def _poly_terms(text: str, pattern: str):
    if text == "0":
        return []
    out = []
    for piece in text.split(" + "):
        m = re.fullmatch(pattern, piece)
        if not m:
            raise CheckError(f"cannot parse polynomial term {piece!r}")
        out.append((int(m.group(2) or 0), Fraction(m.group(1))))
    return out


def _oracle_sum(data, x) -> int:
    d = weighted_from_dict(data["doc"])
    total = 0
    for pi in epartitions_into(d, len(x)):
        term = 1
        for e, i in pi.items():
            term *= x[i - 1] ** d.w[e]
        total += term
    return total


def _orbit_count(data, q: int, plus: bool) -> int:
    """ps1 of Gamma(E,w,G) (plus=False) or Gamma+(E,w,G) (plus=True) at q.

    q >= 0: orbits (coeven orbits for Gamma+) of E-partitions into [q].
    q < 0: (-1)^|E| times the coeven orbits (all orbits for Gamma+) of the
    (E, >1, <2)-partitions into [-q], by S(Gamma(E,w,G)) = (-1)^|E| Gamma+((E,>1,<2),w,G)
    and ps1(S f, q) = ps1(f, -q).
    """
    doc, group = (json.dumps(data[k], sort_keys=True) for k in ("doc", "group"))
    count = _brute_force_orbits(doc, group, abs(q), flipped=q < 0, coeven=plus != (q < 0))
    return (-1) ** len(data["doc"]["elements"]) * count if q < 0 else count


@lru_cache(maxsize=None)
def _brute_force_orbits(doc: str, group: str, q: int, flipped: bool, coeven: bool) -> int:
    a = action_from_dict(weighted_from_dict(json.loads(doc)), json.loads(group))
    if flipped:
        a = opposite1_action(a)
    return (count_coeven_orbits_bruteforce if coeven else count_orbits_bruteforce)(a, q)
