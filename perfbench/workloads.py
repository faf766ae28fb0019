"""Seeded inputs for the benchmark's workloads.

A workload is a cyclic schedule of rounds; a round is a list of CLI ops.  The
seed fixes every input.  Within a workload, each stratum (one kind of input,
in one band of a cheap work proxy) draws several candidates, keeps one per
round of them at evenly spaced ranks of the proxy, and serves them in van der Corput order
of rank, so that every seed's schedule carries about the same work and a run
that stops part-way through a cycle has still seen light and heavy inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from model import DoublePoset, skew_shape_doc

K = 8  # inputs kept per stratum; one cycle of a schedule is K rounds
CANDIDATES = 4  # candidates drawn per kept input
LETTERS = "abcdefgh"
SELFTEST_EVERY = 200  # small-sweep: one selftest per this many other ops


@dataclass
class Op:
    kind: str  # the op's name in reports, e.g. "equivariant --plus"
    argv: List[str]
    data: Dict = field(default_factory=dict)  # what the checker needs


class InputDir:
    """Writes each distinct JSON document once and hands back its path."""

    def __init__(self, root: str):
        self.root = root
        self.paths: Dict[str, str] = {}

    def write(self, doc: Dict) -> str:
        text = json.dumps(doc, sort_keys=True)
        if text not in self.paths:
            path = os.path.join(self.root, f"in{len(self.paths)}.json")
            with open(path, "w") as fh:
                fh.write(text)
            self.paths[text] = path
        return self.paths[text]


def _vdc(r: int, k: int = K) -> int:
    """Bit-reversal of r over log2(k) bits: 0, k/2, k/4, 3k/4, ..."""
    bits = k.bit_length() - 1
    return int(format(r, f"0{bits}b")[::-1], 2)


def _banded(make: Callable, proxy: Callable, lo: int, hi: int) -> Callable:
    """`make`, redrawn until the input's work proxy lies in [lo, hi]."""

    def draw(rng):
        while True:
            item = make(rng)
            if lo <= proxy(item) <= hi:
                return item

    return draw


def _stratum(rng: random.Random, make: Callable, proxy: Callable, k: int = K) -> List:
    """k inputs at evenly spaced proxy ranks among CANDIDATES*k draws, in serving order."""
    cands = sorted((make(rng) for _ in range(CANDIDATES * k)), key=proxy)
    step = len(cands) / k
    ranked = [cands[int((i + 0.5) * step)] for i in range(k)]
    return [ranked[_vdc(r, k)] for r in range(k)]


# ----------------------------------------------------------------------------
# random inputs


def random_double_poset(rng: random.Random, n: int, wmax: int, weights=None) -> Dict:
    """A random tertispecial weighted double poset: every <1-cover is
    <2-comparable, <2 oriented by a random total order.  Weights are drawn
    from 1..wmax, or are a shuffle of the given multiset."""
    labels = list(LETTERS[:n])
    ext = rng.sample(range(n), n)
    p1 = rng.random() * 0.6
    lt1 = [(ext[i], ext[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p1]
    d = DoublePoset({"elements": labels, "lt1": [(labels[a], labels[b]) for a, b in lt1]})
    rank = {e: k for k, e in enumerate(rng.sample(range(n), n))}
    p2 = rng.random() * 0.5
    lt2 = {tuple(sorted(c, key=rank.get)) for c in d.covers1()}
    lt2 |= {tuple(sorted(p, key=rank.get)) for p in itertools.combinations(range(n), 2) if rng.random() < p2}
    return {
        "elements": labels,
        "lt1": [[labels[a], labels[b]] for a, b in lt1],
        "lt2": [[labels[a], labels[b]] for a, b in sorted(lt2)],
        "w": dict(zip(labels, rng.sample(weights, n) if weights else [rng.randint(1, wmax) for _ in labels])),
    }


def random_skew_shape(rng: random.Random, cells: int):
    """(outer, inner) partitions with exactly `cells` cells between them."""
    extra = rng.randint(0, 3)
    total = cells + extra
    cuts = [c for c in range(1, total) if rng.random() < 0.4]
    outer = sorted((b - a for a, b in zip([0, *cuts], [*cuts, total])), reverse=True)
    inner = [0] * len(outer)
    for _ in range(extra):
        rows = [i for i in range(len(outer)) if inner[i] < outer[i] and (i == 0 or inner[i - 1] > inner[i])]
        inner[rng.choice(rows)] += 1
    return outer, [p for p in inner if p]


def shape_text(outer, inner) -> str:
    text = "[" + ",".join(map(str, outer)) + "]"
    return text + ("/[" + ",".join(map(str, inner)) + "]" if inner else "")


def random_composition(rng: random.Random, n: int, length: int):
    cuts = sorted(rng.sample(range(1, n), length - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))


def _with_model(doc: Dict) -> Dict:
    return {"doc": doc, "model": DoublePoset(doc)}


# ----------------------------------------------------------------------------
# workloads


def _poset_proxy(p) -> int:
    """E-partitions into [n] of E and of (E, >1, <2) (verify-antipode computes
    both): the leaves of gamma's backtracking."""
    doc = p["doc"]
    flipped = dict(doc, lt1=[[b, a] for a, b in doc["lt1"]])
    n = p["model"].n
    return p["model"].count_epartitions(n) + DoublePoset(flipped).count_epartitions(n)


def _conjugate_partition(parts):
    return [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []


def _shape_proxy(shape) -> int:
    """E-partitions into [cells] of the cell posets of the shape and of its
    transpose (verify-schur computes both): the leaves of gamma's backtracking."""
    total = 0
    for outer, inner in (shape, [_conjugate_partition(p) for p in shape]):
        d = DoublePoset(skew_shape_doc(outer, inner))
        total += d.count_epartitions(d.n)
    return total


# Strata of poset-queries: (|E|, weight multiset, proxy band).  Narrow bands
# and a fixed weight multiset keep each stratum's work nearly the same from
# seed to seed; the bands span light, mid and heavy Gamma enumerations.
POSET_STRATA = [
    (5, [1, 1, 1, 2, 2], 1_500, 3_200),
    (6, [1, 1, 1, 2, 2, 2], 6_000, 9_000),
    (6, [1, 1, 1, 2, 2, 2], 20_000, 40_000),
]
# Shape strata: proxy bands over skew shapes of 6-8 cells.  A few shapes above
# the top band (disconnected ones, mostly) take seconds each.  The heavy band
# twice puts the median op inside the dense middle of the latency
# distribution rather than at the edge of a gap, which steadies op_p50_ms.
SHAPE_STRATA = [(3_000, 4_500), (12_000, 24_000), (12_000, 24_000)]
# The proxies leave an input's cost seed-dependent by up to a third; with K
# inputs a stratum, the IQR/median of op_p50_ms over ten seeds reached 0.16
# to 0.18, so poset-queries keeps twice as many a cycle.
POSET_ROUNDS = 2 * K


def poset_queries(rng: random.Random, inputs: InputDir) -> List[List[Op]]:
    rounds: List[List[Op]] = [[] for _ in range(POSET_ROUNDS)]
    for n, weights, lo, hi in POSET_STRATA:
        make = lambda r: _with_model(random_double_poset(r, n, 2, weights))
        for rnd, p in zip(rounds, _stratum(rng, _banded(make, _poset_proxy, lo, hi), _poset_proxy, POSET_ROUNDS)):
            path = inputs.write(p["doc"])
            for kind in ("gamma", "coproduct", "verify-antipode"):
                rnd.append(Op(kind, [kind, path], p))
    for lo, hi in SHAPE_STRATA:
        make = lambda r: random_skew_shape(r, r.choice((6, 7, 8)))
        for rnd, (outer, inner) in zip(rounds, _stratum(rng, _banded(make, _shape_proxy, lo, hi), _shape_proxy, POSET_ROUNDS)):
            data = _with_model(skew_shape_doc(outer, inner))
            for kind in ("schur", "verify-schur"):
                rnd.append(Op(kind, [kind, shape_text(outer, inner)], data))
    return rounds


def _product_pair(rng: random.Random):
    pair = []
    for _ in range(2):
        n = rng.choice((2, 3))
        degree = rng.randint(3, min(6, 3 * n))
        while True:
            doc = random_double_poset(rng, n, 3)
            if sum(doc["w"].values()) == degree:
                break
        pair.append(_with_model(doc))
    return pair


def _product_proxy(pair) -> int:
    """Size of the two truncated polynomials that product multiplies."""
    m = sum(p["model"].degree for p in pair)
    size = 1
    for p in pair:
        size *= sum(math.comb(m, len(a)) for a in p["model"].gamma_terms())
    return size


# product strata: bands of the product proxy (about 5 us of product per unit
# at this commit); light, mid and two heavy products in every round.  The
# heavy ones are a quarter of the ops, so op_p90_ms falls in the middle of
# their narrow band rather than at the gap below it.  Larger products build
# dicts of tens of MB, whose speed swung twice as much as the other
# workloads' with the load of other tenants on the machine.
PRODUCT_STRATA = [(1_000, 4_000), (6_000, 12_000), (20_000, 30_000), (20_000, 30_000)]
ANTIPODE_F_BAND = (1_000, 3_500)


def qsym_algebra(rng: random.Random, inputs: InputDir) -> List[List[Op]]:
    rounds: List[List[Op]] = [[] for _ in range(K)]
    for lo, hi in PRODUCT_STRATA:
        for rnd, pair in zip(rounds, _stratum(rng, _banded(_product_pair, _product_proxy, lo, hi), _product_proxy)):
            paths = [inputs.write(p["doc"]) for p in pair]
            rnd.append(Op("product", ["product", *paths], {"pair": pair}))
    # three antipode-m and two antipode-f ops a round put op_p50_ms in the
    # middle of the cluster of light products and antipode-f ops
    for _ in range(3):
        # S(M_alpha) has 2^(length-1) terms; lengths 6..10
        make = lambda r: random_composition(r, n := r.randint(8, 12), r.randint(6, min(10, n)))
        for rnd, alpha in zip(rounds, _stratum(rng, make, lambda a: 2 ** len(a))):
            rnd.append(Op("antipode-m", ["antipode-m", _comp_text(alpha)], {"alpha": alpha}))
    for _ in range(2):
        # S(F_alpha) sums 2^length * 3^free terms (free = |alpha| - length); the
        # band keeps these ops at the median op's cost, which steadies op_p50_ms
        make = lambda r: random_composition(r, n := r.randint(8, 12), n - r.randint(0, 3))
        proxy = lambda a: 2 ** len(a) * 3 ** (sum(a) - len(a))
        for rnd, alpha in zip(rounds, _stratum(rng, _banded(make, proxy, *ANTIPODE_F_BAND), proxy)):
            rnd.append(Op("antipode-f", ["antipode-f", _comp_text(alpha)], {"alpha": alpha}))
    return rounds


def _comp_text(alpha) -> str:
    return "(" + ",".join(map(str, alpha)) + ")"


def _group_generators(rng: random.Random, blocks: List[List[str]], group: str) -> List[Dict]:
    """Generators permuting equal-sized blocks of labels: cyclic, dihedral or symmetric."""
    order = rng.sample(range(len(blocks)), len(blocks))
    k = len(order)

    def perm(image):  # block order[i] goes to block order[image(i)]
        mapping = {}
        for i in range(k):
            for a, b in zip(blocks[order[i]], blocks[order[image(i)]]):
                mapping[a] = b
        return mapping

    gens = [perm(lambda i: (i + 1) % k)]
    if group == "dihedral":
        gens.append(perm(lambda i: -i % k))
    elif group == "symmetric":
        gens.append(perm(lambda i: {0: 1, 1: 0}.get(i, i)))
    return gens


def _orbit_input(rng: random.Random, copies: int, component: Dict, group: str) -> Dict:
    """`copies` identical copies of a component, the group permuting the copies."""
    blocks = [[f"{e}{c}" for e in component["elements"]] for c in range(copies)]
    doc = {
        "elements": [e for block in blocks for e in block],
        "lt1": [[f"{a}{c}", f"{b}{c}"] for c in range(copies) for a, b in component["lt1"]],
        "lt2": [[f"{a}{c}", f"{b}{c}"] for c in range(copies) for a, b in component["lt2"]],
        "w": {f"{e}{c}": w for c in range(copies) for e, w in component["w"].items()},
    }
    group_doc = {"generators": _group_generators(rng, blocks, group)}
    return {"doc": doc, "group": group_doc}


def _point(w: int) -> Dict:
    return {"elements": ["x"], "lt1": [], "lt2": [], "w": {"x": w}}


def _component(labels: str, lt1, lt2) -> Dict:
    """A small tertispecial poset: its <2 relations orient its <1-covers,
    which form a forest, so any orientation is acyclic.  The weights 1, 2, 1
    go to its elements in order."""
    return {
        "elements": list(labels),
        "lt1": [list(c) for c in lt1],
        "lt2": [list(c) for c in lt2],
        "w": {e: 1 + j % 2 for j, e in enumerate(labels)},
    }


ORBIT_ROUNDS = 4
# (component elements, its <1-covers, their <2 orientation, copies, group
# permuting the copies); a copy stratum takes these in turn: chains, V and
# its dual, a chain beside a point, with both orientations of the covers.
# The orientations and weights are fixed, not drawn: the <2 orientation moves
# an op's cost by up to half, and drawing it put op_p50_ms, which falls among
# these ops, at the mercy of how many costly ones a seed drew.
COPY_SHAPES = [
    ("ab", [("a", "b")], [("a", "b")], 2, "symmetric"),
    ("ab", [("a", "b")], [("b", "a")], 3, "cyclic"),
    ("abc", [("a", "b"), ("b", "c")], [("a", "b"), ("c", "b")], 2, "cyclic"),
    ("abc", [("a", "b"), ("a", "c")], [("b", "a"), ("a", "c")], 2, "symmetric"),
    ("abc", [("a", "c"), ("b", "c")], [("a", "c"), ("b", "c")], 2, "cyclic"),
    ("ab", [("a", "b")], [("a", "b")], 3, "symmetric"),
    ("abc", [("a", "b"), ("b", "c")], [("b", "a"), ("c", "b")], 2, "symmetric"),
    ("abc", [("a", "b")], [("b", "a")], 2, "cyclic"),
]


def _copies(rng: random.Random, shape) -> Dict:
    labels, lt1, lt2, copies, group = shape
    return _orbit_input(rng, copies, _component(labels, lt1, lt2), group)


ORBIT_STRATA = [
    # maker(rng, item index); antichains are copies of a single point, of
    # weight 1 in two rounds and 2 in the other two (the weight doubles the
    # degree), so that every seed's cycle holds the same weights
    lambda r, i: _orbit_input(r, 6, _point(1 + i % 2), "cyclic"),
    lambda r, i: _orbit_input(r, 5, _point(2 - i % 2), "dihedral"),
    lambda r, i: _orbit_input(r, 4, _point(1 + i % 2), "symmetric"),
    lambda r, i: _orbit_input(r, 5, _point(2 - i % 2), "symmetric"),
    lambda r, i: _copies(r, COPY_SHAPES[i]),
    lambda r, i: _copies(r, COPY_SHAPES[ORBIT_ROUNDS + i]),
]


def _orbit_ops(inputs: InputDir, item: Dict, q: int) -> List[Op]:
    p, g = inputs.write(item["doc"]), inputs.write(item["group"])
    return [
        Op("equivariant", ["equivariant", p, g], item),
        Op("equivariant --plus", ["equivariant", p, g, "--plus"], item),
        Op("verify-equivariant", ["verify-equivariant", p, g], item),
        Op("order-poly", ["order-poly", p, g], item),
        Op("reciprocity", ["reciprocity", p, g, "--q", str(q)], item),
    ]


def orbit_queries(rng: random.Random, inputs: InputDir) -> List[List[Op]]:
    rounds: List[List[Op]] = [[] for _ in range(ORBIT_ROUNDS)]
    for make in ORBIT_STRATA:
        for i, rnd in enumerate(rounds):
            # reciprocity's brute force grows as q^|E|: q = 2, 3, 4 in turn
            rnd.extend(_orbit_ops(inputs, make(rng, i), q=2 + i % 3))
    # the small share at |G| = 720 (S6 on the 6-antichain): two ops a cycle
    s6 = _orbit_ops(inputs, _orbit_input(rng, 6, _point(1), "symmetric"), q=2)
    rounds[0].append(s6[0])
    rounds[ORBIT_ROUNDS // 2].append(s6[-1])
    return rounds


def strict_orders(n: int) -> List[List[List[int]]]:
    """Every strict partial order on range(n), as closed pair lists."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for mask in itertools.product((0, 1), repeat=len(pairs)):
        rel = {p for p, c in zip(pairs, mask) if c}
        if any((b, a) in rel for a, b in rel):
            continue
        if any((a, c) in rel and (c, b) in rel and (a, b) not in rel for a in range(n) for b in range(n) for c in range(n)):
            continue
        out.append(sorted(rel))
    return out


def small_sweep(rng: random.Random, inputs: InputDir) -> List[List[Op]]:
    ops: List[Op] = []
    for n in range(4):
        labels = list(LETTERS[:n])
        orders = strict_orders(n)
        for lt1, lt2 in itertools.product(orders, orders):
            doc = {
                "elements": labels,
                "lt1": [[labels[a], labels[b]] for a, b in lt1],
                "lt2": [[labels[a], labels[b]] for a, b in lt2],
                "w": {e: rng.randint(1, 2) for e in labels},
            }
            data = _with_model(doc)
            path = inputs.write(doc)
            kinds = ["gamma", "coproduct"]
            if data["model"].is_tertispecial():
                kinds.append("verify-antipode")
            ops.extend(Op(kind, [kind, path], data) for kind in kinds)
    rng.shuffle(ops)
    rounds = [ops[i : i + SELFTEST_EVERY] for i in range(0, len(ops), SELFTEST_EVERY)]
    for rnd in rounds:
        rnd.append(Op("selftest", ["selftest"]))
    return rounds


WORKLOADS = {
    "poset-queries": poset_queries,
    "qsym-algebra": qsym_algebra,
    "orbit-queries": orbit_queries,
    "small-sweep": small_sweep,
}


def schedule(name: str, seed: int, root: str) -> List[List[Op]]:
    """The workload's rounds for this seed, with its input files written under root."""
    rng = random.Random(f"{name}/{seed}")
    directory = os.path.join(root, name)
    os.makedirs(directory, exist_ok=True)
    rounds = WORKLOADS[name](rng, InputDir(directory))
    for rnd in rounds:
        rng.shuffle(rnd)
    return rounds
