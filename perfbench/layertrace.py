"""Spans around the calls into qsymdp's modules, taken from outside the package.

install() replaces every module-level function and class method of the
package's modules with a timing wrapper, at every name it is bound to (a
function imported by name into another module, such as cli.gamma_of, is the
same object and gets the same wrapper).  Each call is a span with a parent;
a layer's self time is its spans' time minus their children's.  Spans are kept
in memory; after SPAN_CAP spans of one function in one op, further calls of it
are only counted and timed, which bounds the memory and the overhead of very
hot callees such as comp_of_subset and QSymElem.__add__.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time
from collections import Counter, defaultdict
from typing import Dict, List

LAYERS = ("cli", "poset", "gamma", "qsym", "compositions", "equivariant", "orderpoly", "young", "oracles")
# class methods that are wrapped besides the public ones
DUNDERS = {"__new__", "__init__", "__post_init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__call__"}
SPAN_CAP = 50


def _counting(gen, counts: Counter, key: str):
    for item in gen:
        counts[key] += 1
        yield item


def _hooks():
    """Work counters taken from a call's arguments and result: name -> hook(counts, args, result, parent_layer)."""

    def packed(c, args, r, parent):
        c["gamma.packed_partitions"] += len(r)
        return r

    def gamma(c, args, r, parent):
        if parent == "equivariant":
            c["equivariant.gamma_calls"] += 1
        return r

    def product(c, args, r, parent):
        c["qsym.product.terms_in"] += len(args[0].terms) + len(args[1].terms)
        c["qsym.product.terms_out"] += len(r.terms)
        return r

    def group(c, args, r, parent):
        c["equivariant.group_order"] += r.order
        return r

    def enumerate_partitions(c, args, r, parent):
        c["orderpoly.maps"] += args[1] ** args[0].base.poset.size
        c["orderpoly.found"] += len(r)
        return r

    def epartitions_into(c, args, r, parent):
        c["oracles.maps"] += args[1] ** args[0].poset.size
        c["oracles.found"] += len(r)
        return r

    def strict_orders(c, args, r, parent):
        n = len(args[0])
        c["poset.orders_tried"] += 2 ** (n * (n - 1))
        c["poset.orders_kept"] += len(r)
        return r

    def down_sets(c, args, r, parent):
        c["poset.downsets_tried"] += 2 ** args[0].size
        return _counting(r, c, "poset.downsets_kept")

    def cells(c, args, r, parent):
        c["young.cells"] += args[0].size
        return r

    return {
        "gamma.packed_epartitions": packed,
        "gamma.gamma": gamma,
        "qsym.product": product,
        "equivariant.build_action": group,
        "orderpoly.enumerate_partitions": enumerate_partitions,
        "oracles.epartitions_into": epartitions_into,
        "poset.all_strict_orders": strict_orders,
        "poset.down_sets": down_sets,
        "young.build_Y": cells,
        "young.build_Yh": cells,
    }


class Tracer:
    def __init__(self):
        self.package = importlib.import_module("qsymdp")
        self.modules = {layer: importlib.import_module(f"qsymdp.{layer}") for layer in LAYERS}
        self.stats: Dict[str, List] = defaultdict(lambda: [0, 0.0, 0])  # name -> calls, self_s, errors
        self.counts: Counter = Counter()
        self.spans: List[tuple] = []  # (op, span id, parent id, name, start, end)
        self.op = -1
        self._op_spans: Counter = Counter()
        self._stack: List[list] = []  # [layer, span id, child time]
        self._undo: List[tuple] = []
        self._ids = itertools.count()

    def begin_op(self) -> None:
        self.op += 1
        self._op_spans.clear()

    def _wrap(self, name: str, layer: str, fn, hook):
        stats = self.stats[name]
        stack, spans, op_spans, counts, ids = self._stack, self.spans, self._op_spans, self.counts, self._ids
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, next(ids), 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                op_spans[name] += 1
                if op_spans[name] <= SPAN_CAP:
                    spans.append((self.op, frame[1], parent[1] if parent else None, name, start, end))
            if hook is not None:
                result = hook(counts, args, result, parent[0] if parent else None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        hooks = _hooks()
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if callable(obj) and not inspect.isclass(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, layer, obj, hooks.get(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_methods(layer, obj)
        for ns in [vars(m) for m in self.modules.values()] + [vars(self.package)]:
            for attr, obj in list(ns.items()):
                if id(obj) in wrappers:
                    self._undo.append((ns, attr, obj))
                    ns[attr] = wrappers[id(obj)]

    def _install_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not inspect.isfunction(fn):
                continue
            wrapper = self._wrap(f"{layer}.{cls.__name__}.{attr}", layer, fn, None)
            setattr(cls, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
            self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    def self_time(self) -> float:
        return sum(s[1] for s in self.stats.values())

    def metrics(self, per: int = 1) -> Dict[str, float]:
        return metrics(self.stats, self.counts, per)

    def write_spans(self, path: str, part: int) -> None:
        """Appends the spans to a file, tagged with the part of the run they come from."""
        with open(path, "a") as fh:
            for op, sid, parent, name, start, end in self.spans:
                span = {"part": part, "op": op, "id": sid, "parent": parent, "name": name, "start": start, "end": end}
                fh.write(json.dumps(span) + "\n")


def metrics(stats: Dict[str, List], counts: Counter, per: int = 1) -> Dict[str, float]:
    """The per-layer metrics from a tracer's stats and counts (or their sums
    over several processes): counts and times divided by `per`, and ratios (a
    ratio whose base is zero reads 0)."""
    c, s = counts, stats
    totals: Dict[str, float] = {}
    for layer in LAYERS:
        rows = [v for k, v in s.items() if k.split(".", 1)[0] == layer]
        for i, field in enumerate(("calls", "self_s", "errors")):
            totals[f"{layer}.{field}"] = sum(row[i] for row in rows)

    def stat(name, i):
        return s[name][i] if name in s else 0

    totals.update(
        {
            "gamma.packed_partitions": c["gamma.packed_partitions"],
            "qsym.product.calls": stat("qsym.product", 0),
            "qsym.product.self_s": stat("qsym.product", 1),
            "qsym.product.terms_in": c["qsym.product.terms_in"],
            "qsym.product.terms_out": c["qsym.product.terms_out"],
            "qsym.add.calls": stat("qsym.QSymElem.__add__", 0),
            "qsym.add.self_s": stat("qsym.QSymElem.__add__", 1),
            "qsym.antipode.self_s": sum(v[1] for k, v in s.items() if k.startswith("qsym.") and "antipode" in k),
            "qsym.coproduct.self_s": stat("qsym.coproduct", 1),
            "qsym.format.self_s": stat("qsym.format_qsym", 1),
            "equivariant.group_order": c["equivariant.group_order"],
            "equivariant.quotients": stat("equivariant.quotient_by", 0),
            "equivariant.gamma_calls": c["equivariant.gamma_calls"],
            "orderpoly.maps_enumerated": c["orderpoly.maps"],
            "oracles.maps_enumerated": c["oracles.maps"],
            "young.cells": c["young.cells"],
        }
    )
    out = {name: value / per for name, value in totals.items()}

    def ratio(a, b):
        return a / b if b else 0.0

    out["gamma.partitions_per_s"] = ratio(c["gamma.packed_partitions"], totals["gamma.self_s"])
    out["orderpoly.useful_ratio"] = ratio(c["orderpoly.found"], c["orderpoly.maps"])
    out["oracles.useful_ratio"] = ratio(c["oracles.found"], c["oracles.maps"])
    out["poset.orders_useful_ratio"] = ratio(c["poset.orders_kept"], c["poset.orders_tried"])
    out["poset.downsets_useful_ratio"] = ratio(c["poset.downsets_kept"], c["poset.downsets_tried"])
    return out
