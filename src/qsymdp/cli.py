"""Command-line interface: computations plus the verification harness."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from . import compositions as comps
from . import equivariant as equi
from . import orderpoly as opoly
from . import qsym
from . import verify
from . import young
from .compositions import Composition
from .gamma import (
    NotTertispecialError,
    WeightedDoublePoset,
    antipode_theorem_sides,
    weighted_from_dict,
)
from .gamma import gamma as gamma_of


class InputError(ValueError):
    pass


def _load_weighted(path: str) -> WeightedDoublePoset:
    try:
        with open(path) as fh:
            return weighted_from_dict(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_action(args) -> equi.GroupAction:
    """The group of ``args.group`` acting on the poset of ``args.poset``."""
    base = _load_weighted(args.poset)
    try:
        with open(args.group) as fh:
            return equi.action_from_dict(base, json.load(fh), cap=args.group_cap)
    except (OSError, ValueError, RecursionError, equi.ClosureTooLargeError) as exc:
        raise InputError(f"{args.group}: {exc}") from exc


def _load_shape(args) -> young.SkewShape:
    """The shape of ``args.shape``, at most ``args.max_cells`` cells."""
    try:
        shape = young.parse_shape(args.shape)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if shape.size > args.max_cells:
        raise InputError(f"shape has {shape.size} cells, above cap {args.max_cells}")
    return shape


def _parse_comp(text: str) -> Composition:
    try:
        return comps.parse_composition(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _qsym_json(f: qsym.QSymElem) -> List:
    return [[str(c), list(a)] for a, c in f.sorted_terms()]


def _emit_qsym(f: qsym.QSymElem, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_qsym_json(f)))
    else:
        print(qsym.format_qsym(f))


def cmd_antipode_m(args) -> int:
    alpha = _parse_comp(args.composition)
    _emit_qsym(qsym.antipode_closed(qsym.monomial(alpha)), args.json)
    return 0


def cmd_antipode_f(args) -> int:
    alpha = _parse_comp(args.composition)
    result = qsym.antipode_closed(qsym.fundamental(alpha))
    if args.json:
        print(
            json.dumps(
                {
                    "conjugate": list(comps.conjugate(alpha)),
                    "terms": _qsym_json(result),
                }
            )
        )
    else:
        print(f"conjugate: {comps.format_composition(comps.conjugate(alpha))}")
        print(qsym.format_qsym(result))
    return 0


def cmd_gamma(args) -> int:
    d = _load_weighted(args.poset)
    _emit_qsym(gamma_of(d), args.json)
    return 0


def cmd_coproduct(args) -> int:
    d = _load_weighted(args.poset)
    pairs = qsym.coproduct(gamma_of(d))
    if args.json:
        print(json.dumps([[_qsym_json(l), _qsym_json(r)] for l, r in pairs]))
    else:
        for left, right in pairs:
            print(f"{qsym.format_qsym(left)} (x) {qsym.format_qsym(right)}")
    return 0


def cmd_product(args) -> int:
    d1 = _load_weighted(args.poset1)
    d2 = _load_weighted(args.poset2)
    _emit_qsym(qsym.product(gamma_of(d1), gamma_of(d2)), args.json)
    return 0


def cmd_verify_antipode(args) -> int:
    lhs, rhs = antipode_theorem_sides(_load_weighted(args.poset))
    ok = lhs == rhs
    print(f"S(Gamma): {qsym.format_qsym(lhs)}")
    print(f"(-1)^|E| Gamma(opposite): {qsym.format_qsym(rhs)}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_equivariant(args) -> int:
    a = _load_action(args)
    f = equi.gamma_plus(a) if args.plus else equi.gamma_equivariant(a)
    _emit_qsym(f, args.json)
    return 0


def cmd_verify_equivariant(args) -> int:
    ok = equi.equivariant_theorem_check(_load_action(args))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_order_poly(args) -> int:
    omega = opoly.order_polynomial(_load_action(args))
    binom = " + ".join(
        f"{c}*C(q,{k})" for k, c in enumerate(omega.binom_coeffs) if c != 0
    ) or "0"
    power = omega.power_coeffs()
    poly = " + ".join(
        f"{c}*q^{j}" if j else str(c) for j, c in enumerate(power) if c != 0
    ) or "0"
    if args.json:
        print(
            json.dumps(
                {
                    "binomial": [str(c) for c in omega.binom_coeffs],
                    "power": [str(c) for c in power],
                }
            )
        )
    else:
        print(f"binomial basis: {binom}")
        print(f"power basis: {poly}")
    return 0


def cmd_reciprocity(args) -> int:
    ok = opoly.reciprocity_check(_load_action(args), args.q)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_schur(args) -> int:
    _emit_qsym(young.skew_schur(_load_shape(args)), args.json)
    return 0


def cmd_verify_schur(args) -> int:
    ok = young.schur_antipode_check(_load_shape(args))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    failures = 0
    for name, suite in verify.SUITES.items():
        results = list(suite(args.max_size))
        ok = all(results)
        print(f"{'ok' if ok else 'FAIL'} {name} ({len(results)} checks)")
        failures += not ok
    print("selftest: " + ("PASS" if failures == 0 else f"FAIL ({failures} suites)"))
    return 0 if failures == 0 else 1


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsymdp",
        description="Quasisymmetric functions, double posets, and antipode checks.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--group-cap",
        type=non_negative_int,
        default=equi.DEFAULT_GROUP_CAP,
        help="maximum group order materialized from generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("antipode-m", help="closed-form antipode of M_alpha")
    p.add_argument("composition")
    p.set_defaults(func=cmd_antipode_m)

    p = sub.add_parser("antipode-f", help="antipode of F_alpha, with the conjugate")
    p.add_argument("composition")
    p.set_defaults(func=cmd_antipode_f)

    p = sub.add_parser("gamma", help="generating function of a weighted poset")
    p.add_argument("poset")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("coproduct", help="coproduct of the generating function")
    p.add_argument("poset")
    p.set_defaults(func=cmd_coproduct)

    p = sub.add_parser("product", help="product of two generating functions")
    p.add_argument("poset1")
    p.add_argument("poset2")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("verify-antipode", help="check the antipode identity")
    p.add_argument("poset")
    p.set_defaults(func=cmd_verify_antipode)

    p = sub.add_parser("equivariant", help="orbit generating function")
    p.add_argument("poset")
    p.add_argument("group")
    p.add_argument("--plus", action="store_true", help="coeven-orbit variant")
    p.set_defaults(func=cmd_equivariant)

    p = sub.add_parser("verify-equivariant", help="check the equivariant identity")
    p.add_argument("poset")
    p.add_argument("group")
    p.set_defaults(func=cmd_verify_equivariant)

    p = sub.add_parser("order-poly", help="equivariant order polynomial")
    p.add_argument("poset")
    p.add_argument("group")
    p.set_defaults(func=cmd_order_poly)

    p = sub.add_parser("reciprocity", help="check order-polynomial reciprocity")
    p.add_argument("poset")
    p.add_argument("group")
    p.add_argument("--q", type=non_negative_int, required=True)
    p.set_defaults(func=cmd_reciprocity)

    p = sub.add_parser("schur", help="skew Schur function of a shape")
    p.add_argument("shape")
    p.add_argument("--max-cells", type=non_negative_int, default=8)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("verify-schur", help="check the skew Schur antipode identity")
    p.add_argument("shape")
    p.add_argument("--max-cells", type=non_negative_int, default=8)
    p.set_defaults(func=cmd_verify_schur)

    p = sub.add_parser("selftest", help="run the exhaustive desk-scale suites")
    p.add_argument("--max-size", type=non_negative_int, default=3)
    p.set_defaults(func=cmd_selftest)

    return parser


def run(argv: List[str]) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, NotTertispecialError, opoly.BoundExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
