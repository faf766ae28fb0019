"""Command-line interface: computations plus the verification harness.

A process runs one command, so at import only the layers under gamma load; a
handler imports equivariant, orderpoly, young or verify when it is called.

A handler returns a QSymElem, a verdict (bool) or its exit code; run alone
prints the first two and picks the exit code: 0, 1 for FAIL, 2 for a refusal.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import compositions as comps
from . import qsym
from .compositions import Composition
from .gamma import NotTertispecialError, antipode_theorem_sides, weighted_from_dict
from .gamma import gamma as gamma_of
from .poset import DoublePoset, check_double_poset_count


class InputError(ValueError):
    pass


def _load_weighted(path: str) -> DoublePoset:
    try:
        with open(path) as fh:
            return weighted_from_dict(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_action(args):
    """The group of ``args.group`` acting on the poset of ``args.poset``."""
    from . import equivariant as equi
    base = _load_weighted(args.poset)
    try:
        with open(args.group) as fh:
            return equi.action_from_dict(base, json.load(fh), cap=args.group_cap)
    except (OSError, ValueError, RecursionError, qsym.BoundExceededError) as exc:
        raise InputError(f"{args.group}: {exc}") from exc


def _load_shape(args):
    """The shape of ``args.shape``, at most ``args.max_cells`` cells."""
    from . import young
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


def _terms_json(terms: dict) -> list:
    return [[str(terms[a]), list(a)] for a in comps.in_sort_key_order(terms)]


def cmd_antipode_m(args) -> qsym.QSymElem:
    return qsym.antipode_closed(qsym.monomial(_parse_comp(args.composition)))


def cmd_antipode_f(args) -> int:
    alpha = _parse_comp(args.composition)
    result = qsym.antipode_closed(qsym.fundamental(alpha))
    conj = comps.conjugate(alpha)
    if args.json:
        print(json.dumps({"conjugate": list(conj), "terms": _terms_json(result.terms)}))
    else:
        print(f"conjugate: {comps.format_composition(conj)}")
        print(qsym.format_qsym(result))
    return 0


def cmd_gamma(args) -> qsym.QSymElem:
    return gamma_of(_load_weighted(args.poset))


def cmd_coproduct(args) -> int:
    f = gamma_of(_load_weighted(args.poset))
    if args.json:  # one [M_beta, right] per left beta, in sort_key order
        rights = qsym.rights_by_left(qsym.coproduct(f))
        pairs = [[_terms_json({beta: 1}), _terms_json(rights[beta])] for beta in comps.in_sort_key_order(rights)]
        print(json.dumps(pairs))
    elif f:  # the text of zero is no line at all
        print(qsym.format_coproduct(f))
    return 0


def cmd_product(args) -> qsym.QSymElem:
    d1 = _load_weighted(args.poset1)
    d2 = _load_weighted(args.poset2)
    return qsym.product(gamma_of(d1), gamma_of(d2))


def cmd_verify_antipode(args) -> bool:
    lhs, rhs = antipode_theorem_sides(_load_weighted(args.poset))
    ok = lhs == rhs
    text = qsym.format_qsym(lhs)
    print(f"S(Gamma): {text}")
    print(f"(-1)^|E| Gamma(opposite): {text if ok else qsym.format_qsym(rhs)}")
    return ok


def cmd_equivariant(args) -> qsym.QSymElem:
    from . import equivariant as equi
    a = _load_action(args)
    return equi.gamma_plus(a) if args.plus else equi.gamma_equivariant(a)


def cmd_verify_equivariant(args) -> bool:
    from . import equivariant as equi
    return equi.equivariant_theorem_check(_load_action(args))


def cmd_order_poly(args) -> int:
    from . import orderpoly as opoly
    omega = opoly.order_polynomial(_load_action(args))
    power = omega.power_coeffs()
    if args.json:
        print(json.dumps({"binomial": [str(c) for c in omega.binom_coeffs], "power": [str(c) for c in power]}))
    else:
        binom = " + ".join(f"{c}*C(q,{k})" for k, c in enumerate(omega.binom_coeffs) if c != 0)
        poly = " + ".join(f"{c}*q^{j}" if j else str(c) for j, c in enumerate(power) if c != 0)
        print(f"binomial basis: {binom or 0}")
        print(f"power basis: {poly or 0}")
    return 0


def cmd_reciprocity(args) -> bool:
    from . import orderpoly as opoly
    return opoly.reciprocity_check(_load_action(args), args.q)


def cmd_schur(args) -> qsym.QSymElem:
    from . import young
    return young.skew_schur(_load_shape(args))


def cmd_verify_schur(args) -> bool:
    from . import young
    return young.schur_antipode_check(_load_shape(args))


def cmd_selftest(args) -> int:
    from . import verify
    check_double_poset_count(args.max_size)  # the poset suites' bound, before any suite runs
    failures = 0
    for name, suite in verify.SUITES.items():
        results = list(suite(args.max_size))
        ok = all(results)
        print(f"{'ok' if ok else 'FAIL'} {name} ({len(results)} checks)")
        failures += not ok
    print("selftest: " + ("PASS" if failures == 0 else f"FAIL ({failures} suites)"))
    return 0 if failures == 0 else 1


def non_negative_int(text: str) -> int:
    if not re.fullmatch("[0-9]+", text):
        raise argparse.ArgumentTypeError(f"must be written in the digits 0-9, got {text!r}")
    return int(text)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsymdp",
        description="Quasisymmetric functions, double posets, and antipode checks.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--group-cap",
        type=non_negative_int,
        default=qsym.DEFAULT_GROUP_CAP,
        help="maximum group order materialized from generators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("antipode-m", help="closed-form antipode of M_alpha")
    p.add_argument("composition")

    p = sub.add_parser("antipode-f", help="antipode of F_alpha, with the conjugate")
    p.add_argument("composition")

    p = sub.add_parser("gamma", help="generating function of a weighted poset")
    p.add_argument("poset")

    p = sub.add_parser("coproduct", help="coproduct of the generating function")
    p.add_argument("poset")

    p = sub.add_parser("product", help="product of two generating functions")
    p.add_argument("poset1")
    p.add_argument("poset2")

    p = sub.add_parser("verify-antipode", help="check the antipode identity")
    p.add_argument("poset")

    p = sub.add_parser("equivariant", help="orbit generating function")
    p.add_argument("poset")
    p.add_argument("group")
    p.add_argument("--plus", action="store_true", help="coeven-orbit variant")

    p = sub.add_parser("verify-equivariant", help="check the equivariant identity")
    p.add_argument("poset")
    p.add_argument("group")

    p = sub.add_parser("order-poly", help="equivariant order polynomial")
    p.add_argument("poset")
    p.add_argument("group")

    p = sub.add_parser("reciprocity", help="check order-polynomial reciprocity")
    p.add_argument("poset")
    p.add_argument("group")
    p.add_argument("--q", type=non_negative_int, required=True)

    p = sub.add_parser("schur", help="skew Schur function of a shape")
    p.add_argument("shape")
    p.add_argument("--max-cells", type=non_negative_int, default=8)

    p = sub.add_parser("verify-schur", help="check the skew Schur antipode identity")
    p.add_argument("shape")
    p.add_argument("--max-cells", type=non_negative_int, default=8)

    p = sub.add_parser("selftest", help="run the exhaustive desk-scale suites")
    p.add_argument("--max-size", type=non_negative_int, default=3)

    return parser


# Built once per process; parse_args keeps no state between calls.
PARSER = make_parser()


def run(argv: list[str]) -> int:
    args = PARSER.parse_args(argv)
    # Looked up at call time, so a rebound cmd_* (a tracer's wrapper) is the one called.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        result = handler(args)
    except (InputError, NotTertispecialError, qsym.BoundExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, bool):  # before any int test: True is an int
        print("PASS" if result else "FAIL")
        return 0 if result else 1
    if isinstance(result, qsym.QSymElem):
        print(json.dumps(_terms_json(result.terms)) if args.json else qsym.format_qsym(result))
        return 0
    return result


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
