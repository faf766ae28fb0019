#!/usr/bin/env python3
"""Walk through the antipode identity on a small weighted double poset.

Builds a 3-element poset, prints its generating function, applies the
antipode, and compares against the sign-twisted generating function of the
order-reversed poset.
"""

from qsymdp.gamma import gamma
from qsymdp.poset import build, is_tertispecial, opposite1
from qsymdp.qsym import antipode_closed, format_qsym


def main():
    # a "V" shape in <1 (a below b and c), with <2 comparing the covers
    d = build(
        ["a", "b", "c"],
        [("a", "b"), ("a", "c")],
        [("a", "b"), ("c", "a")],
        w=(1, 2, 1),
    )
    print(f"tertispecial: {is_tertispecial(d)}")

    f = gamma(d)
    print(f"Gamma(E, w)      = {format_qsym(f)}")

    lhs = antipode_closed(f)
    print(f"S(Gamma(E, w))   = {format_qsym(lhs)}")

    rhs = gamma(opposite1(d)).scale((-1) ** d.size)
    print(f"(-1)^|E| Gamma'  = {format_qsym(rhs)}")
    print(f"identity holds: {lhs == rhs}")


if __name__ == "__main__":
    main()
