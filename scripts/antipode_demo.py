#!/usr/bin/env python3
"""Walk through the antipode identity on a small weighted double poset.

Builds a 3-element poset, prints its generating function, applies the
antipode, and compares against the sign-twisted generating function of the
order-reversed poset.
"""

from qsymdp.gamma import WeightedDoublePoset, gamma
from qsymdp.poset import build, is_tertispecial, opposite1
from qsymdp.qsym import antipode_closed, format_qsym


def main():
    # a "V" shape in <1 (a below b and c), with <2 comparing the covers
    poset = build(
        ["a", "b", "c"],
        [("a", "b"), ("a", "c")],
        [("a", "b"), ("c", "a")],
    )
    d = WeightedDoublePoset(poset=poset, w=(1, 2, 1))
    print(f"tertispecial: {is_tertispecial(poset)}")

    f = gamma(d)
    print(f"Gamma(E, w)      = {format_qsym(f)}")

    lhs = antipode_closed(f)
    print(f"S(Gamma(E, w))   = {format_qsym(lhs)}")

    flipped = WeightedDoublePoset(poset=opposite1(poset), w=d.w)
    rhs = gamma(flipped).scale((-1) ** poset.size)
    print(f"(-1)^|E| Gamma'  = {format_qsym(rhs)}")
    print(f"identity holds: {lhs == rhs}")


if __name__ == "__main__":
    main()
