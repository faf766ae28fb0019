#!/usr/bin/env python3
"""Order-polynomial reciprocity, with and without a symmetry group.

Computes the equivariant order polynomial of three identical 2-chains acted
on by the symmetric group permuting the chains, tabulates its values against
brute-force orbit counts, and checks the reciprocity identity at negated
arguments.
"""

from qsymdp.equivariant import build_action, opposite1_action
from qsymdp.oracles import count_coeven_orbits_bruteforce, count_orbits_bruteforce
from qsymdp.orderpoly import order_polynomial, reciprocity_check
from qsymdp.poset import build


def three_chains():
    labs = [f"{i}.{j}" for i in range(3) for j in range(2)]
    gens = [(f"{i}.0", f"{i}.1") for i in range(3)]
    return build(labs, gens, gens)


def component_symmetric_action(base):
    def relabel(cmap):
        return {f"{i}.{j}": f"{cmap[i]}.{j}" for i in range(3) for j in range(2)}

    swap = relabel({0: 1, 1: 0, 2: 2})
    cyc = relabel({0: 1, 1: 2, 2: 0})
    return build_action(base, [swap, cyc])


def main():
    a = component_symmetric_action(three_chains())
    omega = order_polynomial(a)
    print(f"group order: {a.order}")
    print("binomial coefficients:", [str(c) for c in omega.binom_coeffs])
    print()
    print(" q  Omega(q)  orbits  Omega(-q)  coeven'")
    for q in range(1, 6):
        # reciprocity counts coeven orbits of the <1-reversed poset
        coeven = count_coeven_orbits_bruteforce(opposite1_action(a), q)
        print(
            f"{q:2d}  {str(omega(q)):>8}  {count_orbits_bruteforce(a, q):6d}"
            f"  {str(omega(-q)):>9}  {coeven:6d}"
        )
    print()
    print("reciprocity holds at q=1..5:", all(reciprocity_check(a, q) for q in range(1, 6)))


if __name__ == "__main__":
    main()
