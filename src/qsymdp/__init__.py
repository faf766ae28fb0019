"""Exact-arithmetic quasisymmetric functions and double posets.

Monomial-basis QSym with product, coproduct and two antipode routes;
generating functions of weighted double posets; group-equivariant orbit
generating functions; and order-polynomial reciprocity.
"""
