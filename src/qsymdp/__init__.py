"""Exact-arithmetic quasisymmetric functions and double posets.

Monomial-basis QSym with product, coproduct and two antipode routes;
generating functions of weighted double posets; group-equivariant orbit
generating functions; and order-polynomial reciprocity.
"""

from .compositions import (
    Composition,
    comp_of_subset,
    conjugate,
    descent_set,
    reverse,
)
from .equivariant import (
    BoundExceededError,
    GroupAction,
    NotPreservingError,
    build_action,
    equivariant_theorem_check,
    gamma_equivariant,
    gamma_plus,
    quotient_by,
    sign_of,
)
from .gamma import (
    NotTertispecialError,
    WeightedDoublePoset,
    antipode_theorem_check,
    gamma_coproduct_check,
    gamma_product_check,
)
from .oracles import antipode_recursive
from .orderpoly import (
    OrderPolynomial,
    order_polynomial,
    reciprocity_check,
)
from .poset import (
    CycleError,
    DoublePoset,
    build,
    disjoint_union,
    is_special,
    is_tertispecial,
    opposite1,
    restrict,
)
from .qsym import (
    QSymElem,
    antipode_closed,
    coproduct,
    counit,
    fundamental,
    monomial,
    product,
    ps1,
)
from .young import (
    Partition,
    SkewShape,
    build_Y,
    build_Yh,
    schur_antipode_check,
    skew_schur,
)

__version__ = "0.1.0"
