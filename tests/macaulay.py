"""The Macaulay matrix of a presentation, kept as a test oracle.

Row m*g for each relation g, in relation order, and each monomial m of
degree d - deg g, in canonical order, over the columns
monomial_basis(d).  It is built from `Polynomial` products, so it shares
no code with the lattice builder of `chowforge.grideal`, whose
`ideal_degree_matrix` is the far smaller piece over a bundle whenever a
relation is monic.
"""

from chowforge.grideal import Presentation, monomial_basis
from chowforge.intpoly import Polynomial
from chowforge.zlinalg import IntMatrix


def macaulay(P: Presentation, d: int) -> IntMatrix:
    """Coefficient matrix of all degree-d multiples m*g of the relations of
    P, over monomial_basis(d)."""
    cols = monomial_basis(P.ring, d)
    rows = []
    for g in P.relations:
        e = g.weighted_degree()
        if e <= d:
            for m in monomial_basis(P.ring, d - e):
                p = Polynomial(P.ring, {m: 1}) * g
                rows.append([p.terms.get(c, 0) for c in cols])
    return IntMatrix.from_rows(rows, cols=len(cols))
