"""chowforge: exact integer Chow-ring presentations of hyperelliptic Prym
moduli, with the derivation pipelines and a verification harness.

The building blocks, bottom up: ``intpoly`` (sparse Z-polynomials with a
weighted grading), ``polyparse`` (the text DSL and ideal files),
``zlinalg`` (Hermite/Smith normal forms and lattice membership),
``grideal`` (degreewise homogeneous ideal arithmetic), ``chowops``
(Chern-root calculus and bundle combinators), ``catalog`` (the
parameterized classes, presentations and pipelines) and ``cli``.
"""

from .catalog import (
    Params,
    ParamError,
    classes_FG,
    classes_M,
    cor_1_10_presentation,
    derive_thm_1_3,
    derive_thm_1_9,
    j1_presentation,
    lemma_3_4_check,
    remark_37_class,
    remark_37_nonredundancy,
    remark_37_reduction,
    thm_1_2_presentation,
    thm_1_3_presentation,
    thm_1_9_presentation,
)
from .chowops import (
    ChernRootSet,
    adjoin_generator,
    proj_bundle_relation,
    pullback_gl2_from_pgl2,
    root_gerbe_adjoin,
    sym_dual_roots,
    torsor_quotient,
)
from .grideal import (
    Presentation,
    contains,
    ideal_equal,
    eliminate_linear,
    monomial_basis,
    ideal_degree_matrix,
    quotient_graded_invariants,
)
from .intpoly import NotHomogeneousError, Polynomial, RingSpec, ring_make
from .polyparse import ParseError, format_ideal_file, parse_ideal_file, parse_poly
from .zlinalg import AbelianInvariants, IntMatrix, hnf, snf, solve_in_row_lattice

__version__ = "0.1.0"
