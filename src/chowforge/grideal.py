"""Homogeneous ideal arithmetic via degreewise integer linear algebra.

No Groebner bases: every ideal handled here is homogeneous with
bounded-degree generators, so membership, containment and equality
reduce to finite lattice questions, one weighted degree at a time.

When a relation g is monic of degree k in one variable x, the projective
bundle formula (Fulton, Intersection Theory, Thm 3.3(b) and Ex. 8.3.4)
makes the quotient by g a free module over the ring of the other
variables, with basis 1, x, ..., x^(k-1).  Membership is then decided
in that module, whose degree-d piece is far smaller than the Macaulay
matrix of all degree-d multiples of the relations.  The Macaulay matrix
is the route when no relation is monic, and for the graded invariants
of the quotient.

Each degree piece that membership asks about is built as a lattice once
and kept in a small LRU cache keyed by (presentation, degree), and its
Hermite form is kept on its matrix; every answer is still solved and
re-verified on its own.  Membership certificates are reassembled into
explicit polynomial cofactors and re-verified by exact arithmetic before
being returned.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .intpoly import Polynomial, RingSpec
from .zlinalg import AbelianInvariants, IntMatrix, snf, solve_in_row_lattice

__all__ = [
    "Presentation",
    "Certificate",
    "EqualityResult",
    "monomial_basis",
    "ideal_degree_matrix",
    "contains",
    "ideal_equal",
    "eliminate_linear",
    "quotient_graded_invariants",
]

log = logging.getLogger(__name__)


class Presentation:
    """A RingSpec plus a finite list of homogeneous relations.

    Zero relations (which occur at degenerate parameters) are dropped at
    construction; the remaining relations keep their given order, each in
    canonical internal form, so output is deterministic.
    """

    __slots__ = ("ring", "relations")

    def __init__(self, ring: RingSpec, relations: Iterable[Polynomial]):
        kept = []
        for i, p in enumerate(relations):
            if p.ring != ring:
                raise ValueError("relation %d lives in the wrong ring" % i)
            if p.is_zero():
                log.debug("dropping identically-zero relation at index %d", i)
                continue
            if not p.is_homogeneous():
                p.weighted_degree()  # raises NotHomogeneousError with witnesses
            kept.append(p)
        self.ring = ring
        self.relations: tuple[Polynomial, ...] = tuple(kept)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return self.ring == other.ring and self.relations == other.relations

    def __hash__(self) -> int:
        return hash((self.ring, self.relations))

    def __repr__(self) -> str:
        return "Presentation(%r, %d relations)" % (self.ring, len(self.relations))


@lru_cache(maxsize=None)
def _monomial_basis_cached(ring: RingSpec, d: int) -> tuple[tuple[int, ...], ...]:
    exps = [0] * len(ring)
    out: list[tuple[int, ...]] = []

    def fill(i: int, remaining: int):
        if i == len(ring):
            if remaining == 0:
                out.append(tuple(exps))
            return
        w = ring.weights[i]
        for e in range(remaining // w, -1, -1):
            exps[i] = e
            fill(i + 1, remaining - e * w)
        exps[i] = 0

    fill(0, d)
    out.sort(key=lambda e: (ring.exponent_degree(e), e), reverse=True)
    return tuple(out)


def monomial_basis(ring: RingSpec, d: int) -> list[tuple[int, ...]]:
    """All exponent vectors of weighted degree exactly d, canonical order."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return list(_monomial_basis_cached(ring, d))


def _vector_of(terms, index: dict[tuple[int, ...], int]) -> list[int]:
    v = [0] * len(index)
    for exps, coeff in terms.items():
        v[index[exps]] = coeff
    return v


def _degree_rows(P: Presentation, d: int):
    """Rows spanning the degree-d piece of the ideal over the monomial
    index of degree d, with (generator, multiplier exponent) labels for
    certificate reassembly."""
    basis = _monomial_basis_cached(P.ring, d)
    index = {e: i for i, e in enumerate(basis)}
    rows: list[list[int]] = []
    labels: list[tuple[int, tuple[int, ...]]] = []
    for gi, g in enumerate(P.relations):
        e = g.weighted_degree()
        if e > d:
            continue
        for mono in _monomial_basis_cached(P.ring, d - e):
            row = [0] * len(basis)
            for gexps, gcoeff in g.terms.items():
                prod = tuple(a + b for a, b in zip(mono, gexps))
                row[index[prod]] = gcoeff
            rows.append(row)
            labels.append((gi, mono))
    return index, rows, labels


def ideal_degree_matrix(P: Presentation, d: int) -> IntMatrix:
    """Coefficient matrix of all degree-d multiples m*g_i of the generators,
    over monomial_basis(d)."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    index, rows, _ = _degree_rows(P, d)
    return IntMatrix.from_rows(rows, cols=len(index))


class Certificate:
    """Explicit cofactors h_i with sum(h_i * g_i) = f, verified exactly."""

    __slots__ = ("presentation", "member", "cofactors")

    def __init__(
        self,
        presentation: Presentation,
        member: Polynomial,
        cofactors: Sequence[Polynomial],
    ):
        if len(cofactors) != len(presentation.relations):
            raise ValueError("one cofactor per generator required")
        total = Polynomial.sum_of_products(
            presentation.ring, zip(cofactors, presentation.relations)
        )
        if total != member:
            raise AssertionError("certificate failed polynomial re-verification")
        self.presentation = presentation
        self.member = member
        self.cofactors = tuple(cofactors)

    def nonzero_parts(self) -> list[tuple[Polynomial, Polynomial]]:
        return [
            (h, g)
            for h, g in zip(self.cofactors, self.presentation.relations)
            if not h.is_zero()
        ]

    def __str__(self) -> str:
        parts = [
            "(%s)*(%s)" % (h.canonical(), g.canonical())
            for h, g in self.nonzero_parts()
        ]
        return " + ".join(parts) if parts else "0"


@lru_cache(maxsize=None)
def _low_basis(ring: RingSpec, x: int, below: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The degree-d monomials whose exponent of variable x is below
    `below`, in canonical order."""
    return tuple(e for e in _monomial_basis_cached(ring, d) if e[x] < below)


def _divide(terms, x: int, k: int, sign: int, tail) -> tuple[dict, dict]:
    """Division by g = sign*x^k + tail, where tail has x-degree < k:
    the terms of q and r with p = q*g + r and r of x-degree < k."""
    buckets: dict[int, dict[tuple[int, ...], int]] = {}
    for exps, c in terms.items():
        buckets.setdefault(exps[x], {})[exps] = c
    quo: dict[tuple[int, ...], int] = {}
    for e in range(max(buckets, default=0), k - 1, -1):
        for exps, c in buckets.pop(e, {}).items():
            if not c:
                continue
            qe = exps[:x] + (e - k,) + exps[x + 1 :]
            qc = sign * c
            quo[qe] = qc
            for te, tc in tail:
                t = tuple(a + b for a, b in zip(qe, te))
                b = buckets.setdefault(t[x], {})
                b[t] = b.get(t, 0) - qc * tc
    rem = {exps: c for b in buckets.values() for exps, c in b.items() if c}
    return quo, rem


class _Bundle(NamedTuple):
    """A relation g = sign*x^k + tail of P, monic in the variable x, and
    for each other relation h and each i < k the division
    x^i*h = q*g + r, as (h index, i, degree of x^i*h, r terms, q terms)."""

    gi: int
    x: int
    k: int
    sign: int
    tail: tuple[tuple[tuple[int, ...], int], ...]
    reductions: tuple


@lru_cache(maxsize=16)
def _bundle(P: Presentation) -> _Bundle | None:
    """The first relation of positive degree, in relation order, that is
    monic in a variable, the first such variable in ring order; None when
    no relation is.  Monic means a pure power x^k with coefficient +-1 and
    k*weight(x) = deg g, so by homogeneity no other term of g reaches
    x-degree k.  The cache is small: `ideal_equal` asks about two
    presentations at a time, and a `verify` grid holds hundreds."""
    ring = P.ring
    degrees = [ring.exponent_degree(next(iter(g.terms))) for g in P.relations]
    for gi, (g, D) in enumerate(zip(P.relations, degrees)):
        if D == 0:
            continue
        for x, w in enumerate(ring.weights):
            k, rest = divmod(D, w)
            pure = (0,) * x + (k,) + (0,) * (len(ring) - x - 1)
            if rest == 0 and g.terms.get(pure) in (1, -1):
                break
        else:
            continue
        sign = g.terms[pure]
        tail = tuple((e, c) for e, c in g.terms.items() if e != pure)
        reductions = []
        for hi, h in enumerate(P.relations):
            if hi == gi:
                continue
            for i in range(k):
                shifted = {
                    ex[:x] + (ex[x] + i,) + ex[x + 1 :]: c for ex, c in h.terms.items()
                }
                q, r = _divide(shifted, x, k, sign, tail)
                if r:
                    reductions.append((hi, i, degrees[hi] + i * w, r, q))
        return _Bundle(gi, x, k, sign, tail, tuple(reductions))
    return None


class _Piece(NamedTuple):
    """The degree-d piece of an ideal as a lattice: the matrix whose rows
    span it, the index of its columns, and one label per row for
    reassembling cofactors."""

    A: IntMatrix
    index: dict[tuple[int, ...], int]
    labels: list


# Pieces kept per route.  `ideal_equal` asks about the generators of one
# presentation in turn, so the repeats of a piece come close together: at
# the default `verify` grid 8 entries miss no more often than 32 (713
# builds for 649 distinct pieces, against 2135 without the cache) and
# hold about 0.1 MB.
_PIECES = 8


@lru_cache(maxsize=_PIECES)
def _macaulay_piece(P: Presentation, d: int) -> _Piece:
    """The Macaulay matrix of every degree-d multiple of every relation,
    labelled (relation index, multiplier exponent)."""
    index, rows, labels = _degree_rows(P, d)
    return _Piece(IntMatrix.from_rows(rows, cols=len(index)), index, labels)


def _cofactors_by_degree_matrix(P: Presentation, f: Polynomial, d: int):
    """Cofactors of f from the Macaulay matrix of every degree-d multiple
    of every relation, or None when f is not in the ideal."""
    A, index, labels = _macaulay_piece(P, d)
    x = solve_in_row_lattice(A, _vector_of(f.terms, index))
    if x is None:
        return None
    cof_terms: list[dict[tuple[int, ...], int]] = [dict() for _ in P.relations]
    for coeff, (gi, mono) in zip(x, labels):
        if coeff:
            cof_terms[gi][mono] = cof_terms[gi].get(mono, 0) + coeff
    return [Polynomial(P.ring, t) for t in cof_terms]


@lru_cache(maxsize=_PIECES)
def _module_piece(P: Presentation, d: int) -> _Piece:
    """The degree-d piece of the Z[base]-span of the remainders r of x^i*h
    of `_bundle(P)`: the rows m*r for the x-free monomials m, over the
    monomials of x-degree below k, labelled (h index, i, m, q)."""
    B = _bundle(P)
    ring, x = P.ring, B.x
    cols = _low_basis(ring, x, B.k, d)
    index = {e: j for j, e in enumerate(cols)}
    rows: list[list[int]] = []
    labels = []
    for hi, i, e, r, q in B.reductions:
        if e > d:
            continue
        for m in _low_basis(ring, x, 1, d - e):
            row = [0] * len(cols)
            for re_, rc in r.items():
                row[index[tuple(a + b for a, b in zip(m, re_))]] = rc
            rows.append(row)
            labels.append((hi, i, m, q))
    return _Piece(IntMatrix.from_rows(rows, cols=len(cols)), index, labels)


def _cofactors_over_base(P: Presentation, B: _Bundle, f: Polynomial, d: int):
    """Cofactors of f through the free Z[base]-module R/(g) with basis
    1, x, ..., x^(k-1), or None when f is not in the ideal.

    f = q_f*g + r_f, and f lies in the ideal exactly when r_f lies in the
    Z[base]-span of the remainders r of x^i*h; in degree d that is a
    lattice question over the x-free multipliers m of each remainder.
    """
    q_f, r_f = _divide(f.terms, B.x, B.k, B.sign, B.tail)
    ring, x = P.ring, B.x
    A, index, labels = _module_piece(P, d)
    y = solve_in_row_lattice(A, _vector_of(r_f, index))
    if y is None:
        return None
    cof_terms: list[dict[tuple[int, ...], int]] = [dict() for _ in P.relations]
    g_terms = cof_terms[B.gi] = q_f
    for a, (hi, i, m, q) in zip(y, labels):
        if not a:
            continue
        mono = m[:x] + (i,) + m[x + 1 :]
        cof_terms[hi][mono] = cof_terms[hi].get(mono, 0) + a
        for qe, qc in q.items():
            t = tuple(u + v for u, v in zip(m, qe))
            g_terms[t] = g_terms.get(t, 0) - a * qc
    return [Polynomial(ring, t) for t in cof_terms]


def contains(P: Presentation, f: Polynomial) -> Certificate | None:
    """Membership of a homogeneous polynomial, with an explicit certificate
    on success and None on refusal.

    When a relation g is monic of degree k in a variable x, the quotient
    by g is free over the ring of the other variables with basis
    1, x, ..., x^(k-1) (the projective bundle formula: Fulton,
    Intersection Theory, Thm 3.3(b)), and membership is decided in that
    module.  Otherwise it is decided on the Macaulay matrix of all
    degree-d multiples of the relations.
    """
    if f.ring != P.ring:
        raise ValueError("ring mismatch")
    if f.is_zero():
        return Certificate(P, f, [Polynomial.zero(P.ring)] * len(P.relations))
    d = f.weighted_degree()
    B = _bundle(P)
    if B is None:
        cofactors = _cofactors_by_degree_matrix(P, f, d)
    else:
        cofactors = _cofactors_over_base(P, B, f, d)
    return None if cofactors is None else Certificate(P, f, cofactors)


@dataclass(frozen=True)
class EqualityResult:
    equal: bool
    witness: Polynomial | None = None
    witness_side: str | None = None  # "left" / "right": which ideal owns the witness

    def __bool__(self) -> bool:
        return self.equal

    def describe(self) -> str:
        if self.equal:
            return "equal"
        return "not equal: generator %s of the %s ideal is not in the other" % (
            self.witness.canonical(),
            self.witness_side,
        )


def ideal_equal(P: Presentation, Q: Presentation) -> EqualityResult:
    """Sound and complete equality test for homogeneous ideals: mutual
    membership of the generator lists, degree by degree."""
    if P.ring != Q.ring:
        raise ValueError("ring mismatch")
    for side, X, Y in (("left", P, Q), ("right", Q, P)):
        for g in X.relations:
            if contains(Y, g) is None:
                return EqualityResult(False, g, side)
    return EqualityResult(True)


def eliminate_linear(P: Presentation, v: str, h: Polynomial) -> Presentation:
    """Quotient by the relation -v + h and remove v from the ring.

    The substituted generators generate the image ideal exactly, because
    the adjoined relation solves for v.  h must be homogeneous of v's
    weight (or zero) and must not involve v; it may be given over P's
    ring or over the shrunken ring.
    """
    small = P.ring.without(v)
    if h.ring == P.ring:
        if v in h.support_names():
            raise ValueError("substitute for %s involves %s" % (v, v))
        keep = {name: Polynomial.var(small, name) for name in small.names}
        h = h.substitute(keep, small) if h.terms else Polynomial.zero(small)
    elif h.ring != small:
        raise ValueError("substitute lives in the wrong ring")
    if h.terms and h.weighted_degree() != P.ring.weight_of(v):
        raise ValueError(
            "substitute for %s has degree %d, expected %d"
            % (v, h.weighted_degree(), P.ring.weight_of(v))
        )
    images = {name: Polynomial.var(small, name) for name in small.names}
    images[v] = h
    return Presentation(small, [g.substitute(images, small) for g in P.relations])


def quotient_graded_invariants(P: Presentation, d: int) -> AbelianInvariants:
    """Abelian invariants of the degree-d piece of the quotient ring."""
    return snf(ideal_degree_matrix(P, d)).invariants
