"""Homogeneous ideal arithmetic via degreewise integer linear algebra.

No Groebner bases: every ideal handled here is homogeneous with
bounded-degree generators, so membership, containment and equality
reduce to finite lattice questions, one weighted degree at a time.
Membership certificates are reassembled into explicit polynomial
cofactors and re-verified by exact arithmetic before being returned.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

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


def _vector_of(p: Polynomial, index: dict[tuple[int, ...], int]) -> list[int]:
    v = [0] * len(index)
    for exps, coeff in p.terms.items():
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
        total = Polynomial.zero(presentation.ring)
        for h, g in zip(cofactors, presentation.relations):
            total = total + h * g
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


def contains(P: Presentation, f: Polynomial) -> Certificate | None:
    """Membership of a homogeneous polynomial, with an explicit certificate
    on success and None on refusal."""
    if f.ring != P.ring:
        raise ValueError("ring mismatch")
    if f.is_zero():
        return Certificate(P, f, [Polynomial.zero(P.ring)] * len(P.relations))
    d = f.weighted_degree()
    index, rows, labels = _degree_rows(P, d)
    A = IntMatrix.from_rows(rows, cols=len(index))
    x = solve_in_row_lattice(A, _vector_of(f, index))
    if x is None:
        return None
    cof_terms: list[dict[tuple[int, ...], int]] = [dict() for _ in P.relations]
    for coeff, (gi, mono) in zip(x, labels):
        if coeff:
            cof_terms[gi][mono] = cof_terms[gi].get(mono, 0) + coeff
    cofactors = [Polynomial(P.ring, t) for t in cof_terms]
    return Certificate(P, f, cofactors)


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
