"""Equivariant intersection-theory combinators.

Chern-root calculus for symmetric powers of the dual standard rank-2
representation with determinant and character twists, the projective
bundle relation, generator adjunction, Gm-torsor quotients, the mu_2
root-gerbe step, and the GL2-from-PGL2 pullback dictionary.

Sign conventions, fixed once:

* projectivized bundle with Chern roots mu_i gives the monic relation
  prod(xi + mu_i), so that P(V dual) yields xi^2 - c1*xi + c2;
* sym_dual_roots takes Sym of the *dual* representation by default,
  matching the convention Aut(P^1, O(-1)) for the rank-2 group.
"""

from __future__ import annotations

from typing import NamedTuple

from .grideal import Presentation, eliminate_linear
from .intpoly import Polynomial, RingSpec, _substitute_all, ring_make

__all__ = [
    "ChernRootSet",
    "SymmetricConversionError",
    "torus_ring",
    "sym_dual_roots",
    "chern_class",
    "roots_product",
    "to_invariants",
    "proj_bundle_relation",
    "adjoin_generator",
    "torsor_quotient",
    "root_gerbe_adjoin",
    "PullbackDictionary",
    "pullback_gl2_from_pgl2",
]


class SymmetricConversionError(ValueError):
    """The torus variables could not be rewritten in c1, c2 with zero
    remainder (the input was not symmetric in t1, t2)."""


def torus_ring() -> RingSpec:
    """Character ring of Gm x Gm^2: the Gm character t and the two torus
    characters t1, t2 of the diagonal maximal torus."""
    return ring_make([("t", 1), ("t1", 1), ("t2", 1)])


class ChernRootSet:
    """Formal multiset of degree-1 Chern roots in the torus ring."""

    __slots__ = ("ring", "roots")

    def __init__(self, ring: RingSpec, roots: tuple[Polynomial, ...]):
        for r in roots:
            if r.ring != ring:
                raise ValueError("root in the wrong ring")
            if r.terms and r.weighted_degree() != 1:
                raise ValueError("root %s is not of degree 1" % r.canonical())
        self.ring = ring
        # multiset: store in a deterministic order
        self.roots = tuple(sorted(roots, key=lambda p: p.canonical()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChernRootSet):
            return NotImplemented
        return self.ring == other.ring and self.roots == other.roots

    def __hash__(self) -> int:
        return hash((self.ring, self.roots))

    def __repr__(self) -> str:
        return "ChernRootSet(%r, %r)" % (self.ring, self.roots)

    def __len__(self) -> int:
        return len(self.roots)

    def elementary_symmetric(self, k: int) -> Polynomial:
        if k < 0 or k > len(self.roots):
            raise ValueError("k out of range")
        # expand prod(z + root) and read off the coefficient of z^(n-k)
        acc = [Polynomial.const(self.ring, 1)]
        for root in self.roots:
            nxt = [Polynomial.zero(self.ring) for _ in range(len(acc) + 1)]
            for i, c in enumerate(acc):
                nxt[i] = nxt[i] + c * root
                nxt[i + 1] = nxt[i + 1] + c
            acc = nxt
        return acc[len(self.roots) - k]


def sym_dual_roots(r: int, det_twist: int = 0, char_twist: int = 0) -> ChernRootSet:
    """Chern roots of Sym^r(V dual) (x) det(V)^det_twist (x) chi^char_twist.

    The r+1 roots are -i*t1 - (r-i)*t2 + det_twist*(t1+t2) + char_twist*t
    for i = 0..r.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    R = torus_ring()
    t = Polynomial.var(R, "t")
    t1 = Polynomial.var(R, "t1")
    t2 = Polynomial.var(R, "t2")
    roots = [
        -i * t1 - (r - i) * t2 + det_twist * (t1 + t2) + char_twist * t
        for i in range(r + 1)
    ]
    return ChernRootSet(R, tuple(roots))


def _gl2_ring(extra: tuple[tuple[str, int], ...] = ()) -> RingSpec:
    ring = ring_make([("t", 1), ("c1", 1), ("c2", 2)])
    for name, weight in extra:
        ring = ring.with_var(name, weight)
    return ring


def to_invariants(p: Polynomial, target: RingSpec | None = None) -> Polynomial:
    """Rewrite a polynomial symmetric in t1, t2 in terms of c1 = t1+t2 and
    c2 = t1*t2, leaving the other variables alone.

    This is the leading-term reduction of symmetric polynomials
    (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, section 7.1):
    while p is nonzero, its term m*t1^a*t2^b with the largest (a, b)
    leads, m*(t1+t2)^(a-b)*(t1*t2)^b is subtracted from p and
    m*c1^(a-b)*c2^b is recorded.  Raises SymmetricConversionError when a
    leading term has a < b, which leaves a nonzero remainder.
    """
    src = p.ring
    if "t1" not in src or "t2" not in src:
        raise ValueError("source ring has no torus variables t1, t2")
    i1, i2 = src.index("t1"), src.index("t2")
    others = [(n, w) for n, w in zip(src.names, src.weights) if n not in ("t1", "t2")]
    if target is None:
        target = ring_make(others).with_var("c1", 1).with_var("c2", 2)
    pos = [(src.index(n), target.index(n)) for n, _ in others]
    j1, j2 = target.index("c1"), target.index("c2")
    t1, t2 = Polynomial.var(src, "t1"), Polynomial.var(src, "t2")
    out: dict[tuple[int, ...], int] = {}
    while p:
        exps = max(p.terms, key=lambda e: (e[i1], e[i2]))
        a, b, coeff = exps[i1], exps[i2], p.terms[exps]
        if a < b:
            raise SymmetricConversionError(
                "not symmetric in t1, t2 (leading term t1^%d*t2^%d)" % (a, b)
            )
        m = tuple(0 if i in (i1, i2) else e for i, e in enumerate(exps))
        p = p - Polynomial._trusted(src, {m: coeff}) * (t1 + t2) ** (a - b) * (t1 * t2) ** b
        texps = [0] * len(target)
        for i, j in pos:
            texps[j] = exps[i]
        texps[j1] += a - b
        texps[j2] += b
        key = tuple(texps)
        out[key] = out.get(key, 0) + coeff
    return Polynomial(target, out)


def roots_product(roots: ChernRootSet, xi: str) -> Polynomial:
    """The monic product prod(xi + mu) over the roots, in the torus ring
    extended by the fresh variable xi."""
    if xi in roots.ring:
        raise ValueError("%s is not fresh in the root ring" % xi)
    ring = roots.ring.with_var(xi, 1)
    keep = {name: Polynomial.var(ring, name) for name in roots.ring.names}
    x = Polynomial.var(ring, xi)
    result = Polynomial.const(ring, 1)
    for mu in roots.roots:
        result = result * (x + mu.substitute(keep, ring))
    return result


def proj_bundle_relation(roots: ChernRootSet, xi: str) -> Polynomial:
    """Projective bundle relation for the projectivization of the bundle
    with the given roots: monic of degree len(roots) in xi, homogeneous,
    expressed in the invariant variables t, c1, c2."""
    expanded = roots_product(roots, xi)
    target = _gl2_ring(((xi, 1),))
    return to_invariants(expanded, target)


def chern_class(roots: ChernRootSet, k: int) -> Polynomial:
    """k-th Chern class of the bundle with the given roots, in Z[t, c1, c2]."""
    return to_invariants(roots.elementary_symmetric(k), _gl2_ring())


def adjoin_generator(
    P: Presentation,
    name: str,
    weight: int,
    new_relations: list[Polynomial],
) -> Presentation:
    """Extend a presentation by a fresh degree-`weight` generator and extra
    homogeneous relations; old relations carry over verbatim."""
    ring = P.ring.with_var(name, weight)  # raises on name collision
    embed = {n: Polynomial.var(ring, n) for n in P.ring.names}
    carried = _substitute_all(P.relations, embed, ring)
    for p in new_relations:
        if p.ring != ring:
            raise ValueError("new relation must live in the extended ring")
    return Presentation(ring, carried + list(new_relations))


def torsor_quotient(P: Presentation, cls: Polynomial) -> Presentation:
    """Gm-bundle formula: quotient by the first Chern class of the torsor.

    If the class has a unit coefficient on some variable, that variable is
    solved for and eliminated (preferring the highest registry index on
    ties, which keeps t and drops the hyperplane classes); otherwise the
    class is adjoined as a relation and the ring is unchanged.
    """
    if cls.ring != P.ring:
        raise ValueError("ring mismatch")
    if cls.is_zero() or cls.weighted_degree() != 1:
        raise ValueError("torsor class must be homogeneous of degree 1")
    target = None
    for exps, coeff in cls.terms.items():
        if coeff in (1, -1):
            i = exps.index(1)
            if target is None or i > target[0]:
                target = (i, coeff)
    if target is None:
        return Presentation(P.ring, list(P.relations) + [cls])
    i, coeff = target
    name = P.ring.names[i]
    # cls = coeff*v + rest = 0  =>  v = -coeff*rest
    rest = cls - coeff * Polynomial.var(P.ring, name)
    return eliminate_linear(P, name, -coeff * rest)


def root_gerbe_adjoin(P: Presentation, alpha: Polynomial, name: str = "u") -> Presentation:
    """Adjoin a square root of a degree-1 class: a new weight-1 generator
    with the single relation 2*name - alpha."""
    if alpha.ring != P.ring:
        raise ValueError("ring mismatch")
    if alpha.terms and alpha.weighted_degree() != 1:
        raise ValueError("alpha must be homogeneous of degree 1")
    ring = P.ring.with_var(name, 1)
    embed = {n: Polynomial.var(ring, n) for n in P.ring.names}
    relation = 2 * Polynomial.var(ring, name) - alpha.substitute(embed, ring)
    return adjoin_generator(P, name, 1, [relation])


class PullbackDictionary(NamedTuple):
    """Substitution dictionary for pulling classes back along the standard
    map from the rank-2 group quotient to the projective group quotient."""

    source_ring: RingSpec
    target_ring: RingSpec
    images: dict[str, Polynomial]

    def apply(self, p: Polynomial) -> Polynomial:
        if p.ring != self.source_ring:
            raise ValueError("polynomial not over the source ring")
        return p.substitute(self.images, self.target_ring)


def pullback_gl2_from_pgl2(a: int, b: int) -> PullbackDictionary:
    """The dictionary xi2a -> xi2a - a*c1, xi2b -> xi2b - b*c1,
    c2 -> 4*c2 - c1^2, tau -> 2*xi1 - c1, parameterized by (a, b).

    The source variables are the projective-group-side classes; they are
    modeled only through this dictionary.
    """
    source = ring_make([("c2", 2), ("xi2a", 1), ("xi2b", 1), ("tau", 1)])
    target = ring_make(
        [("c1", 1), ("c2", 2), ("xi1", 1), ("xi2a", 1), ("xi2b", 1)]
    )
    c1 = Polynomial.var(target, "c1")
    c2 = Polynomial.var(target, "c2")
    xi1 = Polynomial.var(target, "xi1")
    xi2a = Polynomial.var(target, "xi2a")
    xi2b = Polynomial.var(target, "xi2b")
    images = {
        "xi2a": xi2a - a * c1,
        "xi2b": xi2b - b * c1,
        "c2": 4 * c2 - c1 ** 2,
        "tau": 2 * xi1 - c1,
    }
    return PullbackDictionary(source, target, images)
