"""Parameterized constructors for every explicit class and ideal in scope,
plus the derivation pipelines that rebuild the quotient-ring presentations
from first principles.

All formulas are entered exactly once, as functions of the parameters,
never as per-instance literals, and relations keep their reference signs
and order.  The derivation pipelines reproduce the same ideals only up to
multiples of the first relation, which is why every cross-check goes
through ideal_equal rather than list comparison.

The last point's values are kept: the constructors that one grid point
calls more than once (`classes_FG`, `classes_M`, `_six_generator_ideal`
and the Theorem 1.2, 1.3 and 1.9 presentations) and the last derivation
each hold their latest result.  `verify` runs the checks of one point
back to back, in one process also under --jobs, so one entry each is
enough.  No caller changes a kept value, so sharing one changes no answer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .chowops import adjoin_generator, root_gerbe_adjoin, torsor_quotient
from .grideal import Certificate, Presentation, contains
from .intpoly import Polynomial, ring_make

__all__ = [
    "Params",
    "ParamError",
    "classes_FG",
    "classes_M",
    "remark_37_class",
    "thm_1_2_presentation",
    "j1_presentation",
    "thm_1_3_presentation",
    "thm_1_9_presentation",
    "cor_1_10_presentation",
    "derive_thm_1_3",
    "derive_thm_1_9",
    "DerivationResult",
    "lemma_3_4_check",
    "Lemma34Result",
    "remark_37_nonredundancy",
    "remark_37_reduction",
    "twist_chern_data",
    "TwistChernData",
    "pxp_ring",
    "rh_ring",
    "valid_rh_even_pairs",
    "valid_wrh_odd_pairs",
]


class ParamError(ValueError):
    """A parameter guard was violated; the message names the guard."""


class Params(NamedTuple):
    g: int | None = None
    n: int | None = None
    a: int | None = None
    b: int | None = None

    def sort_key(self) -> tuple:
        return tuple(-1 if x is None else x for x in self)

    def __str__(self) -> str:
        return ", ".join(
            "%s=%d" % (k, v) for k, v in zip(self._fields, self) if v is not None
        )


def _require_ab(a: int, b: int):
    if a < 1 or b < 1:
        raise ParamError("a and b must be >= 1 (got a=%d, b=%d)" % (a, b))


def _require_rh_even(g: int, n: int):
    if g < 2:
        raise ParamError("g must be >= 2 (got g=%d)" % g)
    if g % 2:
        raise ParamError("g must be even (got g=%d)" % g)
    if not 1 <= n <= g // 2:
        raise ParamError("n must satisfy 1 <= n <= g/2 (got g=%d, n=%d)" % (g, n))


def _require_wrh_odd(g: int, n: int):
    if g < 2:
        raise ParamError("g must be >= 2 (got g=%d)" % g)
    if g % 2 == 0:
        raise ParamError("g must be odd (got g=%d)" % g)
    if n % 2 == 0:
        raise ParamError("n must be odd (got n=%d)" % n)
    if not 1 <= n <= (g - 1) // 2:
        # in particular n = (g+1)/2 is refused: those rings are not computed
        raise ParamError(
            "n must satisfy 1 <= n <= (g-1)/2 (got g=%d, n=%d)" % (g, n)
        )


def valid_rh_even_pairs(g_max: int) -> list[tuple[int, int]]:
    return [(g, n) for g in range(2, g_max + 1, 2) for n in range(1, g // 2 + 1)]


def valid_wrh_odd_pairs(g_max: int) -> list[tuple[int, int]]:
    return [
        (g, n)
        for g in range(3, g_max + 1, 2)
        for n in range(1, (g - 1) // 2 + 1, 2)
    ]


@lru_cache(maxsize=None)
def pxp_ring():
    """Ambient ring for the product of the two projectivized symmetric
    powers: Z[xi2a, xi2b, c1, c2] in registry order, built once."""
    return ring_make([("c1", 1), ("c2", 2), ("xi2a", 1), ("xi2b", 1)])


@lru_cache(maxsize=None)
def rh_ring():
    """Z[t, c1, c2], the ambient ring of the quotient presentations, built once."""
    return ring_make([("t", 1), ("c1", 1), ("c2", 2)])


def _pxp_vars():
    R = pxp_ring()
    return (
        R,
        Polynomial.var(R, "xi2a"),
        Polynomial.var(R, "xi2b"),
        Polynomial.var(R, "c1"),
        Polynomial.var(R, "c2"),
    )


@lru_cache(maxsize=1)
def classes_FG(a: int, b: int):
    """Pushforwards generating the squaring-locus classes:
    F1*(1), F1*(xi1), G1*(1), G1*(xi1)."""
    _require_ab(a, b)
    _, xa, xb, c1, c2 = _pxp_vars()
    f1 = 2 * (2 * a - 1) * xa - 2 * a * (2 * a - 1) * c1
    f2 = xa ** 2 - c1 * xa - 2 * a * (2 * a - 2) * c2
    g1 = 2 * (2 * b - 1) * xb - 2 * b * (2 * b - 1) * c1
    g2 = xb ** 2 - c1 * xb - 2 * b * (2 * b - 2) * c2
    return f1, f2, g1, g2


@lru_cache(maxsize=1)
def classes_M(a: int, b: int):
    """Pushforwards generating the common-factor-locus classes:
    M1*(1), M1*(xi1) and the six-term M2*(1)."""
    _require_ab(a, b)
    _, xa, xb, c1, c2 = _pxp_vars()
    m1 = 2 * b * xa + 2 * a * xb - 4 * a * b * c1
    m1xi = xa * xb - 4 * a * b * c2
    m2 = (
        (2 * a - 1) * (2 * b - 1) * xa * xb
        + b * (2 * b - 1) * xa ** 2
        + a * (2 * a - 1) * xb ** 2
        + 4 * a * b * (a + b - 1) * c2
        - ((4 * a - 1) * b * (2 * b - 1) * xa + a * (2 * a - 1) * (4 * b - 1) * xb) * c1
        + 2 * a * b * (2 * a - 1) * (2 * b - 1) * c1 ** 2
    )
    return m1, m1xi, m2


def remark_37_class(a: int, b: int) -> Polynomial:
    """Residue of M2*(1) modulo the other six generators:
    2ab(2a-1)(2b-1)(4c2 - c1^2)."""
    _require_ab(a, b)
    _, _, _, c1, c2 = _pxp_vars()
    return 2 * a * b * (2 * a - 1) * (2 * b - 1) * (4 * c2 - c1 ** 2)


@lru_cache(maxsize=1)
def thm_1_2_presentation(a: int, b: int) -> Presentation:
    """The seven-relation ideal of the complement of the singular locus in
    the product of the two projectivized symmetric powers."""
    _require_ab(a, b)
    R, xa, xb, c1, c2 = _pxp_vars()
    rows = [
        2 * (2 * a - 1) * xa - 2 * a * (2 * a - 1) * c1,
        xa ** 2 - c1 * xa - 4 * a * (a - 1) * c2,
        2 * (2 * b - 1) * xb - 2 * b * (2 * b - 1) * c1,
        xb ** 2 - c1 * xb - 4 * b * (b - 1) * c2,
        2 * b * xa + 2 * a * xb - 4 * a * b * c1,
        xa * xb - 4 * a * b * c2,
        2 * a * b * (2 * a - 1) * (2 * b - 1) * (4 * c2 - c1 ** 2),
    ]
    return Presentation(R, rows)


def j1_presentation(a: int, b: int) -> Presentation:
    """The candidate ideal: the F/G classes together with M1*(1), M1*(xi1)
    and M2*(1).  Equal to the seven-relation ideal for every a, b."""
    f1, f2, g1, g2 = classes_FG(a, b)
    m1, m1xi, m2 = classes_M(a, b)
    return Presentation(pxp_ring(), [f1, f2, g1, g2, m1, m1xi, m2])


@lru_cache(maxsize=1)
def thm_1_3_presentation(g: int, n: int) -> Presentation:
    """Integral Chow ring presentation for even genus: Z[t, c1, c2] modulo
    its seven relations (identically-zero rows dropped)."""
    _require_rh_even(g, n)
    R = rh_ring()
    t = Polynomial.var(R, "t")
    c1 = Polynomial.var(R, "c1")
    c2 = Polynomial.var(R, "c2")
    rows = [
        2 * (2 * n - 1) * t,
        t ** 2 - (2 * n - 1) * c1 * t + n * (n - 1) * c1 ** 2 - 4 * n * (n - 1) * c2,
        4 * g * t - 2 * (2 * g + 1 - 2 * n) * c1,
        t ** 2
        + (2 * g - 1 - 2 * n) * c1 * t
        + (g - n) * (g - n - 1) * c1 ** 2
        - 4 * (g + 1 - n) * (g - n) * c2,
        2 * g * t + 2 * n * c1,
        t ** 2
        - (2 * n - g) * c1 * t
        - n * (g - n) * c1 ** 2
        + 4 * n * (g + 1 - n) * c2,
        2 * n * (2 * n - 1) * (g + 1 - n) * (2 * g + 1 - 2 * n) * (4 * c2 - c1 ** 2),
    ]
    return Presentation(R, rows)


@lru_cache(maxsize=1)
def thm_1_9_presentation(g: int, n: int) -> Presentation:
    """Integral Chow ring presentation of the non-rigidified stack for g, n
    both odd: Z[t, c1, c2] modulo its seven relations."""
    _require_wrh_odd(g, n)
    R = rh_ring()
    t = Polynomial.var(R, "t")
    c1 = Polynomial.var(R, "c1")
    c2 = Polynomial.var(R, "c2")
    rows = [
        2 * (2 * n - 1) * c1,
        (n - 1) * (n - 2) * c1 ** 2 - 4 * n * (n - 1) * c2,
        4 * (2 * g + 1 - 2 * n) * t + 4 * g * c1,
        4 * t ** 2
        - 2 * (2 * g - 2) * c1 * t
        + (g - n) * (g - n - 1) * c1 ** 2
        - 4 * (g + 1 - n) * (g - n) * c2,
        4 * n * t + 2 * (g + 1) * c1,
        -2 * (n - 1) * t * c1
        + (n - 1) * (g - n) * c1 ** 2
        - 4 * n * (g + 1 - n) * c2,
        8 * n * (2 * n - 1) * (g + 1 - n) * (2 * g + 1 - 2 * n) * c2,
    ]
    return Presentation(R, rows)


def cor_1_10_presentation(g: int, n: int) -> Presentation:
    """Root-gerbe extension for even genus: adjoin a square root u of t
    (n even) or of t + c1 (n odd)."""
    _require_rh_even(g, n)
    P = thm_1_3_presentation(g, n)
    t = Polynomial.var(P.ring, "t")
    c1 = Polynomial.var(P.ring, "c1")
    alpha = t if n % 2 == 0 else t + c1
    return root_gerbe_adjoin(P, alpha, "u")


class DerivationResult(NamedTuple):
    presentation: Presentation
    steps: tuple[tuple[str, Presentation], ...]


@lru_cache(maxsize=1)
def _derive(g: int, n: int, class1_coeffs, class2_coeffs) -> DerivationResult:
    """Common pipeline: the seven-relation product presentation at
    (a, b) = (n, g+1-n), a free degree-1 generator t, then two torsor
    quotients.  classK_coeffs gives (xi coefficient name, t coefficient,
    c1 coefficient) for the two torsor classes.

    The last derivation is kept, by the module's rule for the last
    point's values: two checks of one (g, n) derive the same
    presentation."""
    a, b = n, g + 1 - n
    steps = []
    P = thm_1_2_presentation(a, b)
    steps.append(("product presentation at a=%d, b=%d" % (a, b), P))
    P = adjoin_generator(P, "t", 1, [])
    steps.append(("adjoin free generator t", P))
    for xi_name, t_coeff, c1_coeff in (class1_coeffs, class2_coeffs):
        R = P.ring
        cls = (
            -Polynomial.var(R, xi_name)
            + t_coeff * Polynomial.var(R, "t")
            + c1_coeff * Polynomial.var(R, "c1")
        )
        P = torsor_quotient(P, cls)
        steps.append(("torsor quotient by %s" % cls.canonical(), P))
    return DerivationResult(P, tuple(steps))


def derive_thm_1_3(g: int, n: int) -> DerivationResult:
    """Rebuild the even-genus presentation by the torsor pipeline: the two
    torsor classes are -xi2a - t + n*c1 and -xi2b + t + (g-n)*c1."""
    _require_rh_even(g, n)
    return _derive(g, n, ("xi2a", -1, n), ("xi2b", 1, g - n))


def derive_thm_1_9(g: int, n: int) -> DerivationResult:
    """Rebuild the odd-odd presentation by the torsor pipeline: the two
    torsor classes are -xi2a + (n-1)*c1 and -xi2b - 2*t + (g-n)*c1."""
    _require_wrh_odd(g, n)
    return _derive(g, n, ("xi2a", 0, n - 1), ("xi2b", -2, g - n))


class Lemma34Result(NamedTuple):
    ok: bool
    certificates: tuple[tuple[int, Certificate], ...]  # (side value, certificate)


@lru_cache(maxsize=None)
def _monic_hyperplane_membership(j: int) -> Certificate | None:
    """Membership of the product of the 2j+1 coordinate-hyperplane classes
    of the projectivized symmetric power in the ideal of the two torus
    pushforward classes, over Z[xi, t1, t2].

    The classes xi - i*t1 - (2j-i)*t2, i = 0..2j, are passed to
    `contains` as the factors of the member, so their product is reduced
    modulo the monic class gen2 one factor at a time and never multiplied
    out; the certificate expands the member and its cofactors only when
    read."""
    R = ring_make([("xi%d" % (2 * j), 1), ("t1", 1), ("t2", 1)])
    xi = Polynomial.var(R, "xi%d" % (2 * j))
    t1 = Polynomial.var(R, "t1")
    t2 = Polynomial.var(R, "t2")
    s = t1 + t2
    gen1 = 2 * (2 * j - 1) * xi - 2 * j * (2 * j - 1) * s
    gen2 = xi ** 2 - s * xi - 2 * j * (2 * j - 2) * (t1 * t2)
    ideal = Presentation(R, [gen1, gen2])
    return contains(ideal, *(xi - i * t1 - (2 * j - i) * t2 for i in range(2 * j + 1)))


def lemma_3_4_check(a: int, b: int) -> Lemma34Result:
    """The monic projective-bundle polynomials are superfluous: their torus
    lifts lie in the ideal of the torus pushforward classes, on both sides."""
    _require_ab(a, b)
    certs = []
    ok = True
    for j in sorted({a, b}):
        cert = _monic_hyperplane_membership(j)
        if cert is None:
            ok = False
        else:
            certs.append((j, cert))
    return Lemma34Result(ok, tuple(certs))


@lru_cache(maxsize=1)
def _six_generator_ideal(a: int, b: int) -> Presentation:
    f1, f2, g1, g2 = classes_FG(a, b)
    m1, m1xi, _ = classes_M(a, b)
    return Presentation(pxp_ring(), [f1, f2, g1, g2, m1, m1xi])


def remark_37_reduction(a: int, b: int) -> Certificate | None:
    """Certificate that M2*(1) minus its simplified form lies in the ideal
    of the other six generators."""
    _, _, m2 = classes_M(a, b)
    return contains(_six_generator_ideal(a, b), m2 - remark_37_class(a, b))


def remark_37_nonredundancy(a: int, b: int) -> bool:
    """True iff M2*(1) is not contained in the ideal generated by the other
    six generators (so it is a necessary generator)."""
    _, _, m2 = classes_M(a, b)
    return contains(_six_generator_ideal(a, b), m2) is None


class TwistChernData(NamedTuple):
    """First and second Chern classes of the twisted rank-2 bundle with
    roots -t1 - t, -t2 - t, recorded under both sign conventions for t.

    The root computation gives c2 + t*c1 + t^2; the opposite convention on
    the torsor class gives c2 - t*c1 + t^2.  The two agree exactly under
    t -> -t, and only that conditional equality is asserted; neither
    convention is preferred.
    """

    c1: Polynomial
    c2_computed: Polynomial
    c2_alt: Polynomial

    def conditional_equality_holds(self) -> bool:
        R = self.c2_computed.ring
        flip = {
            "t": -Polynomial.var(R, "t"),
            "c1": Polynomial.var(R, "c1"),
            "c2": Polynomial.var(R, "c2"),
        }
        return self.c2_computed.substitute(flip, R) == self.c2_alt


def twist_chern_data() -> TwistChernData:
    from .chowops import chern_class, sym_dual_roots

    roots = sym_dual_roots(1, det_twist=0, char_twist=-1)
    c1 = chern_class(roots, 1)
    c2 = chern_class(roots, 2)
    R = c2.ring
    t = Polynomial.var(R, "t")
    vc1 = Polynomial.var(R, "c1")
    vc2 = Polynomial.var(R, "c2")
    return TwistChernData(c1, c2, vc2 - t * vc1 + t ** 2)
