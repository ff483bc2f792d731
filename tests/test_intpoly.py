import re

import pytest
from hypothesis import given, settings, strategies as st

from chowforge.intpoly import (
    NotHomogeneousError,
    Polynomial,
    _product,
    _substitute_all,
    ring_make,
)


def V(ring, name):
    return Polynomial.var(ring, name)


class TestRingMake:
    def test_basic_construction(self):
        R = ring_make([("t", 1), ("c1", 1), ("c2", 2)])
        assert len(R) == 3
        assert R.names == ("t", "c1", "c2")
        assert R.weight_of("c2") == 2

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ring_make([("x", 1), ("x", 1)])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            ring_make([("c2", 0)])
        with pytest.raises(ValueError, match="weight"):
            ring_make([("c2", -3)])

    def test_bad_identifier_rejected(self):
        with pytest.raises(ValueError, match="identifier"):
            ring_make([("X", 1)])

    def test_value_equality(self):
        a = ring_make([("t", 1), ("c2", 2)])
        b = ring_make([("t", 1), ("c2", 2)])
        assert a == b and hash(a) == hash(b)
        assert a != ring_make([("c2", 2), ("t", 1)])

    def test_comparisons_by_identity_and_value(self):
        a = ring_make([("t", 1), ("c2", 2)])
        b = ring_make([("t", 1), ("c2", 2)])
        other = ring_make([("t", 1), ("c2", 1)])
        assert a == a and not (a != a)
        assert a == b and not (a != b)
        assert a != other and not (a == other)
        assert a != 3 and not (a == 3)
        assert 3 != a and not (3 == a)

    def test_unknown_variable_rejected(self):
        with pytest.raises(KeyError, match="zz"):
            Polynomial.var(ring_make([("t", 1)]), "zz")

    def test_with_var_uses_registry_order(self):
        R = ring_make([("c1", 1), ("c2", 2), ("xi2a", 1), ("xi2b", 1)])
        assert R.with_var("t", 1).names == ("t", "c1", "c2", "xi2a", "xi2b")
        R2 = ring_make([("t", 1), ("c1", 1), ("c2", 2)])
        assert R2.with_var("u", 1).names == ("t", "u", "c1", "c2")
        assert R2.with_var("xi1", 1).names == ("t", "c1", "c2", "xi1")
        with pytest.raises(ValueError, match="collision"):
            R2.with_var("t", 1)


RING = ring_make([("t", 1), ("c1", 1), ("c2", 2)])
XRING = ring_make([("c1", 1), ("c2", 2), ("xi", 1)])
TORUS = ring_make([("xi", 1), ("t1", 1), ("t2", 1)])


class TestArithmetic:
    def test_additive_inverse(self):
        t = V(RING, "t")
        assert (2 * t + -2 * t).is_zero()

    def test_cancellation(self):
        c1, c2, xi = (V(XRING, n) for n in ("c1", "c2", "xi"))
        assert (xi ** 2 - c1 * xi) + (c1 * xi + c2) == xi ** 2 + c2

    def test_disjoint_supports(self):
        c1, c2 = V(RING, "c1"), V(RING, "c2")
        s = 4 * c2 + -(c1 ** 2)
        assert s == 4 * c2 - c1 ** 2
        assert len(s.terms) == 2

    def test_binomial_expansion(self):
        xi, t1, t2 = (V(TORUS, n) for n in ("xi", "t1", "t2"))
        assert (xi - t1) * (xi - t2) == xi ** 2 - (t1 + t2) * xi + t1 * t2

    def test_multiplicative_identity(self):
        p = 3 * V(RING, "t") ** 2 - V(RING, "c2")
        assert p * Polynomial.const(RING, 1) == p

    def test_difference_of_squares(self):
        c1, xi = V(XRING, "c1"), V(XRING, "xi")
        assert (2 * xi - 2 * c1) * (2 * xi + 2 * c1) == 4 * xi ** 2 - 4 * c1 ** 2

    def test_ring_mismatch(self):
        with pytest.raises(ValueError, match="ring mismatch"):
            V(RING, "t") + V(XRING, "xi")


class TestWeightedDegree:
    def test_product_relation_degree(self):
        # xi2a*xi2b - 4ab*c2 at a = b = 1 is homogeneous of degree 2
        R = ring_make([("c1", 1), ("c2", 2), ("xi2a", 1), ("xi2b", 1)])
        p = V(R, "xi2a") * V(R, "xi2b") - 4 * V(R, "c2")
        assert p.weighted_degree() == 2

    def test_mixed_degrees_report_witnesses(self):
        p = V(RING, "t") + V(RING, "c2")
        with pytest.raises(NotHomogeneousError) as err:
            p.weighted_degree()
        degrees = {err.value.witness_a[1], err.value.witness_b[1]}
        assert degrees == {1, 2}

    def test_linear_row_degree(self):
        n = 3
        p = 2 * (2 * n - 1) * V(RING, "t")
        assert p == 10 * V(RING, "t")
        assert p.weighted_degree() == 1

    def test_zero_degree_undefined(self):
        with pytest.raises(ValueError, match="zero"):
            Polynomial.zero(RING).weighted_degree()

    def test_zero_counts_as_homogeneous(self):
        assert Polynomial.zero(RING).is_homogeneous()

    @pytest.mark.parametrize(
        "build, message, witnesses",
        [
            (
                lambda t, c1, c2: t + c2,
                "term c2 has degree 2, term t has degree 1",
                (((0, 0, 1), 2), ((1, 0, 0), 1)),
            ),
            (
                lambda t, c1, c2: t ** 3 + c2 + t * c1 - 7,
                "term t^3 has degree 3, term t*c1 has degree 2",
                (((3, 0, 0), 3), ((1, 1, 0), 2)),
            ),
            (
                lambda t, c1, c2: 3 * c1 * c2 - t ** 3 + 2 * c2,
                "term t^3 has degree 3, term c2 has degree 2",
                (((3, 0, 0), 3), ((0, 0, 1), 2)),
            ),
        ],
    )
    def test_witnesses_are_frozen(self, build, message, witnesses):
        # the largest term and the first term of another degree, in
        # canonical order, whatever the order of the term map
        p = build(*(V(RING, n) for n in RING.names))
        with pytest.raises(NotHomogeneousError) as err:
            p.weighted_degree()
        assert str(err.value) == "not homogeneous: " + message
        assert (err.value.witness_a, err.value.witness_b) == witnesses


class TestValidation:
    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Polynomial(RING, {(1, 0, 0): 1.5})
        with pytest.raises(TypeError):
            Polynomial(RING, {(1, 0, 0): "2"})
        with pytest.raises(TypeError):
            Polynomial.const(RING, 2.0)

    def test_bool_coefficient_becomes_int(self):
        p = Polynomial(RING, {(1, 0, 0): True, (0, 1, 0): False})
        assert p.terms == {(1, 0, 0): 1}
        assert type(p.terms[(1, 0, 0)]) is int
        assert p == V(RING, "t")

    def test_bad_exponent_vector_rejected(self):
        with pytest.raises(ValueError, match="bad exponent"):
            Polynomial(RING, {(1, 0): 1})
        with pytest.raises(ValueError, match="bad exponent"):
            Polynomial(RING, {(1, -1, 0): 1})


class TestSubstitute:
    def test_hyperplane_shift(self):
        # xi -> xi - a*c1 applied to 2(2a-1)*xi - 2a(2a-1)*c1 at a = 1
        xi, c1 = V(XRING, "xi"), V(XRING, "c1")
        p = 2 * xi - 2 * c1
        images = {n: V(XRING, n) for n in ("c1", "c2")}
        images["xi"] = xi - c1
        assert p.substitute(images) == 2 * xi - 4 * c1

    def test_identity_map(self):
        p = V(XRING, "xi") ** 2 - V(XRING, "c1") * V(XRING, "xi") + V(XRING, "c2")
        images = {n: V(XRING, n) for n in XRING.names}
        assert p.substitute(images) == p

    def test_torsor_substitution(self):
        # xi -> n*c1 - t at n = 2 sends 2(2n-1)*xi - 2n(2n-1)*c1 to -6t
        n = 2
        src = ring_make([("t", 1), ("c1", 1), ("c2", 2), ("xi", 1)])
        xi, t, c1 = V(src, "xi"), V(src, "t"), V(src, "c1")
        p = 2 * (2 * n - 1) * xi - 2 * n * (2 * n - 1) * c1
        images = {m: V(src, m) for m in ("t", "c1", "c2")}
        images["xi"] = n * c1 - t
        assert p.substitute(images) == -6 * t

    def test_missing_image(self):
        with pytest.raises(ValueError, match="missing image"):
            V(RING, "t").substitute({})

    def test_degree_violating_image(self):
        images = {"t": V(RING, "c2")}
        with pytest.raises(ValueError, match="degree"):
            V(RING, "t").substitute(images)

    def test_zero_image_allowed(self):
        # needed at degenerate parameters, e.g. xi -> (n-1)*c1 at n = 1
        images = {"t": Polynomial.zero(RING), "c1": V(RING, "c1")}
        assert (V(RING, "t") * V(RING, "c1")).substitute(images).is_zero()

    @pytest.mark.parametrize("zero", [False, True])
    def test_image_of_a_foreign_variable(self, zero):
        # z is not a variable of the source ring: its image is refused,
        # whether it is zero or not
        R = ring_make([("x", 1)])
        S = ring_make([("x", 1), ("z", 1)])
        z = Polynomial.zero(S) if zero else V(S, "z")
        images = {"x": V(S, "x"), "z": z}
        msg = "image given for z, which is not a variable of the source ring"
        with pytest.raises(ValueError, match=msg):
            V(R, "x").substitute(images, S)
        with pytest.raises(ValueError, match=msg):
            _substitute_all([V(R, "x")], images, S)

    def test_map_faults_of_many(self):
        # the map is checked against every variable of the source ring, with
        # the messages of substitute, also c2, which neither polynomial uses
        S = ring_make([("x", 1), ("y", 1)])
        good = {"t": V(S, "x"), "c1": V(S, "y"), "c2": V(S, "x") * V(S, "y")}
        polys = [2 * V(RING, "t"), V(RING, "c1") ** 2 - V(RING, "t") * V(RING, "c1")]
        assert _substitute_all(polys, good, S) == [p.substitute(good, S) for p in polys]
        assert _substitute_all([], good, S) == []
        faults = [
            (dict(good, c1=V(RING, "c1")), "image of c1 lives in the wrong ring"),
            (dict(good, c2=V(S, "x")), "image of c2 has degree 1, expected 2"),
            ({"t": V(S, "x"), "c1": V(S, "y")}, "missing image for: c2"),
        ]
        for images, msg in faults:
            with pytest.raises(ValueError, match=re.escape(msg)):
                _substitute_all(polys, images, S)
        with pytest.raises(ValueError, match="ring mismatch"):
            _substitute_all([V(RING, "t"), V(XRING, "c1")], good, S)


class TestCanonicalString:
    def test_interface_contract_example(self):
        t, c1, c2 = (V(RING, n) for n in RING.names)
        assert (-2 * t * c1 + 4 * c2).canonical() == "-2*t*c1 + 4*c2"

    def test_zero(self):
        assert Polynomial.zero(RING).canonical() == "0"

    def test_unit_coefficients_elided(self):
        t, c1 = V(RING, "t"), V(RING, "c1")
        assert (t - c1).canonical() == "t - c1"

    def test_constants_and_powers(self):
        t = V(RING, "t")
        assert Polynomial.const(RING, -7).canonical() == "-7"
        assert (t ** 3 + 5).canonical() == "t^3 + 5"

    def test_graded_lex_order(self):
        t, c1, c2 = (V(RING, n) for n in RING.names)
        p = c2 + c1 ** 2 + t * c1 + t ** 2
        assert p.canonical() == "t^2 + t*c1 + c1^2 + c2"
        # higher weighted degree comes first
        assert (c2 + t).canonical() == "c2 + t"

    def test_injectivity_on_samples(self):
        t, c1, c2 = (V(RING, n) for n in RING.names)
        samples = [t, -t, 2 * t, c1, c2, t * c1, t + c1, t - c1, t ** 2, c2 - t ** 2]
        strings = {p.canonical() for p in samples}
        assert len(strings) == len(samples)


# ----------------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------------

_exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
_polys = st.dictionaries(_exps, st.integers(-9, 9), max_size=6).map(
    lambda d: Polynomial(RING, d)
)


@settings(max_examples=1000, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def _random_homogeneous(draw, ring, degree):
    from chowforge.grideal import monomial_basis

    basis = monomial_basis(ring, degree)
    coeffs = draw(
        st.lists(st.integers(-9, 9), min_size=len(basis), max_size=len(basis))
    )
    return Polynomial(ring, dict(zip(basis, coeffs)))


@st.composite
def _homog_pair_with_images(draw):
    d1 = draw(st.integers(1, 3))
    d2 = draw(st.integers(1, 3))
    p = _random_homogeneous(draw, RING, d1)
    q = _random_homogeneous(draw, RING, d2)
    target = ring_make([("x", 1), ("y", 1)])
    lin = lambda: draw(st.integers(-3, 3)) * V(target, "x") + draw(
        st.integers(-3, 3)
    ) * V(target, "y")
    quad = _random_homogeneous(draw, target, 2)
    images = {"t": lin(), "c1": lin(), "c2": quad}
    return p, q, images, target


@settings(max_examples=300, deadline=None)
@given(_homog_pair_with_images())
def test_substitute_is_graded_homomorphism(data):
    p, q, images, target = data
    sp = p.substitute(images, target)
    sq = q.substitute(images, target)
    assert (p * q).substitute(images, target) == sp * sq
    assert (p + q).substitute(images, target) == sp + sq
    if p.terms and sp.terms:
        assert sp.weighted_degree() == p.weighted_degree()


def _assert_well_formed(p, ring):
    """p equals its validated rebuild, holds no zero coefficient and has
    exponent tuples of the ring's length."""
    assert p.ring == ring
    assert p == Polynomial(ring, dict(p.terms))
    assert all(p.terms.values())
    assert all(len(e) == len(ring) for e in p.terms)


# single terms: coefficients other than +-1, monomials in several variables
_single_terms = st.builds(
    lambda e, c: Polynomial(RING, {e: c}), _exps, st.integers(-9, 9).filter(bool)
)


@settings(max_examples=500, deadline=None)
@given(_polys, _polys, st.integers(-5, 5), st.integers(0, 3), _single_terms, st.booleans())
def test_arithmetic_results_are_well_formed(p, q, c, k, m, flag):
    for r in (p + q, p - q, -p, p * q, p ** k, c * p, p + c, c - p, p - p, p * 0):
        _assert_well_formed(r, RING)
    for r in (p * m, m * p, m * m, flag * p, p * flag, m * flag):
        _assert_well_formed(r, RING)
        assert all(type(coeff) is int for coeff in r.terms.values())


@settings(max_examples=500, deadline=None)
@given(_polys, _polys, _single_terms)
def test_short_routes_match_general_product(p, q, m):
    """Products by an integer, and subtraction, against the double loop
    of _product and against p + (-q); a product with a single-term factor
    is _product itself, and its operands may come in either order."""
    zero = Polynomial.zero(RING)
    for a, b in ((p, m), (m, p), (zero, m), (m, zero), (m, m)):
        assert a * b == Polynomial(RING, _product(a.terms, b.terms))
    for k in [*range(-5, 6), True, False]:
        want = Polynomial(RING, _product(Polynomial.const(RING, k).terms, p.terms))
        assert k * p == want and p * k == want
    assert p - q == p + (-q)
    assert q - p == -(p - q)


@settings(max_examples=300, deadline=None)
@given(_homog_pair_with_images())
def test_substitute_results_are_well_formed(data):
    p, q, images, target = data
    _assert_well_formed(p.substitute(images, target), target)
    _assert_well_formed((p * q - q).substitute(images, target), target)


# the target drops c2 and adds u, so no image is a plain copy of its variable
_TARGET = ring_make([("t", 1), ("u", 1), ("c1", 1)])


@st.composite
def _mixed_images(draw):
    """Images of t, c1, c2 in _TARGET: each a single term with coefficient
    +-1 or +-2 (on any monomial of the right degree, multi-variable ones
    included), a homogeneous polynomial of several terms, or zero."""
    from chowforge.grideal import monomial_basis

    images = {}
    for name, w in zip(RING.names, RING.weights):
        basis = monomial_basis(_TARGET, w)
        kind = draw(st.sampled_from(["single", "several", "zero"]))
        if kind == "single":
            mono = draw(st.sampled_from(basis))
            c = draw(st.sampled_from([1, -1, 2, -2]))
            images[name] = Polynomial(_TARGET, {mono: c})
        elif kind == "several":
            monos = draw(st.lists(st.sampled_from(basis), min_size=2, max_size=4, unique=True))
            coeffs = st.integers(-5, 5).filter(bool)
            images[name] = Polynomial(_TARGET, {m: draw(coeffs) for m in monos})
        else:
            images[name] = Polynomial.zero(_TARGET)
    return images


def _substitute_oracle(p, images, target):
    """Term by term, through the arithmetic operators alone."""
    total = Polynomial.zero(target)
    for exps, coeff in p.terms.items():
        term = Polynomial.const(target, coeff)
        for name, e in zip(p.ring.names, exps):
            term = term * images[name] ** e
        total = total + term
    return total


@settings(max_examples=500, deadline=None)
@given(_polys, _mixed_images())
def test_substitute_matches_oracle(p, images):
    got = p.substitute(images, _TARGET)
    assert got == _substitute_oracle(p, images, _TARGET)
    _assert_well_formed(got, _TARGET)


@settings(max_examples=300, deadline=None)
@given(st.lists(_polys, max_size=4), _mixed_images())
def test_substitute_all_matches_substitute(polys, images):
    # one map for many polynomials, its image powers shared between them
    got = _substitute_all(polys, images, _TARGET)
    assert got == [p.substitute(images, _TARGET) for p in polys]
    for q in got:
        _assert_well_formed(q, _TARGET)
