import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from chowforge import catalog, grideal
from chowforge.grideal import (
    Certificate,
    Presentation,
    contains,
    eliminate_linear,
    ideal_degree_matrix,
    ideal_equal,
    monomial_basis,
    quotient_graded_invariants,
)
from chowforge.intpoly import NotHomogeneousError, Polynomial, ring_make
from chowforge.zlinalg import AbelianInvariants, IntMatrix, hnf, snf, solve_in_row_lattice
from dense_snf import dense_snf
from macaulay import macaulay

RING = ring_make([("t", 1), ("c1", 1), ("c2", 2)])


def V(ring, name):
    return Polynomial.var(ring, name)


def clear_caches():
    """Drop the values the catalog keeps, and with their presentations
    the bundles and pieces those hold."""
    for obj in vars(catalog).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def hermite_rows(A):
    """The nonzero rows of the Hermite form of A: equal exactly when the
    row lattices are."""
    return [list(r) for r in hnf(A)[0].entries if any(r)]


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts with no catalog presentation kept, so a test that
    checks which route or kernel runs sees it run rather than a kept piece."""
    clear_caches()


class TestPresentation:
    def test_zero_relations_dropped(self, caplog):
        t = V(RING, "t")
        with caplog.at_level("DEBUG", logger="chowforge.grideal"):
            P = Presentation(RING, [2 * t, Polynomial.zero(RING), t ** 2])
        assert len(P.relations) == 2
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("chowforge.grideal", "dropping identically-zero relation at index 1")
        ]

    def test_inhomogeneous_rejected(self):
        with pytest.raises(NotHomogeneousError):
            Presentation(RING, [V(RING, "t") + V(RING, "c2")])

    def test_order_preserved(self):
        t, c1 = V(RING, "t"), V(RING, "c1")
        P = Presentation(RING, [4 * t, 2 * t - c1])
        assert P.relations == (4 * t, 2 * t - c1)


class TestMonomialBasis:
    def test_weighted_enumeration(self):
        basis = monomial_basis(RING, 2)
        names = [
            "*".join(
                "%s^%d" % (n, e) if e > 1 else n
                for n, e in zip(RING.names, exps)
                if e
            )
            for exps in basis
        ]
        assert names == ["t^2", "t*c1", "c1^2", "c2"]

    def test_degree_zero(self):
        assert monomial_basis(RING, 0) == [(0, 0, 0)]

    def test_unreachable_degree(self):
        R = ring_make([("c2", 2)])
        assert monomial_basis(R, 3) == []

    @pytest.mark.parametrize(
        "weights", [(1,), (2,), (1, 1, 2), (2, 1, 1), (1, 2, 3, 1), (3, 2), (2, 2, 4)]
    )
    def test_matches_brute_force(self, weights):
        R = ring_make([("x%d" % i, w) for i, w in enumerate(weights)])
        for d in range(15):
            brute = [
                e
                for e in itertools.product(*(range(d // w + 1) for w in weights))
                if R.exponent_degree(e) == d
            ]
            brute.sort(key=lambda e: (R.exponent_degree(e), e), reverse=True)
            assert monomial_basis(R, d) == brute


    @pytest.mark.parametrize("weights", [(1,), (2,), (1, 1, 2), (2, 1, 1), (1, 2, 3, 1), (3, 2)])
    def test_low_basis_matches_filtered_basis(self, weights):
        R = ring_make([("x%d" % i, w) for i, w in enumerate(weights)])
        for x in range(len(weights)):
            for below in (1, 2, 3):
                for d in range(15):
                    filtered = [e for e in monomial_basis(R, d) if e[x] < below]
                    assert list(grideal._basis(R, x, below, d)) == filtered
                    # x = None is the full basis, whatever `below` is
                    assert list(grideal._basis(R, None, below, d)) == monomial_basis(R, d)

    def test_returned_list_is_a_copy(self):
        basis = monomial_basis(RING, 2)
        expected = list(basis)
        basis.append((9, 9, 9))
        basis[0] = (0, 0, 0)
        basis.reverse()
        assert monomial_basis(RING, 2) == expected
        assert list(grideal._basis(RING, None, 0, 2)) == expected


class TestDegreeMatrix:
    def test_single_generator(self):
        R = ring_make([("t", 1), ("c1", 1)])
        P = Presentation(R, [2 * V(R, "t")])
        A = ideal_degree_matrix(P, 1)
        assert [list(r) for r in A.entries] == [[2, 0]]

    def test_even_genus_degree_one_rows(self):
        from chowforge.catalog import thm_1_3_presentation

        # the matrix spans the lattice of the rows 2t, 8t - 6c1 and 4t + 2c1
        P = thm_1_3_presentation(2, 1)
        rows = IntMatrix.from_rows([[2, 0], [8, -6], [4, 2]])
        assert hermite_rows(ideal_degree_matrix(P, 1)) == hermite_rows(rows) == [[2, 0], [0, 2]]

    def test_empty_ideal(self):
        P = Presentation(RING, [])
        assert ideal_degree_matrix(P, 3).rows == 0


class TestContains:
    def test_worked_reduction_certificate(self):
        # the a=1 superfluity instance: the product of the three coordinate
        # hyperplane classes lies in (2xi - 2s, xi^2 - s*xi)
        R = ring_make([("xi", 1), ("t1", 1), ("t2", 1)])
        xi, t1, t2 = (V(R, n) for n in R.names)
        s, e = t1 + t2, t1 * t2
        g1 = 2 * xi - 2 * s
        g2 = xi ** 2 - s * xi
        ptilde = (xi - 2 * t1) * (xi - s) * (xi - 2 * t2)
        # frozen hand identity
        assert ptilde == 2 * e * g1 + (xi - 2 * s) * g2
        cert = contains(Presentation(R, [g1, g2]), ptilde)
        assert cert is not None
        total = sum(
            (h * g for h, g in zip(cert.cofactors, (g1, g2))),
            Polynomial.zero(R),
        )
        assert total == ptilde

    def test_one_not_in_proper_ideal(self):
        P = Presentation(RING, [2 * V(RING, "t"), V(RING, "c2")])
        assert contains(P, Polynomial.const(RING, 1)) is None

    def test_generators_are_members(self):
        from chowforge.catalog import thm_1_2_presentation

        P = thm_1_2_presentation(2, 3)
        c1 = V(P.ring, "c1")
        for g in P.relations:
            assert contains(P, g) is not None
            # not a unit multiple of a relation: decided on the piece
            assert contains(P, c1 * g) is not None

    def test_zero_member(self):
        P = Presentation(RING, [2 * V(RING, "t")])
        assert contains(P, Polynomial.zero(RING)) is not None

    def test_inhomogeneous_rejected(self):
        P = Presentation(RING, [2 * V(RING, "t")])
        with pytest.raises(NotHomogeneousError):
            contains(P, V(RING, "t") + V(RING, "c2"))


class TestCertificate:
    def setup_method(self):
        t, c1 = V(RING, "t"), V(RING, "c1")
        self.P = Presentation(RING, [2 * t, t ** 2 - c1 * t])
        self.f = 2 * t * c1 + 3 * (t ** 2 - c1 * t)

    def test_right_cofactors_accepted(self):
        cert = Certificate(self.P, self.f, [V(RING, "c1"), Polynomial.const(RING, 3)])
        assert str(cert) == "(c1)*(2*t) + (3)*(t^2 - t*c1)"

    def test_wrong_cofactors_refused(self):
        for cofactors in (
            [V(RING, "c1"), Polynomial.const(RING, 2)],
            [V(RING, "t"), Polynomial.const(RING, 3)],
            [Polynomial.zero(RING)] * 2,
        ):
            with pytest.raises(AssertionError, match="certificate failed polynomial re-verification"):
                Certificate(self.P, self.f, cofactors)

    def test_cofactor_over_another_ring_refused(self):
        other = ring_make([("t", 1), ("c1", 1)])
        with pytest.raises(ValueError, match="ring mismatch"):
            Certificate(self.P, self.f, [V(other, "c1"), Polynomial.const(RING, 3)])
        with pytest.raises(ValueError, match="ring mismatch"):
            Certificate(self.P, self.f, [V(RING, "c1"), Polynomial.const(other, 3)])

    def test_one_cofactor_per_generator(self):
        with pytest.raises(ValueError, match="one cofactor per generator"):
            Certificate(self.P, self.f, [V(RING, "c1")])


def _certificate_key(cert):
    return [h.canonical() for h in cert.cofactors]


class TestPieceCache:
    def _cases(self):
        """(presentation, member, non-member) on each route: the Lemma 3.4
        ideal (a monic relation) and, in two degrees, an ideal with none."""
        t, c1, c2 = (V(RING, n) for n in RING.names)
        P34, ptilde = _lemma34_ideal(3)
        yield P34, ptilde, V(P34.ring, "t1") ** 7
        Q = Presentation(RING, [2 * t, 4 * c2 - 3 * c1 ** 2, 3 * t * c1])
        assert grideal._bundle(P34).gi is not None and grideal._bundle(Q).gi is None
        yield Q, 2 * t * c1 * c2 + 3 * (4 * c2 - 3 * c1 ** 2) * c1 * t, c1 ** 4
        yield Q, 2 * (4 * c2 - 3 * c1 ** 2) - 6 * t * c1, c1 ** 2

    def test_cold_and_warm_agree(self):
        # equal presentations with no bundle yet: the first pass builds each
        # piece, the second is answered from the pieces kept on them
        fresh = [(Presentation(P.ring, P.relations), f, g) for P, f, g in self._cases()]
        cold = [(_certificate_key(contains(P, f)), contains(P, g)) for P, f, g in fresh]
        assert all(P._bundle.pieces for P, _, _ in fresh)
        warm = [(_certificate_key(contains(P, f)), contains(P, g)) for P, f, g in fresh]
        assert cold == warm
        assert all(non is None for _, non in cold)

    def test_a_piece_is_built_once(self, monkeypatch):
        P, ptilde = _lemma34_ideal(4)
        built = []
        original = grideal._lattice

        def counting(B, d):
            built.append(d)
            return original(B, d)

        monkeypatch.setattr(grideal, "_lattice", counting)
        certs = [contains(P, ptilde) for _ in range(3)]
        assert built == [9]
        assert len({str(c) for c in certs}) == 1

    @pytest.mark.parametrize("monic", [True, False])
    def test_a_piece_does_not_depend_on_the_degrees_asked_before(self, monic):
        # the shifts x^i*h are divided on first need, up to the degree asked
        t, c1 = V(RING, "t"), V(RING, "c1")
        a = 1 if monic else 2
        relations = [a * t ** 5 - a * c1 ** 5, 2 * t + 3 * c1, a * c1 ** 3]
        assert (grideal._bundle(Presentation(RING, relations)).gi is not None) == monic

        def pieces(degrees):
            B = grideal._bundle(Presentation(RING, relations))
            return {d: B.piece(d) for d in degrees}

        up, down = pieces(range(9)), pieces(range(8, -1, -1))
        for d in range(9):
            alone = pieces([d])[d]
            assert up[d].A == down[d].A == alone.A
            assert up[d].labels == down[d].labels == alone.labels

    def test_equal_presentations_each_build_one_bundle(self, monkeypatch):
        (P, ptilde), (Q, _) = _lemma34_ideal(3), _lemma34_ideal(3)
        assert P == Q and P is not Q
        built = []
        original = grideal._Bundle.__init__

        def counting(B, *args):
            built.append(B)
            original(B, *args)

        monkeypatch.setattr(grideal._Bundle, "__init__", counting)
        certs = [str(contains(X, ptilde)) for X in (P, Q, P, Q)]
        assert contains(P, V(P.ring, "t1") ** 7) is None and contains(Q, V(Q.ring, "t1") ** 7) is None
        # each owns the bundle built on its first use, and answers alike
        assert built == [P._bundle, Q._bundle] and P._bundle is not Q._bundle
        assert len(set(certs)) == 1


class TestIdealEqual:
    def test_sign(self):
        t, c1 = V(RING, "t"), V(RING, "c1")
        assert ideal_equal(Presentation(RING, [2 * t]), Presentation(RING, [-2 * t]))
        # c1 + 2t and c1 are no unit multiple of a generator of the other side
        assert ideal_equal(
            Presentation(RING, [2 * t, c1]), Presentation(RING, [-2 * t, c1 + 2 * t])
        )

    def test_redundant_generator(self):
        t = V(RING, "t")
        P = Presentation(RING, [2 * t, 4 * t])
        Q = Presentation(RING, [2 * t])
        assert ideal_equal(P, Q)

    def test_witness(self):
        t = V(RING, "t")
        res = ideal_equal(Presentation(RING, [t]), Presentation(RING, [2 * t]))
        assert not res.equal
        assert res.witness == t and res.witness_side == "left"

    def test_ring_mismatch(self):
        R2 = ring_make([("t", 1)])
        with pytest.raises(ValueError, match="ring mismatch"):
            ideal_equal(Presentation(RING, []), Presentation(R2, []))


class TestEliminateLinear:
    def test_projective_relation(self):
        R = ring_make([("c1", 1), ("c2", 2), ("xi", 1)])
        xi, c1, c2 = V(R, "xi"), V(R, "c1"), V(R, "c2")
        P = Presentation(R, [xi ** 2 - c1 * xi + c2])
        Q = eliminate_linear(P, "xi", c1)
        assert Q.ring.names == ("c1", "c2")
        assert Q.relations == (V(Q.ring, "c2"),)

    def test_torsor_row(self):
        n = 2
        R = ring_make([("t", 1), ("c1", 1), ("c2", 2), ("xi", 1)])
        xi, t, c1 = V(R, "xi"), V(R, "t"), V(R, "c1")
        P = Presentation(R, [2 * (2 * n - 1) * xi - 2 * n * (2 * n - 1) * c1])
        Q = eliminate_linear(P, "xi", n * c1 - t)
        tq = V(Q.ring, "t")
        assert Q.relations == (-6 * tq,)

    def test_absent_variable(self):
        R = ring_make([("t", 1), ("c1", 1), ("xi", 1)])
        P = Presentation(R, [2 * V(R, "t")])
        Q = eliminate_linear(P, "xi", V(R, "c1"))
        assert Q.ring.names == ("t", "c1")
        assert [p.canonical() for p in Q.relations] == ["2*t"]

    def test_errors(self):
        R = ring_make([("t", 1), ("xi", 1)])
        P = Presentation(R, [])
        with pytest.raises(ValueError, match="involves"):
            eliminate_linear(P, "xi", V(R, "xi"))
        R2 = ring_make([("t", 1), ("c2", 2), ("xi", 1)])
        P2 = Presentation(R2, [])
        with pytest.raises(ValueError, match="degree"):
            eliminate_linear(P2, "xi", V(R2, "c2"))


class TestGradedInvariants:
    def test_even_genus_degree_one(self):
        from chowforge.catalog import thm_1_3_presentation

        inv = quotient_graded_invariants(thm_1_3_presentation(2, 1), 1)
        assert inv == AbelianInvariants(free_rank=0, torsion=(2, 2))

    def test_degree_zero_is_z(self):
        P = Presentation(RING, [2 * V(RING, "t"), V(RING, "c2")])
        assert quotient_graded_invariants(P, 0) == AbelianInvariants(free_rank=1)

    def test_single_even_relation(self):
        R = ring_make([("t", 1)])
        P = Presentation(R, [2 * V(R, "t")])
        assert quotient_graded_invariants(P, 1) == AbelianInvariants(0, (2,))


# ----------------------------------------------------------------------------
# randomized cross-checks
# ----------------------------------------------------------------------------

SMALL = ring_make([("x", 1), ("y", 1), ("z", 2)])


def _random_homog(rng, ring, d, lo=-5, hi=5, density=0.7):
    terms = {}
    for exps in monomial_basis(ring, d):
        if rng.random() < density:
            c = rng.randint(lo, hi)
            if c:
                terms[exps] = c
    return Polynomial(ring, terms)


def _random_presentation(rng, max_gens=2):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(1, 2)
        g = _random_homog(rng, SMALL, d)
        if g.terms:
            gens.append(g)
    return Presentation(SMALL, gens)


def brute_force_member(P, f, bound):
    """Exhaustive coefficient-box search for f as a combination of the
    degree-d multiples of the generators."""
    d = f.weighted_degree()
    products = []
    for g in P.relations:
        e = g.weighted_degree()
        if e > d:
            continue
        for mono in monomial_basis(SMALL, d - e):
            products.append(Polynomial(SMALL, {mono: 1}) * g)
    if not products:
        return False
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(products)):
        total = Polynomial.zero(SMALL)
        for c, q in zip(combo, products):
            if c:
                total = total + c * q
        if total == f:
            return True
    return False


def test_contains_agrees_with_bounded_enumeration():
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        P = _random_presentation(rng)
        d = rng.randint(1, 3)
        slots = sum(
            len(monomial_basis(SMALL, d - g.weighted_degree()))
            for g in P.relations
            if g.weighted_degree() <= d
        )
        if not 1 <= slots <= 6:
            continue
        checked += 1
        if checked % 2:
            # constructed member: enumeration provably finds it
            f = Polynomial.zero(SMALL)
            for g in P.relations:
                e = g.weighted_degree()
                if e > d:
                    continue
                h = _random_homog(rng, SMALL, d - e, lo=-2, hi=2, density=0.8)
                f = f + h * g
            assert contains(P, f) is not None
            if f.terms:
                assert brute_force_member(P, f, 2)
        else:
            f = _random_homog(rng, SMALL, d)
            if not f.terms:
                continue
            cert = contains(P, f)
            found = brute_force_member(P, f, 2)
            if found:
                assert cert is not None
            # a certificate is re-verified exactly at construction, so a
            # hit outside the box is still a proven member


def test_ideal_equal_is_equivalence_relation():
    rng = random.Random(7)
    pres = [_random_presentation(rng) for _ in range(6)]
    for P in pres:
        assert ideal_equal(P, P)
    for P, Q in itertools.combinations(pres, 2):
        assert ideal_equal(P, Q).equal == ideal_equal(Q, P).equal
    for P, Q, R in itertools.combinations(pres, 3):
        if ideal_equal(P, Q) and ideal_equal(Q, R):
            assert ideal_equal(P, R)


def test_eliminate_commutes_with_ideal_equal():
    R = ring_make([("t", 1), ("c1", 1), ("xi", 1)])
    t, c1, xi = (V(R, n) for n in R.names)
    P = Presentation(R, [2 * xi - 2 * c1, xi ** 2 - c1 * xi])
    Q = Presentation(R, [-2 * xi + 2 * c1, xi ** 2 - c1 * xi, 4 * xi - 4 * c1])
    assert ideal_equal(P, Q)
    h = c1 - t
    assert ideal_equal(eliminate_linear(P, "xi", h), eliminate_linear(Q, "xi", h))


def test_invariants_stable_under_equal_generators():
    from chowforge.catalog import derive_thm_1_3, thm_1_3_presentation

    direct = thm_1_3_presentation(4, 1)
    derived = derive_thm_1_3(4, 1).presentation
    doubled = Presentation(direct.ring, list(direct.relations) * 2)
    negated = Presentation(direct.ring, [-g for g in direct.relations])
    for d in range(5):
        base = quotient_graded_invariants(direct, d)
        for other in (derived, doubled, negated):
            assert quotient_graded_invariants(other, d) == base


# ----------------------------------------------------------------------------
# the projective bundle route against the degree-matrix oracle
# ----------------------------------------------------------------------------

WEIGHTED = ring_make([("x", 1), ("y", 1), ("z", 2), ("w", 2)])


def oracle_member(P, f):
    """Membership decided on the Macaulay matrix of every degree-d
    multiple of every relation, built in `macaulay` from the products m*g
    and solved in its row lattice, so it shares no code with the lattice
    builder of `grideal`."""
    if f.is_zero():
        return True
    d = f.weighted_degree()
    cols = monomial_basis(P.ring, d)
    return solve_in_row_lattice(macaulay(P, d), [f.terms.get(c, 0) for c in cols]) is not None


def _random_combination(rng, P, d):
    f = Polynomial.zero(P.ring)
    for g in P.relations:
        e = g.weighted_degree()
        if e <= d:
            f = f + _random_homog(rng, P.ring, d - e, lo=-3, hi=3, density=0.6) * g
    return f


@st.composite
def _monic_ideals(draw):
    """A homogeneous ideal over WEIGHTED with one forced monic relation
    sign*v^k + (terms of v-degree < k), placed among 0-3 other
    generators, and a random seed for the members and non-members."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    v = draw(st.sampled_from(WEIGHTED.names))
    k = draw(st.integers(1, 3))
    sign = draw(st.sampled_from((1, -1)))
    D = k * WEIGHTED.weight_of(v)
    x = WEIGHTED.index(v)
    tail = _random_homog(rng, WEIGHTED, D, lo=-3, hi=3, density=0.5)
    tail = Polynomial(WEIGHTED, {e: c for e, c in tail.terms.items() if e[x] < k})
    g = sign * Polynomial.var(WEIGHTED, v) ** k + tail
    others = []
    for _ in range(draw(st.integers(0, 3))):
        h = _random_homog(rng, WEIGHTED, rng.randint(0, 3), lo=-6, hi=6, density=0.5)
        if h.terms:
            others.append(h)
    others.insert(draw(st.integers(0, len(others))), g)
    return Presentation(WEIGHTED, others), rng


@settings(max_examples=300, deadline=None)
@given(_monic_ideals())
def test_bundle_route_matches_degree_matrix_oracle(case):
    P, rng = case
    assert grideal._bundle(P).gi is not None
    for d in range(5):
        for f in (_random_combination(rng, P, d), _random_homog(rng, P.ring, d)):
            assert (contains(P, f) is not None) == oracle_member(P, f)


def _lemma34_ideal(j):
    """The ideal of the two torus pushforward classes over Z[xi, t1, t2]
    and the product of the 2j+1 coordinate-hyperplane classes."""
    R = ring_make([("xi", 1), ("t1", 1), ("t2", 1)])
    xi, t1, t2 = (V(R, n) for n in R.names)
    s = t1 + t2
    g1 = 2 * (2 * j - 1) * xi - 2 * j * (2 * j - 1) * s
    g2 = xi ** 2 - s * xi - 2 * j * (2 * j - 2) * (t1 * t2)
    ptilde = Polynomial.const(R, 1)
    for i in range(2 * j + 1):
        ptilde = ptilde * (xi - i * t1 - (2 * j - i) * t2)
    return Presentation(R, [g1, g2]), ptilde


@pytest.mark.parametrize("j", range(1, 9))
def test_lemma34_membership_matches_oracle(j):
    P, ptilde = _lemma34_ideal(j)
    t1 = V(P.ring, "t1")
    for f in (ptilde, ptilde + t1 ** (2 * j + 1), 2 * ptilde, t1 ** (2 * j + 1)):
        assert (contains(P, f) is not None) == oracle_member(P, f)
    assert contains(P, ptilde) is not None


@pytest.mark.parametrize("a, b", list(itertools.product(range(1, 5), repeat=2)))
def test_remark37_membership_matches_oracle(a, b):
    from chowforge.catalog import _six_generator_ideal, classes_M, remark_37_class

    P = _six_generator_ideal(a, b)
    _, _, m2 = classes_M(a, b)
    c1, c2 = V(P.ring, "c1"), V(P.ring, "c2")
    for f in (m2, m2 - remark_37_class(a, b), c2, c1 ** 2, 2 * c1 * c2):
        assert (contains(P, f) is not None) == oracle_member(P, f)


def test_bundle_route_is_taken(monkeypatch):
    from chowforge.catalog import remark_37_reduction

    built = grideal._lattice

    def refuse_trivial(B, d):
        if B.gi is None:
            raise AssertionError("membership built the Macaulay matrix")
        return built(B, d)

    monkeypatch.setattr(grideal, "_lattice", refuse_trivial)
    P, ptilde = _lemma34_ideal(20)
    assert contains(P, ptilde) is not None
    assert remark_37_reduction(8, 8) is not None


@st.composite
def _ideals_without_monic(draw):
    """1-4 homogeneous generators over WEIGHTED, each 2 or 3 times a
    random form, so that no coefficient is +-1 and no relation is monic,
    and a random seed."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(1, 4))
    gens = []
    while len(gens) < n:
        h = _random_homog(rng, WEIGHTED, rng.randint(1, 3), lo=-4, hi=4, density=0.5)
        if h.terms:
            gens.append(rng.choice((2, 3)) * h)
    return Presentation(WEIGHTED, gens), rng


def _with_duplicates(P, rng):
    """P with 1-3 copies of its generators, each the generator or its
    negation, inserted at random places."""
    gens = list(P.relations)
    for _ in range(rng.randint(1, 3)):
        g = rng.choice(gens)
        gens.insert(rng.randint(0, len(gens)), rng.choice((1, -1)) * g)
    return Presentation(P.ring, gens)


def _refuse(*args):
    raise AssertionError("a unit member reached the piece route")


@settings(max_examples=150, deadline=None)
@given(st.one_of(_monic_ideals(), _ideals_without_monic()))
def test_unit_route_matches_oracle(case):
    P, rng = case
    P = _with_duplicates(P, rng)
    gens = P.relations
    # each g_i and -g_i, against the first j with g_j = +-g_i
    expected = {}
    for g in gens:
        j, s = next((j, s) for j, h in enumerate(gens) for s in (1, -1) if g == s * h)
        expected[g], expected[-g] = (j, s), (j, -s)
    clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_bundle", "_lattice", "solve_in_row_lattice"):
            mp.setattr(grideal, name, _refuse)
        certs = {f: contains(P, f) for f in expected}
    for f, (j, s) in expected.items():
        nonzero = [(i, h) for i, h in enumerate(certs[f].cofactors) if h]
        assert nonzero == [(j, Polynomial.const(P.ring, s))]
        assert oracle_member(P, f)

    # a near miss that is no unit multiple of a relation is solved on its piece
    solved = []
    solve = grideal.solve_in_row_lattice

    def counting(A, v):
        solved.append(v)
        return solve(A, v)

    x = V(P.ring, rng.choice(P.ring.names))
    near = [f for g in gens for f in (2 * g, x * g)]
    near += [
        g + h
        for i, g in enumerate(gens)
        for h in gens[i + 1 :]
        if h.weighted_degree() == g.weighted_degree() and g != -h
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grideal, "solve_in_row_lattice", counting)
        for f in near:
            unit = any(f == s * g for g in gens for s in (1, -1))
            before = len(solved)
            assert (contains(P, f) is not None) == oracle_member(P, f)
            assert len(solved) == before + (not unit)


@settings(max_examples=100, deadline=None)
@given(_ideals_without_monic())
def test_trivial_bundle_divides_by_nothing(case):
    # the trivial bundle is the case k = 1 with no relation g: a member is
    # its own remainder, and the spans are the relations as they are
    P, rng = case
    B = grideal._bundle(P)
    assert (B.gi, B.x, B.k) == (None, None, 1)
    f = _random_homog(rng, P.ring, rng.randint(1, 4))
    q, r = grideal._divide(f.terms, B)
    assert (q, r) == ({}, f.terms) and r is f.terms
    one = (0,) * len(P.ring)
    top = max(g.weighted_degree() for g in P.relations)
    spans = [(hi, shift, e, q) for hi, shift, e, _, q in B.spans(top)]
    assert spans == [(hi, one, g.weighted_degree(), {}) for hi, g in enumerate(P.relations)]
    assert all(s[3] is g.terms for s, g in zip(B.spans(top), P.relations))


class TestBundleEdges:
    def test_unit_ideal_is_never_monic(self):
        one = Polynomial.const(RING, 1)
        t, c1 = V(RING, "t"), V(RING, "c1")
        unit = Presentation(RING, [one])
        assert grideal._bundle(unit).gi is None
        assert contains(unit, t * c1) is not None
        P = Presentation(RING, [one, t ** 2 - c1 * t])
        assert grideal._bundle(P).gi == 1
        for f in (one, t, V(RING, "c2"), 3 * t ** 2 * c1):
            cert = contains(P, f)
            assert cert is not None and oracle_member(P, f)

    def test_relation_monic_in_a_weight_two_variable(self):
        R = ring_make([("c1", 1), ("c2", 2)])
        c1, c2 = V(R, "c1"), V(R, "c2")
        # c2 - c1^2 is monic in c1 (k = 2) and in c2 (k = 1): the least k wins
        for g, var in ((c2 - c1 ** 2, "c2"), (c2 - 3 * c1 ** 2, "c2")):
            P = Presentation(R, [g, 2 * c1])
            assert grideal._bundle(P).x == R.index(var)
            for f in (2 * c2, c2, c1 * c2, 2 * c1 * c2 + c1 ** 3, c2 ** 2):
                assert (contains(P, f) is not None) == oracle_member(P, f)
            assert contains(P, 2 * c2) is not None
            assert contains(P, c2) is None

    @pytest.mark.parametrize("g, n", [(8, 3), (4, 2)])
    def test_cor110_bundle_is_the_linear_relation_in_t(self, g, n):
        # the root relation (-t + 2u - c1, or -t + 2u for even n) is monic of
        # degree 1 in t, so it wins over the earlier relations monic in t^2
        P = catalog.cor_1_10_presentation(g, n)
        B = grideal._bundle(P)
        assert (B.gi, P.ring.names[B.x], B.k) == (len(P.relations) - 1, "t", 1)
        assert B.sign == -1 and B.tail
        assert any(r.terms.get((2, 0, 0, 0)) == 1 for r in P.relations[: B.gi])

    def test_member_below_the_monic_degree(self):
        t, c1 = V(RING, "t"), V(RING, "c1")
        P = Presentation(RING, [t ** 2 - c1 * t, 2 * t])
        cert = contains(P, 4 * t)
        assert cert is not None
        assert cert.cofactors == (Polynomial.zero(RING), Polynomial.const(RING, 2))
        assert contains(P, c1) is None
        assert contains(P, t) is None

    def test_monic_relation_alone(self):
        t, c1 = V(RING, "t"), V(RING, "c1")
        g = t ** 2 - c1 * t + V(RING, "c2")
        P = Presentation(RING, [g])
        cert = contains(P, (t + 3 * c1) * g)
        assert cert.cofactors == (t + 3 * c1,)
        assert contains(P, t ** 2) is None


# ----------------------------------------------------------------------------
# members given as products against contains of the expanded product
# ----------------------------------------------------------------------------


def _expanded(ring, factors):
    f = Polynomial.const(ring, 1)
    for L in factors:
        f = f * L
    return f


@st.composite
def _product_cases(draw):
    """A random ring of 2-4 variables of weight 1 or 2; a presentation
    over it with one monic relation sign*v^k + (terms of v-degree < k),
    k = 1..3, among 0-2 others, or with no monic relation (each generator
    2 or 3 times a random form); and 0-4 homogeneous factors of total
    degree at most 8, each a random form, a relation, a variable or,
    rarely, zero.  Half the time +-1 times their product joins the
    relations, with copies of the relations."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    names = ("x", "y", "z", "w")[: draw(st.integers(2, 4))]
    ring = ring_make([(name, draw(st.sampled_from((1, 2)))) for name in names])
    gens = []
    for _ in range(draw(st.integers(0, 2))):
        h = _random_homog(rng, ring, rng.randint(1, 2), lo=-4, hi=4, density=0.5)
        if h.terms:
            gens.append(h)
    if draw(st.booleans()):
        v = draw(st.sampled_from(names))
        k = draw(st.integers(1, 3))
        x = ring.index(v)
        tail = _random_homog(rng, ring, k * ring.weight_of(v), lo=-3, hi=3, density=0.5)
        tail = Polynomial(ring, {e: c for e, c in tail.terms.items() if e[x] < k})
        g = draw(st.sampled_from((1, -1))) * Polynomial.var(ring, v) ** k + tail
        gens.insert(draw(st.integers(0, len(gens))), g)
    else:
        gens = [rng.choice((2, 3)) * h for h in gens] or [2 * Polynomial.var(ring, names[0])]
    P = Presentation(ring, gens)
    factors = []
    for _ in range(rng.choice((0, 1, 2, 2, 3, 3, 4, 4))):
        kind = rng.choice(("form", "form", "form", "relation", "variable", "variable") * 2 + ("zero",))
        if kind == "form":  # a random form that comes out zero is replaced
            L = _random_homog(rng, ring, rng.randint(0, 2), lo=-3, hi=3, density=0.6)
            L = L or Polynomial.var(ring, rng.choice(names))
        elif kind == "relation":
            L = rng.choice(P.relations)
        elif kind == "variable":
            L = Polynomial.var(ring, rng.choice(names))
        else:
            L = Polynomial.zero(ring)
        if sum(M.weighted_degree() for M in factors + [L] if M.terms) <= 8:
            factors.append(L)
    f = _expanded(ring, factors)
    if f and draw(st.booleans()):
        # +-1 times the product as a relation, among copies of the others, so
        # that contains answers the expanded product by that relation alone
        gens = list(P.relations)
        gens.insert(rng.randint(0, len(gens)), rng.choice((1, -1)) * f)
        P = _with_duplicates(Presentation(ring, gens), rng)
    return P, factors


@settings(max_examples=300, deadline=None)
@given(_product_cases())
def test_product_membership_matches_expanded_contains(case):
    P, factors = case
    cert = grideal.contains(P, *factors)
    f = _expanded(P.ring, factors)
    expected = contains(Presentation(P.ring, P.relations), f)
    assert (cert is None) == (expected is None)
    if cert is not None:
        assert cert.member == f
        assert cert.cofactors == expected.cofactors
        assert str(cert) == str(expected)
        assert oracle_member(P, f)


class TestContainsProduct:
    def setup_method(self):
        t, c1, c2 = V(RING, "t"), V(RING, "c1"), V(RING, "c2")
        self.P = Presentation(RING, [t ** 2 - c1 * t - 3 * c2, 2 * t])
        self.factors = [t - c1, t + 2 * c1, 2 * t, c2]

    def test_chain_takes_no_expansion(self, monkeypatch):
        # degree 5 is the degree of no relation, so the product goes down the
        # chain; the member and the cofactors are expanded only when read
        def refuse(ring, factors):
            raise AssertionError("the product was multiplied out")

        expand = grideal._expand
        monkeypatch.setattr(grideal, "_expand", refuse)
        cert = grideal.contains(self.P, *self.factors)
        assert cert is not None and cert.factors == tuple(self.factors)
        monkeypatch.setattr(grideal, "_expand", expand)
        f = _expanded(RING, self.factors)
        assert cert.member == f
        assert cert.cofactors == contains(self.P, f).cofactors
        assert cert.cofactors is cert.cofactors

    def test_trivial_bundle_is_contains_on_the_product(self):
        t, c1 = V(RING, "t"), V(RING, "c1")
        P = Presentation(RING, [2 * t, 3 * c1])
        factors = [t + c1, 3 * c1, 2 * t - c1]
        cert = grideal.contains(P, *factors)
        assert cert.remainder.member == _expanded(RING, factors)
        assert cert.cofactors == contains(P, _expanded(RING, factors)).cofactors

    def test_refusal(self):
        t, c1 = V(RING, "t"), V(RING, "c1")
        assert grideal.contains(self.P, t - c1, c1, c1) is None
        assert contains(self.P, (t - c1) * c1 * c1) is None

    def test_factor_from_another_ring(self):
        other = ring_make([("t", 1), ("c1", 1)])
        with pytest.raises(ValueError, match="ring mismatch"):
            grideal.contains(self.P, V(RING, "t"), V(other, "c1"))
        with pytest.raises(ValueError, match="ring mismatch"):
            contains(self.P, V(other, "c1"))

    def test_inhomogeneous_factor(self):
        t, c2 = V(RING, "t"), V(RING, "c2")
        with pytest.raises(NotHomogeneousError):
            grideal.contains(self.P, t, t + c2)
        with pytest.raises(NotHomogeneousError):
            contains(self.P, t * (t + c2))

    def test_cofactors_are_re_verified_when_read(self, monkeypatch):
        # a wrong quotient of the member by g must not reach the cofactors
        cert = grideal.contains(self.P, *self.factors)
        divide = grideal._divide

        def off_by_one(terms, B):
            q, r = divide(terms, B)
            for e in q:  # the first term, when there is one, is off by one
                return {**q, e: q[e] + 1}, r
            return q, r

        monkeypatch.setattr(grideal, "_divide", off_by_one)
        with pytest.raises(AssertionError, match="re-verification"):
            cert.cofactors
        # and each step of the chain is checked as it is made
        with pytest.raises(AssertionError, match="division step"):
            grideal.contains(self.P, *self.factors)

    def test_zero_and_empty_products(self):
        t = V(RING, "t")
        for factors in ([t, Polynomial.zero(RING), t], [t, Polynomial.zero(RING), t, t]):
            # a zero factor makes a zero member, in any degree
            zero = grideal.contains(self.P, *factors)
            assert zero.member.is_zero() and not any(zero.cofactors)
        one = Polynomial.const(RING, 1)
        assert grideal.contains(self.P) is None
        unit = Presentation(RING, [one])
        assert grideal.contains(unit).cofactors == (one,)

    def test_one_certificate_per_membership(self, monkeypatch):
        # every route builds one re-verified Certificate for a member, read
        # or not, and none for a refusal
        built = []
        init = Certificate.__init__

        def counting(cert, *args):
            built.append(cert)
            init(cert, *args)

        monkeypatch.setattr(Certificate, "__init__", counting)
        t, c1, c2 = V(RING, "t"), V(RING, "c1"), V(RING, "c2")
        g = self.P.relations[0]
        trivial = Presentation(RING, [2 * t, 3 * c1])
        members = [
            (self.P, [-g]),  # unit
            (self.P, [Polynomial.zero(RING)]),  # zero
            (self.P, [t, Polynomial.zero(RING), c1, c1]),  # zero factor
            (self.P, [(t + c1) * g + 2 * t * c2]),  # one factor, solved on its piece
            (self.P, self.factors),  # product chain
            (Presentation(RING, [Polynomial.const(RING, 1)]), []),  # empty product, unit
            (Presentation(RING, [Polynomial.const(RING, 2), Polynomial.const(RING, 3)]), []),
            (trivial, [2 * t * c2 + 3 * c1 ** 3]),  # trivial bundle, one factor
            (trivial, [t + c1, 3 * c1, 2 * t - c1]),  # trivial bundle, product
        ]
        for P, factors in members:
            before = len(built)
            cert = grideal.contains(P, *factors)
            assert cert is not None and len(built) == before + 1
            assert cert.member == _expanded(RING, factors) and len(cert.cofactors) == len(P.relations)
            assert len(built) == before + 1
        refusals = [
            (self.P, [t - c1, c1, c1]),
            (self.P, [c1 ** 3]),
            (self.P, []),
            (trivial, [c2]),
            (trivial, [c1, c2]),
        ]
        for P, factors in refusals:
            assert grideal.contains(P, *factors) is None
        assert len(built) == len(members)

    def test_reading_a_product_certificate_builds_no_bundle(self, monkeypatch):
        t, c1 = V(RING, "t"), V(RING, "c1")
        trivial = Presentation(RING, [2 * t, 3 * c1])
        cases = [(self.P, self.factors), (trivial, [t + c1, 3 * c1, 2 * t - c1])]
        certs = [grideal.contains(P, *factors) for P, factors in cases]
        expected = [contains(P, _expanded(RING, factors)) for P, factors in cases]
        built = []
        for cls in (Presentation, grideal._Bundle):
            monkeypatch.setattr(
                cls, "__init__", lambda obj, *args, init=cls.__init__: built.append(obj) or init(obj, *args)
            )
        for cert, want in zip(certs, expected):
            assert isinstance(cert, grideal._ProductCertificate)
            assert cert.member == want.member and cert.cofactors == want.cofactors
        assert built == []


# ----------------------------------------------------------------------------
# graded invariants over the bundle against the Macaulay matrix
# ----------------------------------------------------------------------------

GRADED = ring_make([("x", 1), ("y", 1), ("z", 2)])


@st.composite
def _graded_monic_ideals(draw):
    """A homogeneous ideal over GRADED with a forced monic relation
    g = sign*v^k + (terms of v-degree < k), placed among 0-2 random
    relations of degree 0-2, and, when drawn, a unit constant, a
    duplicate of a relation and a multiple of g."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    v = draw(st.sampled_from(GRADED.names))
    k = draw(st.integers(1, 3))
    sign = draw(st.sampled_from((1, -1)))
    x = GRADED.index(v)
    tail = _random_homog(rng, GRADED, k * GRADED.weight_of(v), lo=-3, hi=3, density=0.5)
    tail = Polynomial(GRADED, {e: c for e, c in tail.terms.items() if e[x] < k})
    g = sign * Polynomial.var(GRADED, v) ** k + tail
    rels = []
    for _ in range(draw(st.integers(0, 2))):
        h = _random_homog(rng, GRADED, rng.randint(0, 2), lo=-6, hi=6, density=0.5)
        if h.terms:
            rels.append(h)
    rels.insert(draw(st.integers(0, len(rels))), g)
    if draw(st.integers(0, 3)) == 0:
        rels.insert(draw(st.integers(0, len(rels))), Polynomial.const(GRADED, sign))
    if draw(st.booleans()):
        rels.append(rels[draw(st.integers(0, len(rels) - 1))])
    if draw(st.booleans()):
        rels.append(draw(st.sampled_from((2, -3, 6))) * g)
    return Presentation(GRADED, rels), k * GRADED.weight_of(v)


@settings(max_examples=200, deadline=None)
@given(_graded_monic_ideals())
def test_graded_invariants_match_macaulay_oracle(case):
    P, D = case
    assert grideal._bundle(P).gi is not None
    top = D + max(g.weighted_degree() for g in P.relations)
    for d in range(top + 2):
        assert quotient_graded_invariants(P, d) == dense_snf(macaulay(P, d)).invariants


@pytest.mark.parametrize(
    "name, params",
    [
        ("thm_1_3_presentation", (2, 1)),
        ("thm_1_3_presentation", (8, 3)),
        ("thm_1_3_presentation", (24, 1)),
        ("cor_1_10_presentation", (8, 3)),
        ("thm_1_2_presentation", (3, 4)),
    ],
)
def test_catalog_graded_invariants_match_macaulay_oracle(name, params):
    # the production snf stands in for the dense one past degree 8, where
    # the cor1.10 and thm1.2 Macaulay matrices reach 1456x252
    P = getattr(catalog, name)(*params)
    assert grideal._bundle(P).gi is not None
    for d in range(13):
        M = macaulay(P, d)
        expected = dense_snf(M).invariants if d <= 8 else snf(M)
        assert quotient_graded_invariants(P, d) == expected


def test_graded_invariants_reach_the_traced_names(monkeypatch):
    """`quotient_graded_invariants` looks up `ideal_degree_matrix` and
    `snf` as attributes of `grideal`, so that a wrapper installed on those
    names, as a tracer does, sees every call."""
    calls = []

    def counting(name):
        original = getattr(grideal, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(grideal, name, wrapper)

    counting("ideal_degree_matrix")
    counting("snf")
    P = catalog.thm_1_3_presentation(8, 3)
    assert quotient_graded_invariants(P, 4) == AbelianInvariants(0, (2, 2, 48))
    assert calls == ["ideal_degree_matrix", "snf"]


@pytest.mark.parametrize(
    "make",
    [
        lambda: catalog.thm_1_3_presentation(8, 3),
        lambda: catalog.thm_1_9_presentation(21, 5),
        lambda: catalog.cor_1_10_presentation(8, 3),
        lambda: _lemma34_ideal(3)[0],
    ],
    ids=["thm1.3", "thm1.9", "cor1.10", "lemma34"],
)
def test_graded_invariants_read_the_kept_hermite_form(make, monkeypatch):
    """Graded invariants are read from the echelon series, not from the
    pieces that membership keeps: once membership has built a piece of
    each degree, no piece is built and no Hermite form computed for them,
    yet `snf` is still reached through `grideal`.  The answer is that of
    a fresh copy and of the dense oracle on the Macaulay matrix, and a
    fresh copy keeps no piece."""
    P = make()
    degrees = range(7)
    fresh = Presentation(P.ring, P.relations)
    cold = [quotient_graded_invariants(fresh, d) for d in degrees]
    assert cold == [dense_snf(macaulay(P, d)).invariants for d in degrees]
    assert grideal._bundle(fresh).pieces == {}

    for d in degrees:
        contains(P, Polynomial(P.ring, {monomial_basis(P.ring, d)[0]: 1}))
    assert sorted(grideal._bundle(P).pieces) == list(degrees)

    from chowforge import zlinalg

    def rebuilt(*args):
        raise AssertionError("the kept piece was built or eliminated again")

    monkeypatch.setattr(grideal, "_lattice", rebuilt)
    monkeypatch.setattr(zlinalg, "hnf", rebuilt)
    calls = []
    original = grideal.snf
    monkeypatch.setattr(grideal, "snf", lambda A: calls.append(A) or original(A))
    assert [quotient_graded_invariants(P, d) for d in degrees] == cold
    assert len(calls) == len(degrees)


@pytest.mark.parametrize(
    "make",
    [
        lambda: catalog.thm_1_3_presentation(8, 3),
        lambda: catalog.thm_1_9_presentation(21, 5),
        lambda: _lemma34_ideal(3)[0],
    ],
    ids=["thm1.3", "thm1.9", "lemma34"],
)
def test_degree_matrix_spans_the_kept_piece(make):
    """`ideal_degree_matrix` returns the same matrix whether or not
    membership has built and kept the piece of that degree, and the two
    span one lattice; a fresh copy asked for it keeps no piece."""
    P = make()
    fresh = Presentation(P.ring, P.relations)
    for d in range(6):
        contains(P, Polynomial(P.ring, {monomial_basis(P.ring, d)[0]: 1}))
        A = ideal_degree_matrix(P, d)
        assert A == ideal_degree_matrix(fresh, d)
        assert hermite_rows(A) == hermite_rows(P._bundle.pieces[d].A)
    assert fresh._bundle.pieces == {}


@st.composite
def _graded_trivial_ideals(draw):
    """Presentations over GRADED with no monic relation, so that the bundle
    is trivial and the series shifts by every variable: up to three random
    relations of degree 0 to 3 whose pure powers have coefficients other
    than +-1, sometimes the unit relation 1, sometimes a relation twice."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rels = []
    for _ in range(draw(st.integers(0, 3))):
        h = _random_homog(rng, GRADED, rng.randint(0, 3), lo=-4, hi=4, density=0.5)
        pure = len(GRADED) - 1  # zeros in the exponents of a pure power
        terms = {e: 2 * c if c in (1, -1) and e.count(0) == pure else c for e, c in h.terms.items()}
        if terms:
            rels.append(Polynomial(GRADED, terms))
    if draw(st.integers(0, 3)) == 0:
        rels.insert(draw(st.integers(0, len(rels))), Polynomial.const(GRADED, 1))
    if rels and draw(st.booleans()):
        rels.append(rels[draw(st.integers(0, len(rels) - 1))])
    return Presentation(GRADED, rels)


@settings(max_examples=150, deadline=None)
@given(_graded_trivial_ideals())
def test_graded_invariants_without_a_monic_relation_match_macaulay_oracle(P):
    assert grideal._bundle(P).gi is None
    for d in range(7):
        assert quotient_graded_invariants(P, d) == dense_snf(macaulay(P, d)).invariants


@pytest.mark.parametrize("degrees", [(6, 2, 9, 3, 0, 7), (4, 4, 1, 1, 5, 0, 0, 8)])
@pytest.mark.parametrize(
    "make",
    [lambda: catalog.thm_1_9_presentation(9, 3), lambda: catalog.thm_1_3_presentation(8, 3)],
    ids=["thm1.9", "thm1.3"],
)
def test_graded_invariants_in_any_order(make, degrees):
    """Asked below the degrees it keeps, the series starts again from 0;
    asked above them, it resumes.  So the order of the questions, and
    asking one twice, changes no answer."""
    P = make()
    got = [quotient_graded_invariants(P, d) for d in degrees]
    assert got == [snf(macaulay(P, d)) for d in degrees]


@pytest.mark.parametrize(
    "make",
    [
        lambda: catalog.thm_1_9_presentation(21, 5),
        lambda: catalog.thm_1_3_presentation(8, 3),
        lambda: catalog.cor_1_10_presentation(8, 3),
        lambda: catalog.thm_1_2_presentation(2, 3),
        lambda: _lemma34_ideal(3)[0],
    ],
    ids=["thm1.9", "thm1.3", "cor1.10", "thm1.2", "lemma34"],
)
def test_graded_invariants_keep_only_the_last_degrees(make, monkeypatch):
    """Graded invariants build no piece and compute no Hermite form, and
    the bundle keeps only the last w_max degrees of the series, w_max the
    largest weight of a variable other than the bundle's x."""
    from chowforge import zlinalg

    def refuse(*args):
        raise AssertionError("graded invariants built a piece or a Hermite form")

    monkeypatch.setattr(grideal, "_lattice", refuse)
    monkeypatch.setattr(zlinalg, "hnf", refuse)
    P = make()
    B = grideal._bundle(P)
    w_max = max(w for v, w in enumerate(P.ring.weights) if v != B.x)
    for d in range(12):
        quotient_graded_invariants(P, d)
        assert sorted(B.series) == list(range(max(0, d - w_max + 1), d + 1))
    assert B.pieces == {}


def test_graded_invariants_deep_in_one_variable():
    # the series is built one degree at a time, with no recursion
    R = ring_make([("t", 1)])
    P = Presentation(R, [2 * V(R, "t")])
    assert quotient_graded_invariants(P, 1500) == AbelianInvariants(0, (2,))
    assert sorted(P._bundle.series) == [1500]
