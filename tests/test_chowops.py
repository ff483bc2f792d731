from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from chowforge.chowops import (
    ChernRootSet,
    SymmetricConversionError,
    adjoin_generator,
    chern_class,
    proj_bundle_relation,
    pullback_gl2_from_pgl2,
    root_gerbe_adjoin,
    roots_product,
    sym_dual_roots,
    to_invariants,
    torus_ring,
    torsor_quotient,
)
from chowforge.grideal import Presentation, contains, eliminate_linear, ideal_equal
from chowforge.intpoly import Polynomial, ring_make


def V(ring, name):
    return Polynomial.var(ring, name)


def degree_in(p, name):
    """Largest exponent of one variable in p (0 for the zero polynomial)."""
    i = p.ring.index(name)
    return max((exps[i] for exps in p.terms), default=0)


class TestSymDualRoots:
    def test_dual_standard(self):
        rs = sym_dual_roots(1)
        R = rs.ring
        t1, t2 = V(R, "t1"), V(R, "t2")
        assert set(rs.roots) == {-t1, -t2}
        assert chern_class(rs, 1).canonical() == "-c1"
        assert chern_class(rs, 2).canonical() == "c2"

    def test_sym_square_weights(self):
        rs = sym_dual_roots(2)
        R = rs.ring
        t1, t2 = V(R, "t1"), V(R, "t2")
        assert set(rs.roots) == {-2 * t1, -t1 - t2, -2 * t2}

    def test_character_twist(self):
        # roots -t1 - t, -t2 - t
        rs = sym_dual_roots(1, det_twist=0, char_twist=-1)
        R = rs.ring
        t, t1, t2 = (V(R, n) for n in ("t", "t1", "t2"))
        assert set(rs.roots) == {-t1 - t, -t2 - t}
        c1 = chern_class(rs, 1)
        c2 = chern_class(rs, 2)
        T = c1.ring
        tt, cc1, cc2 = (V(T, n) for n in ("t", "c1", "c2"))
        assert c1 == -cc1 - 2 * tt
        assert c2 == cc2 + tt * cc1 + tt ** 2

    def test_degree_validation(self):
        R = torus_ring()
        with pytest.raises(ValueError, match="degree 1"):
            ChernRootSet(R, (V(R, "t1") ** 2,))

    def test_ring_validation(self):
        other = ring_make([("t1", 1)])
        with pytest.raises(ValueError, match="wrong ring"):
            ChernRootSet(torus_ring(), (V(other, "t1"),))

    def test_a_multiset(self):
        R = torus_ring()
        t, t1 = V(R, "t"), V(R, "t1")
        a = ChernRootSet(R, (t, t1 - t, t))
        b = ChernRootSet(R, (t1 - t, t, t))
        assert a == b and hash(a) == hash(b) and len(a) == 3
        assert a.roots == b.roots
        assert a != ChernRootSet(R, (t, t1 - t))


class TestProjBundleRelation:
    def test_dual_standard_relation(self):
        p = proj_bundle_relation(sym_dual_roots(1), "xi1")
        R = p.ring
        xi, c1, c2 = V(R, "xi1"), V(R, "c1"), V(R, "c2")
        assert p == xi ** 2 - c1 * xi + c2

    def test_sym_square_relation(self):
        p = proj_bundle_relation(sym_dual_roots(2), "xi2")
        R = p.ring
        xi, c1, c2 = V(R, "xi2"), V(R, "c1"), V(R, "c2")
        assert p == xi ** 3 - 3 * c1 * xi ** 2 + (2 * c1 ** 2 + 4 * c2) * xi - 4 * c1 * c2
        # cross-check against the raw root expansion
        raw = roots_product(sym_dual_roots(2), "xi2")
        T = raw.ring
        images = {n: V(T, n) for n in T.names}
        back = p.substitute(
            {
                "t": V(T, "t"),
                "c1": V(T, "t1") + V(T, "t2"),
                "c2": V(T, "t1") * V(T, "t2"),
                "xi2": V(T, "xi2"),
            },
            T,
        )
        assert back == raw

    def test_empty_roots(self):
        p = proj_bundle_relation(ChernRootSet(torus_ring(), ()), "xi1")
        assert p == Polynomial.const(p.ring, 1)

    def test_monic_homogeneous(self):
        for r in range(0, 9):
            for dt in (-1, 0, 2):
                for ct in (-1, 0, 1):
                    rs = sym_dual_roots(r, dt, ct)
                    p = proj_bundle_relation(rs, "xi1")
                    if r >= 0:
                        assert degree_in(p, "xi1") == r + 1
                        assert p.weighted_degree() == r + 1
                        lead = [0] * len(p.ring)
                        lead[p.ring.index("xi1")] = r + 1
                        assert p.coefficient(tuple(lead)) == 1

    def test_fresh_name_required(self):
        with pytest.raises(ValueError, match="fresh"):
            roots_product(sym_dual_roots(1), "t1")


def test_symmetric_conversion_exactness_sweep():
    # conversion leaves zero remainder for every root set in range
    for r in range(0, 13):
        for dt in range(-3, 4):
            for ct in range(-3, 4):
                rs = sym_dual_roots(r, dt, ct)
                p = proj_bundle_relation(rs, "xi1")
                assert p.weighted_degree() == r + 1


def test_symmetric_conversion_rejects_asymmetry():
    R = torus_ring()
    with pytest.raises(SymmetricConversionError):
        to_invariants(V(R, "t1"))


INV = ring_make([("t", 1), ("c1", 1), ("c2", 2), ("xi1", 1)])
ROOTS = ring_make([("t", 1), ("xi1", 1)]).with_var("t1", 1).with_var("t2", 1)
_inv_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 4), st.integers(-9, 9), max_size=6
).map(lambda d: Polynomial(INV, d))


@settings(max_examples=200, deadline=None)
@given(_inv_polys)
def test_symmetric_conversion_inverts_the_root_expansion(g):
    """Expanding g in the Chern roots (c1 -> t1 + t2, c2 -> t1*t2) and
    rewriting the result in c1, c2 gives g back; a term that is not
    symmetric in t1, t2 makes the rewrite fail."""
    t1, t2 = V(ROOTS, "t1"), V(ROOTS, "t2")
    images = {"t": V(ROOTS, "t"), "xi1": V(ROOTS, "xi1"), "c1": t1 + t2, "c2": t1 * t2}
    expanded = g.substitute(images, ROOTS)
    assert to_invariants(expanded) == g
    assert to_invariants(expanded, INV) == g
    with pytest.raises(SymmetricConversionError):
        to_invariants(expanded + t1 * V(ROOTS, "xi1"))


class TestAdjoinGenerator:
    def test_free_extension(self):
        R = ring_make([("c1", 1), ("c2", 2)])
        P = Presentation(R, [2 * V(R, "c1")])
        Q = adjoin_generator(P, "t", 1, [])
        assert Q.ring.names == ("t", "c1", "c2")
        assert [p.canonical() for p in Q.relations] == ["2*c1"]

    def test_projective_line_ring(self):
        R = ring_make([("c1", 1), ("c2", 2)])
        P = Presentation(R, [])
        ext = R.with_var("xi1", 1)
        xi, c1, c2 = V(ext, "xi1"), V(ext, "c1"), V(ext, "c2")
        Q = adjoin_generator(P, "xi1", 1, [xi ** 2 - c1 * xi + c2])
        assert Q.ring == ext and len(Q.relations) == 1

    def test_name_collision(self):
        R = ring_make([("t", 1)])
        with pytest.raises(ValueError, match="collision"):
            adjoin_generator(Presentation(R, []), "t", 1, [])


class TestMapFaults:
    """adjoin_generator and eliminate_linear check their ring map once for
    all relations; a faulty map still fails with the message of
    Polynomial.substitute.  Their maps are sound by construction, so the
    faults are put in by hand: a variable built in another ring or of
    another weight, or a relation with a variable the map does not know."""

    R = ring_make([("t", 1), ("c1", 1), ("c2", 2), ("xi", 1)])

    def presentation(self):
        t, c1, c2 = V(self.R, "t"), V(self.R, "c1"), V(self.R, "c2")
        return Presentation(self.R, [2 * t, c1 ** 2 - c2 + t * c1])

    def run_both(self, P):
        with pytest.raises(ValueError) as adjoined:
            adjoin_generator(P, "u", 1, [])
        with pytest.raises(ValueError) as eliminated:
            eliminate_linear(P, "xi", Polynomial.zero(P.ring.without("xi")))
        return str(adjoined.value), str(eliminated.value)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("ring", "image of c1 lives in the wrong ring"),
            ("degree", "image of c1 has degree 2, expected 1"),
        ],
    )
    def test_faulty_image(self, monkeypatch, fault, message):
        var = Polynomial.var
        other = ring_make([("c1", 1)])

        def faulty(ring, name):
            if name != "c1":
                return var(ring, name)
            return var(other, "c1") if fault == "ring" else var(ring, "c2")

        P = self.presentation()
        monkeypatch.setattr(Polynomial, "var", staticmethod(faulty))
        assert self.run_both(P) == (message, message)

    def test_missing_image(self):
        # relations over R plus z, presented as if over R
        big = self.R.with_var("z", 1)
        g = 2 * V(big, "t") + V(big, "z")
        P = SimpleNamespace(ring=self.R, relations=(g,))
        message = "missing image for: z"
        assert self.run_both(P) == (message, message)


class TestTorsorQuotient:
    def test_eliminates_highest_registry_unit(self):
        # -xi2n - t + n*c1 removes the hyperplane class, keeps t
        n = 2
        R = ring_make([("t", 1), ("c1", 1), ("c2", 2), ("xi4", 1)])
        xi, t, c1 = V(R, "xi4"), V(R, "t"), V(R, "c1")
        P = Presentation(R, [2 * (2 * n - 1) * xi - 2 * n * (2 * n - 1) * c1])
        Q = torsor_quotient(P, -xi - t + n * c1)
        assert Q.ring.names == ("t", "c1", "c2")
        assert [p.canonical() for p in Q.relations] == ["-6*t"]

    def test_plain_elimination(self):
        R = ring_make([("t", 1), ("c1", 1), ("xi2", 1)])
        xi, c1 = V(R, "xi2"), V(R, "c1")
        P = Presentation(R, [2 * xi])
        Q = torsor_quotient(P, -xi + 0 * c1)
        assert Q.ring.names == ("t", "c1")
        assert Q.relations == ()

    def test_non_eliminable_class_adjoined(self):
        R = ring_make([("t", 1), ("c1", 1)])
        P = Presentation(R, [])
        Q = torsor_quotient(P, 2 * V(R, "t"))
        assert Q.ring == R
        assert [p.canonical() for p in Q.relations] == ["2*t"]

    def test_degree_guard(self):
        R = ring_make([("t", 1), ("c2", 2)])
        with pytest.raises(ValueError, match="degree 1"):
            torsor_quotient(Presentation(R, []), V(R, "c2"))

    def test_round_trip(self):
        # eliminating v by h, then re-adjoining v and -v + h, recovers the
        # original ideal together with that relation
        R = ring_make([("t", 1), ("c1", 1), ("c2", 2), ("xi2", 1)])
        xi, t, c1, c2 = V(R, "xi2"), V(R, "t"), V(R, "c1"), V(R, "c2")
        P = Presentation(R, [xi ** 2 - c1 * xi + c2, 2 * xi - 2 * c1])
        cls = -xi - t + 2 * c1
        Q = torsor_quotient(P, cls)
        back = adjoin_generator(
            Q,
            "xi2",
            1,
            [-V(R, "xi2") + 2 * V(R, "c1") - V(R, "t")],
        )
        want = Presentation(R, list(P.relations) + [cls])
        assert ideal_equal(back, want)


class TestRootGerbe:
    def test_alpha_t(self):
        R = ring_make([("t", 1), ("c1", 1)])
        P = Presentation(R, [])
        Q = root_gerbe_adjoin(P, V(R, "t"))
        assert Q.ring.names == ("t", "u", "c1")
        assert [p.canonical() for p in Q.relations] == ["-t + 2*u"]

    def test_alpha_t_plus_c1(self):
        R = ring_make([("t", 1), ("c1", 1)])
        Q = root_gerbe_adjoin(Presentation(R, []), V(R, "t") + V(R, "c1"))
        assert [p.canonical() for p in Q.relations] == ["-t + 2*u - c1"]

    def test_alpha_zero_splits_mu2(self):
        R = ring_make([("t", 1)])
        Q = root_gerbe_adjoin(Presentation(R, []), Polynomial.zero(R))
        assert [p.canonical() for p in Q.relations] == ["2*u"]

    def test_double_of_root_is_alpha(self):
        R = ring_make([("t", 1), ("c1", 1)])
        alpha = V(R, "t") + V(R, "c1")
        Q = root_gerbe_adjoin(Presentation(R, []), alpha)
        u = V(Q.ring, "u")
        embedded = alpha.substitute({n: V(Q.ring, n) for n in R.names}, Q.ring)
        assert contains(Q, 2 * u - embedded) is not None


class TestPullbackDictionary:
    def test_tau_square_expansion(self):
        d = pullback_gl2_from_pgl2(1, 1)
        R = d.target_ring
        xi1, c1 = V(R, "xi1"), V(R, "c1")
        assert d.images["tau"] ** 2 == 4 * xi1 ** 2 - 4 * c1 * xi1 + c1 ** 2

    def test_tau_relation_membership(self):
        d = pullback_gl2_from_pgl2(1, 1)
        R = d.target_ring
        xi1, c1, c2 = V(R, "xi1"), V(R, "c1"), V(R, "c2")
        relation = Presentation(R, [xi1 ** 2 - c1 * xi1 + c2])
        cert = contains(relation, d.images["tau"] ** 2 + d.images["c2"])
        assert cert is not None
        assert cert.cofactors[0] == Polynomial.const(R, 4)

    def test_grading_preserved(self):
        a, b = 2, 3
        d = pullback_gl2_from_pgl2(a, b)
        src = d.source_ring
        p = V(src, "c2") * V(src, "xi2a") ** 2  # degree 4
        assert d.apply(p).weighted_degree() == 4

    def test_parameterized_images(self):
        d = pullback_gl2_from_pgl2(3, 5)
        R = d.target_ring
        assert d.images["xi2a"] == V(R, "xi2a") - 3 * V(R, "c1")
        assert d.images["xi2b"] == V(R, "xi2b") - 5 * V(R, "c1")
        assert d.images["c2"] == 4 * V(R, "c2") - V(R, "c1") ** 2
