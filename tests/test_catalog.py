import pytest

from chowforge.catalog import (
    ParamError,
    classes_FG,
    classes_M,
    cor_1_10_presentation,
    derive_thm_1_3,
    derive_thm_1_9,
    j1_presentation,
    lemma_3_4_check,
    pxp_ring,
    remark_37_class,
    remark_37_nonredundancy,
    remark_37_reduction,
    rh_ring,
    thm_1_2_presentation,
    thm_1_3_presentation,
    thm_1_9_presentation,
    twist_chern_data,
    valid_rh_even_pairs,
    valid_wrh_odd_pairs,
)
from chowforge.catalog import _six_generator_ideal
from chowforge.grideal import (
    Presentation,
    contains,
    ideal_equal,
    quotient_graded_invariants,
)
from chowforge.intpoly import Polynomial


def V(ring, name):
    return Polynomial.var(ring, name)


def degree_in(p, name):
    """Largest exponent of one variable in p (0 for the zero polynomial)."""
    i = p.ring.index(name)
    return max((exps[i] for exps in p.terms), default=0)


def pxp_vars():
    R = pxp_ring()
    return R, V(R, "xi2a"), V(R, "xi2b"), V(R, "c1"), V(R, "c2")


def test_ambient_rings_are_shared():
    assert rh_ring() is rh_ring()
    assert pxp_ring() is pxp_ring()
    assert thm_1_3_presentation(4, 1).ring is rh_ring()


class TestClassesFG:
    def test_a1_degenerate_c2_term(self):
        R, xa, _, c1, _ = pxp_vars()
        f1, f2, _, _ = classes_FG(1, 1)
        assert f1 == 2 * xa - 2 * c1
        assert f2 == xa ** 2 - c1 * xa

    def test_a2_coefficient_matches_row(self):
        R, xa, _, c1, c2 = pxp_vars()
        _, f2, _, _ = classes_FG(2, 1)
        assert f2 == xa ** 2 - c1 * xa - 8 * c2
        # 2a(2a-2) = 4a(a-1) at a = 2
        assert 2 * 2 * (2 * 2 - 2) == 4 * 2 * (2 - 1) == 8

    def test_b3(self):
        R, _, xb, c1, _ = pxp_vars()
        _, _, g1, _ = classes_FG(1, 3)
        assert g1 == 10 * xb - 30 * c1

    def test_guard(self):
        with pytest.raises(ParamError):
            classes_FG(0, 1)


class TestClassesM:
    def test_m2_at_unit_params(self):
        R, xa, xb, c1, c2 = pxp_vars()
        m1, m1xi, m2 = classes_M(1, 1)
        assert m1 == 2 * xa + 2 * xb - 4 * c1
        assert m1xi == xa * xb - 4 * c2
        assert m2 == (
            xa * xb + xa ** 2 + xb ** 2 + 4 * c2
            - 3 * c1 * xa - 3 * c1 * xb + 2 * c1 ** 2
        )

    def test_gradings(self):
        for a, b in [(1, 1), (2, 3), (5, 7)]:
            m1, m1xi, m2 = classes_M(a, b)
            assert m1.weighted_degree() == 1
            assert m1xi.weighted_degree() == 2
            assert m2.weighted_degree() == 2


class TestRemark37:
    def test_class_values(self):
        R, _, _, c1, c2 = pxp_vars()
        assert remark_37_class(1, 1) == 8 * c2 - 2 * c1 ** 2
        assert remark_37_class(1, 2) == 48 * c2 - 12 * c1 ** 2

    def test_worked_reduction_at_unit_params(self):
        # reduce M2*(1) modulo the six other generators by hand:
        # xa^2 -> c1*xa, xb^2 -> c1*xb, xa*xb -> 4*c2, then absorb the
        # leftover linear part with c1*M1*(1)
        R, xa, xb, c1, c2 = pxp_vars()
        m1, m1xi, m2 = classes_M(1, 1)
        f1, f2, g1, g2 = classes_FG(1, 1)
        reduced = m2 - f2 - g2 - m1xi + c1 * m1
        assert reduced == remark_37_class(1, 1)

    def test_reduction_certificates(self):
        for a, b in [(1, 1), (1, 2), (3, 2), (4, 4)]:
            assert remark_37_reduction(a, b) is not None

    def test_m2_membership_in_full_ideal(self):
        _, _, m2 = classes_M(2, 2)
        assert contains(j1_presentation(2, 2), m2) is not None

    def test_redundancy_fact(self):
        # remark_37_nonredundancy reports membership: the identity
        #   2ab(2a-1)(2b-1)(4c2-c1^2)
        #     = (2b-1)*xi2b*F1(1) + a(2a-1)*c1*G1(1) - 2(2a-1)(2b-1)*M1(xi1)
        # holds for every a, b, so M2*(1) lies in the six-generator ideal
        # and the cataloged non-redundancy expectation fails (AC-4(ii)
        # asserts the same redundancy on the full 8x8 grid, with a
        # certificate).
        R, xa, xb, c1, c2 = pxp_vars()
        for a, b in [(1, 1), (1, 2), (2, 3), (5, 4)]:
            f1, f2, g1, g2 = classes_FG(a, b)
            m1, m1xi, m2 = classes_M(a, b)
            identity = (
                (2 * b - 1) * xb * f1
                + a * (2 * a - 1) * c1 * g1
                - 2 * (2 * a - 1) * (2 * b - 1) * m1xi
            )
            assert identity == remark_37_class(a, b)
            assert remark_37_nonredundancy(a, b) is False
            assert contains(_six_generator_ideal(a, b), m2) is not None


class TestThm12:
    def test_unit_params_degenerate_rows(self):
        R, xa, xb, c1, _ = pxp_vars()
        P = thm_1_2_presentation(1, 1)
        assert P.relations[1] == xa ** 2 - c1 * xa
        assert P.relations[3] == xb ** 2 - c1 * xb

    def test_equals_candidate_ideal(self):
        for a in range(1, 9):
            for b in range(1, 9):
                assert ideal_equal(thm_1_2_presentation(a, b), j1_presentation(a, b))

    def test_row7_m2_interchangeable(self):
        for a, b in [(1, 1), (2, 3)]:
            P = thm_1_2_presentation(a, b)
            rows16 = list(P.relations[:6])
            _, _, m2 = classes_M(a, b)
            with_m2 = Presentation(P.ring, rows16 + [m2])
            assert contains(with_m2, P.relations[6]) is not None
            assert contains(P, m2) is not None

    def test_homogeneity_sweep(self):
        for a in range(1, 13):
            for b in range(1, 13):
                P = thm_1_2_presentation(a, b)  # construction validates
                assert len(P.relations) == 7


class TestThm13:
    def test_2_1_rows(self):
        P = thm_1_3_presentation(2, 1)
        R = P.ring
        t, c1, c2 = (V(R, n) for n in R.names)
        rels = list(P.relations)
        assert rels[0] == 2 * t
        assert rels[2] == 8 * t - 6 * c1
        assert rels[4] == 4 * t + 2 * c1
        assert rels[6] == 2 * 1 * 1 * 2 * 3 * (4 * c2 - c1 ** 2)

    def test_4_2_first_row(self):
        P = thm_1_3_presentation(4, 2)
        assert P.relations[0].canonical() == "6*t"

    def test_row2_degenerate_at_n1(self):
        P = thm_1_3_presentation(4, 1)
        R = P.ring
        t, c1 = V(R, "t"), V(R, "c1")
        assert P.relations[1] == t ** 2 - c1 * t

    def test_guards(self):
        with pytest.raises(ParamError, match="even"):
            thm_1_3_presentation(3, 1)
        with pytest.raises(ParamError, match="g/2"):
            thm_1_3_presentation(4, 3)
        with pytest.raises(ParamError, match="g/2"):
            thm_1_3_presentation(4, 0)

    def test_homogeneity_sweep(self):
        for g, n in valid_rh_even_pairs(24):
            thm_1_3_presentation(g, n)


class TestThm19:
    def test_3_1_rows(self):
        P = thm_1_9_presentation(3, 1)
        R = P.ring
        t, c1, c2 = (V(R, n) for n in R.names)
        rels = list(P.relations)
        # row 2 vanishes at n = 1 and is dropped
        assert len(rels) == 6
        assert rels[0] == 2 * c1
        assert rels[2 + 1] == 4 * t + 8 * c1  # printed row 5

    def test_5_1_row3(self):
        P = thm_1_9_presentation(5, 1)
        R = P.ring
        t, c1 = V(R, "t"), V(R, "c1")
        assert P.relations[1] == 36 * t + 20 * c1  # printed row 3 (row 2 dropped)

    def test_row_degrees(self):
        P = thm_1_9_presentation(9, 3)
        assert [r.weighted_degree() for r in P.relations] == [1, 2, 1, 2, 1, 2, 2]

    def test_guards(self):
        with pytest.raises(ParamError, match="odd"):
            thm_1_9_presentation(4, 1)
        with pytest.raises(ParamError, match="odd"):
            thm_1_9_presentation(5, 2)
        # n = (g+1)/2 is refused: those rings are not in the catalog
        with pytest.raises(ParamError):
            thm_1_9_presentation(5, 3)

    def test_homogeneity_sweep(self):
        for g, n in valid_wrh_odd_pairs(23):
            thm_1_9_presentation(g, n)


class TestCor110:
    def test_even_n_square_root_of_t(self):
        P = cor_1_10_presentation(4, 2)
        R = P.ring
        assert R.names == ("t", "u", "c1", "c2")
        assert P.relations[-1] == 2 * V(R, "u") - V(R, "t")

    def test_odd_n_square_root_of_t_plus_c1(self):
        P = cor_1_10_presentation(4, 1)
        R = P.ring
        assert P.relations[-1] == 2 * V(R, "u") - V(R, "t") - V(R, "c1")

    def test_degree_one_invariants_differ(self):
        for g, n in [(2, 1), (4, 2), (6, 3)]:
            before = quotient_graded_invariants(thm_1_3_presentation(g, n), 1)
            after = quotient_graded_invariants(cor_1_10_presentation(g, n), 1)
            assert before != after


class TestDerivations:
    def test_rh_even_small(self):
        res = derive_thm_1_3(2, 1)
        assert res.presentation.ring == rh_ring()
        # first substituted row is -2(2n-1)t
        t = V(rh_ring(), "t")
        assert res.presentation.relations[0] == -2 * t
        assert ideal_equal(res.presentation, thm_1_3_presentation(2, 1))

    def test_rh_even_8_3(self):
        assert ideal_equal(
            derive_thm_1_3(8, 3).presentation, thm_1_3_presentation(8, 3)
        )

    def test_steps_trace(self):
        res = derive_thm_1_3(2, 1)
        assert len(res.steps) == 4
        assert res.steps[0][1].ring == pxp_ring()
        assert res.steps[1][1].ring.names == ("t", "c1", "c2", "xi2a", "xi2b")
        assert res.steps[2][1].ring.names == ("t", "c1", "c2", "xi2b")
        assert res.steps[3][1].ring == rh_ring()

    def test_row5_differs_by_row1_multiple(self):
        # at (g, n) = (4, 1) the substituted fifth row differs from the
        # printed one by a multiple of the first relation
        g, n = 4, 1
        res = derive_thm_1_3(g, n)
        direct = thm_1_3_presentation(g, n)
        R = rh_ring()
        t = V(R, "t")
        sub5 = res.presentation.relations[4]
        row5 = direct.relations[4]
        assert sub5 != row5 and sub5 != -row5
        diff = sub5 + row5
        assert diff == 2 * (2 * n - 1) * t
        assert contains(direct, sub5) is not None

    def test_wrh_odd_first_row_sign(self):
        # at (3, 1): xi2a -> (n-1)c1 = 0 sends row 1 to -2(2n-1)c1 = -2c1
        res = derive_thm_1_9(3, 1)
        c1 = V(rh_ring(), "c1")
        assert res.presentation.relations[0] == -2 * c1

    @pytest.mark.parametrize("g,n", [(3, 1), (5, 1), (9, 3)])
    def test_wrh_odd_equalities(self, g, n):
        assert ideal_equal(
            derive_thm_1_9(g, n).presentation, thm_1_9_presentation(g, n)
        )

    def test_pipeline_guards(self):
        with pytest.raises(ParamError, match="even"):
            derive_thm_1_3(3, 1)
        with pytest.raises(ParamError, match="odd"):
            derive_thm_1_9(4, 1)

    def test_specialization_n1(self):
        for g in (2, 4, 6, 8, 10):
            assert ideal_equal(
                derive_thm_1_3(g, 1).presentation, thm_1_3_presentation(g, 1)
            )


class TestLemma34:
    def test_a1_explicit(self):
        res = lemma_3_4_check(1, 1)
        assert res.ok
        (j, cert), = res.certificates
        assert j == 1
        assert cert.member.weighted_degree() == 3
        assert degree_in(cert.member, "xi2") == 3

    def test_a2(self):
        res = lemma_3_4_check(2, 1)
        assert res.ok

    def test_monic_degree(self):
        for a, b in [(1, 2), (3, 3)]:
            res = lemma_3_4_check(a, b)
            assert res.ok
            for j, cert in res.certificates:
                assert cert.member.weighted_degree() == 2 * j + 1
                assert degree_in(cert.member, "xi%d" % (2 * j)) == 2 * j + 1

    @pytest.mark.parametrize("j", range(1, 13))
    def test_member_is_the_direct_product(self, j):
        # the member is given as its 2j+1 factors and multiplied out only
        # when read; it must be the product of the 2j+1 classes
        from chowforge import catalog

        cert = catalog._monic_hyperplane_membership.__wrapped__(j)
        R = cert.member.ring
        xi, t1, t2 = (V(R, n) for n in R.names)
        product = Polynomial.const(R, 1)
        for i in range(2 * j + 1):
            product = product * (xi - i * t1 - (2 * j - i) * t2)
        assert cert.member == product

    def test_cofactors_are_built_once(self):
        # the dense cofactor of gen2 is expanded on the first read and kept
        from chowforge import catalog

        cert = catalog._monic_hyperplane_membership.__wrapped__(6)
        cofactors = cert.cofactors
        assert cert.cofactors is cofactors
        assert cert.member is cert.member

    def test_kept_certificates_keep_no_bundle(self):
        import gc

        from chowforge import catalog, grideal

        def live_bundles():
            gc.collect()
            return sum(isinstance(o, grideal._Bundle) for o in gc.get_objects())

        before = live_bundles()
        certs = [catalog._monic_hyperplane_membership.__wrapped__(j) for j in range(1, 13)]
        assert all(certs)
        # a certificate keeps the relations it was verified against, not the
        # presentation that holds the bundle and its pieces
        assert live_bundles() <= before


def test_twist_chern_data():
    data = twist_chern_data()
    R = data.c1.ring
    t, c1, c2 = (V(R, n) for n in R.names)
    assert data.c1 == -c1 - 2 * t
    assert data.c2_computed == c2 + t * c1 + t ** 2
    assert data.c2_alt == c2 - t * c1 + t ** 2
    assert data.conditional_equality_holds()


class TestKeptValues:
    """The constructors that keep the last grid point's value hand out
    shared objects; nothing may change them."""

    AB = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    KEPT = [
        (classes_FG, AB),
        (classes_M, AB),
        (_six_generator_ideal, AB),
        (thm_1_2_presentation, AB),
        (thm_1_3_presentation, valid_rh_even_pairs(8)),
        (thm_1_9_presentation, valid_wrh_odd_pairs(9)),
    ]

    @staticmethod
    def _rows(value):
        if isinstance(value, Presentation):
            return value.ring, list(value.relations)
        return None, list(value)

    @pytest.mark.parametrize("fn, points", KEPT, ids=[fn.__name__ for fn, _ in KEPT])
    def test_kept_value_equals_fresh(self, fn, points):
        assert fn.cache_info().maxsize == 1
        for args in points:
            kept = fn(*args)
            assert fn(*args) is kept
            ring, rows = self._rows(kept)
            fresh_ring, fresh_rows = self._rows(fn.__wrapped__(*args))
            assert ring == fresh_ring and len(rows) == len(fresh_rows)
            for got, want in zip(rows, fresh_rows):
                assert got.ring == want.ring and got.terms == want.terms

    def test_verify_reruns_are_unchanged(self, capsys, monkeypatch):
        from chowforge import catalog, cli

        argv = ["verify", "--suite", "all", "--format", "json"]
        outs = []
        for _ in range(2):
            cli.main(argv)
            outs.append(capsys.readouterr().out)

        def clear_all():
            for obj in vars(catalog).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()

        run_task = cli._run_task

        def cold_task(task):
            clear_all()
            return run_task(task)

        monkeypatch.setattr(cli, "_run_task", cold_task)
        cli.main(argv)
        cold = capsys.readouterr().out
        assert cold.count("\n") == 482
        assert outs == [cold, cold]
