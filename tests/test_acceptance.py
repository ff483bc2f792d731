"""Acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Every check is exact; elapsed times are printed for
transparency but never asserted.

AC-4 part (ii) asserts that M2*(1) is redundant: it lies in the ideal of
the other six candidate generators for every (a, b).  The engine's answer
is backed by the identity

    2ab(2a-1)(2b-1)(4c2-c1^2)
      = (2b-1)*xi2b*F1(1) + a(2a-1)*c1*G1(1) - 2(2a-1)(2b-1)*M1(xi1),

checked by polynomial arithmetic alone, and by a certificate for M2*(1)
assembled from that identity and the reduction of part (i).
"""

import itertools
import random
import time

from chowforge.catalog import (
    _six_generator_ideal,
    classes_FG,
    classes_M,
    derive_thm_1_3,
    derive_thm_1_9,
    j1_presentation,
    lemma_3_4_check,
    pxp_ring,
    remark_37_class,
    remark_37_nonredundancy,
    remark_37_reduction,
    thm_1_2_presentation,
    thm_1_3_presentation,
    thm_1_9_presentation,
    cor_1_10_presentation,
    twist_chern_data,
    valid_rh_even_pairs,
    valid_wrh_odd_pairs,
)
from chowforge.chowops import pullback_gl2_from_pgl2
from chowforge.grideal import (
    Certificate,
    Presentation,
    contains,
    ideal_equal,
    monomial_basis,
    quotient_graded_invariants,
)
from chowforge.intpoly import Polynomial, ring_make
from chowforge.polyparse import parse_poly
from chowforge.zlinalg import IntMatrix, hnf, snf, solve_in_row_lattice
from dense_snf import dense_snf

EVEN_GRID = valid_rh_even_pairs(20)
ODD_GRID = valid_wrh_odd_pairs(21)


def report(name, ok, started, detail=""):
    line = "%s: %s (%.1fs)%s" % (
        name,
        "PASS" if ok else "FAIL",
        time.perf_counter() - started,
        " " + detail if detail else "",
    )
    print(line)
    return ok


def test_ac01_even_genus_derivation_grid():
    t0 = time.perf_counter()
    bad = [
        (g, n)
        for g, n in EVEN_GRID
        if not ideal_equal(derive_thm_1_3(g, n).presentation, thm_1_3_presentation(g, n))
    ]
    assert report("AC-1", not bad, t0, "%d pairs" % len(EVEN_GRID)), bad


def test_ac02_odd_genus_derivation_grid():
    t0 = time.perf_counter()
    bad = [
        (g, n)
        for g, n in ODD_GRID
        if not ideal_equal(derive_thm_1_9(g, n).presentation, thm_1_9_presentation(g, n))
    ]
    assert report("AC-2", not bad, t0, "%d pairs" % len(ODD_GRID)), bad


def test_ac03_superfluity_certificates():
    t0 = time.perf_counter()
    bad = [
        (a, b)
        for a in range(1, 9)
        for b in range(1, 9)
        if not lemma_3_4_check(a, b).ok
    ]
    assert report("AC-3", not bad, t0, "64 pairs, certificates re-verified"), bad


def test_ac04_simplification_and_nonredundancy():
    t0 = time.perf_counter()
    grid = [(a, b) for a in range(1, 9) for b in range(1, 9)]
    R = pxp_ring()
    xb = Polynomial.var(R, "xi2b")
    c1 = Polynomial.var(R, "c1")
    zero = Polynomial.zero(R)
    bad_reduction, claimed_nonredundant, bad_identity = [], [], []
    for a, b in grid:
        if remark_37_nonredundancy(a, b):
            claimed_nonredundant.append((a, b))
        reduction = remark_37_reduction(a, b)
        if reduction is None:
            bad_reduction.append((a, b))
            continue
        # Part (ii): M2*(1) is redundant.  The identity
        #   2ab(2a-1)(2b-1)(4c2-c1^2)
        #     = (2b-1)*xi2b*F1(1) + a(2a-1)*c1*G1(1) - 2(2a-1)(2b-1)*M1(xi1)
        # puts the simplified class of part (i) in the six-generator ideal,
        # so M2*(1) lies there too.  The identity is checked by polynomial
        # arithmetic alone; its cofactors added to those of the part (i)
        # certificate give a certificate for M2*(1), which Certificate
        # re-verifies exactly (it raises if the sum is not M2*(1)).
        six = _six_generator_ideal(a, b)
        identity = (
            (2 * b - 1) * xb,
            zero,
            a * (2 * a - 1) * c1,
            zero,
            zero,
            Polynomial.const(R, -2 * (2 * a - 1) * (2 * b - 1)),
        )
        combined = sum((h * g for h, g in zip(identity, six.relations)), zero)
        if combined != remark_37_class(a, b):
            bad_identity.append((a, b))
            continue
        _, _, m2 = classes_M(a, b)
        cofactors = [h + k for h, k in zip(reduction.cofactors, identity)]
        Certificate(six, m2, cofactors)
    ok = not (bad_reduction or claimed_nonredundant or bad_identity)
    report(
        "AC-4",
        ok,
        t0,
        "(i) reduction %s; (ii) M2*(1) redundant, %s"
        % (
            "holds" if not bad_reduction else "FAILS",
            "certified" if ok else "FAILS",
        ),
    )
    assert not bad_reduction, bad_reduction
    assert not claimed_nonredundant, (
        "remark_37_nonredundancy reports M2*(1) as a necessary generator at "
        "%s" % claimed_nonredundant
    )
    assert not bad_identity, bad_identity


def test_ac05_coefficient_identities():
    t0 = time.perf_counter()
    bad = []
    for a in range(1, 13):
        for b in range(1, 13):
            rows = thm_1_2_presentation(a, b).relations
            f1, f2, g1, g2 = classes_FG(a, b)
            if rows[1] != f2 or rows[3] != g2:
                bad.append((a, b))
    assert report("AC-5", not bad, t0, "rows 2/4 match for a,b in [1,12]"), bad


def test_ac06_tau_pullback_identity():
    t0 = time.perf_counter()
    d = pullback_gl2_from_pgl2(1, 1)
    R = d.target_ring
    xi1 = Polynomial.var(R, "xi1")
    c1 = Polynomial.var(R, "c1")
    c2 = Polynomial.var(R, "c2")
    cert = contains(
        Presentation(R, [xi1 ** 2 - c1 * xi1 + c2]),
        d.images["tau"] ** 2 + d.images["c2"],
    )
    ok = cert is not None and cert.cofactors[0] == Polynomial.const(R, 4)
    assert report("AC-6", ok, t0, "certificate cofactor 4")


def test_ac07_chern_root_twist():
    t0 = time.perf_counter()
    data = twist_chern_data()
    R = data.c1.ring
    t = Polynomial.var(R, "t")
    c1 = Polynomial.var(R, "c1")
    ok = data.c1 == -c1 - 2 * t and data.conditional_equality_holds()
    assert report("AC-7", ok, t0, "c1 exact; c2 equal under t -> -t")


def test_ac08_graded_invariants():
    t0 = time.perf_counter()
    # frozen oracle: Smith form of the degree-1 relation rows at (2, 1)
    oracle = snf(IntMatrix.from_rows([[2, 0], [8, -6], [4, 2]])).invariants
    assert oracle.free_rank == 0 and oracle.torsion == (2, 2)
    got = quotient_graded_invariants(thm_1_3_presentation(2, 1), 1)
    ok = got == oracle
    bad = []
    for g, n in EVEN_GRID:
        direct = thm_1_3_presentation(g, n)
        derived = derive_thm_1_3(g, n).presentation
        for d in range(5):
            if quotient_graded_invariants(direct, d) != quotient_graded_invariants(
                derived, d
            ):
                bad.append((g, n, d))
    for g, n in ODD_GRID:
        direct = thm_1_9_presentation(g, n)
        derived = derive_thm_1_9(g, n).presentation
        for d in range(5):
            if quotient_graded_invariants(direct, d) != quotient_graded_invariants(
                derived, d
            ):
                bad.append((g, n, d))
    ok = ok and not bad
    assert report("AC-8", ok, t0, "(Z/2)^2 at (2,1); d<=4 agreement on both grids"), bad


def _all_catalog_relations():
    rels = []
    for a in range(1, 9):
        for b in range(1, 9):
            rels.extend(thm_1_2_presentation(a, b).relations)
            rels.extend(j1_presentation(a, b).relations)
    for g, n in EVEN_GRID:
        rels.extend(thm_1_3_presentation(g, n).relations)
        rels.extend(cor_1_10_presentation(g, n).relations)
    for g, n in ODD_GRID:
        rels.extend(thm_1_9_presentation(g, n).relations)
    return rels


def test_ac09_round_trips():
    t0 = time.perf_counter()
    # parser round trip: every catalog relation, then 1000 random polynomials
    count = 0
    for p in _all_catalog_relations():
        assert parse_poly(p.canonical(), p.ring) == p
        count += 1
    rng = random.Random(90125)
    ring = ring_make([("t", 1), ("c1", 1), ("c2", 2)])
    basis_pool = [e for d in range(0, 7) for e in monomial_basis(ring, d)]
    for _ in range(1000):
        terms = {}
        for e in rng.sample(basis_pool, rng.randint(0, 8)):
            c = rng.randint(-999, 999)
            if c:
                terms[e] = c
        p = Polynomial(ring, terms)
        assert parse_poly(p.canonical(), ring) == p
    # transform verification on 1000 random matrices up to 6x6; U.A.V = D
    # is certified on the dense oracle, whose D snf must match
    def naive_mul(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))
        ]

    for _ in range(1000):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-99, 99) for _ in range(c)] for _ in range(r)]
        A = IntMatrix.from_rows(rows)
        H, U = hnf(A)
        assert naive_mul([list(x) for x in U.entries], rows) == [
            list(x) for x in H.entries
        ]
        res = snf(A)
        oracle = dense_snf(A)
        prod = naive_mul(
            naive_mul([list(x) for x in oracle.u.entries], rows),
            [list(x) for x in oracle.v.entries],
        )
        assert prod == [list(x) for x in oracle.d.entries]
        assert res.d == oracle.d
        diag = [res.d.entries[i][i] for i in range(min(r, c))]
        for i in range(len(diag) - 1):
            assert diag[i + 1] % diag[i] == 0 if diag[i] else diag[i + 1] == 0
    assert report(
        "AC-9", True, t0, "%d catalog relations + 1000 polys + 1000 matrices" % count
    )


def test_ac10_brute_force_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(271828)
    rings = [
        ring_make([("x", 1), ("y", 1), ("z", 2)]),
        ring_make([("x", 1), ("y", 2)]),
        ring_make([("x", 1), ("y", 1), ("z", 1)]),
    ]

    def random_homog(ring, d, lo, hi):
        basis = monomial_basis(ring, d)
        terms = {}
        for e in basis:
            if rng.random() < 0.7:
                c = rng.randint(lo, hi)
                if c:
                    terms[e] = c
        return Polynomial(ring, terms)

    def vector(p, index):
        v = [0] * len(index)
        for e, c in p.terms.items():
            v[index[e]] = c
        return tuple(v)

    def enumerate_box(products, target, bound):
        """Exhaustive DFS over integer combinations with |coeff| <= bound."""
        cols = len(target)
        found = False

        def rec(i, acc):
            nonlocal found
            if found:
                return
            if i == len(products):
                found = acc == list(target)
                return
            prod = products[i]
            for c in range(-bound, bound + 1):
                if found:
                    return
                if c == 0:
                    rec(i + 1, acc)
                else:
                    nxt = [a + c * p for a, p in zip(acc, prod)]
                    rec(i + 1, nxt)

        rec(0, [0] * cols)
        return found

    checked = 0
    while checked < 200:
        ring = rng.choice(rings)
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = random_homog(ring, rng.randint(1, 3), -5, 5)
            if g.terms:
                gens.append(g)
        if not gens:
            continue
        P = Presentation(ring, gens)
        d = rng.randint(1, 4)
        mults = [
            (g, m)
            for g in P.relations
            if g.weighted_degree() <= d
            for m in monomial_basis(ring, d - g.weighted_degree())
        ]
        if not 1 <= len(mults) <= 5:
            continue
        checked += 1
        basis = monomial_basis(ring, d)
        index = {e: i for i, e in enumerate(basis)}
        products = [vector(Polynomial(ring, {m: 1}) * g, index) for g, m in mults]
        if checked % 2:
            # constructed member with multiplier coefficients inside the box
            f = Polynomial.zero(ring)
            for g in P.relations:
                e = g.weighted_degree()
                if e > d:
                    continue
                f = f + random_homog(ring, d - e, -2, 2) * g
            cert = contains(P, f)
            assert cert is not None, "refused a constructed member"
            if f.terms:
                assert enumerate_box(products, vector(f, index), 2)
        else:
            f = random_homog(ring, d, -5, 5)
            if not f.terms:
                checked -= 1
                continue
            cert = contains(P, f)
            found = enumerate_box(products, vector(f, index), 2)
            if found:
                assert cert is not None, "refused a box member"
            # a certificate outside the box is still a proven member: the
            # Certificate constructor re-verifies sum(h_i g_i) == f exactly
    assert report("AC-10", True, t0, "200 instances")
