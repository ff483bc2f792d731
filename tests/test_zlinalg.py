import random

import pytest
from hypothesis import given, settings, strategies as st

from chowforge import zlinalg
from chowforge.catalog import lemma_3_4_check, thm_1_3_presentation, thm_1_9_presentation
from chowforge.grideal import Presentation, ideal_degree_matrix, monomial_basis
from chowforge.zlinalg import (
    AbelianInvariants,
    IntMatrix,
    hnf,
    snf,
    solve_in_row_lattice,
)
from dense_hnf import dense_hnf, dense_solve_in_row_lattice
from dense_snf import dense_snf
from macaulay import macaulay


def det(m):
    """Cofactor-expansion determinant: the independent unimodularity oracle."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        a = m[0][j]
        if a:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * a * det(minor)
    return total


def mat(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


def naive_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def smith_diagonal(inv, A):
    """The first min(rows, cols) diagonal entries of the Smith form of A,
    which its cokernel invariants and A.cols determine: ones, then the
    torsion, then zeros."""
    rank = A.cols - inv.free_rank
    return [1] * (rank - len(inv.torsion)) + list(inv.torsion) + [0] * (min(A.rows, A.cols) - rank)


def matmul(A, B):
    """The product A.B of two IntMatrix."""
    return IntMatrix(A.rows, B.cols, naive_mul(A.entries, B.entries))


class TestHNF:
    def test_identity_fixed(self):
        I = mat([[int(i == j) for j in range(4)] for i in range(4)])
        H, U = hnf(I)
        assert H == I and U == I

    def test_degree_one_relation_lattice(self):
        # degree-1 relation rows of the even-genus quotient at g=2, n=1
        A = mat([[2, 0], [8, -6], [4, 2]])
        H, U = hnf(A)
        assert [list(r) for r in H.entries] == [[2, 0], [0, 2], [0, 0]]
        assert matmul(U, A) == H
        assert abs(det([list(r) for r in U.entries])) == 1

    def test_zero_row(self):
        A = mat([[0, 0, 0]])
        H, _ = hnf(A)
        assert H == mat([[0, 0, 0]])

    def test_pivot_normalization(self):
        H, _ = hnf(mat([[-3, 1], [0, -5]]))
        rows = [list(r) for r in H.entries]
        assert rows[0][0] > 0 and rows[1][1] > 0
        # entries above a pivot are reduced into [0, pivot)
        assert 0 <= rows[0][1] < rows[1][1]

    def test_idempotence_and_lattice_equality(self):
        rng = random.Random(5)
        for _ in range(50):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            A = mat([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
            H, U = hnf(A)
            assert matmul(U, A) == H
            H2, _ = hnf(H)
            assert H2 == H
            # mutual membership of generator rows
            for row in A.entries:
                assert solve_in_row_lattice(H, row) is not None
            for row in H.entries:
                assert solve_in_row_lattice(A, row) is not None


class TestSNF:
    def test_divisor_chain_from_gcd_and_det(self):
        # d1 = gcd of entries = 2 and d1*d2 = |det| = 12
        A = mat([[2, 4], [0, 6]])
        assert smith_diagonal(snf(A), A) == [2, 6]
        # diagonal inputs whose entries do not divide each other, a zero
        # pivot ahead of a nonzero one, an input that needs three echelon
        # passes (rows, columns, rows) and a rank-deficient one
        cases = [
            ([[2, 0], [0, 3]], [1, 6]),
            ([[4, 0], [0, 6]], [2, 12]),
            ([[6, 0, 0], [0, 4, 0], [0, 0, 10]], [2, 2, 60]),
            ([[0, 0], [0, 3]], [3, 0]),
            ([[2, 1], [0, 2]], [1, 4]),
            ([[2, 4], [1, 2], [3, 6]], [1, 0]),
        ]
        for rows, want in cases:
            A = mat(rows)
            res = snf(A)
            assert smith_diagonal(res, A) == want
            oracle = dense_snf(A)
            assert matmul(matmul(oracle.u, A), oracle.v) == oracle.d
            assert res == oracle.invariants

    def test_identity(self):
        I = mat([[1, 0], [0, 1]])
        res = snf(I)
        assert smith_diagonal(res, I) == [1, 1]
        assert res == AbelianInvariants(free_rank=0)

    def test_cokernel_z2_squared(self):
        res = snf(mat([[2, 0], [8, -6], [4, 2]]))
        assert res == AbelianInvariants(free_rank=0, torsion=(2, 2))

    def test_transforms(self):
        A = mat([[6, 4, 2], [2, 8, 0]])
        oracle = dense_snf(A)
        assert matmul(matmul(oracle.u, A), oracle.v) == oracle.d
        assert snf(A) == oracle.invariants
        assert abs(det([list(r) for r in oracle.u.entries])) == 1
        assert abs(det([list(r) for r in oracle.v.entries])) == 1

    def test_empty_and_zero(self):
        res = snf(mat([[0, 0, 0], [0, 0, 0]]))
        assert res == AbelianInvariants(free_rank=3)
        res = snf(IntMatrix.from_rows([], cols=2))
        assert res == AbelianInvariants(free_rank=2)


class TestSolve:
    def test_simple_combination(self):
        A = mat([[2, 0], [0, 2]])
        x = solve_in_row_lattice(A, (4, 6))
        assert x is not None and A.row_mul(x) == (4, 6)

    def test_parity_obstruction(self):
        assert solve_in_row_lattice(mat([[2, 0], [0, 2]]), (1, 0)) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            solve_in_row_lattice(mat([[2, 0]]), (1, 0, 0))

    def test_empty_matrix(self):
        A = IntMatrix.from_rows([], cols=2)
        assert solve_in_row_lattice(A, (0, 0)) == ()
        assert solve_in_row_lattice(A, (1, 0)) is None

    def test_non_integer_vector_rejected(self):
        # 2.9 must not be truncated to 2 and certified as a member of 2Z
        with pytest.raises(TypeError):
            solve_in_row_lattice(mat([[2]]), [2.9])
        with pytest.raises(TypeError):
            solve_in_row_lattice(mat([[2]]), ["2"])
        assert solve_in_row_lattice(mat([[1]]), [True]) == (1,)

    def test_repeated_solves_reuse_one_hnf(self):
        A = mat([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        first = hnf(A)
        assert hnf(A) is first
        for v in ((2, 4, 4), (0, 36, 48), (1, 0, 0)):
            x = solve_in_row_lattice(A, v)
            assert x is None or A.row_mul(x) == v
        assert hnf(A) is first


class TestIntMatrix:
    def test_non_integer_entries_rejected(self):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1.7, 2]])
        with pytest.raises(TypeError):
            IntMatrix(1, 1, [["3"]])
        with pytest.raises(TypeError):
            IntMatrix(1, 2, [[1, 2.0]])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([["3", 1]])

    @pytest.mark.parametrize(
        "cols, rows", [(3, [[2, -4, 0], [0, 0, 7]]), (2, []), (1, [[10 ** 40], [-1]])]
    )
    def test_trusted_equals_validated(self, cols, rows):
        A = IntMatrix._trusted(cols, rows)
        B = IntMatrix(len(rows), cols, rows)
        assert A == B and hash(A) == hash(B)
        assert (A.rows, A.cols, A.entries) == (B.rows, B.cols, B.entries)
        assert A._hnf is None

    def test_kernel_matrices_equal_validated_copies(self):
        # the H of hnf and a degree piece are built unchecked; each equals
        # the matrix the public constructor makes of its rows
        A = ideal_degree_matrix(thm_1_3_presentation(8, 3), 6)
        H, _ = hnf(A)
        for M in (A, H):
            again = IntMatrix(M.rows, M.cols, M.entries)
            assert M == again and hash(M) == hash(again)

    def test_bool_entries_become_ints(self):
        A = IntMatrix.from_rows([[True, False, 2]])
        assert A.entries == ((1, 0, 2),)
        assert all(type(x) is int for x in A.entries[0])


class TestAbelianInvariants:
    def test_chain_validated(self):
        with pytest.raises(ValueError, match="chain"):
            AbelianInvariants(0, (2, 3))
        with pytest.raises(ValueError, match="divisor"):
            AbelianInvariants(0, (1,))

    def test_rendering(self):
        assert str(AbelianInvariants(1)) == "Z"
        assert str(AbelianInvariants(0)) == "0"
        assert str(AbelianInvariants(0, (2, 2))) == "(Z/2)^2"
        assert str(AbelianInvariants(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


def test_unimodularity_up_to_8x8():
    rng = random.Random(11)
    for n in range(1, 9):
        A = mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        _, U = hnf(A)
        assert abs(det([list(r) for r in U.entries])) == 1
        oracle = dense_snf(A)
        assert abs(det([list(r) for r in oracle.u.entries])) == 1
        assert abs(det([list(r) for r in oracle.v.entries])) == 1
        assert matmul(matmul(oracle.u, A), oracle.v) == oracle.d
        assert snf(A) == oracle.invariants


_mats = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-99, 99), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def _with_zero_lines(rows, zero_rows, zero_cols):
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


# up to 8x8, with some rows and columns zeroed to make the rank deficient
_zeroed_mats = st.integers(1, 8).flatmap(
    lambda r: st.integers(1, 8).flatmap(
        lambda c: st.builds(
            _with_zero_lines,
            st.lists(
                st.lists(st.integers(-99, 99), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ),
            st.sets(st.integers(0, r - 1)),
            st.sets(st.integers(0, c - 1)),
        )
    )
)


@settings(max_examples=300, deadline=None)
@given(_zeroed_mats)
def test_snf_transform_identity(rows):
    A = mat(rows)
    res = snf(A)
    oracle = dense_snf(A)
    # recompute U*A*V on the oracle with an independent triple loop
    prod = naive_mul(
        naive_mul([list(r) for r in oracle.u.entries], rows),
        [list(r) for r in oracle.v.entries],
    )
    assert prod == [list(r) for r in oracle.d.entries]
    assert res == oracle.invariants
    diag = smith_diagonal(res, A)
    assert diag == [oracle.d.entries[i][i] for i in range(len(diag))]
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert oracle.d.entries[i][j] == 0


@settings(max_examples=300, deadline=None)
@given(_mats)
def test_hnf_shape_and_transform(rows):
    A = mat(rows)
    H, U = hnf(A)
    assert naive_mul([list(r) for r in U.entries], rows) == [
        list(r) for r in H.entries
    ]
    # echelon shape with positive pivots and reduced columns
    last = -1
    for r in H.entries:
        nz = [j for j, x in enumerate(r) if x]
        if not nz:
            last = A.cols  # only zero rows may follow
            continue
        assert last < A.cols and nz[0] > last
        last = nz[0]
        assert r[nz[0]] > 0
    for i, r in enumerate(H.entries):
        nz = [j for j, x in enumerate(r) if x]
        if nz:
            p = nz[0]
            for k in range(i):
                assert 0 <= H.entries[k][p] < r[p]


def _int_rows(r, c):
    return st.lists(st.lists(st.integers(-5, 5), min_size=c, max_size=c), min_size=r, max_size=r)


# up to 8x8 and rank at most 3, so most rows depend on the others
_low_rank_mats = st.tuples(st.integers(1, 8), st.integers(1, 3), st.integers(1, 8)).flatmap(
    lambda s: st.builds(naive_mul, _int_rows(s[0], s[1]), _int_rows(s[1], s[2]))
)


def _assert_matches_dense_oracle(A, ys, vs):
    """H, U, x.U and lattice certificates agree with the dense kernel."""
    H, U = hnf(A)
    dense_H, dense_U = dense_hnf(A)
    assert H == dense_H
    for y in ys:
        assert U.row_mul(y) == dense_U.row_mul(y)
    for v in vs:
        assert solve_in_row_lattice(A, v) == dense_solve_in_row_lattice(A, v)
    # read last, so that row_mul above ran on the log alone
    assert U.entries == dense_U.entries


@settings(max_examples=400, deadline=None)
@given(st.one_of(_zeroed_mats, _low_rank_mats), st.randoms(use_true_random=False))
def test_hnf_matches_dense_oracle(rows, rng):
    A = mat(rows)
    ys = [[rng.randint(-9, 9) for _ in range(A.rows)] for _ in range(3)]
    members = [A.row_mul(y) for y in ys]
    others = [[rng.randint(-9, 9) for _ in range(A.cols)] for _ in range(2)]
    _assert_matches_dense_oracle(A, ys, members + others)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_zeroed_mats, _low_rank_mats))
def test_snf_starts_from_the_kept_hermite_form(rows):
    # H spans the row lattice of A, so both have one cokernel; its first
    # pass echelons H, not the entries of A
    A = mat(rows)
    H, _ = hnf(A)
    passes = []
    echelon = zlinalg._echelon

    def logged(D, *args):
        passes.append([list(r) for r in D])
        return echelon(D, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zlinalg, "_echelon", logged)
        kept = snf(A)
    assert passes[0] == [list(r) for r in H.entries]
    assert kept == snf(mat(rows)) == dense_snf(A).invariants


def _lemma34_system(j):
    """The degree-(2j+1) Macaulay matrix of the Lemma 3.4 ideal and the
    coefficient vector of its product of the 2j+1 hyperplane classes."""
    ((_, cert),) = lemma_3_4_check(j, j).certificates
    d = 2 * j + 1
    P = Presentation(cert.member.ring, cert.relations)
    index = {e: i for i, e in enumerate(monomial_basis(P.ring, d))}
    v = [0] * len(index)
    for e, c in cert.member.terms.items():
        v[index[e]] = c
    return macaulay(P, d), v


@pytest.mark.parametrize("j", range(1, 7))
def test_lemma34_matrices_match_dense_oracle(j):
    A, v = _lemma34_system(j)
    rng = random.Random(j)
    y = [rng.randint(-9, 9) for _ in range(A.rows)]
    _assert_matches_dense_oracle(A, [y], [v, A.row_mul(y)])


def test_membership_never_builds_dense_u(monkeypatch):
    A, v = _lemma34_system(4)

    def refuse(self):
        raise AssertionError("lattice membership built the dense U")

    monkeypatch.setattr(zlinalg._LoggedTransform, "entries", property(refuse))
    x = solve_in_row_lattice(A, v)
    assert x is not None and x == dense_solve_in_row_lattice(A, v)


# Up to 40x40 and 2-30% dense, the shapes of the Macaulay matrices: the
# entries are mostly the small coefficients of the relations, with an
# occasional large one.
@st.composite
def _sparse_mats(draw):
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    density = draw(st.integers(2, 30)) / 100
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        if rng.random() < 0.03:
            return rng.randint(-10**12, 10**12)
        return rng.choice((1, -1, 2, -2, 3, 4, 6))

    return [[entry() if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]


@settings(max_examples=100, deadline=None)
@given(_sparse_mats(), st.randoms(use_true_random=False))
def test_sparse_matches_dense_oracles(rows, rng):
    A = mat(rows)
    ys = [[rng.choice((0, 0, 1, -1, 3)) for _ in range(A.rows)] for _ in range(2)]
    members = [A.row_mul(y) for y in ys]
    others = [[rng.randint(-2, 2) for _ in range(A.cols)]]
    _assert_matches_dense_oracle(A, ys, members + others)
    assert snf(A) == dense_snf(A).invariants


@settings(max_examples=300, deadline=None)
@given(st.one_of(_zeroed_mats, _low_rank_mats, _sparse_mats()))
def test_echelon_is_forward_elimination(rows):
    # the loop's contract: an echelon form with positive pivots and the
    # zero rows last, spanning the row lattice of A, reached by the log
    A = mat(rows)
    H = [list(r) for r in rows]
    ops = []
    pivots = zlinalg._echelon(H, A.cols, ops)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for row, c in zip(H, pivots):
        assert row[c] > 0 and not any(row[:c])
    assert not any(map(any, H[len(pivots) :]))
    assert dense_hnf(mat(H, A.cols))[0] == dense_hnf(A)[0]
    U = [[int(i == k) for i in range(A.rows)] for k in range(A.rows)]
    for i, r, q in ops:
        if q:
            U[i] = [a - q * b for a, b in zip(U[i], U[r])]
        elif i != r:
            U[i], U[r] = U[r], U[i]
        else:
            U[i] = [-a for a in U[i]]
    assert naive_mul(U, rows) == H


@pytest.mark.parametrize(
    "rows, torsion",
    [
        ([[-4]], (4,)),
        ([[-2, 0], [0, -6]], (2, 6)),
        ([[0, -3], [-5, 0]], (15,)),
        ([[-2, 0, 0], [0, -2, 0], [0, 0, -2]], (2, 2, 2)),
    ],
)
def test_snf_of_negative_pivots(rows, torsion):
    # every pivot of snf's own passes comes out negative (A keeps no
    # Hermite form): snf keeps the diagonal entries >= 2, so a pivot left
    # negative would drop out of the torsion; an even count of them cancels
    # in the gcd/lcm pass, an odd count does not
    A = mat(rows)
    assert snf(A) == dense_snf(A).invariants == AbelianInvariants(0, torsion)


# Each case drives one branch of the sparse column step.
_EDGE_CASES = {
    # row r is zero in column c while lower rows are not: the pivot moves
    # up to r and the old row r goes down to the pivot's index
    "row-r-zero-in-c": [[0, 1, 2, 0], [0, 3, 0, 1], [4, 0, 1, 0], [6, 2, 0, 5], [0, 0, 7, 0]],
    "row-r-zero-after-a-pivot": [[1, 2, 0], [0, 0, 5], [0, 4, 1], [0, 6, 0]],
    # ties in |pivot|: the first of them wins, which fixes U when the
    # rows are dependent
    "tie-in-pivot": [[0, 1, 1], [2, 1, 0], [-2, 3, 1], [2, 0, 5], [2, 1, 0]],
    "negative-pivot": [[-3, 1, 2], [6, -5, 0], [-9, 4, 1]],
    "negative-least-pivot": [[4, 1], [-2, 3], [6, 0]],
    "zero-column-first": [[0, 2, 1], [0, 4, 3], [0, -6, 5]],
    "zero-column-inside": [[2, 0, 1], [4, 0, 3], [6, 0, 7]],
    "repeated-rows": [[1, 2, 0], [1, 2, 0], [0, 0, 3], [1, 2, 0], [0, 0, 3]],
    "repeated-rows-no-unit": [[2, 4, 6], [2, 4, 6], [4, 2, 0], [2, 4, 6]],
}


@pytest.mark.parametrize("name", sorted(_EDGE_CASES))
def test_edge_cases_match_dense_oracles(name):
    A = mat(_EDGE_CASES[name])
    ys = [[(i * 7) % 5 - 2 for i in range(A.rows)], [1] * A.rows]
    vs = [A.row_mul(y) for y in ys] + [[1] + [0] * (A.cols - 1)]
    _assert_matches_dense_oracle(A, ys, vs)
    assert snf(A) == dense_snf(A).invariants


def test_tie_goes_to_the_first_row():
    # column 0 holds 2, -2, 2 below an empty row 0: the pivot is row 1, so
    # the first row of H is built from row 1 (and row 0, which clears its
    # entry in column 1); the last of the tied rows, [2, 0], would give
    # e_3 instead
    H, U = hnf(mat([[0, 1], [2, 1], [-2, 3], [2, 0]]))
    assert [list(r) for r in H.entries] == [[2, 0], [0, 1], [0, 0], [0, 0]]
    assert U.row_mul([1, 0, 0, 0]) == (-1, 1, 0, 0)


@pytest.mark.parametrize(
    "presentation",
    [thm_1_3_presentation(8, 3), thm_1_9_presentation(9, 3)],
    ids=["thm1.3-8-3", "thm1.9-9-3"],
)
@pytest.mark.parametrize("d", range(6, 13))
def test_degree_matrices_match_dense_oracles(presentation, d):
    A = macaulay(presentation, d)
    rng = random.Random(d)
    y = [rng.choice((0, 0, 0, 1, -1)) for _ in range(A.rows)]
    v = [rng.randint(-3, 3) for _ in range(A.cols)]
    _assert_matches_dense_oracle(A, [y], [A.row_mul(y), v])
    assert snf(A) == dense_snf(A).invariants
