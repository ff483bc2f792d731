import random

import pytest
from hypothesis import given, settings, strategies as st

from chowforge.zlinalg import (
    AbelianInvariants,
    IntMatrix,
    hnf,
    snf,
    solve_in_row_lattice,
)
from dense_snf import dense_snf


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


class TestHNF:
    def test_identity_fixed(self):
        I = IntMatrix.identity(4)
        H, U = hnf(I)
        assert H == I and U == I

    def test_degree_one_relation_lattice(self):
        # degree-1 relation rows of the even-genus quotient at g=2, n=1
        A = mat([[2, 0], [8, -6], [4, 2]])
        H, U = hnf(A)
        assert [list(r) for r in H.entries] == [[2, 0], [0, 2], [0, 0]]
        assert U.mul(A) == H
        assert abs(det([list(r) for r in U.entries])) == 1

    def test_zero_row(self):
        A = mat([[0, 0, 0]])
        H, _ = hnf(A)
        assert H == IntMatrix.zeros(1, 3)

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
            assert U.mul(A) == H
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
        res = snf(mat([[2, 4], [0, 6]]))
        assert [res.d.entries[i][i] for i in range(2)] == [2, 6]
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
            assert [res.d.entries[i][i] for i in range(len(want))] == want
            oracle = dense_snf(A)
            assert oracle.u.mul(A).mul(oracle.v) == oracle.d == res.d

    def test_identity(self):
        res = snf(IntMatrix.identity(2))
        assert res.d == IntMatrix.identity(2)
        assert res.invariants.is_trivial()

    def test_cokernel_z2_squared(self):
        res = snf(mat([[2, 0], [8, -6], [4, 2]]))
        assert res.invariants == AbelianInvariants(free_rank=0, torsion=(2, 2))

    def test_transforms(self):
        A = mat([[6, 4, 2], [2, 8, 0]])
        oracle = dense_snf(A)
        assert oracle.u.mul(A).mul(oracle.v) == oracle.d == snf(A).d
        assert abs(det([list(r) for r in oracle.u.entries])) == 1
        assert abs(det([list(r) for r in oracle.v.entries])) == 1

    def test_empty_and_zero(self):
        res = snf(IntMatrix.zeros(2, 3))
        assert res.invariants == AbelianInvariants(free_rank=3)
        res = snf(IntMatrix.from_rows([], cols=2))
        assert res.invariants == AbelianInvariants(free_rank=2)


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
        assert oracle.u.mul(A).mul(oracle.v) == oracle.d == snf(A).d


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
    assert res.d == oracle.d
    diag = [res.d.entries[i][i] for i in range(min(A.rows, A.cols))]
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert res.d.entries[i][j] == 0


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
