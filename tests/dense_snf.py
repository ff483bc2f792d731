"""The dense Smith normal form kernel, kept as a test oracle.

This is the elimination that `chowforge.zlinalg.snf` used before it
dropped its transforms: it returns D together with unimodular U and V,
so every test that certifies U.A.V = D runs on this oracle, and the
production kernel is checked against its D.
"""

from typing import NamedTuple

from chowforge.zlinalg import AbelianInvariants, IntMatrix


def _rows_of(A: IntMatrix) -> list[list[int]]:
    return [list(r) for r in A.entries]


class SNFResult(NamedTuple):
    d: IntMatrix
    u: IntMatrix
    v: IntMatrix
    invariants: AbelianInvariants


def dense_snf(A: IntMatrix) -> SNFResult:
    """Smith normal form D = U.A.V with unimodular U, V.

    The diagonal of D is non-negative and satisfies d1 | d2 | ...; the
    reported invariants are those of the cokernel Z^cols / rowlattice(A).

    The elimination is Cohen's Algorithm 2.4.14 (*A Course in Computational
    Algebraic Number Theory*).  Step k pivots on a minimal nonzero entry of
    the trailing block and repeats until row and column k are clear and the
    pivot divides the whole trailing block; each repeat strictly shrinks
    the pivot.  The invariant: after step k, D is diagonal in its first
    k+1 rows and columns and d_k divides every later entry, so d1 | d2 | ...
    holds without a second pass, and zeros come last.
    """
    D = _rows_of(A)
    m, n = A.rows, A.cols
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op(j, k, q):
        # col_j -= q * col_k
        for row in D:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    def swap_cols(j, k):
        for row in D:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    def row_op(i, k, q):
        di, dk = D[i], D[k]
        for j in range(n):
            di[j] -= q * dk[j]
        ui, uk = U[i], U[k]
        for j in range(m):
            ui[j] -= q * uk[j]

    def swap_rows(i, k):
        D[i], D[k] = D[k], D[i]
        U[i], U[k] = U[k], U[i]

    size = min(m, n)
    for k in range(size):
        while True:
            # locate the minimal nonzero entry of the trailing block
            bi = bj = -1
            best = 0
            for i in range(k, m):
                row = D[i]
                for j in range(k, n):
                    v = row[j]
                    if v and (bi < 0 or abs(v) < best):
                        bi, bj, best = i, j, abs(v)
            if bi < 0:
                break
            if bi != k:
                swap_rows(k, bi)
            if bj != k:
                swap_cols(k, bj)
            p = D[k][k]
            # row ops leave row k alone and column ops column k, so a
            # remainder left in either shows up as dirty
            dirty = False
            for i in range(k + 1, m):
                if D[i][k]:
                    row_op(i, k, D[i][k] // p)
                    if D[i][k]:
                        dirty = True
            for j in range(k + 1, n):
                if D[k][j]:
                    col_op(j, k, D[k][j] // p)
                    if D[k][j]:
                        dirty = True
            if dirty:
                continue
            # row and column k are clear; a trailing row the pivot does not
            # divide is added to row k, to be reduced to a smaller pivot
            bad = -1 if best == 1 else next(
                (i for i in range(k + 1, m) if any(x % p for x in D[i][k + 1 :])), -1
            )
            if bad < 0:
                break
            row_op(k, bad, -1)
        if D[k][k] < 0:
            D[k] = [-x for x in D[k]]
            U[k] = [-x for x in U[k]]

    diag = [D[i][i] for i in range(size)]
    rank = sum(1 for d in diag if d)
    invariants = AbelianInvariants(
        free_rank=n - rank, torsion=tuple(d for d in diag if d >= 2)
    )
    return SNFResult(
        IntMatrix(m, n, D), IntMatrix(m, m, U), IntMatrix(n, n, V), invariants
    )
