"""Exact integer matrix normal forms: the decision kernel for ideal arithmetic.

Row-style Hermite normal form with a unimodular transform, Smith normal
form with both transforms, and lattice membership with re-verified
certificates.  Everything is plain Python ints, so results are exact at
any size; pivoting by minimal absolute value keeps the intermediate
entries from exploding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "IntMatrix",
    "AbelianInvariants",
    "SNFResult",
    "hnf",
    "snf",
    "solve_in_row_lattice",
]


class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable[int]]):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entry count does not match %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.entries = data

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(rows[0])
        return IntMatrix(len(rows), cols, rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, [[0] * cols for _ in range(rows)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.cols, self.entries))

    def __repr__(self) -> str:
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, [list(r) for r in self.entries])

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        ot = list(zip(*other.entries)) if other.entries else [()] * other.cols
        out = [
            [sum(a * b for a, b in zip(row, col)) for col in ot]
            for row in self.entries
        ]
        return IntMatrix(self.rows, other.cols, out)

    def row_mul(self, x: Sequence[int]) -> tuple[int, ...]:
        """Vector-matrix product x . self for a row vector x."""
        if len(x) != self.rows:
            raise ValueError("dimension mismatch in vector product")
        out = [0] * self.cols
        for xi, row in zip(x, self.entries):
            if xi:
                for j, a in enumerate(row):
                    if a:
                        out[j] += xi * a
        return tuple(out)


@dataclass(frozen=True)
class AbelianInvariants:
    """Finitely generated abelian group: free rank plus elementary divisors
    d1 | d2 | ... with every di >= 2."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError("elementary divisor %d < 2" % d)
            if prev is not None and d % prev != 0:
                raise ValueError("divisibility chain broken: %d does not divide %d" % (prev, d))
            prev = d

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        i = 0
        while i < len(self.torsion):
            j = i
            while j < len(self.torsion) and self.torsion[j] == self.torsion[i]:
                j += 1
            if j - i == 1:
                parts.append("Z/%d" % self.torsion[i])
            else:
                parts.append("(Z/%d)^%d" % (self.torsion[i], j - i))
            i = j
        return " + ".join(parts) if parts else "0"


def _rows_of(A: IntMatrix) -> list[list[int]]:
    return [list(r) for r in A.entries]


def hnf(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U.A, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot), zero rows at the bottom.  H
    is canonical for the row lattice of A, so lattice equality is string
    equality of HNFs.
    """
    H = _rows_of(A)
    n = A.rows
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for c in range(A.cols):
        # gcd out the column below row r, keeping the smallest pivot
        while True:
            pivot = -1
            best = 0
            for i in range(r, n):
                v = H[i][c]
                if v and (pivot < 0 or abs(v) < best):
                    pivot, best = i, abs(v)
            if pivot < 0:
                break
            if pivot != r:
                H[r], H[pivot] = H[pivot], H[r]
                U[r], U[pivot] = U[pivot], U[r]
            hr = H[r]
            ur = U[r]
            p = hr[c]
            done = True
            for i in range(r + 1, n):
                v = H[i][c]
                if v:
                    q = v // p
                    if q:
                        hi = H[i]
                        ui = U[i]
                        for j in range(c, A.cols):
                            hi[j] -= q * hr[j]
                        for j in range(n):
                            ui[j] -= q * ur[j]
                    if H[i][c]:
                        done = False
            if done:
                break
        if pivot < 0:
            continue
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        hr = H[r]
        ur = U[r]
        p = hr[c]
        for i in range(r):
            q = H[i][c] // p
            if q:
                hi = H[i]
                ui = U[i]
                for j in range(c, A.cols):
                    hi[j] -= q * hr[j]
                for j in range(n):
                    ui[j] -= q * ur[j]
        r += 1
        if r == n:
            break
    return IntMatrix(A.rows, A.cols, H), IntMatrix(n, n, U)


class SNFResult(NamedTuple):
    d: IntMatrix
    u: IntMatrix
    v: IntMatrix
    invariants: AbelianInvariants


def snf(A: IntMatrix) -> SNFResult:
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


def solve_in_row_lattice(A: IntMatrix, v: Sequence[int]) -> tuple[int, ...] | None:
    """Integer coefficients x with x.A = v, or None when v is not in the
    row lattice of A.  Any returned certificate has been re-verified by
    exact re-multiplication."""
    v = tuple(int(x) for x in v)
    if len(v) != A.cols:
        raise ValueError("vector length %d does not match %d columns" % (len(v), A.cols))
    H, U = hnf(A)
    w = list(v)
    y = [0] * A.rows
    row = 0
    for c in range(A.cols):
        if row < A.rows and H.entries[row][c]:
            p = H.entries[row][c]
            if w[c] % p:
                return None
            q = w[c] // p
            if q:
                hr = H.entries[row]
                for j in range(c, A.cols):
                    w[j] -= q * hr[j]
            y[row] = q
            row += 1
        elif w[c]:
            return None
    if any(w):
        return None
    x = U.row_mul(y)
    if A.row_mul(x) != v:
        raise AssertionError("lattice certificate failed re-verification")
    return x
