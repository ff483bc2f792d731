"""Exact integer matrix normal forms: the decision kernel for ideal arithmetic.

Row-style Hermite normal form with a unimodular transform, Smith
invariants, and lattice membership with re-verified certificates.  One
elimination loop serves both normal forms.  Everything is plain Python
ints, so results are exact at any size; pivoting by minimal absolute
value keeps the intermediate entries from exploding.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
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


def _echelon(H: list[list[int]], cols: int, U: list[list[int]] | None) -> int:
    """Bring the rows H to row-style Hermite normal form in place and
    return the rank.  Each row operation is also applied to the rows U
    when they are given, so U.A = H holds on return if U started as the
    identity."""
    n = len(H)
    r = 0
    for c in range(cols):
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
                if U is not None:
                    U[r], U[pivot] = U[pivot], U[r]
            hr = H[r]
            ur = U[r] if U is not None else None
            p = hr[c]
            done = True
            for i in range(r + 1, n):
                v = H[i][c]
                if v:
                    q = v // p
                    if q:
                        hi = H[i]
                        for j in range(c, cols):
                            hi[j] -= q * hr[j]
                        if ur is not None:
                            ui = U[i]
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
            if U is not None:
                U[r] = [-x for x in U[r]]
        hr = H[r]
        ur = U[r] if U is not None else None
        p = hr[c]
        for i in range(r):
            q = H[i][c] // p
            if q:
                hi = H[i]
                for j in range(c, cols):
                    hi[j] -= q * hr[j]
                if ur is not None:
                    ui = U[i]
                    for j in range(n):
                        ui[j] -= q * ur[j]
        r += 1
        if r == n:
            break
    return r


def hnf(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U.A, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot), zero rows at the bottom.  H
    is canonical for the row lattice of A, so lattice equality is string
    equality of HNFs.
    """
    H = [list(row) for row in A.entries]
    n = A.rows
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    _echelon(H, A.cols, U)
    return IntMatrix(n, A.cols, H), IntMatrix(n, n, U)


class SNFResult(NamedTuple):
    d: IntMatrix
    invariants: AbelianInvariants


def snf(A: IntMatrix) -> SNFResult:
    """Smith normal form D of A, without transforms.

    The diagonal of D is non-negative and satisfies d1 | d2 | ..., with
    zeros last; the reported invariants are those of the cokernel
    Z^cols / rowlattice(A).

    The elimination alternates Hermite forms of the rows and of the
    columns (Kannan and Bachem, SIAM J. Comput. 8(4), 1979): each pass
    echelons the rows, drops the zero rows and transposes, until the
    block is diagonal.  The loop ends.  A cleared row or column stays
    clear, since its pivot divides the rest of its column and is the
    first minimal entry there, so the echelon keeps it in place.  At
    the first k whose row or column is not clear, each pass makes the
    new (k, k) pivot the gcd of the line through the old one, so it
    divides it: it is the same only when that pass leaves row and
    column k clear, and otherwise it is at most half.  A gcd/lcm pass
    over the diagonal then gives d1 | d2 | ...
    """
    D = [list(row) for row in A.entries]
    cols = A.cols
    while True:
        rank = _echelon(D, cols, None)
        del D[rank:]
        if all(not any(row[i + 1 :]) for i, row in enumerate(D)):
            break
        D = [list(col) for col in zip(*D)]
        cols = rank
    diag = [row[i] for i, row in enumerate(D)]
    for i in range(rank):
        for j in range(i + 1, rank):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    d = [[0] * A.cols for _ in range(A.rows)]
    for i, x in enumerate(diag):
        d[i][i] = x
    invariants = AbelianInvariants(
        free_rank=A.cols - rank, torsion=tuple(x for x in diag if x >= 2)
    )
    return SNFResult(IntMatrix(A.rows, A.cols, d), invariants)


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
