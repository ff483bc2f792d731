"""Exact integer matrix normal forms: the decision kernel for ideal arithmetic.

Row-style Hermite normal form with a unimodular transform, Smith
invariants, and lattice membership with re-verified certificates.  One
forward loop eliminates for both normal forms; only `hnf` reduces above
its pivots.  Its rows are dense lists, but a step touches only the rows
nonzero in the pivot column and, in each, only the columns where the pivot
row is nonzero: the Macaulay matrices of `grideal` are a few percent
dense.  H and U are those of the dense loop, kept as the test oracle
`tests/dense_hnf.py`.  The transform U of `hnf` is kept as the log of its
row operations (the product form of Dantzig and Orchard-Hays, 1954): a
certificate x = y.U replays the log on the one vector y, and the dense U
is built from the log only on first read of its entries.  Everything is
plain Python ints, so results are exact at any size; pivoting by minimal
absolute value keeps the intermediate entries from exploding.

The public `IntMatrix` constructor checks every entry.  The matrices the
kernel builds itself, the H of `hnf` and the degree pieces of `grideal`,
are made by `IntMatrix._trusted`, which takes rows of ints as they are.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "IntMatrix",
    "AbelianInvariants",
    "hnf",
    "snf",
    "solve_in_row_lattice",
]


class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers, row-major.

    Entries must be integers: a bool becomes an int, and a float or a
    string raises TypeError rather than being truncated.  `_trusted` skips
    those checks, for rows of ints that the kernel has just built.  `hnf`
    keeps its result on the matrix, so each matrix is eliminated at most
    once.
    """

    __slots__ = ("rows", "cols", "entries", "_hnf")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable[int]]):
        data = tuple(tuple(map(operator.index, row)) for row in entries)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entry count does not match %dx%d" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.entries = data
        self._hnf = None

    @classmethod
    def _trusted(cls, cols: int, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        """The matrix of `rows`, unchecked: only for rows of exactly `cols`
        ints, built by the kernel itself from validated matrices or
        polynomials."""
        M = object.__new__(cls)
        M.rows = len(rows)
        M.cols = cols
        M.entries = tuple(map(tuple, rows))
        M._hnf = None
        return M

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(rows[0])
        return IntMatrix(len(rows), cols, rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.cols, self.entries))

    def __repr__(self) -> str:
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, [list(r) for r in self.entries])

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


class _AbelianInvariants(NamedTuple):
    free_rank: int
    torsion: tuple[int, ...] = ()


class AbelianInvariants(_AbelianInvariants):
    """Finitely generated abelian group: free rank plus elementary divisors
    d1 | d2 | ... with every di >= 2.  The checks run at construction, and
    so again when a pickled value is loaded."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in torsion:
            if d < 2:
                raise ValueError("elementary divisor %d < 2" % d)
            if prev is not None and d % prev != 0:
                raise ValueError("divisibility chain broken: %d does not divide %d" % (prev, d))
            prev = d
        return super().__new__(cls, free_rank, torsion)

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


def _echelon(H: list[list[int]], cols: int, ops: list[tuple[int, int, int]] | None) -> list[int]:
    """Bring the rows H to row echelon form in place by forward elimination,
    and return the pivot column of each nonzero row: those rows come first,
    each pivot is positive with zeros left of it, and the rows above a pivot
    are not reduced.  When a list `ops` is given, each row operation is
    appended to it as one tuple: (i, r, q) for row i -= q.row r, (r, p, 0)
    for a swap of rows r and p, and (r, r, 0) for a negation of row r.
    Applied in order to the identity, the log gives the U with U.A = H.

    A step touches only nonzeros.  Column c collects once the rows at or
    below r that are nonzero in it.  The pivot is chosen among them, and
    each gcd pass reduces only them and keeps those still nonzero in c: a
    row that is zero in c never changes in c.  The pivot row's nonzero
    entries from c on are listed once per pivot row as (j, a) pairs, and
    a reduced row is updated only there.  The pivots and operations are
    the dense loop's (the first row of least nonzero |entry| is the
    pivot, q is the floor quotient, rows are reduced in increasing
    order)."""
    n = len(H)
    pivots = []
    r = 0
    for c in range(cols):
        rows = [i for i in range(r, n) if H[i][c]]
        if not rows:
            continue
        piv = None  # the nonzero (j, a) of H[r] from column c on
        while True:
            pivot = rows[0]
            best = abs(H[pivot][c])
            for i in rows:
                v = abs(H[i][c])
                if v < best:
                    pivot, best = i, v
            if pivot != r:
                H[r], H[pivot] = H[pivot], H[r]
                if ops is not None:
                    ops.append((r, pivot, 0))
                if rows[0] != r:
                    # the old row r, zero in c, moved down to the pivot's index
                    rows.remove(pivot)
                    rows.insert(0, r)
                piv = None
            if len(rows) == 1:
                break
            hr = H[r]
            p = hr[c]
            if piv is None:
                piv = [(j, a) for j, a in enumerate(hr[c:], c) if a]
            left = [r]
            for i in rows[1:]:
                hi = H[i]
                q = hi[c] // p
                if q:
                    for j, a in piv:
                        hi[j] -= q * a
                    if ops is not None:
                        ops.append((i, r, q))
                if hi[c]:
                    left.append(i)
            if len(left) == 1:
                break
            rows = left
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            if ops is not None:
                ops.append((r, r, 0))
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


class _LoggedTransform(IntMatrix):
    """The unimodular U of `hnf`, kept as the log of `_echelon`'s row
    operations.  `row_mul` replays the log on one vector; the dense
    entries, row k being e_k.U, are built on first read and then cached."""

    __slots__ = ("_ops", "_dense")

    def __init__(self, n: int, ops: list[tuple[int, int, int]]):
        self.rows = self.cols = n
        self._ops = ops
        self._dense = None
        self._hnf = None

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        if self._dense is None:
            n = self.rows
            self._dense = tuple(self.row_mul([int(i == k) for i in range(n)]) for k in range(n))
        return self._dense

    def row_mul(self, x: Sequence[int]) -> tuple[int, ...]:
        """x . U, by the transposed operations applied to x in reverse
        order: O(len(log)), and no matrix is built."""
        if len(x) != self.rows:
            raise ValueError("dimension mismatch in vector product")
        y = list(x)
        for i, r, q in reversed(self._ops):
            if q:
                if y[i]:
                    y[r] -= q * y[i]
            elif i != r:
                y[i], y[r] = y[r], y[i]
            else:
                y[i] = -y[i]
        return tuple(y)


def hnf(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U.A, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot), zero rows at the bottom.  H
    is canonical for the row lattice of A, so lattice equality is string
    equality of HNFs.  U is kept as the log of the row operations:
    `U.row_mul` replays it on one vector, and `U.entries` is built from
    it on first read.  The pair is kept on A, so a later call on the same
    matrix returns the same (H, U) without eliminating again.  The rows
    above each pivot are reduced after `_echelon`, in one top-down sweep:
    the loop never touches them, so their values are the dense loop's.
    """
    if A._hnf is None:
        H = [list(row) for row in A.entries]
        ops: list[tuple[int, int, int]] = []
        for r, c in enumerate(_echelon(H, A.cols, ops)):
            hr, piv = H[r], None  # piv: the nonzero (j, a) of H[r] from column c on
            p = hr[c]
            for i in range(r):
                hi = H[i]
                q = hi[c] // p
                if q:
                    if piv is None:
                        piv = [(j, a) for j, a in enumerate(hr[c:], c) if a]
                    for j, a in piv:
                        hi[j] -= q * a
                    ops.append((i, r, q))
        A._hnf = (IntMatrix._trusted(A.cols, H), _LoggedTransform(A.rows, ops))
    return A._hnf


def snf(A: IntMatrix) -> AbelianInvariants:
    """The invariants of the cokernel Z^cols / rowlattice(A), from the
    Smith normal form of A, built without transforms.  They and A.cols
    determine the Smith diagonal d1 | d2 | ...: cols - free_rank nonzero
    entries, the torsion preceded by ones.

    The elimination alternates echelon forms of the rows and of the columns
    (Kannan and Bachem, SIAM J. Comput. 8(4), 1979): each pass runs
    `_echelon`'s forward loop on the rows, drops the zero rows and
    transposes, until each pivot divides its row.  Column operations, bottom
    row first, would then leave only the pivots, so a gcd/lcm pass over them
    gives d1 | d2 | ...  A diagonal block stops the loop, so it ends: a
    cleared row or column stays clear, as the echelon keeps its lone pivot
    in place.  At the first k whose row or column is not clear, each pass
    makes the new (k, k) pivot the gcd of the line through the old one, so
    it divides it: it is the same only when that pass leaves row and column
    k clear, and otherwise at most half.

    When `hnf` has kept its H on A, the first pass starts from H: its
    rows span the same lattice, so the cokernel is the same.
    """
    D = [list(row) for row in (A if A._hnf is None else A._hnf[0]).entries]
    cols = A.cols
    while True:
        pivots = _echelon(D, cols, None)
        del D[len(pivots) :]
        if not any(x % row[c] for row, c in zip(D, pivots) for x in row):
            break
        D = [list(col) for col in zip(*D)]
        cols = len(pivots)
    diag = [row[c] for row, c in zip(D, pivots)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return AbelianInvariants(free_rank=A.cols - len(diag), torsion=tuple(x for x in diag if x >= 2))


def solve_in_row_lattice(A: IntMatrix, v: Sequence[int]) -> tuple[int, ...] | None:
    """Integer coefficients x with x.A = v, or None when v is not in the
    row lattice of A.  Any returned certificate has been re-verified by
    exact re-multiplication."""
    v = tuple(map(operator.index, v))
    if len(v) != A.cols:
        raise ValueError("vector length %d does not match %d columns" % (len(v), A.cols))
    H, U = hnf(A)
    entries, rows, cols = H.entries, A.rows, A.cols
    w = list(v)
    y = [0] * rows
    row = 0
    for c in range(cols):
        if row < rows and entries[row][c]:
            hr = entries[row]
            q, rest = divmod(w[c], hr[c])
            if rest:
                return None
            if q:
                for j in range(c, cols):
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
