"""The dense Hermite normal form kernel, kept as a test oracle.

This is the elimination that `chowforge.zlinalg.hnf` used before it kept
its transform as a log of row operations: every row operation goes to a
dense m x m U as it happens, and lattice membership reads its certificate
from that U.  Tests check the production H, U, `U.row_mul` and lattice
certificates against it.
"""

from __future__ import annotations

from typing import Sequence

from chowforge.zlinalg import IntMatrix


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


def dense_hnf(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
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


def dense_solve_in_row_lattice(A: IntMatrix, v: Sequence[int]) -> tuple[int, ...] | None:
    """Integer coefficients x with x.A = v, or None when v is not in the
    row lattice of A.  Any returned certificate has been re-verified by
    exact re-multiplication."""
    v = tuple(int(x) for x in v)
    if len(v) != A.cols:
        raise ValueError("vector length %d does not match %d columns" % (len(v), A.cols))
    H, U = dense_hnf(A)
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
