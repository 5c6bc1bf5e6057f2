"""Small exact matrix utilities: Smith normal form, kernels, and elimination.

The integer routines work on lists of lists of Python ints and are sized for
the tiny matrices that arise when presenting subgroups and quotients of
groups of order at most 64.  rref is the one exact Gauss-Jordan elimination;
it runs over Q and over cyclotomic fields alike.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    return [
        [sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def smith_normal_form(A):
    """Return (U, D, V) with U @ A @ V == D diagonal, d_i | d_{i+1}, U, V unimodular."""
    D = [row[:] for row in A]
    n = len(D)
    m = len(D[0]) if n else 0
    U = identity(n)
    V = identity(m)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for row in D:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    while t < min(n, m):
        # locate a minimal-magnitude nonzero entry in the trailing block
        best = None
        for i in range(t, n):
            for j in range(t, m):
                v = abs(D[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)

        dirty = False
        for i in range(t + 1, n):
            if D[i][t]:
                q = D[i][t] // D[t][t]
                add_row(t, i, -q)
                if D[i][t]:
                    dirty = True
        for j in range(t + 1, m):
            if D[t][j]:
                q = D[t][j] // D[t][t]
                add_col(t, j, -q)
                if D[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        p = D[t][t]
        bad = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if D[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1

    for i in range(min(n, m)):
        if D[i][i] < 0:
            D[i] = [-x for x in D[i]]
            U[i] = [-x for x in U[i]]
    return U, D, V


def kernel_basis(A):
    """Basis (list of vectors) of the integer kernel of A as a map Z^m -> Z^n."""
    n = len(A)
    m = len(A[0]) if n else 0
    _, D, V = smith_normal_form(A)
    out = []
    for j in range(m):
        dj = D[j][j] if j < min(n, m) else 0
        if dj == 0:
            out.append([V[i][j] for i in range(m)])
    return out


def rref(rows, width: int):
    """Reduced row echelon form over a field whose zero is falsy (Fraction, Cyc).

    Pivots are sought in the first width columns only, so augmented columns
    ride along.  Returns the reduced rows, pivot rows first with pivot 1, and
    the pivot columns.  Integer entries become Fractions as rows are scaled.
    """
    mat = [list(r) for r in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                mat[i] = [x - f * y for x, y in zip(row, mat[r])]
        pivots.append(c)
    return mat, pivots


def solve(mat, rhs):
    """A solution x of mat @ x = rhs, free unknowns 0; None when there is none."""
    m = len(mat[0]) if mat else 0
    red, pivots = rref([list(row) + [b] for row, b in zip(mat, rhs)], m)
    if any(row[m] for row in red[len(pivots):]):
        return None
    x = [Fraction(0)] * m
    for row, c in zip(red, pivots):
        x[c] = row[m]
    return x


def left_inverse(cols) -> tuple[list[list[int]], int]:
    """(N, den) with N @ B = den * I, for the integer matrix B of full column
    rank given by its columns: one elimination of [B^T | I]."""
    n, m = len(cols), len(cols[0])
    red, pivots = rref([list(c) + [int(i == j) for j in range(n)]
                        for i, c in enumerate(cols)], m)
    if len(pivots) < n:
        raise ValueError("columns are linearly dependent")
    N = [[Fraction(0)] * m for _ in range(n)]
    for row, c in zip(red, pivots):
        for i in range(n):
            N[i][c] = row[m + i]
    den = lcm(*[x.denominator for row in N for x in row])
    return [[int(x * den) for x in row] for row in N], den


def int_inverse(U) -> list[list[int]]:
    """Inverse of a unimodular integer matrix."""
    inv, den = left_inverse([list(col) for col in zip(*U)])
    if den != 1:
        raise AssertionError("matrix was not unimodular")
    return inv
