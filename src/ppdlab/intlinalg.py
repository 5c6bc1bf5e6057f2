"""Small exact integer matrix utilities: the Smith normal form, and the
ranks and kernels read off it.

The routines work on lists of lists of Python ints and are sized for the tiny
matrices that arise when presenting subgroups and quotients of small groups
and when certifying cone rays.  The Smith form is the one exact elimination
here; every exact rank goes through rank and every exact linear solve through
kernel_basis or the Smith form itself, so no rational arithmetic is needed.
"""

from __future__ import annotations


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def rank(A) -> int:
    """Rank over Q of the integer matrix A: its count of nonzero invariant factors."""
    _, D, _ = smith_normal_form([list(row) for row in A])
    return sum(1 for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i])


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

