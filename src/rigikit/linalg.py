"""Exact dense linear algebra over a prime field.

Matrices are lists of row lists of ints in [0, p).  Everything is plain
Gaussian elimination with a fixed pivot rule (leftmost column, topmost
row), so results are deterministic for deterministic inputs.
"""

from __future__ import annotations

from .field import mod_inv


def rref(rows, p: int):
    """Reduced row-echelon form.

    Returns (R, pivot_cols).  R has the same shape as the input (possibly
    zero rows at the bottom); len(pivot_cols) is the rank.
    """
    R = [[x % p for x in row] for row in rows]
    if not R:
        return R, []
    ncols = len(R[0])
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = -1
        for i in range(r, len(R)):
            if R[i][c]:
                pivot = i
                break
        if pivot < 0:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = mod_inv(R[r][c], p)
        R[r] = [x * inv % p for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                m = R[i][c]
                R[i] = [(a - m * b) % p for a, b in zip(R[i], R[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(R):
            break
    return R, pivot_cols


def rank(rows, p: int) -> int:
    return len(rref(rows, p)[1])


def nullspace(rows, ncols: int, p: int):
    """Basis of the right kernel {x : rows @ x = 0}, one vector per free column."""
    R, pivots = rref(rows, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-R[r][fc]) % p
        basis.append(v)
    return basis


def mat_vec(rows, vec, p: int):
    return [sum(a * b for a, b in zip(row, vec)) % p for row in rows]
