"""Exact dense linear algebra over a prime field.

Vectors are sequences of ints (lists or tuples); matrices are sequences of
such rows.  One primitive, ``Echelon``, answers every question: it grows a
row echelon form one vector at a time.  Each stored row is monic at its
pivot, zero left of it, and zero at the pivot of every row stored before
it, so ``reduce`` clears the pivot columns in insertion order and only
touches columns from each pivot onward.

``rank`` is forward elimination alone.  ``rref`` adds one back-substitution
and sorts the rows by pivot; the reduced row-echelon form of a row space is
unique, so ``rref`` and ``nullspace`` do not depend on the order in which
rows are given, and results are deterministic for deterministic inputs.
"""

from __future__ import annotations

from .field import mod_inv


class Echelon:
    """A row echelon basis over F_p, grown one vector at a time."""

    __slots__ = ("p", "rows", "pivots")

    def __init__(self, p: int):
        self.p = p
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list[int]:
        """A fresh copy of vec with every pivot column cleared; zero iff in the span."""
        p = self.p
        v = [x % p for x in vec]
        for row, c in zip(self.rows, self.pivots):
            m = v[c]
            if m:
                v[c:] = [(a - m * b) % p for a, b in zip(v[c:], row[c:])]
        return v

    def add(self, vec) -> bool:
        """Store vec's residual if it is nonzero; True iff the rank grew."""
        v = self.reduce(vec)
        for c, x in enumerate(v):
            if x:
                inv = mod_inv(x, self.p)
                v[c:] = [y * inv % self.p for y in v[c:]]
                self.rows.append(v)
                self.pivots.append(c)
                return True
        return False


def rank(rows, p: int) -> int:
    ech = Echelon(p)
    for row in rows:
        if ech.add(row) and ech.rank == len(row):
            break
    return ech.rank


def rref(rows, p: int):
    """Reduced row-echelon form.

    Returns (R, pivot_cols).  R has the same shape as the input (possibly
    zero rows at the bottom); len(pivot_cols) is the rank.
    """
    ech = Echelon(p)
    for row in rows:
        ech.add(row)
    # Back-substitution: re-adding the rows from the last pivot to the first
    # clears every later pivot column from each row.
    back = Echelon(p)
    for i in sorted(range(ech.rank), key=ech.pivots.__getitem__, reverse=True):
        back.add(ech.rows[i])
    R, pivot_cols = back.rows[::-1], back.pivots[::-1]
    if rows:
        R.extend([0] * len(rows[0]) for _ in range(len(rows) - len(R)))
    return R, pivot_cols


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
