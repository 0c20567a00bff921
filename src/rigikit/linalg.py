"""Exact sparse linear algebra over a prime field.

A row is a tuple of (column, value) pairs in increasing column order, with
every value in [1, p); the zero row is the empty tuple.  ``sparse`` turns a
dense vector into a row and ``dense`` turns it back.  One primitive,
``Echelon``, answers every question: it grows a row echelon form one row
at a time.  Each stored row is monic at its pivot (its first pair), has no
pair left of it, and none at the pivot of any row stored before it, so
``reduce`` clears the pivot columns in insertion order and only touches
each stored row's own pairs.

``rank`` is plain forward elimination, with no caller-specific shortcut:
a builder that would repeat rows (parallel edge flats) emits them once.
``rref`` takes and returns dense rows: it adds one back-substitution and
sorts the rows by pivot.  It and ``nullspace`` serve small dense systems:
the at most two constraints that cut out an edge's flat in a truncated
graphic union, or a bar flat of the edge-flat reference matrix; the
flat-family rank needs no nullspace.  The reduced row-echelon form of a
row space is unique, so ``rref`` and ``nullspace`` do not depend on the
order in which rows are given, and results are deterministic for
deterministic inputs.
"""

from __future__ import annotations

from .field import mod_inv


def sparse(vec, p: int) -> tuple:
    """The row of a dense vector: its nonzero entries mod p, as (column, value) pairs."""
    return tuple((c, x % p) for c, x in enumerate(vec) if x % p)


def dense(row, ncols: int) -> list[int]:
    """The dense vector, ncols entries long, of a row."""
    vec = [0] * ncols
    for c, x in row:
        vec[c] = x
    return vec


def monic(vec, p: int):
    """vec mod p scaled so that its first nonzero entry is 1, as a tuple; None if vec is zero."""
    lead = next((x for x in vec if x % p), 0)
    if not lead:
        return None
    inv = mod_inv(lead, p)
    return tuple([x * inv % p for x in vec])


class Echelon:
    """A row echelon basis over F_p, grown one row at a time."""

    __slots__ = ("p", "rows", "pivots")

    def __init__(self, p: int):
        self.p = p
        self.rows: list[tuple] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row) -> dict:
        """row with every pivot column cleared, as {column: value}; empty iff in the span."""
        p = self.p
        v = dict(row)
        get = v.get
        for c, stored in zip(self.pivots, self.rows):
            m = get(c)
            if m:
                for k, b in stored:
                    x = (get(k, 0) - m * b) % p
                    if x:
                        v[k] = x
                    else:
                        del v[k]
        return v

    def add(self, row) -> bool:
        """Store row's residual if it is nonzero; True iff the rank grew."""
        v = self.reduce(row)
        if not v:
            return False
        p = self.p
        items = sorted(v.items())
        inv = mod_inv(items[0][1], p)
        self.rows.append(tuple([(k, x * inv % p) for k, x in items]))
        self.pivots.append(items[0][0])
        return True


def rank(rows, p: int) -> int:
    ech = Echelon(p)
    for row in rows:
        ech.add(row)
    return ech.rank


def rref(rows, p: int):
    """Reduced row-echelon form of dense rows.

    Returns (R, pivot_cols).  R is dense with the same shape as the input
    (possibly zero rows at the bottom); len(pivot_cols) is the rank.
    """
    ech = Echelon(p)
    for row in rows:
        ech.add(sparse(row, p))
    # Back-substitution: re-adding the rows from the last pivot to the first
    # clears every later pivot column from each row.
    back = Echelon(p)
    for i in sorted(range(ech.rank), key=ech.pivots.__getitem__, reverse=True):
        back.add(ech.rows[i])
    ncols = len(rows[0]) if rows else 0
    R = [dense(row, ncols) for row in back.rows[::-1]]
    R.extend([0] * ncols for _ in range(len(rows) - len(R)))
    return R, back.pivots[::-1]


def nullspace(rows, ncols: int, p: int):
    """Basis of the right kernel {x : rows @ x = 0} of dense rows, one vector per free column."""
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
    """Each sparse row applied to the dense vector vec.

    Nothing in the package calls it: the tests check sparse rows with it,
    and perfbench/tracer.py traces it by name.
    """
    return [sum([b * vec[c] for c, b in row]) % p for row in rows]
