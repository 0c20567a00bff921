"""Exact sparse linear algebra over a prime field.

A row is a tuple of (column, value) pairs in increasing column order, with
every value in [1, p); the zero row is the empty tuple.  ``sparse`` turns a
dense vector into a row and ``dense`` turns it back.  One primitive,
``Echelon``, answers every question: it grows a row echelon form one row
at a time, in a table keyed by pivot column, its highest column.  A row is
stored unscaled, and beside it the inverse of its value at the pivot: one
inverse per pivot, none per row.  A row whose highest column is no pivot is
stored as given, with no copy.  Any other row ``reduce`` copies into a
dense list and walks down from its highest column: at a pivot c holding m
it subtracts the stored row times m * inverse[c], which reaches only
further left, lowering the walk's floor where fill appears, and it stops at
the first nonzero column that is no pivot.  So a two-block row pivots in
its later vertex block, and a rigidity matrix is eliminated vertex by
vertex in reverse block order.

``rank`` is plain elimination, with no caller-specific shortcut: a builder
that would repeat rows (parallel edge flats) emits them once.  It ranks the
formal trivial family of a rigidity matrix; the matrix itself grows an
``Echelon``, dropping the columns its trivial motions make redundant, and
stops at full column rank.  ``rref``
takes and returns dense rows: it feeds the echelon its rows column-mirrored,
so each pivot is its row's first column, scales each stored row to 1 at its
pivot, then clears each pivot from the other rows.  It and ``nullspace``
serve small dense systems: the at most two constraints that cut out an
edge's flat in a truncated graphic union, or a bar flat of the edge-flat
reference matrix; the flat-family rank needs no nullspace.  The reduced
row-echelon form of a row space is unique, so ``rref`` and ``nullspace``
do not depend on the order in which rows are given, and results are
deterministic for deterministic inputs.
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
    """A row echelon basis over F_p, grown one row at a time.

    table maps each pivot column to its stored row, in the order the rows
    were stored; a stored row ends at its pivot, unscaled, and inverse maps
    the pivot to the inverse of the row's value there.
    """

    __slots__ = ("p", "table", "inverse")

    def __init__(self, p: int):
        self.p = p
        self.table: dict[int, tuple] = {}
        self.inverse: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.table)

    def reduce(self, row) -> tuple:
        """row less pivot rows until its highest column is no pivot; empty iff in the span.

        A row whose highest column is no pivot comes back as the same tuple.
        """
        if not row:
            return ()
        c = row[-1][0]
        get = self.table.get
        if get(c) is None:
            return row
        p = self.p
        inverse = self.inverse
        v = [0] * (c + 1)
        for k, x in row:
            v[k] = x
        floor = row[0][0]
        while c >= floor:
            m = v[c]
            if m:
                stored = get(c)
                if stored is None:
                    return tuple([(k, v[k]) for k in range(floor, c + 1) if v[k]])
                f = m * inverse[c] % p
                for k, b in stored:
                    v[k] = (v[k] - f * b) % p
                if stored[0][0] < floor:
                    floor = stored[0][0]
            c -= 1
        return ()

    def add(self, row) -> bool:
        """Store row's residual, if nonzero, and its pivot's inverse; True iff the rank grew."""
        v = self.reduce(row)
        if not v:
            return False
        c, lead = v[-1]
        self.table[c] = v
        self.inverse[c] = mod_inv(lead, self.p)
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
        ech.add(sparse(row[::-1], p))  # mirrored: each pivot is its row's lowest column
    ncols = len(rows[0]) if rows else 0
    mirrored = sorted(ech.table, reverse=True)
    R = [[x * ech.inverse[c] % p for x in dense(ech.table[c], ncols)[::-1]]
         for c in mirrored]
    pivots = [ncols - 1 - c for c in mirrored]
    # Clearing the pivots in increasing order: row j is zero left of its
    # pivot, so it cannot bring back a pivot cleared before.
    for j, pc in enumerate(pivots):
        for i in range(j):
            m = R[i][pc]
            if m:
                R[i] = [(a - m * b) % p for a, b in zip(R[i], R[j])]
    R.extend([0] * ncols for _ in range(len(rows) - len(R)))
    return R, pivots


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
