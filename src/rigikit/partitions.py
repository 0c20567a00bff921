"""Bitmask helpers for exhaustive subset/partition minimization.

Used only by the brute-force oracles; everything here is exponential by
design and guarded by the callers' size limits.
"""

from __future__ import annotations


def submasks(mask: int):
    """All submasks of mask, descending, excluding 0 (unless mask == 0)."""
    s = mask
    while s:
        yield s
        s = (s - 1) & mask


def min_partition_table(n: int, cost):
    """Minimum of sum cost(part) over partitions of every mask of {0..n-1}.

    cost maps a nonzero bitmask to an int.  Returns the DP table best[mask];
    best[0] = 0 for the empty set.
    """
    full = (1 << n) - 1
    best = [0] * (full + 1)
    for m in range(1, full + 1):
        low = m & (-m)
        rest = m ^ low
        b = None
        # every partition has a unique part containing the lowest element
        t = rest
        while True:
            v = cost(t | low) + best[m ^ t ^ low]
            if b is None or v < b:
                b = v
            if t == 0:
                break
            t = (t - 1) & rest
        best[m] = b
    return best


def min_partition(n: int, cost):
    """Minimize sum of cost(part) over partitions of {0..n-1} into nonempty parts.

    Returns (value, parts) where parts is one minimizing partition as a
    list of bitmasks, read back from min_partition_table.  The empty
    ground set has value 0 and no parts.
    """
    best = min_partition_table(n, cost)
    parts = []
    m = (1 << n) - 1
    while m:
        # the first part, in the table's order, that attains best[m]
        low = m & (-m)
        rest = m ^ low
        t = rest
        while cost(t | low) + best[m ^ t ^ low] != best[m]:
            t = (t - 1) & rest
        parts.append(t | low)
        m ^= t | low
    return best[-1], parts
