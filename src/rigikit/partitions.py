"""Bitmask helpers for exhaustive subset/partition minimization.

Used only by the brute-force oracles; everything here is exponential by
design and guarded by the callers' size limits.  One DP gives every mask's
partition minimum; min_partition reads a minimizing partition back from it.
"""

from __future__ import annotations


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


def min_partition(best, cost, mask: int) -> list[int]:
    """One partition of mask attaining best[mask], as a list of bitmasks.

    best is min_partition_table's table for the same cost.  Each part is
    the first, in the table's submask order, that attains the minimum of
    what is left; the empty mask has no parts.
    """
    parts = []
    while mask:
        low = mask & (-mask)
        rest = mask ^ low
        t = rest
        while cost(t | low) + best[mask ^ t ^ low] != best[mask]:
            t = (t - 1) & rest
        parts.append(t | low)
        mask ^= t | low
    return parts
