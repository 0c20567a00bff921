"""Prime-field scalars and deterministic random streams.

All exact linear algebra in this package runs over F_p for a configured
prime (default the Mersenne prime 2^31 - 1).  Field elements are plain
Python ints in [0, p); arithmetic is explicit ``% p``.  Randomness comes
from a small splitmix64 generator so that identical seeds give identical
results on every platform and Python version.
"""

from __future__ import annotations

DEFAULT_PRIME = 2**31 - 1

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mod_inv(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod %d" % p)
    return pow(a, -1, p)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3317044064679887385961981."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError("modulus %d is not prime" % p)
    return p


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Tiny deterministic PRNG (splitmix64).

    ``spawn(i)`` derives an independent child stream: the child seed is
    ``mix(seed + (i + 1) * golden)``.  This is the documented per-case /
    per-trial seed derivation used by the fuzz harness: case ``i`` of a
    run with master seed ``s`` always sees the same stream, whatever
    other cases the run holds.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform int in [0, n), by rejection on the top 64-bit range."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def field_elem(self, p: int) -> int:
        return self.below(p)

    def nonzero_field_elem(self, p: int) -> int:
        return 1 + self.below(p - 1)

    def vector(self, length: int, p: int) -> tuple[int, ...]:
        return tuple(self.below(p) for _ in range(length))

    def nonzero_vector(self, length: int, p: int) -> tuple[int, ...]:
        while True:
            v = self.vector(length, p)
            if any(v):
                return v

    def spawn(self, index: int) -> "SplitMix64":
        return SplitMix64(_mix((self.seed + (index + 1) * _GOLDEN) & _MASK64))
