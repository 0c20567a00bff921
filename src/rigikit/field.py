"""Prime-field scalars and deterministic random streams.

All exact linear algebra in this package runs over F_p for a configured
prime (default the Mersenne prime 2^31 - 1).  Field elements are plain
Python ints in [0, p); arithmetic is explicit ``% p``.  Randomness comes
from a small splitmix64 generator so that identical seeds give identical
results on every platform and Python version.

The stream is a contract, so that a seed replays the same realization.
``vector`` is its one rejection loop: each coordinate is the next
splitmix64 output below the largest multiple of p up to 2^64, reduced mod
p, and ``below(n)`` is ``vector(1, n)[0]``.  A bound above 2^64 has no
such multiple, so it raises instead of looping.
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


# The first 13 primes, and the least odd strong pseudoprime to the first k
# of them for k = 1..13 (OEIS A014233): n below the k-th is prime exactly
# when it passes Miller-Rabin at the first k bases.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3317044064679887385961981.

    n is tried at the first k prime bases for the least k whose pseudoprime
    bound exceeds n (4 for the default prime), and at all 13 above the last
    bound, where a pass means only a strong probable prime.
    """
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next((k for k, bound in enumerate(_PSEUDOPRIMES, 1) if n < bound), len(_BASES))
    for a in _BASES[:k]:
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

    def below(self, n: int) -> int:
        """Uniform int in [0, n)."""
        return self.vector(1, n)[0]

    def vector(self, length: int, p: int) -> tuple[int, ...]:
        """length uniform ints in [0, p), by rejection on the top 64-bit range."""
        if not 1 <= p <= 1 << 64:
            raise ValueError("draws need a bound in [1, 2^64], got %d" % p)
        limit = (1 << 64) - ((1 << 64) % p)
        s = self._state
        out = []
        while len(out) < length:
            s = (s + _GOLDEN) & _MASK64
            z = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
            z ^= z >> 31
            if z < limit:
                out.append(z % p)
        self._state = s
        return tuple(out)

    def nonzero_vector(self, length: int, p: int) -> tuple[int, ...]:
        while True:
            v = self.vector(length, p)
            if any(v):
                return v

    def spawn(self, index: int) -> "SplitMix64":
        return SplitMix64(_mix((self.seed + (index + 1) * _GOLDEN) & _MASK64))
