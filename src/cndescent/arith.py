"""Integer residue symbols and the elementary number theory under them.

The descent criteria are driven by two symbol flavours on top of plain
Jacobi: the quartic residue symbol (a/l)_4 for l = 1 mod 4 and the octic
character (-4/p)_8 for p = 1 mod 8. Both take values in {+1, -1};
anything else raises.

Primality, factoring and prime ranges are plain-int code with the
standard methods (Cohen, A Course in Computational Algebraic Number
Theory, 8.2), so the package has no runtime dependency. Square roots mod p
live in `quadring` as a closed form for the three rings' omega^2.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count
from math import gcd, isqrt, prod
from typing import NamedTuple

from .errors import (
    BadResidueClass,
    FactorBudgetExceeded,
    NonOddModulus,
    NotCoprime,
    PreconditionUnmet,
    UndefinedSymbol,
    is_int,
)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, via the binary algorithm.

    Raises NotCoprime when gcd(a, n) > 1 instead of returning 0, so a
    vanishing symbol can never be mistaken for a sign.
    """
    if n <= 0 or n % 2 == 0:
        raise NonOddModulus(f"jacobi modulus must be odd and positive, got {n}")
    a %= n
    if n > 1 and gcd(a, n) != 1:
        raise NotCoprime(f"jacobi({a}, {n}): arguments share a factor")
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        # reciprocity flip uses the residues before the swap
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result  # n == 1 here, guaranteed by the coprimality check


def quartic_symbol(a: int, l: int) -> int:
    """Quartic residue symbol (a/l)_4 = a^((l-1)/4) mod l, in {+1, -1}.

    Defined only when l is prime, l = 1 mod 4, and a is a nonzero square
    mod l; otherwise UndefinedSymbol (or NotCoprime when l | a).
    """
    if l % 4 != 1 or not is_prime(l):
        raise BadResidueClass(f"quartic symbol needs a prime = 1 mod 4, got {l}")
    return _quartic(a, l)


def _quartic(a: int, l: int) -> int:
    """`quartic_symbol` for a prime l = 1 mod 4, unchecked."""
    r = pow(a % l, (l - 1) // 4, l)
    if r == 0:
        raise NotCoprime(f"quartic_symbol({a}, {l}): {l} divides {a}")
    if r == 1:
        return 1
    if r == l - 1:
        return -1
    # r^2 = -1 mod l exactly when a is a non-residue
    raise UndefinedSymbol(f"({a}/{l})_4 undefined: {a} is not a square mod {l}")


def octic_minus4(p: int) -> int:
    """Octic character (-4/p)_8 = (-4)^((p-1)/8) mod p for p = 1 mod 8.

    For such p, i exists mod p and -4 = (1+i)^4, so the value squares to
    (1+i)^(p-1) = 1 and is always +1 or -1.
    """
    if p % 8 != 1 or not is_prime(p):
        raise BadResidueClass(f"octic character needs a prime = 1 mod 8, got {p}")
    return _octic(p)


def _octic(p: int) -> int:
    """`octic_minus4` for a prime p = 1 mod 8, unchecked."""
    return 1 if pow(-4 % p, (p - 1) // 8, p) == 1 else -1


def _legendre(x: int, q: int) -> int:
    """The Legendre symbol (x/q) by Euler's criterion, for an odd prime q
    that does not divide x, unchecked."""
    return 1 if pow(x, (q - 1) // 2, q) == 1 else -1


class FactoredInteger(NamedTuple):
    """Sign and prime factorization (p, e) pairs, p ascending."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v

    def squarefree_part(self) -> int:
        s = self.sign
        for p, e in self.factors:
            if e % 2:
                s *= p
        return s


def _sieve(lo: int, hi: int) -> bytearray:
    """Primality flags of [lo, hi), 2 <= lo < hi: a sieve of Eratosthenes
    over the segment alone, crossed off by the primes up to sqrt(hi), so
    it takes hi - lo + sqrt(hi) bytes."""
    flags = bytearray([1]) * (hi - lo)
    for q in primes_in(2, isqrt(hi - 1) + 1):
        start = max(q * q, -(-lo // q) * q) - lo
        if start < hi - lo:  # most base primes miss a short, far window
            flags[start::q] = bytes(len(range(start, hi - lo, q)))
    return flags


def primes_in(lo: int, hi: int, residue: int | None = None) -> list[int]:
    """Primes in [lo, hi), optionally only those = residue mod 8, from
    `_sieve` over the range. Raises PreconditionUnmet for a bound or
    residue that is not an int."""
    if not (is_int(lo) and is_int(hi) and (residue is None or is_int(residue))):
        raise PreconditionUnmet(f"primes_in needs ints, got {lo!r}, {hi!r}, {residue!r}")
    lo = max(lo, 2)
    if hi <= lo:
        return []
    ps = compress(range(lo, hi), _sieve(lo, hi))
    if residue is None:
        return list(ps)
    residue %= 8
    return [p for p in ps if p % 8 == residue]


# is_prime answers n below this bound from one bit per n, bit n & 7 of byte
# n >> 3. Reversed in place, the sieve's flags for n = 2, 3, ... are the
# binary digits of the table as a little-endian int, shifted down by 2.
_TABLE_BOUND = 1 << 16
_flags = _sieve(2, _TABLE_BOUND)
_TRIAL_PRIMES = tuple(compress(range(2, 1000), _flags))
_flags.reverse()
_PRIME_TABLE = (int(_flags.translate(bytes.maketrans(b"\0\1", b"01")), 2) << 2).to_bytes(
    _TABLE_BOUND // 8, "little"
)
del _flags
_SMALL_PRIMES = _TRIAL_PRIMES[:13]  # 2 .. 41
_SMALL_PRIMORIAL = prod(_SMALL_PRIMES)  # 304250263527210

# (bound, k): Miller-Rabin to the first k primes is exact for n < bound, the
# least strong pseudoprime to all of them (Jaeschke, Math. Comp. 61 (1993);
# Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BOUNDS = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
    (318665857834031151167461, 12), (3317044064679887385961981, 13),
)


def _strong_probable_prime(n: int, bases: tuple[int, ...]) -> bool:
    """Miller-Rabin: n passes the strong test to every base (n odd, > base)."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's P = 1, Q = (1 - D)/4 (odd n, no
    factor below 43)."""
    if isqrt(n) ** 2 == n:
        return False
    d = 5
    try:
        while jacobi(d, n) != -1:
            d = -d - 2 if d > 0 else -d + 2
    except NotCoprime:
        return False
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    half = (n + 1) // 2
    # (u, v, qk) = (U_k, V_k, Q^k) mod n, k running over the bits of (n + 1) >> s
    u, v, qk = 1, 1, q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (d * u + v) * half % n, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether the integer n is prime (False for n < 2).

    Below _TABLE_BOUND = 2^16 one bit of `_PRIME_TABLE` answers: the
    table is 8 KiB, sieved once at import by `_sieve` in about 0.3 ms.
    Above it, `_probable_prime`.
    """
    if n < _TABLE_BOUND:
        return n >= 2 and _PRIME_TABLE[n >> 3] >> (n & 7) & 1 == 1
    return _probable_prime(n)


def _probable_prime(n: int) -> bool:
    """Primality of an integer n >= 2 without the table.

    Trial division by the primes up to 41, as one gcd with their product,
    then Miller-Rabin to the first k primes, with k chosen by the size of
    n so that the answer is proven exact below 3.317*10^24. Above that it
    is BPSW, a strong base-2 test plus a strong Lucas-Selfridge test
    (Baillie and Wagstaff, Math. Comp. 35 (1980)), which no known
    composite passes.
    """
    if gcd(n, _SMALL_PRIMORIAL) != 1:  # a prime up to 41 divides n
        return n in _SMALL_PRIMES
    if n < 43 * 43:
        return True
    for bound, k in _MR_BOUNDS:
        if n < bound:
            return _strong_probable_prime(n, _SMALL_PRIMES[:k])
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def _pollard_brent(n: int) -> int:
    """A proper factor of an odd composite n: Pollard's rho with Brent's
    cycle search and batched gcds (Brent, BIT 20 (1980))."""
    for c in count(1):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                done += 128
            r *= 2
        if g == n:  # the batch overshot: step back through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


_FACTOR_LIMIT = 10**18


@lru_cache(maxsize=256)
def factor(n: int) -> FactoredInteger:
    """Factor a nonzero integer into FactoredInteger form.

    Trial division by the primes below 1000, then for each cofactor a
    perfect-square check, `is_prime`, and Pollard-Brent rho. Above the
    budget _FACTOR_LIMIT (10^18) raises FactorBudgetExceeded rather than
    stalling; the hardest case left to rho is two primes near 10^9. The
    largest numbers the package factors are the torsor constants -k^2 and
    4k^2 (odd k) or k^2/4 (even k), so descend handles odd k up to 5*10^8
    and even k up to 10^9, and raises FactorBudgetExceeded above that.

    Memoized for the last 256 distinct n. A FactoredInteger is a tuple of
    ints and tuples, so every caller can share one result. Every
    torsor of a side has the same constant b1 b2, so a descend factors three
    integers, -k^2, the phi constant and k, however many torsors it tests.
    Errors are not cached: factor(0) or an n over the budget raises on every
    call.
    """
    if n == 0:
        raise BadResidueClass("cannot factor 0")
    if abs(n) > _FACTOR_LIMIT:
        raise FactorBudgetExceeded(f"|{n}| exceeds factoring budget {_FACTOR_LIMIT}")
    sign = 1 if n > 0 else -1
    n = abs(n)
    exps: dict[int, int] = {}
    for q in _TRIAL_PRIMES:
        if q * q > n:
            break
        while n % q == 0:
            n //= q
            exps[q] = exps.get(q, 0) + 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        r = isqrt(m)
        if r * r == m:
            stack += [r, r]
        elif m < 10**6 or is_prime(m):  # no factor below 1000 is left in m
            exps[m] = exps.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            stack += [d, m // d]
    return FactoredInteger(sign, tuple(sorted(exps.items())))

