"""Integer residue symbols and factoring helpers.

The descent criteria are driven by four symbol flavours on top of plain
Jacobi: the quartic residue symbol (a/l)_4 for l = 1 mod 4, the octic
character (-4/p)_8 for p = 1 mod 8, and the two half symbols (2/l)_4 and
(l/2)_4. All of them take values in {+1, -1}; anything else raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import sympy

from .errors import (
    BadResidueClass,
    FactorBudgetExceeded,
    NonOddModulus,
    NotCoprime,
    UndefinedSymbol,
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
    r = pow(a % l, (l - 1) // 4, l)
    if r == 0:
        raise NotCoprime(f"quartic_symbol({a}, {l}): {l} divides {a}")
    if r == 1:
        return 1
    if r == l - 1:
        return -1
    # r^2 = -1 mod l exactly when a is a non-residue
    raise UndefinedSymbol(f"({a}/{l})_4 undefined: {a} is not a square mod {l}")


def quartic_symbol_product(a: int, n: int) -> int:
    """(a/n)_4 for odd composite n, as the product over prime factors.

    Every prime factor q of n must satisfy q = 1 mod 4 and (a/q) = +1.
    n = 1 gives the empty product +1.
    """
    result = 1
    for q, e in factor(n).factors:
        result *= quartic_symbol(a, q) ** e
    return result


def octic_minus4(p: int) -> int:
    """Octic character (-4/p)_8 = (-4)^((p-1)/8) mod p for p = 1 mod 8.

    -4 is a fourth power mod p (it is (1+i)^4 up to units), so the value
    is always +1 or -1.
    """
    if p % 8 != 1 or not is_prime(p):
        raise BadResidueClass(f"octic character needs a prime = 1 mod 8, got {p}")
    r = pow(-4 % p, (p - 1) // 8, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise UndefinedSymbol(f"(-4/{p})_8 landed outside +-1; {p} is not prime")


def octic_minus4_product(n: int) -> int:
    """(-4/n)_8 for n a product of primes = 1 mod 8, defined multiplicatively."""
    result = 1
    for q, e in factor(n).factors:
        result *= octic_minus4(q) ** e
    return result


def half_symbols(l: int) -> tuple[int, int]:
    """The pair ((2/l)_4, (l/2)_4) for a prime l = 1 mod 8.

    (2/l)_4 is the genuine quartic symbol (2 is a square mod l here);
    (l/2)_4 is the conventional (-1)^((l-1)/8). Their product equals
    (-4/l)_8, which is a theorem, not the definition, and is tested as such.
    """
    if l % 8 != 1 or not is_prime(l):
        raise BadResidueClass(f"half symbols need a prime = 1 mod 8, got {l}")
    two = quartic_symbol(2, l)
    lhalf = 1 if (l - 1) // 8 % 2 == 0 else -1
    return two, lhalf


@dataclass(frozen=True)
class FactoredInteger:
    """Sign and prime factorization (p, e) pairs, p ascending."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v

    @property
    def radical(self) -> int:
        r = 1
        for p, _ in self.factors:
            r *= p
        return r

    def squarefree_part(self) -> int:
        s = self.sign
        for p, e in self.factors:
            if e % 2:
                s *= p
        return s


_FACTOR_LIMIT = 10**18


def factor(n: int, limit: int | None = None) -> FactoredInteger:
    """Factor a nonzero integer into FactoredInteger form.

    Uses deterministic methods well past 2^64; above the default budget
    (10^18) raises FactorBudgetExceeded rather than stalling. The largest
    numbers the package factors are the torsor constants -k^2 and 4k^2
    (odd k) or k^2/4 (even k), so descend handles odd k up to 5*10^8 and
    even k up to 10^9, and raises FactorBudgetExceeded above that.
    """
    if n == 0:
        raise BadResidueClass("cannot factor 0")
    if limit is None:
        limit = _FACTOR_LIMIT
    if abs(n) > limit:
        raise FactorBudgetExceeded(f"|{n}| exceeds factoring budget {limit}")
    sign = 1 if n > 0 else -1
    fd = sympy.factorint(abs(n))
    return FactoredInteger(sign, tuple(sorted(fd.items())))


def is_prime(n: int) -> bool:
    return bool(sympy.isprime(n))


def primes_in(lo: int, hi: int, residue: int | None = None, mod: int = 8) -> list[int]:
    """Primes in [lo, hi), optionally restricted to residue mod `mod`."""
    ps = sympy.primerange(lo, hi)
    if residue is None:
        return list(ps)
    return [p for p in ps if p % mod == residue]
