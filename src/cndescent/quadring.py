"""Arithmetic in Z[i], Z[sqrt(2)], Z[sqrt(-2)] and their residue symbols.

These three rings are norm-Euclidean PIDs, which is all the splitting code
relies on. The central export is `symbol_capital`, the quadratic residue
symbol [P/L] of one primary split prime modulo another; its conjugate
independence (for (p/l) = +1) and reciprocity are verified by the test
suite, not assumed here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_prime, jacobi, sqrt_mod_prime
from .errors import (
    BadResidueClass,
    CompositeModulus,
    Inert,
    NoPrimaryAssociate,
    NotCoprime,
    UndefinedSymbol,
)


@dataclass(frozen=True)
class Ring:
    name: str
    omega2: int  # omega^2: -1, 2, or -2

    def __repr__(self) -> str:
        return self.name


GAUSS = Ring("Z[i]", -1)
SQRT2 = Ring("Z[sqrt2]", 2)
SQRTM2 = Ring("Z[sqrt-2]", -2)

RINGS = (GAUSS, SQRT2, SQRTM2)


@dataclass(frozen=True)
class QuadInt:
    """a + b*omega in the given ring."""

    ring: Ring
    a: int
    b: int

    @property
    def norm(self) -> int:
        return self.a * self.a - self.ring.omega2 * self.b * self.b

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def conj(self) -> "QuadInt":
        return QuadInt(self.ring, self.a, -self.b)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.ring, -self.a, -self.b)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        if self.ring != other.ring:
            raise ValueError("mixed rings")
        w2 = self.ring.omega2
        return QuadInt(
            self.ring,
            self.a * other.a + w2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        if self.ring != other.ring:
            raise ValueError("mixed rings")
        return QuadInt(self.ring, self.a - other.a, self.b - other.b)

    def is_primary(self) -> bool:
        """Primary congruence: = 1 mod (2+2i), mod 2*sqrt(2), mod 2*sqrt(-2)."""
        a, b = self.a, self.b
        if self.ring is GAUSS:
            return a % 2 == 1 and b % 2 == 0 and (a - 1 - b) % 4 == 0
        return a % 4 == 1 and b % 2 == 0

    def __str__(self) -> str:
        sym = {-1: "i", 2: "sqrt2", -2: "sqrt-2"}[self.ring.omega2]
        return f"{self.a}{'+' if self.b >= 0 else '-'}{abs(self.b)}{sym}"


EPS2 = QuadInt(SQRT2, 1, 1)  # fundamental unit of Z[sqrt2], norm -1


def _round_div(num: int, den: int) -> int:
    """Nearest-integer division, ties toward +infinity."""
    return (2 * num + den) // (2 * den)


def _euclid_gcd(x: QuadInt, y: QuadInt) -> QuadInt:
    """Euclidean gcd; valid because all three rings are norm-Euclidean."""
    while not y.is_zero:
        # quotient = round(x * conj(y) / N(y)) componentwise
        n = y.norm
        prod = x * y.conj()
        q = QuadInt(x.ring, _round_div(prod.a, n), _round_div(prod.b, n))
        x, y = y, x - q * y
    return x


def split_prime(p: int, ring: Ring) -> QuadInt:
    """An element of norm +p (Z[i], Z[sqrt-2]) or +-p (Z[sqrt2]).

    Raises Inert unless p is odd and omega^2 is a square mod p, that is
    outside the split residue classes: p = 1 mod 4 for Z[i], p = +-1 mod 8
    for Z[sqrt2], p = 1 or 3 mod 8 for Z[sqrt-2].

    The gcd has norm +-p. With r^2 = omega^2 mod p, Z[omega]/(p, r - omega)
    is Z/p, so the ideal (p, r - omega) has norm p. Rounding each
    coordinate to the nearest integer leaves a remainder of norm at most
    1/2, 3/4 and 1/2 times N(y) in Z[i], Z[sqrt-2] and Z[sqrt2], so every
    Euclid step lowers |N| and the loop ends at a generator g of that
    ideal: |N(g)| = p.
    """
    if not is_prime(p):
        raise BadResidueClass(f"split_prime needs a prime, got {p}")
    r = None if p == 2 else sqrt_mod_prime(ring.omega2, p)
    if r is None:
        raise Inert(f"{p} does not split in {ring}")
    return _euclid_gcd(QuadInt(ring, p, 0), QuadInt(ring, r, -1))


def _least_primary(x: QuadInt) -> list[QuadInt]:
    """The primary unit multiples of x with least |unit exponent|, eps2 first.

    An odd norm makes a odd, except in Z[i], where a may be even; then
    i*x = -b + a*i has a odd instead. Once a is odd and b even, exactly one
    of +-x is primary. In Z[sqrt2] with b odd, eps2*x = (a+2b) + (a+b)sqrt2
    and eps2^-1*x = (2b-a) + (a-b)sqrt2 have b even while eps2^+-2*x do
    not; in Z[sqrt-2] with b odd no unit helps.
    """
    a, b = x.a, x.b
    if x.ring is GAUSS and a % 2 == 0:
        bases = [QuadInt(GAUSS, -b, a)]
    elif x.ring is SQRT2 and b % 2 == 1:
        bases = [QuadInt(SQRT2, a + 2 * b, a + b), QuadInt(SQRT2, 2 * b - a, a - b)]
    else:
        bases = [x]
    return [c for y in bases for c in (y, -y) if c.is_primary()]


def primary_associate(alpha: QuadInt) -> QuadInt:
    """The primary element among unit multiples of alpha and conj(alpha).

    Ties are broken by smallest |unit exponent|, then positive rational
    part, then positive omega part, then alpha before its conjugate.
    The result is a fixed point of this map. Requires odd norm.
    """
    if alpha.norm % 2 == 0:
        raise NoPrimaryAssociate(f"{alpha} has even norm")
    # alpha and its conjugate share the parities of a and b, hence the
    # least exponent; min is stable, so alpha wins remaining ties
    cands = _least_primary(alpha) + _least_primary(alpha.conj())
    if not cands:
        raise NoPrimaryAssociate(f"no primary associate of {alpha}")
    return min(cands, key=lambda c: (c.a <= 0, c.b <= 0))


def primary_associate_mod4(alpha: QuadInt) -> QuadInt:
    """Z[sqrt2] only: associate with b even and a+b = 1 mod 4.

    Stronger than the mod-2*sqrt(2) congruence: its primary units are the
    squares <eps2^2>, so residue symbols of these representatives are
    unambiguous even for moduli of negative norm. Conjugates are not tried;
    the ideal is preserved. The result is +-alpha if b is even, else
    +-eps2*alpha, with the sign that makes a + b = 1 mod 4.
    """
    if alpha.ring is not SQRT2:
        raise BadResidueClass("mod-4 normalization is specific to Z[sqrt2]")
    if alpha.norm % 2 == 0:
        raise NoPrimaryAssociate(f"{alpha} has even norm")
    y = alpha if alpha.b % 2 == 0 else EPS2 * alpha
    return y if (y.a + y.b) % 4 == 1 else -y


def ring_symbol(alpha: QuadInt, beta: QuadInt) -> int:
    """Quadratic residue symbol [alpha/beta], beta of odd prime norm.

    Computed through the residue-field embedding: beta = c + d*omega of
    norm +-q gives omega = -c/d mod q, then the Euler criterion in F_q.
    """
    if alpha.ring != beta.ring:
        raise ValueError("mixed rings")
    q = abs(beta.norm)
    if q % 2 == 0 or not is_prime(q):
        raise CompositeModulus(f"|N({beta})| = {q} is not an odd prime")
    # q does not divide d: else q | c too, and q^2 would divide N(beta) = +-q
    c, d = beta.a % q, beta.b % q
    r = (-c * pow(d, -1, q)) % q
    t = (alpha.a + alpha.b * r) % q
    if t == 0:
        raise NotCoprime(f"{alpha} shares the prime {beta}")
    s = pow(t, (q - 1) // 2, q)
    return 1 if s == 1 else -1


def symbol_capital(p: int, l: int, ring: Ring) -> int:
    """[P/L]: the symbol of the primary prime over p modulo the one over l.

    Defined for distinct primes p, l = 1 mod 8 with (p/l) = +1; under that
    hypothesis the value does not depend on the conjugate choices.
    """
    if p % 8 != 1 or l % 8 != 1 or p == l:
        raise UndefinedSymbol(f"need distinct primes = 1 mod 8, got {p}, {l}")
    if jacobi(p, l) != 1:
        raise UndefinedSymbol(f"[P/L] needs (p/l) = +1, got -1 for ({p}, {l})")
    cap_p = primary_associate(split_prime(p, ring))
    cap_l = primary_associate(split_prime(l, ring))
    return ring_symbol(cap_p, cap_l)
