"""Arithmetic in Z[i], Z[sqrt(2)], Z[sqrt(-2)] and their residue symbols.

These three rings are norm-Euclidean PIDs, which is all the splitting code
relies on. The arithmetic runs on plain int pairs (a, b) = a + b*omega in
private kernels that take omega^2 and trust their arguments. `criteria`
uses two of them, `_root` (a root of omega^2 mod p) and `_euclid` (the gcd
that splits p from that root), and reads each ring symbol as a Legendre
symbol in the residue field. The public functions check their arguments,
call the kernels and box the results in `QuadInt`. Of them,
`symbol_capital` splits both primes and takes both primary associates, so
it assumes no conjugate independence: it and `ring_symbol` are the oracles
of the criteria's [P/L], (5,5)- and (7,7) symbols in the tests.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple

from .arith import _legendre, is_prime, jacobi
from .errors import (
    BadResidueClass,
    CompositeModulus,
    Inert,
    NoPrimaryAssociate,
    NotCoprime,
    PreconditionUnmet,
    UndefinedSymbol,
)
from .record import Record


class Ring(NamedTuple):
    name: str
    omega2: int  # omega^2: -1, 2, or -2

    def __repr__(self) -> str:
        return self.name


GAUSS = Ring("Z[i]", -1)
SQRT2 = Ring("Z[sqrt2]", 2)
SQRTM2 = Ring("Z[sqrt-2]", -2)

RINGS = (GAUSS, SQRT2, SQRTM2)


class QuadInt(Record):
    """a + b*omega in the given ring."""

    __slots__ = ("ring", "a", "b")

    def __init__(self, ring: Ring, a: int, b: int):
        self._set(ring, a, b)

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
            raise PreconditionUnmet("mixed rings")
        w2 = self.ring.omega2
        return QuadInt(
            self.ring,
            self.a * other.a + w2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        if self.ring != other.ring:
            raise PreconditionUnmet("mixed rings")
        return QuadInt(self.ring, self.a - other.a, self.b - other.b)

    def is_primary(self) -> bool:
        return _is_primary(self.a, self.b, self.ring.omega2)

    def __str__(self) -> str:
        sym = {-1: "i", 2: "sqrt2", -2: "sqrt-2"}[self.ring.omega2]
        return f"{self.a}{'+' if self.b >= 0 else '-'}{abs(self.b)}{sym}"


_RING = {ring.omega2: ring for ring in RINGS}  # for the kernels' messages


def _is_primary(a: int, b: int, w2: int) -> bool:
    """Primary congruence: = 1 mod (2+2i), mod 2*sqrt(2), mod 2*sqrt(-2)."""
    if w2 == -1:
        return a % 2 == 1 and b % 2 == 0 and (a - 1 - b) % 4 == 0
    return a % 4 == 1 and b % 2 == 0


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise BadResidueClass(f"split_prime needs a prime, got {p}")


def _root(p: int, w2: int) -> int:
    """The least square root of omega^2 mod the prime p, min(r, p - r), by a
    closed form; Inert when omega^2 is a non-residue or p = 2.

    For p = 1 mod 8, let z be the least odd non-residue; it is prime, since
    a product of residues is a residue, and it is the least non-residue,
    since 2 is a residue. Then c = z^((p-1)/8) has c^4 = (z/p) = -1, so
    zeta = c is a primitive 8th root of unity, zeta^2 = i with i^2 = -1,
    and zeta^-1 = -zeta^3. As (zeta +- zeta^-1)^2 = +-2 + (i + i^-1) and
    i + i^-1 = 0, the roots are zeta^2 of -1, zeta - zeta^3 of 2 and
    zeta + zeta^3 of -2. Another non-residue would give the same answer,
    since min(r, p - r) removes the sign; the search stops at the first.

    The other split classes take one power each: p = 5 mod 8 has
    (2/p) = -1, so r = 2^((p-1)/4) has r^2 = -1; p = 7 mod 8 has
    (2/p) = +1 and p = 3 mod 4, so r = 2^((p+1)/4) has r^2 = 2; p = 3
    mod 8 has (-2/p) = +1 and p = 3 mod 4, so r = (-2)^((p+1)/4) has
    r^2 = -2. Every other class is inert: -1 needs p = 1 mod 4, 2 needs
    p = +-1 mod 8 and -2 needs p = 1 or 3 mod 8.
    """
    m = p % 8
    if m == 1:
        e = (p - 1) // 8
        for z in count(3, 2):
            c = pow(z, e, p)
            c2 = c * c % p
            if c2 * c2 % p == p - 1:
                break
        c3 = c * c2
        r = c2 if w2 == -1 else (c - c3 if w2 == 2 else c + c3) % p
    elif m == 5 and w2 == -1:
        r = pow(2, (p - 1) // 4, p)
    elif m == 7 and w2 == 2:
        r = pow(2, (p + 1) // 4, p)
    elif m == 3 and w2 == -2:
        r = pow(p - 2, (p + 1) // 4, p)
    else:
        raise Inert(f"{p} does not split in {_RING[w2]}")
    return min(r, p - r)


def _split(p: int, w2: int) -> tuple[int, int]:
    """`split_prime` on ints, for a prime p."""
    return _euclid(p, _root(p, w2), w2)


def _euclid(p: int, r: int, w2: int) -> tuple[int, int]:
    """Euclid's gcd of the prime p and r - omega, for r a root of omega^2
    mod p: a generator of the prime (p, r - omega) over p.

    The quotient of x by y is x * conj(y) / N(y) rounded coordinatewise to
    the nearest integer, ties toward +infinity.
    """
    xa, xb, ya, yb = p, 0, r, -1
    while ya or yb:
        n = ya * ya - w2 * yb * yb
        qa = (2 * (xa * ya - w2 * xb * yb) + n) // (2 * n)
        qb = (2 * (xb * ya - xa * yb) + n) // (2 * n)
        xa, xb, ya, yb = ya, yb, xa - qa * ya - w2 * qb * yb, xb - qa * yb - qb * ya
    return xa, xb


def split_prime(p: int, ring: Ring) -> QuadInt:
    """An element of norm +p (Z[i], Z[sqrt-2]) or +-p (Z[sqrt2]).

    Raises Inert unless p is odd and omega^2 is a square mod p, that is
    outside the split residue classes: p = 1 mod 4 for Z[i], p = +-1 mod 8
    for Z[sqrt2], p = 1 or 3 mod 8 for Z[sqrt-2].

    r is the least root of omega^2 mod p, in closed form (`_root`):
    zeta^2, zeta - zeta^3 or zeta + zeta^3 for an 8th root of unity zeta
    when p = 1 mod 8, else 2^((p-1)/4), 2^((p+1)/4) or (-2)^((p+1)/4).
    Taking the least root fixes which conjugate the gcd finds.

    The gcd has norm +-p. With r^2 = omega^2 mod p, Z[omega]/(p, r - omega)
    is Z/p, so the ideal (p, r - omega) has norm p. Rounding each
    coordinate to the nearest integer leaves a remainder of norm at most
    1/2, 3/4 and 1/2 times N(y) in Z[i], Z[sqrt-2] and Z[sqrt2], so every
    Euclid step lowers |N| and the loop ends at a generator g of that
    ideal: |N(g)| = p.
    """
    _require_prime(p)
    return QuadInt(ring, *_split(p, ring.omega2))


def _primary(a: int, b: int, w2: int) -> tuple[int, int]:
    """`primary_associate` on ints, for odd norm.

    The candidates are the primary unit multiples with least |unit
    exponent| of alpha, then of its conjugate; both share the parities of
    a and b, hence the least exponent. An odd norm makes a odd, except in
    Z[i], where a may be even; then i*x = -b + a*i has a odd instead. Once
    a is odd and b even, exactly one of +-x is primary, so one test picks
    the sign. In Z[sqrt2] with b odd, eps2*x = (a+2b) + (a+b)sqrt2 and
    eps2^-1*x = (2b-a) + (a-b)sqrt2 have b even while eps2^+-2*x do not;
    in Z[sqrt-2] with b odd no unit helps. min is stable, so alpha wins
    the remaining ties.
    """
    if w2 == -2 and b % 2:
        raise NoPrimaryAssociate(f"no primary associate of {QuadInt(_RING[w2], a, b)}")
    cands = []
    for x, y in ((a, b), (a, -b)):
        if w2 == -1 and x % 2 == 0:
            bases = ((-y, x),)
        elif w2 == 2 and y % 2 == 1:
            bases = ((x + 2 * y, x + y), (2 * y - x, x - y))
        else:
            bases = ((x, y),)
        cands += [(u, v) if _is_primary(u, v, w2) else (-u, -v) for u, v in bases]
    return min(cands, key=lambda c: (c[0] <= 0, c[1] <= 0))


def primary_associate(alpha: QuadInt) -> QuadInt:
    """The primary element among unit multiples of alpha and conj(alpha).

    Ties are broken by smallest |unit exponent|, then positive rational
    part, then positive omega part, then alpha before its conjugate.
    The result is a fixed point of this map. Requires odd norm.
    """
    if alpha.norm % 2 == 0:
        raise NoPrimaryAssociate(f"{alpha} has even norm")
    return QuadInt(alpha.ring, *_primary(alpha.a, alpha.b, alpha.ring.omega2))


def _symbol(alpha: tuple[int, int], beta: tuple[int, int], w2: int) -> int:
    """[alpha/beta] on ints, for |N(beta)| = q an odd prime; 0 when beta
    divides alpha.

    Computed through the residue-field embedding: beta = c + d*omega gives
    omega = -c/d mod q, then the Euler criterion in F_q. q does not divide
    d: else q | c too, and q^2 would divide N(beta) = +-q.
    """
    (a, b), (c, d) = alpha, beta
    q = abs(c * c - w2 * d * d)
    t = (a - b * c * pow(d, -1, q)) % q
    return _legendre(t, q) if t else 0


def ring_symbol(alpha: QuadInt, beta: QuadInt) -> int:
    """Quadratic residue symbol [alpha/beta], beta of odd prime norm."""
    if alpha.ring != beta.ring:
        raise PreconditionUnmet("mixed rings")
    q = abs(beta.norm)
    if q % 2 == 0 or not is_prime(q):
        raise CompositeModulus(f"|N({beta})| = {q} is not an odd prime")
    s = _symbol((alpha.a, alpha.b), (beta.a, beta.b), beta.ring.omega2)
    if s == 0:
        raise NotCoprime(f"{alpha} shares the prime {beta}")
    return s


def symbol_capital(p: int, l: int, ring: Ring) -> int:
    """[P/L]: the symbol of the primary prime over p modulo the one over l.

    Defined for distinct primes p, l = 1 mod 8 with (p/l) = +1; under that
    hypothesis the value does not depend on the conjugate choices.
    """
    if p % 8 != 1 or l % 8 != 1 or p == l:
        raise UndefinedSymbol(f"need distinct primes = 1 mod 8, got {p}, {l}")
    _require_prime(p)
    _require_prime(l)
    if jacobi(p, l) != 1:
        raise UndefinedSymbol(f"[P/L] needs (p/l) = +1, got -1 for ({p}, {l})")
    w2 = ring.omega2
    return _symbol(_primary(*_split(p, w2), w2), _primary(*_split(l, w2), w2), w2)
