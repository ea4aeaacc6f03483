"""Classical invariants of real quadratic orders: continued-fraction
fundamental units, Pell representability, and strict class groups of binary
quadratic forms with Dirichlet composition.

Nothing in here touches residue symbols. That is the point: these are
independent oracles, and the correspondences the descent criteria rely on
(unit norms and class numbers from quartic symbols, strict principality of
the prime above 2, fourth-power class membership) are verified against them
in the test suite rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from sympy import divisors, sqrt_mod

from cndescent.arith import is_prime, jacobi, octic_minus4
from cndescent.errors import (
    BadResidueClass,
    BudgetExceeded,
    DescentError,
    InconsistentCriteria,
    PreconditionUnmet,
)

from witness_oracle import half_symbols


class NoRepresentation(DescentError):
    """No binary quadratic form of the discriminant represents the target."""


# --- units and Pell equations ---------------------------------------------------


_PELL_SCAN = 20000  # y-range of the uncertified scan for sqrt(d) <= |c|
_DISC_LIMIT = 8 * 10**4  # largest discriminant FormClassGroup accepts


def _convergents(d: int):
    """Convergents (h, k) of sqrt(d), each with a flag that is set when the
    next partial quotient is 2 floor(sqrt(d)), i.e. when (h, k) ends a period."""
    a0 = isqrt(d)
    p_, q_, a = 0, 1, a0
    h0, h1 = 1, a0
    k0, k1 = 0, 1
    while True:
        p_ = a * q_ - p_
        q_ = (d - p_ * p_) // q_
        a = (a0 + p_) // q_
        yield h1, k1, q_ == 1 and a == 2 * a0
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0


def fundamental_unit(d: int) -> tuple[int, int, int]:
    """Least unit > 1 of Z[sqrt(d)] as (u, v, norm), meaning u + v sqrt(d).

    Walks the continued fraction of sqrt(d); the convergent just before the
    period closes gives the minimal solution of u^2 - d v^2 = +-1, with the
    sign determined by the period length.
    """
    if d < 2 or isqrt(d) ** 2 == d:
        raise ValueError(f"need a nonsquare d >= 2, got {d}")
    h, k = next((h, k) for h, k, end in _convergents(d) if end)
    return (h, k, h * h - d * k * k)


def pell_solvable(d: int, c: int) -> tuple[int, int] | None:
    """A solution (x, y) of x^2 - d y^2 = c with x, y >= 0, or None.

    For 0 < |c| < sqrt(d) any solution appears among the convergents of
    sqrt(d), so a miss over two full periods is a certified absence. For
    sqrt(d) <= |c| <= 2 sqrt(d) a bounded scan decides in practice but a
    miss is not a proof. Larger |c| raises BudgetExceeded.
    """
    if d < 2 or isqrt(d) ** 2 == d:
        raise ValueError(f"need a nonsquare d >= 2, got {d}")
    if c == 0:
        raise ValueError("c = 0 has only the trivial solution")
    if abs(c) > 2 * isqrt(d) + 2:
        raise BudgetExceeded(f"|c| = {abs(c)} beyond the supported range for d = {d}")
    if c > 0:
        r = isqrt(c)
        if r * r == c:
            return (r, 0)
    periods = 0
    for h, k, end in _convergents(d):
        if h * h - d * k * k == c:
            return (h, k)
        periods += end
        if periods == 2:
            break
    if c * c < d:
        # |c| < sqrt(d): the convergent sweep was exhaustive
        return None
    for y in range(1, _PELL_SCAN):
        t = c + d * y * y
        if t >= 0:
            x = isqrt(t)
            if x * x == t:
                return (x, y)
    return None


# --- binary quadratic forms of positive discriminant -----------------------------


def _is_reduced(form: tuple[int, int, int], d: int) -> bool:
    # sqrt(d) - 2|a| < b < sqrt(d), all comparisons exact via squaring
    a, b, _ = form
    if b <= 0 or b * b >= d:
        return False
    ta = 2 * abs(a)
    if (b + ta) ** 2 <= d:
        return False
    if ta > b and (ta - b) ** 2 >= d:
        return False
    return True


def _rho(form: tuple[int, int, int], d: int) -> tuple[int, int, int]:
    """Reduction/cycle step: (a, b, c) -> (c, b', c')."""
    _, b, c = form
    cc = abs(c)
    s = isqrt(d)
    hi = s if cc <= s else cc
    b2 = (-b) % (2 * cc)
    b2 += ((hi - b2) // (2 * cc)) * (2 * cc)
    c2 = (b2 * b2 - d) // (4 * c)
    return (c, b2, c2)


def _reduce_form(form: tuple[int, int, int], d: int) -> tuple[int, int, int]:
    seen = 0
    while not _is_reduced(form, d):
        form = _rho(form, d)
        seen += 1
        if seen > 10000:
            raise InconsistentCriteria(f"reduction of {form} failed to terminate")
    return form


def _reduced_forms(d: int) -> list[tuple[int, int, int]]:
    s = isqrt(d)
    out = []
    for b in range(1, s + 1):
        if (d - b * b) % 4:
            continue
        m = (d - b * b) // 4  # equals -a*c > 0
        for aa in divisors(m):
            # _is_reduced reads only |a| and b: (aa, b, -c) and (-aa, b, c)
            # are reduced together, and primitive together
            cval = m // aa
            if _is_reduced((aa, b, -cval), d) and gcd(aa, b, cval) == 1:
                out += [(aa, b, -cval), (-aa, b, cval)]
    return out


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a x + b y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _compose_forms(f1, f2, d):
    """Dirichlet composition of two primitive forms of discriminant d.

    With e = gcd(a1, a2, (b1 + b2)/2) = u a1 + v a2 + w (b1 + b2)/2, the
    composite is (a1 a2 / e^2, B, .) where
    B = (u a1 b2 + v a2 b1 + w (b1 b2 + d)/2) / e.
    """
    a1, b1, _ = f1
    a2, b2, _ = f2
    g, x, y = _ext_gcd(a1, a2)
    e, z, w = _ext_gcd(g, (b1 + b2) // 2)
    u, v = z * x, z * y
    a = a1 * a2 // (e * e)
    b = (u * a1 * b2 + v * a2 * b1 + w * ((b1 * b2 + d) // 2)) // e
    return (a, b, (b * b - d) // (4 * a))


class FormClassGroup:
    """Strict class group of primitive forms of one positive discriminant.

    Classes are cycles of reduced forms; composition works on cycle
    representatives and is memoized. The wide class number comes from the
    fundamental unit's norm (quotient by the totally-negative principal
    class when N(eps) = +1).
    """

    def __init__(self, disc: int):
        if disc <= 0 or disc % 4 != 0:
            raise ValueError(f"need a positive discriminant = 0 mod 4, got {disc}")
        s = isqrt(disc)
        if s * s == disc:
            raise ValueError(f"square discriminant {disc}")
        if disc > _DISC_LIMIT:
            raise BudgetExceeded(f"discriminant {disc} above budget {_DISC_LIMIT}")
        self.disc = disc
        _, _, self.norm_eps = fundamental_unit(disc // 4)
        forms = _reduced_forms(disc)
        index: dict[tuple[int, int, int], int] = {}
        cycles: list[tuple[tuple[int, int, int], ...]] = []
        for f in forms:
            if f in index:
                continue
            cyc = [f]
            g = _rho(f, disc)
            while g != f:
                cyc.append(g)
                g = _rho(g, disc)
            for h in cyc:
                index[h] = len(cycles)
            cycles.append(tuple(cyc))
        self.cycles = tuple(cycles)
        self._index = index
        self._mul: dict[tuple[int, int], int] = {}
        b0 = s if s % 2 == 0 else s - 1
        self.identity = self.class_of((1, b0, (b0 * b0 - disc) // 4))

    @property
    def h_plus(self) -> int:
        return len(self.cycles)

    @property
    def h(self) -> int:
        return self.h_plus if self.norm_eps == -1 else self.h_plus // 2

    def class_of(self, form: tuple[int, int, int]) -> int:
        a, b, c = form
        if b * b - 4 * a * c != self.disc:
            raise ValueError(f"{form} has discriminant {b*b-4*a*c}, not {self.disc}")
        if gcd(gcd(abs(a), abs(b)), abs(c)) != 1:
            raise ValueError(f"{form} is not primitive")
        return self._index[_reduce_form(form, self.disc)]

    def compose(self, i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        if key not in self._mul:
            f = _compose_forms(self.cycles[key[0]][0], self.cycles[key[1]][0], self.disc)
            self._mul[key] = self.class_of(f)
        return self._mul[key]

    def squares(self) -> frozenset[int]:
        return frozenset(self.compose(i, i) for i in range(self.h_plus))

    def fourth_powers(self) -> frozenset[int]:
        return frozenset(self.compose(s, s) for s in self.squares())


def form_class_group(disc: int) -> FormClassGroup:
    return FormClassGroup(disc)


def represented_value(form: tuple[int, int, int], coprime_to: int) -> int:
    """Smallest positive value of the form at a primitive point, coprime to
    the given modulus. Used to read off genus characters of a class."""
    best = None
    for x in range(0, 40):
        for y in range(0, 40):
            if gcd(x, y) != 1:
                continue
            for xx in {x, -x}:
                for yy in {y, -y}:
                    a, b, c = form
                    val = a * xx * xx + b * xx * yy + c * yy * yy
                    if val > 0 and gcd(val, coprime_to) == 1:
                        if best is None or val < best:
                            best = val
    if best is None:
        raise InconsistentCriteria(f"{form} represents nothing coprime to {coprime_to}")
    return best


# --- Scholz-style predictions ----------------------------------------------------


@dataclass(frozen=True)
class ScholzPrediction:
    """What the quartic symbols of 2 and l force on (N(eps), h, h+) of the
    order of discriminant 8l."""

    case: str
    norm_eps: int | None  # None = unconstrained
    h_mod: tuple[int, int] | None  # (modulus, required residue)
    h_plus_mod: tuple[int, int] | None

    def admits(self, norm_eps: int, h: int, h_plus: int) -> bool:
        if self.norm_eps is not None and norm_eps != self.norm_eps:
            return False
        if self.h_mod is not None and h % self.h_mod[0] != self.h_mod[1]:
            return False
        if self.h_plus_mod is not None and h_plus % self.h_plus_mod[0] != self.h_plus_mod[1]:
            return False
        return True


def scholz_case(l: int) -> ScholzPrediction:
    """Case split for the order of discriminant 8l, l prime = 1 mod 4:
    the norm of the fundamental unit and the residues of h and h+ are
    pinned by ((2/l), (2/l)_4, (l/2)_4) alone, except in the doubly-split
    case where only divisibility survives."""
    if l % 4 != 1 or not is_prime(l):
        raise BadResidueClass(f"need a prime = 1 mod 4, got {l}")
    if l % 8 == 5:
        return ScholzPrediction("2-nonresidue", -1, (4, 2), (4, 2))
    q2, l2 = half_symbols(l)
    if q2 != l2:
        return ScholzPrediction("split-1", 1, (4, 2), (8, 4))
    if q2 == -1:
        return ScholzPrediction("split-2", -1, (8, 4), (8, 4))
    return ScholzPrediction("split-3", None, (4, 0), (8, 0))


# --- the two class-field predicates the descent criteria use ---------------------


def strict_two_principal(l: int) -> bool:
    """Is the prime above 2 in the order of discriminant 8l principal in
    the strict sense, i.e. is x^2 - 2l y^2 = +2 solvable?

    Only meaningful under (-4/l)_8 = -1 (which forces N(eps) = +1 and the
    prime above 2 principal in the wide sense); outside that range the
    answer is not governed by a single quartic symbol, so refuse.
    """
    if l % 8 != 1 or not is_prime(l):
        raise BadResidueClass(f"need a prime = 1 mod 8, got {l}")
    if octic_minus4(l) != -1:
        raise PreconditionUnmet(f"(-4/{l})_8 = +1: criterion out of range")
    return pell_solvable(2 * l, 2) is not None


def fourth_power_class_test(p: int, l: int) -> bool:
    """Is the strict class of a form of discriminant 8l representing p a
    fourth power in the strict class group?

    Requires p = l = 1 mod 8 and (p/l) = +1 (otherwise no form of this
    discriminant represents p).
    """
    if p % 8 != 1 or l % 8 != 1 or p == l or not (is_prime(p) and is_prime(l)):
        raise BadResidueClass(f"need distinct primes = 1 mod 8, got ({p}, {l})")
    if jacobi(p, l) != 1:
        raise NoRepresentation(
            f"(2l/{p}) = -1: no form of discriminant {8 * l} represents {p}"
        )
    grp = form_class_group(8 * l)
    r = sqrt_mod(8 * l, p)
    b = r if r % 2 == 0 else p - r
    form = (p, b, (b * b - 8 * l) // (4 * p))
    return grp.class_of(form) in grp.fourth_powers()
