"""Complete 2-isogeny descent machinery for y^2 = x(x^2 - k^2).

The curve E_k and its 2-isogenous partner are connected by dual isogenies
phi, psi; each homogeneous space is a quartic

    N^2 = b1 M^4 + b2 e^4,

with b1 b2 = -k^2 on the psi side and b1 b2 = 4k^2 (k odd) or k^2/4
(k even) on the phi side. The Selmer group collects the square classes b1
whose quartic is solvable over R and every Q_q; classes with a rational
point form the subgroup W. Rational points on psi-side torsors map to E
via x = b1 M^2/e^2, y = b1 M N / e^3, and phi-side points map to the
partner curve the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt
from operator import mul

from .arith import factor
from .criteria import classify_auto, selmer_rank_bound
from .errors import BadResidueClass, InconsistentCriteria, PreconditionUnmet
from .sqclass import SquareClassGroup, _extend, squarefree_mul

PSI = "psi"
PHI = "phi"


@dataclass(frozen=True)
class Torsor:
    side: str
    b1: int
    b2: int


@dataclass(frozen=True)
class TorsorPoint:
    N: int
    M: int
    e: int

    def on(self, torsor: Torsor) -> bool:
        if gcd(self.M, self.e) != 1:
            return False
        return self.N**2 == torsor.b1 * self.M**4 + torsor.b2 * self.e**4


def _torsor_constant(k: int, side: str) -> int:
    """b1 b2, the same on every torsor of the side: -k^2 on psi, and on phi
    4k^2 for odd k or k^2/4 for even k."""
    if k < 1:
        raise PreconditionUnmet("k must be a positive integer")
    if side not in (PSI, PHI):
        raise PreconditionUnmet(f"side must be {PSI!r} or {PHI!r}, got {side!r}")
    if side == PSI:
        return -k * k
    return 4 * k * k if k % 2 == 1 else k * k // 4


def enumerate_torsors(k: int, side: str) -> dict[int, Torsor]:
    """All candidate b1 classes for the given isogeny side, keyed by b1 in
    the group order (|b1|, b1 < 0).

    psi: b1 runs over +-(squarefree divisors of k); phi: over the positive
    squarefree divisors of the torsor constant's radical, which is that of
    2k for odd k and that of k^2/4 for even k (it contains 2 when 4 | k).
    """
    const = _torsor_constant(k, side)
    # -1 and the primes are independent classes, so plain products multiply
    signs = [-1] if side == PSI else []
    classes = {1}
    _extend(classes, signs + [q for q, _ in factor(const).factors], mul)
    return {b1: Torsor(side, b1, const // b1) for b1 in SquareClassGroup(frozenset(classes))}


# --- local solvability ----------------------------------------------------


def _split(n: int, q: int) -> tuple[int, int]:
    """(v, u) with n = q^v u and q not dividing u; n must be nonzero."""
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v, n


def _is_power_residue(u: int, n: int, q: int) -> bool:
    """Is the unit u an n-th power mod the odd prime q?"""
    return pow(u, (q - 1) // gcd(n, q - 1), q) == 1


def solvable_at(b1: int, b2: int, q: int) -> bool:
    """Solvability of N^2 = b1 M^4 + b2 e^4 over Q_q (primitive M, e).

    Replacing M, e or N by q times itself shows that only a = v(b1) and
    b = v(b2) mod 4 matter, both lowered by 2 when both are >= 2; swapping
    M and e gives a <= b. Let u1, u2 be the unit parts, t = b1 M^4 + b2 e^4.

    Odd q. If a < b, v(t) is a with unit part u1 M^4 mod q when q does not
    divide M, else b with unit part u2 e^4, and by Hensel's lemma t is a
    square iff that valuation is even and that unit a square mod q. If
    a = b = 1, v(t) is even only if q | u1 M^4 + u2 e^4, so -u2/u1 must be
    a fourth power mod q, and then Hensel lifts M/e to a point with N = 0.
    If a = b = 0 there is always a point: (M, e) = (1, 0) when u1 is a
    square, and otherwise N^2 = u1 x^4 + u2 is a smooth genus-1 curve with
    no F_q point at infinity, so Hasse gives it (sqrt(q) - 1)^2 > 0 affine
    F_q points, and each lifts.

    q = 2. The lowering leaves a <= 1; let s = u1 + 2^(b-a) u2 mod 16. Three
    facts decide it: a t of valuation w is a square in Q_2 iff w is even and
    t/2^w = 1 mod 8; odd fourth powers are 1 + 16 Z_2, so 1 + 16x mod 64 for
    every x; even fourth powers are 0 mod 16. M odd: if e is even, t/2^a =
    u1 mod 8; if e is odd, t/2^a = s mod 8. Either is odd unless a = b and e
    is odd (then s is even and the last case decides), so a must be 0 and u1
    or s be 1 mod 8. M = 2m even, e odd: t = 2^b (u2 e^4 + 2^(a+4-b) u1 m^4)
    with a + 4 - b >= 1, so b must be even and u2 (m even) or u2 + 2^(a+4-b)
    u1 (m odd) be 1 mod 8. M and e odd, a = b: t/2^a runs over s + 16 Z_2 as
    M^4 and e^4 run over 1 + 16 Z_2. s = 0 gives t = 0, a point with N = 0.
    Otherwise w = v(s) is 1, 2 or 3 and t/2^(a+w) is s/2^w + 2^(4-w) z for
    free z: fixed mod 8 for w = 1, any unit of its class mod 4 for w = 2,
    any unit for w = 3. So a + w even leaves s = 4 for a = 0 and s = 2 or 8
    for a = 1.

    Raises BadResidueClass when b1 or b2 is 0, as locally_solvable does, or
    when q < 2.
    """
    if b1 == 0 or b2 == 0:
        raise BadResidueClass(f"solvable_at needs nonzero b1, b2, got {b1}, {b2}")
    if q < 2:
        raise BadResidueClass(f"solvable_at needs a prime q, got {q}")
    a, u1 = _split(b1, q)
    b, u2 = _split(b2, q)
    a, b = a % 4, b % 4
    if a >= 2 and b >= 2:
        a, b = a - 2, b - 2
    if a > b:
        a, b, u1, u2 = b, a, u2, u1
    if q == 2:
        s = (u1 + (u2 << (b - a))) % 16
        return (
            (a == 0 and 1 in (u1 % 8, s % 8))
            or (b % 2 == 0 and 1 in (u2 % 8, (u2 + (u1 << (a + 4 - b))) % 8))
            or (a == b and s in ((0, 4), (0, 2, 8))[a])
        )
    if a == b:
        return a == 0 or _is_power_residue(-u2 * pow(u1, -1, q), 4, q)
    return (a == 0 and _is_power_residue(u1, 2, q)) or (
        b == 2 and _is_power_residue(u2, 2, q)
    )


def locally_solvable(b1: int, b2: int) -> bool:
    """Everywhere-local solvability (R and all relevant Q_q).

    Only q | 2 b1 b2 need checking: elsewhere the reduced curve is a
    smooth genus-1 curve over F_q, has a point by the Hasse bound, and
    the point lifts. b1 b2 is the side's torsor constant for every torsor
    of a side, so the memoized `factor` factors it once per side, not
    once per call.
    """
    if b1 < 0 and b2 < 0:
        return False
    qs = {2} | {q for q, _ in factor(b1 * b2).factors}
    return all(solvable_at(b1, b2, q) for q in sorted(qs))


def selmer_group(k: int, side: str) -> SquareClassGroup:
    """Everywhere-locally-solvable classes; verified to be a group."""
    classes = [
        t.b1
        for t in enumerate_torsors(k, side).values()
        if locally_solvable(t.b1, t.b2)
    ]
    return SquareClassGroup.from_elements(classes)  # NotAGroup on solver bugs


# --- global points --------------------------------------------------------


_SIEVE_MODULI = (64, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# (q, offset of q's rows in the flat per-call row list)
_SIEVE = tuple((q, sum(_SIEVE_MODULI[:i])) for i, q in enumerate(_SIEVE_MODULI))


@cache
def _residues(q: int) -> tuple[frozenset[int], tuple[tuple[int, int], ...]]:
    """The squares mod q, and each fourth power f mod q with the bits of
    the j < q that have j^4 = f mod q."""
    fourths: dict[int, int] = {}
    for j in range(q):
        fourths[j**4 % q] = fourths.get(j**4 % q, 0) | 1 << j
    return frozenset(x * x % q for x in range(q)), tuple(fourths.items())


@cache
def _square_pattern(q: int, a: int, c: int) -> int:
    """Bit j (0 <= j < q) set when a j^4 + c is a square mod q. Called with
    a = b1 mod q and c = b2 e^4 mod q, so at most sum(q^2) ~ 14.6k entries."""
    squares, fourths = _residues(q)
    pattern = 0
    for f, bits in fourths:
        if (a * f + c) % q in squares:
            pattern |= bits
    return pattern


def search_points(
    torsor: Torsor, height: int, stop_at_first: bool = False
) -> list[TorsorPoint]:
    """Primitive points with max(|M|, |e|) <= height, M, e >= 0.

    A bit-array sieve, as in Stoll's ratpoints. For each e the candidate M
    are the set bits of one Python int: the interval where
    b1 M^4 + b2 e^4 >= 0, ANDed for each q in _SIEVE_MODULI (64, 9, then
    the primes 5 to 47) with a row whose bit M is set when b1 M^4 + b2 e^4
    is a square mod q. A square is a square mod every q, so the sieve
    drops no point; gcd, sign and isqrt then decide each surviving bit.

    Order: e ascending, then M ascending (bits low to high), the order of
    a plain scan, so stop_at_first returns the first point of that order.

    Memory: a row depends on e only through b2 e^4 mod q, so a call builds
    at most sum(q) = 396 rows of height + 1 bits, lazily: about
    396 (height + 1) / 8 bytes, 5 MB at height 10^5. Each row repeats a
    length-q base pattern, cached across calls by (q, b1 mod q,
    b2 e^4 mod q): at most sum(q^2) ~ 14.6k small ints.

    Raises PreconditionUnmet for a zero b1 or b2 or a negative height.
    """
    b1, b2 = torsor.b1, torsor.b2
    if b1 == 0 or b2 == 0:
        raise PreconditionUnmet(f"torsor coefficients must be nonzero, got {b1}, {b2}")
    if height < 0:
        raise PreconditionUnmet(f"height must be >= 0, got {height}")
    found: list[TorsorPoint] = []
    if b1 < 0 and b2 < 0:
        return found
    n_bits = height + 1
    rows: list[int | None] = [None] * sum(_SIEVE_MODULI)
    for e in range(n_bits):
        c = b2 * e**4
        # M bounds from exact fourth roots; m_lo may sit one below the
        # first M with b1 M^4 + c >= 0, which the t < 0 test skips
        if b1 > 0:
            m_lo = 0 if b2 >= 0 else isqrt(isqrt(-c // b1))
            m_hi = height
        else:
            m_lo = 0
            m_hi = min(height, isqrt(isqrt(c // -b1)))
        if m_lo > m_hi:
            break  # only m_lo can pass m_hi, and it grows with e
        mask = (1 << (m_hi + 1)) - (1 << m_lo)
        for q, offset in _SIEVE:
            i = offset + c % q
            row = rows[i]
            if row is None:
                row = _square_pattern(q, b1 % q, c % q)
                width = q
                while width < n_bits:
                    row |= row << width
                    width *= 2
                rows[i] = row
            mask &= row
            if not mask:
                break
        while mask:
            low = mask & -mask
            mask ^= low
            m = low.bit_length() - 1
            if gcd(m, e) != 1:
                continue
            t = b1 * m**4 + c
            if t < 0:
                continue
            n = isqrt(t)
            if n * n == t:
                found.append(TorsorPoint(n, m, e))
                if stop_at_first:
                    return found
    return found


def witnesses_json(witnesses: dict[str, dict[int, TorsorPoint]]) -> dict:
    """{side: {str(b1): [N, M, e]}}, the witness shape of every JSON output."""
    return {
        side: {str(b1): [pt.N, pt.M, pt.e] for b1, pt in w.items()}
        for side, w in witnesses.items()
    }


@dataclass
class DescentReport:
    k: int
    selmer_psi: SquareClassGroup
    selmer_phi: SquareClassGroup
    w_psi: SquareClassGroup
    w_phi: SquareClassGroup
    sha_psi_cert: SquareClassGroup
    sha_phi_cert: SquareClassGroup
    rank_lower: int
    rank_upper: int
    sha2_dim: int | None
    noncongruent: bool
    height: int
    witnesses: dict[str, dict[int, TorsorPoint]]
    classification: object | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "selmer_psi": list(self.selmer_psi),
            "selmer_phi": list(self.selmer_phi),
            "w_psi": list(self.w_psi),
            "w_phi": list(self.w_phi),
            "sha_psi_cert": list(self.sha_psi_cert),
            "sha_phi_cert": list(self.sha_phi_cert),
            "rank_lower": self.rank_lower,
            "rank_upper": self.rank_upper,
            "sha2_dim": self.sha2_dim,
            "noncongruent": self.noncongruent,
            "height": self.height,
            "witnesses": witnesses_json(self.witnesses),
            "notes": list(self.notes),
        }


def _free_classes(k: int, side: str) -> dict[int, TorsorPoint]:
    """Torsor classes with a forced global point (torsion images)."""
    if side == PHI:
        return {1: TorsorPoint(1, 1, 0)}
    ksf = factor(k).squarefree_part()
    s = isqrt(k // ksf)
    pts = {1: (1, 1, 0), -1: (k, 0, 1), ksf: (0, s, 1), -ksf: (0, s, 1)}
    return {b1: TorsorPoint(*t) for b1, t in pts.items()}


def descend(k: int, height: int = 1000) -> DescentReport:
    """Full descent: Selmer groups, point search, certificates, bounds."""
    if height < 0:
        raise PreconditionUnmet(f"height must be >= 0, got {height}")
    notes: list[str] = []
    selmer = {s: selmer_group(k, s) for s in (PSI, PHI)}

    cls = classify_auto(k)
    sha_cert = {PSI: SquareClassGroup.trivial(), PHI: SquareClassGroup.trivial()}
    # the phi classes the criteria allow in W; psi certificates never name them
    w_phi_cap: SquareClassGroup | None = None
    if cls is not None:
        for side, cert, expected in (
            (PSI, cls.sha_psi, cls.selmer_psi),
            (PHI, cls.sha_phi, cls.selmer_phi),
        ):
            if expected.elements != selmer[side].elements:
                notes.append(
                    f"selmer mismatch on {side}: computed "
                    f"{selmer[side].describe()}, criteria expected "
                    f"{expected.describe()}"
                )
            if cert <= selmer[side]:
                sha_cert[side] = cert
            else:
                notes.append(
                    f"dropping {side} obstruction certificate "
                    f"{cert.describe()}: not inside the Selmer group"
                )
        if not notes:
            w_phi_cap = cls.w_phi

    witnesses: dict[str, dict[int, TorsorPoint]] = {}
    w_found: dict[str, SquareClassGroup] = {}
    for side in (PSI, PHI):
        const = _torsor_constant(k, side)
        witnesses[side] = _free_classes(k, side)
        gens = list(witnesses[side])
        for b1 in gens:
            if b1 not in selmer[side]:
                raise InconsistentCriteria(
                    f"torsion class {b1} missing from the {side} Selmer group"
                )
        w = {1}  # W, grown in place by each class with a point
        _extend(w, gens, squarefree_mul)
        # the largest W the certificates allow
        cert_size_bound = len(selmer[side]) // len(sha_cert[side])
        # Selmer classes in torsor order: by |b1|, then b1 before -b1
        for b1 in selmer[side]:
            if len(w) >= cert_size_bound:
                break
            if b1 in w or b1 in sha_cert[side]:
                continue  # class 1 is in w; certified classes are obstructed
            if side == PHI and w_phi_cap is not None and b1 not in w_phi_cap:
                continue
            pts = search_points(Torsor(side, b1, const // b1), height, stop_at_first=True)
            if pts:
                witnesses[side][b1] = pts[0]
                _extend(w, [b1], squarefree_mul)
        current = SquareClassGroup(frozenset(w))
        for b1 in current:
            if b1 in sha_cert[side] and b1 != 1:
                raise InconsistentCriteria(
                    f"class {b1} on {side} has a point but was certified"
                    " locally obstructed"
                )
        w_found[side] = current

    rank_lower = max(0, w_found[PSI].dim + w_found[PHI].dim - 2)
    rank_upper, sha2 = selmer_rank_bound(
        selmer[PSI], selmer[PHI], sha_cert[PSI], sha_cert[PHI]
    )
    if rank_lower > rank_upper:
        raise InconsistentCriteria(
            f"k={k}: found rank {rank_lower} exceeds certified bound {rank_upper}"
        )
    return DescentReport(
        k=k,
        selmer_psi=selmer[PSI],
        selmer_phi=selmer[PHI],
        w_psi=w_found[PSI],
        w_phi=w_found[PHI],
        sha_psi_cert=sha_cert[PSI],
        sha_phi_cert=sha_cert[PHI],
        rank_lower=rank_lower,
        rank_upper=rank_upper,
        sha2_dim=sha2,
        noncongruent=rank_upper == 0,
        height=height,
        witnesses=witnesses,
        classification=cls,
        notes=tuple(notes),
    )
