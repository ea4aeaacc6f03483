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
from math import gcd, isqrt

from .arith import factor
from .criteria import classify_auto, selmer_rank_bound
from .errors import DescentError, InconsistentCriteria
from .sqclass import SquareClassGroup

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


def enumerate_torsors(k: int, side: str) -> dict[int, Torsor]:
    """All candidate b1 classes for the given isogeny side, keyed by b1.

    psi: b1 runs over +-(squarefree divisors of k); phi: over the positive
    squarefree divisors of the torsor constant's radical, which is that of
    2k for odd k and that of k^2/4 for even k (it contains 2 when 4 | k).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if side == PSI:
        const = -k * k
    elif k % 2 == 1:
        const = 4 * k * k
    else:
        const = k * k // 4
    divisors = [1]
    for q, _ in factor(const).factors:
        divisors += [d * q for d in divisors]
    signs = (1, -1) if side == PSI else (1,)
    return {
        s * d: Torsor(side, s * d, const // (s * d))
        for d in sorted(divisors)
        for s in signs
    }


# --- local solvability ----------------------------------------------------


def _val(n: int, q: int) -> int:
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def _is_fourth_power_in_qq(num: int, den: int, q: int) -> bool:
    """Exact test for num/den in (Q_q^x)^4."""
    v = _val(num, q) - _val(den, q)
    if v % 4 != 0:
        return False
    # unit part as a residue
    nu = num // q ** _val(num, q)
    du = den // q ** _val(den, q)
    if q == 2:
        u = nu * pow(du, -1, 16) % 16
        return u == 1  # (Z_2^x)^4 = 1 + 16 Z_2
    u = nu * pow(du, -1, q) % q
    g = gcd(4, q - 1)
    return pow(u, (q - 1) // g, q) == 1


def _chart_solvable(b1: int, b2: int, q: int, initial_depth: int) -> bool:
    """Does N^2 = b1 z^4 + b2 have a solution with z in Z_q (depth 0)
    or z in q Z_q (depth 1)?

    BFS over residue classes z = c mod q^m with exact integer arithmetic.
    A class is decided once the valuation v of t(c) = b1 c^4 + b2 is
    pinned below the modulus with at least 1 (odd q) or 3 (q = 2) unit
    digits visible; t(c) = 0 is an exact N = 0 solution.
    """
    need = 3 if q == 2 else 1
    cap = _val(16 * (b1 * b2) ** 2, q) + 3
    if initial_depth == 0:
        frontier = [(0, 0)]
    else:
        frontier = [(0, 1)]
    while frontier:
        next_frontier = []
        for c, m in frontier:
            t = b1 * c**4 + b2
            if m > 0:
                if t == 0:
                    return True
                v = _val(t, q)
                if v < m and m - v >= need:
                    if v % 2 == 0:
                        u = t // q**v
                        if q == 2:
                            if u % 8 == 1:
                                return True
                        elif pow(u % q, (q - 1) // 2, q) == 1:
                            return True
                    continue  # decided: not a square on this class
            if m >= cap:
                raise DescentError(
                    f"local solver exceeded its depth bound at q={q}, "
                    f"b1={b1}, b2={b2}; this is a bug"
                )
            step = q**m
            next_frontier.extend((c + j * step, m + 1) for j in range(q))
        frontier = next_frontier
    return False


def solvable_at(b1: int, b2: int, q: int) -> bool:
    """Solvability of N^2 = b1 M^4 + b2 e^4 over Q_q (primitive M, e)."""
    # N = 0 channel: a q-adic fourth root of -b2/b1 is a point; testing it
    # up front also guarantees the residue search below terminates
    if _is_fourth_power_in_qq(-b2, b1, q):
        return True
    return _chart_solvable(b1, b2, q, 0) or _chart_solvable(b2, b1, q, 1)


def locally_solvable(b1: int, b2: int) -> bool:
    """Everywhere-local solvability (R and all relevant Q_q).

    Only q | 2 b1 b2 need checking: elsewhere the reduced curve is a
    smooth genus-1 curve over F_q, has a point by the Hasse bound, and
    the point lifts.
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


def search_points(
    torsor: Torsor, height: int, stop_at_first: bool = False
) -> list[TorsorPoint]:
    """Primitive points with max(|M|, |e|) <= height, M, e >= 0.

    The scan walks e upward and visits only the M interval where
    b1 M^4 + b2 e^4 >= 0, so the effective cost is the thin positive
    region, not height^2.
    """
    b1, b2 = torsor.b1, torsor.b2
    found: list[TorsorPoint] = []
    if b1 < 0 and b2 < 0:
        return found
    for e in range(height + 1):
        # M bounds from exact fourth roots; m_lo may sit one below the
        # first M with b1 M^4 + b2 e^4 >= 0, which the t < 0 test skips
        if b1 > 0:
            m_lo = 0 if b2 >= 0 else isqrt(isqrt(-b2 * e**4 // b1))
            m_hi = height
        else:
            m_lo = 0
            m_hi = min(height, isqrt(isqrt(b2 * e**4 // -b1)))
        for m in range(m_lo, m_hi + 1):
            if gcd(m, e) != 1:
                continue
            t = b1 * m**4 + b2 * e**4
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
            "selmer_psi": sorted(self.selmer_psi, key=abs),
            "selmer_phi": sorted(self.selmer_phi, key=abs),
            "w_psi": sorted(self.w_psi, key=abs),
            "w_phi": sorted(self.w_phi, key=abs),
            "sha_psi_cert": sorted(self.sha_psi_cert, key=abs),
            "sha_phi_cert": sorted(self.sha_phi_cert, key=abs),
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
    ksf = factor(k).squarefree_part()
    s = isqrt(k // ksf)
    if side == PSI:
        pts = {1: (1, 1, 0), -1: (k, 0, 1), ksf: (0, s, 1), -ksf: (0, s, 1)}
    else:
        pts = {1: (1, 1, 0)}
    return {b1: TorsorPoint(*t) for b1, t in pts.items()}


def descend(k: int, height: int = 1000) -> DescentReport:
    """Full descent: Selmer groups, point search, certificates, bounds."""
    notes: list[str] = []
    selmer = {s: selmer_group(k, s) for s in (PSI, PHI)}
    torsors = {s: enumerate_torsors(k, s) for s in (PSI, PHI)}

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
            elif len(cert) > 1:
                notes.append(
                    f"dropping {side} obstruction certificate "
                    f"{cert.describe()}: not inside the Selmer group"
                )
        if not notes:
            w_phi_cap = cls.w_phi

    witnesses: dict[str, dict[int, TorsorPoint]] = {}
    w_found: dict[str, SquareClassGroup] = {}
    for side in (PSI, PHI):
        witnesses[side] = _free_classes(k, side)
        gens = list(witnesses[side])
        for b1 in gens:
            if b1 not in selmer[side]:
                raise InconsistentCriteria(
                    f"torsion class {b1} missing from the {side} Selmer group"
                )
        current = SquareClassGroup.span(*gens)
        # the largest W the certificates allow
        cert_dim_bound = selmer[side].dim - sha_cert[side].dim
        for t in torsors[side].values():
            if current.dim >= cert_dim_bound:
                break
            if t.b1 not in selmer[side] or t.b1 in current:
                continue
            if t.b1 in sha_cert[side] and t.b1 != 1:
                continue  # certified obstructed: do not bother searching
            if side == PHI and w_phi_cap is not None and t.b1 not in w_phi_cap:
                continue
            pts = search_points(t, height, stop_at_first=True)
            if pts:
                witnesses[side][t.b1] = pts[0]
                gens.append(t.b1)
                current = SquareClassGroup.span(*gens)
        w_found[side] = current

    for side in (PSI, PHI):
        if not w_found[side] <= selmer[side]:
            raise InconsistentCriteria(f"W on {side} escapes the Selmer group")
        for b1 in w_found[side]:
            if b1 in sha_cert[side] and b1 != 1:
                raise InconsistentCriteria(
                    f"class {b1} on {side} has a point but was certified"
                    " locally obstructed"
                )

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
