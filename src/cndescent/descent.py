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

from collections import OrderedDict
from functools import cache
from math import gcd, isqrt
from operator import mul
from threading import Lock
from typing import NamedTuple

from .arith import _legendre, factor
from .criteria import Classification, classify_auto, selmer_rank_bound
from .errors import BadResidueClass, InconsistentCriteria, PreconditionUnmet, check_height, is_int
from .sqclass import SquareClassGroup, _extend, squarefree_mul

PSI = "psi"
PHI = "phi"


class Torsor(NamedTuple):
    side: str
    b1: int
    b2: int


class TorsorPoint(NamedTuple):
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
    if not is_int(k) or k < 1:
        raise PreconditionUnmet(f"k must be a positive integer, got {k!r}")
    if side not in (PSI, PHI):
        raise PreconditionUnmet(f"side must be {PSI!r} or {PHI!r}, got {side!r}")
    if side == PSI:
        return -k * k
    return 4 * k * k if k % 2 == 1 else k * k // 4


def enumerate_torsors(k: int, side: str) -> dict[int, Torsor]:
    """All candidate b1 classes for the given isogeny side, keyed by b1 in
    the group order (|b1|, b1 < 0): with locally_solvable, the oracle that
    selmer_group is tested against, as it factors the torsor constant.

    psi: b1 runs over +-(squarefree divisors of k); phi: over the positive
    squarefree divisors of the torsor constant's radical, which is that of
    2k for odd k and that of k^2/4 for even k (it contains 2 when 4 | k).
    """
    const = _torsor_constant(k, side)
    # -1 and the primes are independent classes, so plain products multiply
    signs = [-1] if side == PSI else []
    classes = {1}
    _extend(classes, signs + [q for q, _ in factor(const).factors], mul)
    return {b1: Torsor(side, b1, const // b1) for b1 in SquareClassGroup(classes)}


# --- local solvability ----------------------------------------------------


def _split(n: int, q: int) -> tuple[int, int]:
    """(v, u) with n = q^v u and q not dividing u; n must be nonzero."""
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v, n


def solvable_at(b1: int, b2: int, q: int) -> bool:
    """Solvability of N^2 = b1 M^4 + b2 e^4 over Q_q (primitive M, e).

    Replacing M, e or N by q times itself shows that only a = v(b1) and
    b = v(b2) mod 4 matter, both lowered by 2 when both are >= 2; swapping
    M and e gives a <= b. Let u1, u2 be the unit parts, t = b1 M^4 + b2 e^4.

    Odd q. If a < b, v(t) is a with unit part u1 M^4 mod q when q does not
    divide M, else b with unit part u2 e^4, and by Hensel's lemma t is a
    square iff that valuation is even and that unit a square mod q. If
    a = b = 1, v(t) is even only if q | u1 M^4 + u2 e^4, so -u2/u1 must be
    a fourth power mod q, and then Hensel lifts M/e to a point with N = 0;
    F_q^* is cyclic of order q - 1, so x is a fourth power exactly when
    x^((q - 1)/gcd(4, q - 1)) = 1 mod q.
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
        return a == 0 or pow(-u2 * pow(u1, -1, q), (q - 1) // gcd(4, q - 1), q) == 1
    return (a == 0 and _legendre(u1, q) == 1) or (b == 2 and _legendre(u2, q) == 1)


def locally_solvable(b1: int, b2: int) -> bool:
    """Everywhere-local solvability (R and all relevant Q_q), torsor by
    torsor: the oracle of selmer_group, which tests local classes instead.

    Only q | 2 b1 b2 need checking: elsewhere the reduced curve is a
    smooth genus-1 curve over F_q, has a point by the Hasse bound, and
    the point lifts. Factors b1 b2, so it raises FactorBudgetExceeded past
    10^18. Raises BadResidueClass when b1 or b2 is 0, as solvable_at does,
    or not an int.
    """
    if not (is_int(b1) and is_int(b2)) or b1 == 0 or b2 == 0:
        raise BadResidueClass(f"locally_solvable needs nonzero int b1, b2, got {b1!r}, {b2!r}")
    if b1 < 0 and b2 < 0:
        return False
    qs = {2} | {q for q, _ in factor(b1 * b2).factors}
    return all(solvable_at(b1, b2, q) for q in sorted(qs))


def _local_class(x: int, q: int) -> int:
    """The class of a squarefree x in Q_q*/Q_q*^2 as bits: bit 0 is v_q(x),
    and the unit u = x / q^v sets bit 1 when (u/q) = -1 at odd q, and
    bits 1 and 2 to u mod 8 less 1 at q = 2."""
    v = x % q == 0
    u = x // q if v else x
    return v | (u & 6 if q == 2 else 2 * (_legendre(u, q) < 0))


def selmer_group(k: int, side: str) -> SquareClassGroup:
    """The classes b1 of the side's candidate group G whose torsor, with
    b2 = c / b1 for the side's constant c, is solvable over R and every Q_q.

    G is <-1, primes of k> on psi and <primes of c> on phi: those of 2k for
    odd k, of k for 4 | k, and of k but 2 for k = 2 mod 4. Four facts
    leave a few solvable_at tests:
    - Solvability at q depends only on the class of b1 in Q_q*/Q_q*^2: for
      b1' = b1 / t^2, b2' = b2 t^2, and (N, M, e) -> (tN, tM, e) takes a
      point of one torsor to one of the other.
    - The classes solvable at q are a subgroup: the image of the Kummer
      map from the partner curve's Q_q-points to Q_q*/Q_q*^2, a
      homomorphism (Silverman, AEC X.4.9; Cassels, Lectures §15).
    - q not dividing 2k needs no test: c's primes are among 2k's, so q
      does not divide 2 b1 b2, as in locally_solvable.
    - R holds on all of G: b1 b2 = -k^2 < 0 on psi, and b1 > 0 on phi.

    So Sel is the meet over q in {2} and the primes of k of the preimages
    of the local images. At each q, _local_class maps the basis to bits,
    and products of the basis represent each class of the span's image,
    at most 4 at odd q and 8 at q = 2. A class outside the span of the
    solvable ones found so far gets one test, on its representative. The
    next basis is the kernel of span -> image / solvable: each element
    whose bits a representative already had, times it, and each
    representative that grew the solvable classes. Only k is factored.
    """
    const = _torsor_constant(k, side)
    primes = [q for q, _ in factor(k).factors]
    places = sorted({2, *primes})
    basis = [-1, *primes] if side == PSI else [q for q in places if q > 2 or k % 4 != 2]
    for q in places:
        reps = {0: 1}  # each class of the image so far, with a product of the basis
        kept = []
        for g in basis:
            v = _local_class(g, q)
            if v in reps:
                kept.append(squarefree_mul(g, reps[v]))
            else:
                reps.update([(v ^ w, squarefree_mul(g, r)) for w, r in reps.items()])
        good = {0}
        for v, r in reps.items():
            if v not in good and solvable_at(r, const // r, q):
                good |= {v ^ w for w in good}
                kept.append(r)
        basis = kept
    group = {1}
    _extend(group, basis, squarefree_mul)
    return SquareClassGroup(group)


# --- global points --------------------------------------------------------


_SIEVE_MODULI = (64, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# (q, the period p of e^4 mod q in e, and the slot of each e < p in a call's
# list of windows): q owns the q slots after those of the moduli before it.
# Blocks of many rows key a window on e mod p, one-row blocks on e^4 mod q,
# so those build one row per fourth power. p is q, but 16 for 64, since
# (e + 16)^4 = e^4 mod 64.
_SLOTS = tuple(
    (q, p, range(at, at + p))
    for at, q, p in (
        (sum(_SIEVE_MODULI[:i]), q, 16 if q == 64 else q) for i, q in enumerate(_SIEVE_MODULI)
    )
)
_ROW_SLOTS = tuple((q, p, tuple(keys[0] + pow(e, 4, q) for e in range(p))) for q, p, keys in _SLOTS)
_BLOCK_BYTES = 2048  # blocks of e-rows grow 4-fold up to this size, or to one row
_FIRST_ROWS = 2  # the first block, so an early point pays for few rows
# candidates that a block smaller than the largest, whose windows serve it
# alone, tests exactly rather than build the windows of more moduli
_FEW = 32


@cache
def _residues(q: int) -> tuple[frozenset[int], tuple[tuple[int, int], ...], tuple[int, ...]]:
    """For the modulus q: the squares mod q; each fourth power f mod q with
    the bits of the j < q that have j^4 = f mod q; and for each e of one
    period of e^4 mod q, the index of e^4 mod q among those f."""
    fourths: dict[int, int] = {}
    for j in range(q):
        fourths[j**4 % q] = fourths.get(j**4 % q, 0) | 1 << j
    order = list(fourths)
    which = tuple(order.index(e**4 % q) for e in range(16 if q == 64 else q))
    return frozenset(x * x % q for x in range(q)), tuple(fourths.items()), which


@cache
def _unit_scale(q: int, a: int) -> tuple[int, int]:
    """(a', s) with s a nonzero square mod q and a' = s a mod q, so that
    a' M^4 + s c = s (a M^4 + c) is a square mod q exactly when a M^4 + c
    is. For an odd prime q and a unit a, a' is 1 or the least non-square;
    64, 9 and a = 0 keep (a, 1)."""
    if q in (64, 9) or a == 0:
        return a, 1
    if _legendre(a, q) == 1:
        return 1, pow(a, -1, q)
    n = next(x for x in range(2, q) if _legendre(x, q) == -1)
    return n, n * pow(a, -1, q) % q


@cache
def _square_pattern(q: int, a: int, c: int) -> bytes:
    """Bit j set when a j^4 + c is a square mod q, for j < lcm(q, 8): the
    length-q pattern repeated over whole bytes. Called with the (a', s c)
    of _unit_scale, so an odd prime q has at most 3q keys."""
    squares, fourths, _ = _residues(q)
    pattern = 0
    for f, bits in fourths:
        if (a * f + c) % q in squares:
            pattern |= bits
    tile_bits = q * 8 // gcd(q, 8)
    tile = pattern * ((1 << tile_bits) - 1) // ((1 << q) - 1)
    return tile.to_bytes(tile_bits // 8, "little")


@cache
def _tiles(q: int, a: int, d: int) -> tuple[bytes, ...]:
    """The _square_pattern of (a, d f) for each fourth power f mod q, in
    the order of _residues(q)."""
    return tuple(_square_pattern(q, a, d * f % q) for f, _ in _residues(q)[1])


def _row(q: int, b1: int, b2: int, nb: int, e: int) -> bytes:
    """Row e of nb bytes: bit M set when b1 M^4 + b2 e^4 is a square mod q."""
    a, s = _unit_scale(q, b1 % q)
    which = _residues(q)[2]
    tile = _tiles(q, a, b2 * s % q)[which[e % len(which)]]
    return (tile * (nb // len(tile) + 1))[:nb]


class _Periods(OrderedDict):
    """The periods of _period, shared by every search_points call, least
    recently used first. nbytes charges each its bytes plus _ENTRY_BYTES;
    entries leave from the old end while nbytes exceeds _PERIOD_BUDGET.
    Insertions and removals hold the lock, so nbytes stays their sum."""

    def __init__(self) -> None:
        super().__init__()
        self.nbytes = 0
        self.lock = Lock()

    def clear(self) -> None:
        with self.lock:
            super().clear()
            self.nbytes = 0


_PERIOD_BUDGET = 2 << 20
_ENTRY_BYTES = 256  # an entry's key, bytes header and dict and list nodes
_PERIODS = _Periods()


def _period(q: int, b1: int, b2: int, nb: int, rows: int) -> bytes:
    """The rows e = 0 .. p + rows - 2 of nb bytes, row e with bit M set
    when b1 M^4 + b2 e^4 is a square mod q: one period of e^4 mod q,
    e < p, repeated, so a window of up to `rows` rows from any e0 < p is
    one slice. Kept in _PERIODS under all its bytes depend on: q, the
    _unit_scale pair (a, d) of (b1, b2) mod q, nb and rows."""
    a, s = _unit_scale(q, b1 % q)
    d = b2 * s % q
    key = q, a, d, nb, rows
    period = _PERIODS.get(key)
    if period is not None:
        try:  # another thread may have evicted it since the get
            _PERIODS.move_to_end(key)
        except KeyError:
            pass
        return period
    tiles = _tiles(q, a, d)
    which = _residues(q)[2]
    p = len(which)
    copies = nb // len(tiles[0]) + 1  # tiles to cover nb bytes
    one = [(tile * copies)[:nb] for tile in tiles]
    period = b"".join(map(one.__getitem__, which)) * ((p + rows - 2) // p + 1)
    period = period[: (p + rows - 1) * nb]
    with _PERIODS.lock:
        if key not in _PERIODS:
            _PERIODS[key] = period
            _PERIODS.nbytes += len(period) + _ENTRY_BYTES
        while _PERIODS.nbytes > _PERIOD_BUDGET:
            _PERIODS.nbytes -= len(_PERIODS.popitem(last=False)[1]) + _ENTRY_BYTES
    return period


def search_points(
    torsor: Torsor, height: int, stop_at_first: bool = False
) -> list[TorsorPoint]:
    """Primitive points with max(|M|, |e|) <= height, M, e >= 0.

    A bit-array sieve, as in Stoll's ratpoints, over blocks of consecutive
    e. A block of R rows from e0 is one Python int, row e of
    nb = ceil((height + 1) / 8) bytes from bit 8 nb (e - e0), bit M of the
    row standing for (M, e). It starts as the M where b1 M^4 + b2 e^4 >= 0
    for some e of the block (M = 1 alone at e = 0) and is ANDed, for each
    q in _SIEVE_MODULI (64, 9, then the primes 5 to 47), with a window of
    R rows whose bit M is set when b1 M^4 + b2 e^4 is a square mod q,
    until it is empty. A square is a square mod every q, so the sieve
    drops no point; gcd, sign and isqrt then decide each surviving bit, so
    a modulus left out changes only how many bits they test.

    Blocks: the first has 2 rows, and each next one 4 times as many, up
    to _BLOCK_BYTES = 2 KB, or one row if a row is wider (height 8,192 and
    up); a block takes all the e left, up to that size, when fewer than
    twice its rows are left. A row depends on e only through e mod p, the
    period of e^4 mod q, so every window of several rows is one slice of
    q's _period: its rows e = 0 .. p - 1 repeated to p + R - 1 rows, for
    the largest block size R of the call. The periods are shared by all
    calls, keyed by q, the _unit_scale pair (a, d) of (b1, b2) mod q, nb
    and R, and each window is cached per call on e0 mod p while the block
    size holds; a one-row window is its row alone, cached on e^4 mod q,
    as a per-e sieve caches its rows. A block smaller than the largest is
    the only one of its size, so no other block uses its windows: once it
    has 32 candidates or fewer, it tests them rather than build more
    windows, and a point found early builds few rows.

    Order: e ascending, then M ascending, the order of a plain scan, so
    stop_at_first returns the first point of that order.

    Memory per call, with B = max(2048, nb) bytes: at most p windows of at
    most B bytes per q, 348 in all, and the call's 15 periods, 348 rows
    of nb bytes and fewer than 15 B more; counting the int overhead and
    the block in hand, under 400 B + 400 nb bytes, 0.92 MB at height 2000.
    One-row blocks use no period and key their windows on the 144 fourth
    powers, so from height 8,192 on a call holds at most 144 rows of nb
    bytes: 0.2 MB at height 10^4 and 1.9 MB at 10^5. Across calls two
    kinds of table are cached. The tiles of _square_pattern (at most 3q
    of at most q bytes for an odd prime q, q^2 of at most 9 bytes for 64
    and 9) and the tuples of _tiles, keyed the same way, do not depend on
    the height. The periods do: one holds (p + R - 1) nb bytes, 3,224
    for q = 47 at height 200 and at most 49,152 (q = 47, height 8,191).
    They sit in one LRU whose bytes, with 256 more charged per entry for
    its key and nodes, stay within _PERIOD_BUDGET = 2 MiB.

    Raises PreconditionUnmet for a b1 or b2 that is zero or not an int, or a
    height not an int >= 0.
    """
    b1, b2 = torsor.b1, torsor.b2
    if not (is_int(b1) and is_int(b2)) or b1 == 0 or b2 == 0:
        raise PreconditionUnmet(f"torsor coefficients must be nonzero ints, got {b1!r}, {b2!r}")
    check_height(height)
    found: list[TorsorPoint] = []
    if b1 < 0 and b2 < 0:
        return found
    n_bits = height + 1
    nb = (n_bits + 7) // 8
    width = 8 * nb  # bits per row; the M range keeps those from n_bits on clear
    e_end = height  # past e_end, b1 M^4 + b2 e^4 < 0 for every M <= height
    if b1 > 0 > b2:
        e_end = min(height, isqrt(isqrt((b1 * n_bits**4 - 1) // -b2)))
    max_rows = max(1, _BLOCK_BYTES // nb)
    rows = 0  # the block size
    periods: dict[int, bytes] = {}  # q -> its _period
    span = start = None  # the last block's M range and size, and its rows
    e0 = 0
    while e0 <= e_end:
        if rows < max_rows or e0 + rows > e_end + 1:  # a new block size
            rows = min(4 * rows or _FIRST_ROWS, max_rows)
            if e_end + 1 - e0 < 2 * rows:  # fewer than two blocks left: take them all
                rows = min(e_end + 1 - e0, max_rows)
            windows: list[int | None] = [None] * sum(_SIEVE_MODULI)
            slots = _SLOTS if rows > 1 else _ROW_SLOTS
        # the scan's M range: b1 M^4 + b2 e^4 >= 0 for some e of the block
        lo = isqrt(isqrt(-b2 * e0**4 // b1)) if b1 > 0 > b2 else 0
        hi = height
        if b1 < 0:
            hi = min(height, isqrt(isqrt(b2 * (e0 + rows - 1) ** 4 // -b1)))
        if span != (lo, hi, rows):
            span = lo, hi, rows
            start = (1 << hi + 1) - (1 << lo)
            if rows > 1:
                start = int.from_bytes(start.to_bytes(nb, "little") * rows, "little")
        block = start
        if e0 == 0:  # gcd(M, 0) = M, so M = 1 is the one candidate at e = 0
            block &= ~((1 << width) - 3)
        for q, p, keys in slots:
            r0 = e0 % p
            slot = keys[r0]
            window = windows[slot]
            if window is None:
                if rows < max_rows and block.bit_count() <= _FEW:
                    break
                if rows == 1:
                    window = int.from_bytes(_row(q, b1, b2, nb, e0), "little")
                else:  # one slice of q's period
                    if q not in periods:
                        periods[q] = _period(q, b1, b2, nb, max_rows)
                    window = int.from_bytes(periods[q][r0 * nb : (r0 + rows) * nb], "little")
                windows[slot] = window
            block &= window
            if not block:
                break
        survivors = []
        while block:  # rows from the top, each a small int
            r = (block.bit_length() - 1) // width
            survivors.append((e0 + r, block >> r * width if r else block))
            block &= (1 << r * width) - 1
        for e, row in reversed(survivors):
            c = b2 * e**4
            while row:
                low = row & -row
                row ^= low
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
        e0 += rows
    return found


def witnesses_json(witnesses: dict[str, dict[int, TorsorPoint]]) -> dict:
    """{side: {str(b1): [N, M, e]}}, the witness shape of every JSON output."""
    return {
        side: {str(b1): [pt.N, pt.M, pt.e] for b1, pt in w.items()}
        for side, w in witnesses.items()
    }


class DescentReport(NamedTuple):
    """What `descend` found for k. Immutable like every record; its
    witnesses are dicts, so hashing a report raises TypeError."""

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
    classification: Classification | None = None
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


def _contradiction(cls: Classification, selmer: dict, torsion: dict) -> str | None:
    """The first way the family's criteria contradict the computed descent,
    as a note, or None when they can be taken whole: equal Selmer groups,
    each certificate inside its Selmer group and meeting the torsion
    classes only in 1, and W^phi inside Sel^phi."""
    for side, expected in ((PSI, cls.selmer_psi), (PHI, cls.selmer_phi)):
        if expected != selmer[side]:
            return (
                f"selmer mismatch on {side}: computed {selmer[side].describe()}, "
                f"criteria expected {expected.describe()}"
            )
    for side, cert in ((PSI, cls.sha_psi), (PHI, cls.sha_phi)):
        if not cert <= selmer[side]:
            return f"{side} certificate {cert.describe()} is not inside the Selmer group"
        if cert & torsion[side].keys() != {1}:
            return f"{side} certificate {cert.describe()} has a torsion class"
    if not cls.w_phi <= selmer[PHI]:
        return f"phi W bound {cls.w_phi.describe()} is not inside the Selmer group"
    return None


def descend(k: int, height: int = 1000) -> DescentReport:
    """Full descent: Selmer groups, point search, certificates, bounds.

    A family's criteria are taken whole or not at all. When they agree with
    the computed descent (see _contradiction), the certificates lower the
    rank bound and the phi search walks only W^phi; otherwise one note names
    the first contradiction and descend runs as for a k no family covers.

    Each side grows W and ws = W * Sha from the torsion classes. A class
    w s of ws outside W has no point, which would put s in W, so the search
    walks the candidates in group order and skips ws. A class b1 found
    outside ws keeps W meet Sha = {1}: b1 w in Sha would put b1 in ws.
    """
    check_height(height)
    selmer = {s: selmer_group(k, s) for s in (PSI, PHI)}
    witnesses = {s: _free_classes(k, s) for s in (PSI, PHI)}
    for side, torsion in witnesses.items():
        if not torsion.keys() <= selmer[side]:
            raise InconsistentCriteria(f"torsion class missing from the {side} Selmer group")

    cls = classify_auto(k)
    note = None if cls is None else _contradiction(cls, selmer, witnesses)
    if cls is None or note is not None:
        sha_cert = dict.fromkeys((PSI, PHI), SquareClassGroup.trivial())
        candidates = dict(selmer)  # the classes each side may search
    else:
        sha_cert = {PSI: cls.sha_psi, PHI: cls.sha_phi}
        candidates = {PSI: selmer[PSI], PHI: cls.w_phi}  # psi has no W bound

    w_found: dict[str, SquareClassGroup] = {}
    for side in (PSI, PHI):
        const = _torsor_constant(k, side)
        w = {1}  # W, grown in place by each class with a point
        _extend(w, witnesses[side], squarefree_mul)
        ws = set(w)  # W * Sha
        _extend(ws, sha_cert[side], squarefree_mul)
        for b1 in candidates[side]:
            if b1 in ws:
                continue
            pts = search_points(Torsor(side, b1, const // b1), height, stop_at_first=True)
            if pts:
                witnesses[side][b1] = pts[0]
                _extend(w, [b1], squarefree_mul)
                _extend(ws, [b1], squarefree_mul)
        w_found[side] = SquareClassGroup(w)

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
        notes=() if note is None else (note,),
    )
