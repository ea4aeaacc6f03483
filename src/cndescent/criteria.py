"""Residue-symbol criteria: obstruction certificates and rank bounds.

For k = pl with p = l = 1 mod 8 and (p/l) = +1 everything is driven by the
five-sign residue profile

    ( [P/L], (l/p)_4, (p/l)_4, (-4/p)_8, (-4/l)_8 )

with [P/L] the Z[sqrt2] symbol of the primary primes. Eight case conditions
govern the psi-side torsor T(p); seven class conditions govern the phi-side
torsors. A class whose condition fails has no rational point, which turns
local-only Selmer elements into certified Tate-Shafarevich classes. The
remaining families (k = 2p, (p/l) = -1, and the small residue classes mod 8)
have their own closed-form criteria.

Sign convention: every symbol value is +1 or -1, never 0.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import product
from typing import NamedTuple

from .arith import _legendre, _octic, _quartic, factor, is_prime, jacobi
from .errors import (
    FamilyMismatch,
    InconsistentCriteria,
    PreconditionUnmet,
    UndefinedSymbol,
    is_int,
)
from .quadring import GAUSS, SQRT2, _euclid, _root
from .sqclass import LABELS, SquareClassGroup, _extend, _label_mul, concretize, label_span

# --- the residue profile ----------------------------------------------------


class ResidueProfile(NamedTuple):
    """The five signs that control the k = pl, (p/l) = +1 classification."""

    pi: int  # [P/L] in Z[sqrt2]
    a: int  # (l/p)_4
    b: int  # (p/l)_4
    c: int  # (-4/p)_8
    d: int  # (-4/l)_8


def _checked_profile(profile) -> ResidueProfile:
    """The profile as a ResidueProfile, if it is five signs +-1."""
    if not isinstance(profile, (tuple, list)) or len(profile) != 5 \
            or any(s not in (1, -1) for s in profile):
        raise PreconditionUnmet(f"a profile is five signs +-1, got {profile!r}")
    return ResidueProfile(*profile)


def _pair_class(p: int, l: int) -> int | None:
    """The pl criteria's pair hypothesis: r when p, l are distinct int primes
    = r mod 8, else None. Types first: `%` on a str formats it."""
    if not (is_int(p) and is_int(l)) or p % 8 != l % 8 or p == l:
        return None
    return p % 8 if is_prime(p) and is_prime(l) else None


# covers the 2,384 primes = 1 mod 8 below 10^5, the largest survey box;
# full of primes near 10^6, the two records hold about 0.8 MB (a root and
# a sign per prime, `_prime_record`) and 1.4 MB (an int pair per prime,
# `_generator`), by tracemalloc
_PRIME_RECORDS = 4096


@lru_cache(maxsize=_PRIME_RECORDS)
def _prime_record(q: int) -> tuple[int, int]:
    """The per-prime part of a profile, for a checked prime q = 1 mod 8: the
    least root of 2 mod q and (-4/q)_8."""
    return _root(q, SQRT2.omega2), _octic(q)


def _b_even(a: int, b: int) -> tuple[int, int]:
    """a + b*sqrt2, a odd, times eps = 1 + sqrt2 when b is odd: b even."""
    return (a + 2 * b, a + b) if b % 2 else (a, b)


@lru_cache(maxsize=_PRIME_RECORDS)
def _generator(p: int) -> tuple[int, int]:
    """A generator a + b*sqrt2 with b even of a prime over the checked prime
    p = 1 mod 8, as an int pair: Euclid's gcd of p and r - sqrt2 for the
    root r of `_prime_record`, then `_b_even`."""
    return _b_even(*_euclid(p, _prime_record(p)[0], SQRT2.omega2))


def residue_profile(p: int, l: int) -> ResidueProfile:
    """Profile of an admissible pair: p, l distinct primes = 1 mod 8 with
    (p/l) = +1.

    The pair is checked here on every call, so the symbols come from
    unchecked kernels, and each prime is tested for primality once per
    call. (p/l) is not computed apart: p = 1 mod 4 gives (p/l) = (l/p),
    and (l/p)_4 is defined exactly when (l/p) = +1.

    [P/L] is the Legendre symbol ((a + b*r)/l), one modular power, for
    a + b*sqrt2 any generator with b even of a prime P over p and r any
    root of 2 mod l. Nothing over l is split and no primary associate is
    sought, for two reasons:

    - Z[sqrt2]/L = F_l sends sqrt2 to one root of 2 mod l, and the
      conjugate prime L' to the other, so the two roots give [P/L] and
      [P/L']. Their product is ((a^2 - 2b^2)/l) = (+-p/l) = +1, since
      (p/l) = +1 and l = 1 mod 4: both roots give one value. The
      conjugate of P swaps the roots, so it gives that value too.
    - The units are +-eps^n, eps = 1 + sqrt2, and a is odd as N(P) is, so
      eps*(a + b*sqrt2) = (a + 2b) + (a + b)*sqrt2 flips the parity of b:
      the generators with b even are +-eps^(2k)*P. [-1/L] = (-1/l) = +1,
      and eps^2 = 3 + 2*sqrt2 goes to 3 + 2r = (1 + r)^2, a square. So
      every such generator gives one value, that of the primary prime of
      `quadring.symbol_capital`, the oracle the tests compare with.

    Costs by role. Each prime has a `_prime_record`: its least root of 2
    (`quadring._root`: one power per odd z tried up to the least
    non-residue, then a product) and its octic sign (one power). The
    prime in the role of p also has a `_generator`: Euclid's gcd of
    (p, r - sqrt2) from that root, then at most one product by eps. The
    pair costs [P/L] and the two quartic symbols, one power mod l or p
    each. Both records are LRU caches of the `_PRIME_RECORDS` = 4,096
    most recently used checked primes, so a survey, where hundreds of
    pairs share each prime, computes each record once per prime.
    """
    if _pair_class(p, l) != 1:
        raise FamilyMismatch(f"({p!r}, {l!r}) is not a pair of distinct primes = 1 mod 8")
    try:
        a = _quartic(l, p)
    except UndefinedSymbol:
        raise FamilyMismatch(f"profile needs (p/l) = +1; ({p}/{l}) = -1") from None
    _, c = _prime_record(p)
    r, d = _prime_record(l)
    x, y = _generator(p)
    return ResidueProfile(pi=_legendre(x + y * r, l), a=a, b=_quartic(p, l), c=c, d=d)


ALL_PROFILES = tuple(ResidueProfile(*signs) for signs in product((1, -1), repeat=5))

# --- psi side: eight solvability cases for T(p) ------------------------------


def _psi_cases(profile: ResidueProfile) -> dict[str, tuple[int, bool]]:
    """Per case: the value of [P/L] a point in that case forces, and whether
    the case's two other sign conditions hold."""
    _, a, b, c, d = profile
    return {
        "1Aa": (1, a == 1 and c == 1),
        "1Ab": (1, b == 1 and a * c == 1),
        "1Ba": (c * d, a == 1 and b * c == 1),
        "1Bb": (d, b == 1 and c == 1),
        "2Aa": (c, a == 1 and d == 1),
        "2Ab": (1, a == 1 and b * d == 1),
        "2Ba": (c * d, b == 1 and a * d == 1),
        "2Bb": (1, b == 1 and d == 1),
    }


def psi_obstructed(profile: ResidueProfile) -> bool:
    """True when every psi case fails: T(p) is then a Sha class."""
    return not any(
        forced == profile.pi and others
        for forced, others in _psi_cases(profile).values()
    )


# --- phi side: seven class conditions ----------------------------------------

PHI_CLASSES = LABELS[1:]


def phi_pass_classes(profile: ResidueProfile) -> frozenset[str]:
    """The phi classes, named by their b1 = 1 mod squares representative in
    terms of 2, p, l, whose necessary profile condition for a rational point
    on the torsor holds."""
    pi, a, b, c, d = profile
    holds = {
        "2": c == 1 and d == 1 and pi == 1,
        "p": b == 1 and a == 1 and c == 1,
        "2p": a * b == d and c == 1 and pi == a,
        "l": b == 1 and a == 1 and d == 1,
        "2l": a * b == c and d == 1 and pi == b,
        "pl": a == b and c == 1 and d == 1,
        "2pl": a * b == c and c == d and pi == 1,
    }
    return frozenset(cls for cls, ok in holds.items() if ok)


class ProfileClassification(NamedTuple):
    """Symbolic classification of one residue profile, each group a label
    group over (2, p, l)."""

    profile: ResidueProfile
    sha_psi: frozenset[str]  # certified: <p> or trivial
    w_phi: frozenset[str]  # passing classes + "1"; always a group
    sha_phi_complement: frozenset[str]  # canonical certified complement

    def __repr__(self) -> str:
        # the label sets print in LABELS order, not the string hash's
        def labels(s: frozenset[str]) -> str:
            return f"frozenset({{{', '.join(repr(c) for c in LABELS if c in s)}}})"

        return (
            f"ProfileClassification(profile={self.profile!r}, "
            f"sha_psi={labels(self.sha_psi)}, w_phi={labels(self.w_phi)}, "
            f"sha_phi_complement={labels(self.sha_phi_complement)})"
        )

    @property
    def sha_psi_dim(self) -> int:
        return len(self.sha_psi).bit_length() - 1

    @property
    def sha_phi_dim(self) -> int:
        return len(self.sha_phi_complement).bit_length() - 1

    @property
    def rank_bound(self) -> int:
        # dim Sel^psi + dim Sel^phi - 2 = 3 + 3 - 2 for every profile
        return 4 - self.sha_psi_dim - self.sha_phi_dim


@cache
def classify_profile(profile: ResidueProfile) -> ProfileClassification:
    """Pure sign logic: W candidates, certified Sha groups, rank bound.

    Sha^psi is trivial or <p>: of Sel^psi = <-1, p, l>, the classes
    <-1, pl> always have points, and T(p) has none when every psi case
    fails. The phi complement extends a basis of W in the fixed class order.

    Cached: there are only 32 profiles. The result's `profile` is always a
    ResidueProfile, since an equal plain tuple shares the cache entry.
    """
    profile = _checked_profile(profile)
    passing = phi_pass_classes(profile)
    w = label_span(passing)
    if not (passing | {"1"}) == w:
        raise InconsistentCriteria(
            f"phi pass set {sorted(passing)} is not a group for {profile}"
        )
    return ProfileClassification(
        profile=profile,
        sha_psi=label_span(("p",) if psi_obstructed(profile) else ()),
        w_phi=w,
        sha_phi_complement=label_span(_extend(set(w), PHI_CLASSES, _label_mul)),
    )


# --- classifications per family ----------------------------------------------

_ONE = SquareClassGroup.trivial()


class Classification(NamedTuple):
    """Everything the residue criteria can say about k = pl (or 2p when l
    is None); the rank bound is that of selmer_rank_bound. Each
    certificate lies inside its Selmer group and W^phi inside Sel^phi;
    `descend` takes criteria that break this, or disagree with the
    computed groups, not at all."""

    family: str
    p: int
    l: int | None
    selmer_psi: SquareClassGroup
    selmer_phi: SquareClassGroup
    sha_psi: SquareClassGroup = _ONE
    sha_phi: SquareClassGroup = _ONE
    w_phi: SquareClassGroup = _ONE
    profile: ResidueProfile | None = None
    notes: tuple[str, ...] = ()

    @property
    def k(self) -> int:
        return 2 * self.p if self.l is None else self.p * self.l

    def _bound(self) -> tuple[int, int | None]:
        return selmer_rank_bound(self.selmer_psi, self.selmer_phi, self.sha_psi, self.sha_phi)

    @property
    def rank_bound(self) -> int:
        return self._bound()[0]

    @property
    def sha2_dim(self) -> int | None:
        return self._bound()[1]

    @property
    def noncongruent(self) -> bool:
        return self.rank_bound == 0


def selmer_rank_bound(
    sel_psi: SquareClassGroup,
    sel_phi: SquareClassGroup,
    sha_psi: SquareClassGroup,
    sha_phi: SquareClassGroup,
) -> tuple[int, int | None]:
    """(bound, sha2_dim) from the Selmer groups and certified Sha classes:

        rank <= dim Sel^psi + dim Sel^phi - 2 - dim Sha^psi - dim Sha^phi,

    with dim Sha(E)[2] = dim Sha^psi + dim Sha^phi known when that is 0
    (None otherwise).
    """
    sha_dim = sha_psi.dim + sha_phi.dim
    bound = sel_psi.dim + sel_phi.dim - 2 - sha_dim
    return bound, (sha_dim if bound == 0 else None)


# The one statement of the pl families' Selmer groups, as generator labels
# (psi side, phi side) keyed by (p mod 8, l mod 8, (p/l)); every pl
# classifier reads its groups here. For p = l = 3 mod 4 the two orders of a
# pair give opposite signs: (7,7) reads its row in the order with (p/l) = +1,
# and the (3,3) row, symmetric in p and l, serves both orders.
LAGRANGE_SELMER = {
    (1, 1, 1): (("-1", "p", "l"), ("2", "p", "l")),
    (1, 1, -1): (("-1", "pl"), ("2", "pl")),
    (5, 5, 1): (("-1", "pl"), ("p", "l")),
    (5, 5, -1): (("-1", "pl"), ("2p", "2l")),
    (3, 3, -1): (("-1", "pl"), ()),
    (7, 7, 1): (("-1", "p", "l"), ("2",)),
}


def _selmer(key: tuple[int, int, int], p: int, l: int) -> tuple[SquareClassGroup, SquareClassGroup]:
    """The (psi, phi) Selmer groups of the family row `key` at p, l."""
    return concretize(p, l, *LAGRANGE_SELMER[key])


def _one_sign(family: str, p: int, l: int | None, selmer, obstructed: bool,
              notes: tuple[str, ...], sha_psi: SquareClassGroup = _ONE) -> Classification:
    """A family that one sign decides. Obstructed: sha_psi and all of
    Sel^phi are certified Sha, and W^phi is trivial. Otherwise nothing is
    certified and W^phi may be all of Sel^phi."""
    sel_psi, sel_phi = selmer
    certified = (sha_psi, sel_phi, _ONE) if obstructed else (_ONE, _ONE, sel_phi)
    return Classification(family, p, l, sel_psi, sel_phi, *certified, notes=notes)


def classify_11_plus(p: int, l: int) -> Classification:
    """k = pl, p = l = 1 mod 8, (p/l) = +1: the 32-profile grid."""
    profile = residue_profile(p, l)
    pc = classify_profile(profile)
    groups = concretize(p, l, *LAGRANGE_SELMER[1, 1, 1],
                        pc.sha_psi, pc.sha_phi_complement, pc.w_phi)
    # selmer_psi, selmer_phi, sha_psi, sha_phi, w_phi
    return Classification("pl-1mod8-plus", p, l, *groups, profile=profile)


def classify_11_minus(p: int, l: int) -> Classification:
    """k = pl, p = l = 1 mod 8, (p/l) = -1.

    Selmer groups collapse to <-1, pl> and <2, pl>; the psi side has no
    obstruction (W already fills its Selmer group). The phi side is fully
    obstructed exactly when (-4/p)_8 (-4/l)_8 = -1, giving rank 0 with
    #Sha(E)[2] = 4. Otherwise each nontrivial class carries a necessary
    condition which that sign equation makes pass or fail together.
    """
    if _pair_class(p, l) != 1:
        raise FamilyMismatch(f"({p!r}, {l!r}) is not a pair of distinct primes = 1 mod 8")
    if jacobi(p, l) != -1:
        raise FamilyMismatch(f"classify_11_minus needs (p/l) = -1 for ({p}, {l})")
    cp, cl = _octic(p), _octic(l)
    notes = (
        f"class 2 and 2pl need (-4/p)8 = (-4/l)8; got {cp:+d}, {cl:+d}",
        f"class pl needs (-4/pl)8 = +1; got {cp * cl:+d}",
    )
    return _one_sign("pl-1mod8-minus", p, l, _selmer((1, 1, -1), p, l), cp * cl == -1, notes)


def classify_2p(p: int) -> Classification:
    """k = 2p with p = 1 mod 8: Selmer <-1, 2, p> and <p>; rank 0 with
    Sha[psi] = Sha[phi] = <p> when p = 9 mod 16."""
    if not is_int(p) or p % 8 != 1 or not is_prime(p):
        raise FamilyMismatch(f"classify_2p needs a prime = 1 mod 8, got {p!r}")
    s_phi = SquareClassGroup.span(p)
    obstructed = p % 16 == 9
    notes = () if obstructed else (f"p = {p % 16} mod 16: no obstruction certificate",)
    selmer = (SquareClassGroup.span(-1, 2, p), s_phi)
    return _one_sign("2p", p, None, selmer, obstructed, notes, sha_psi=s_phi)


def _gauss_unit_symbol(p: int, l: int) -> int:
    """[(1+i)pi/lambda] for checked primes p, l = 5 mod 8 with (p/l) = -1,
    with the conjugate of pi pinned.

    For p = 5 mod 8 both primes above p are primary, and the two choices
    give opposite symbols ([2ip/lambda] = -1 here), so the bare symbol
    carries no information.  A point on N^2 = 2p M^4 + 2p l^2 e^4 gives a
    factorization M^2 + i l e^2 = (1+i) pi alpha^2 over Z[i], and reducing
    the conjugate equation mod pi forces [1-i/pi] = -[pibar/pi], which
    pins the divisor.  Reducing mod lambda then makes [(1+i)pi/lambda]=+1
    necessary for solvability.  The value is symmetric in p and l.

    Each symbol is a Legendre symbol: only p is split, and no primary
    associate is sought. pi = a + bi is Euclid's gcd of p and t - i, t a
    root of -1 mod p, so Z[i]/pi = F_p sends i to t and the pin reads
    ((1 - t)/p) = -((a - b*t)/p). It holds for exactly one of pi and
    pibar, as [1+i/pi][1-i/pi] = (2/p) = -1. Every generator of pi gives
    the pinned value: -1 changes no symbol, as (-1/p) = (-1/l) = +1, and
    i*pi fails the pin ([-i/pi] = (t/p) = -1), so it pins -i*pibar, whose
    value is [-i/lambda][2ip/lambda] = (-1)(-1) times that at pi. Either
    root s of -1 mod l gives the value (((1 + s)(a + b*s))/l): the two
    roots give [x/lambda] and [x/lambdabar], whose product is
    [2p/lambda] = (2/l)(p/l) = +1.
    """
    w2 = GAUSS.omega2
    t = _root(p, w2)
    a, b = _euclid(p, t, w2)
    if _legendre(1 - t, p) != -_legendre(a - b * t, p):
        b = -b
    s = _root(l, w2)
    return _legendre((1 + s) * (a + b * s), l)


def _lambda_pi_symbol(p: int, l: int) -> int:
    """[Lambda/Pi] in Z[sqrt2] for checked primes p, l = 7 mod 8 with
    (p/l) = +1: Lambda = a + b*sqrt2 is the generator with b even and
    a + b = 1 mod 4 of the prime over l that `quadring.split_prime` finds,
    and Pi is either prime over p.

    It is the Legendre symbol ((a + b*r)/p) at either root r of 2 mod p,
    so p is not split:

    - Z[sqrt2]/Pi = F_p sends sqrt2 to one root of 2 mod p, and the
      conjugate prime to the other, so the two roots give [Lambda/Pi] and
      [Lambda/Pibar]. Their product is (N(Lambda)/p) = (-l/p) = +1, as
      p = l = 3 mod 4 gives (l/p) = -(p/l) = -1 and (-1/p) = -1.
    - The generators of Lambda's prime are +-eps^n*Lambda, eps = 1 +
      sqrt2, and a is odd as N(Lambda) = -l is, so `_b_even` leaves
      +-eps^(2k)*Lambda. eps^2 = 3 + 2*sqrt2 keeps a + b mod 4 and goes
      to 3 + 2r = (1 + r)^2, a square. The sign is what a + b = 1 mod 4
      fixes, and it matters: [-1/Pi] = (-1/p) = -1.
    """
    w2 = SQRT2.omega2
    a, b = _b_even(*_euclid(l, _root(l, w2), w2))
    sign = 1 if (a + b) % 4 == 1 else -1
    return sign * _legendre(a + b * _root(p, w2), p)


def classify_small_residues(p: int, l: int) -> Classification:
    """k = pl for the residue families (5,5), (3,3), (7,7) mod 8.

    Selmer groups come from the closed-form table; obstruction criteria:
      (5,5), (p/l) = +1: all of T(p), T(l), T(pl) on the phi side die
          when (p/l)_4 != (l/p)_4;
      (5,5), (p/l) = -1: T(2p), T(2l), T(pl) die when [(1+i)pi/lambda]=-1
          at the pinned prime pi above p (see _gauss_unit_symbol);
      (3,3): the phi Selmer group is trivial; rank 0 unconditionally;
      (7,7): with p, l ordered so (p/l) = +1: T(2) on phi and T(p), T(l)
          on psi die when [Lambda/Pi] = -1 in Z[sqrt2], Lambda of norm -l
          with b even and a + b = 1 mod 4 (see _lambda_pi_symbol).
    """
    r = _pair_class(p, l)
    if r not in (3, 5, 7):
        raise FamilyMismatch(f"({p!r}, {l!r}) is not a pair of distinct primes = 3, 5 or 7 mod 8")
    if r == 3:
        return Classification("pl-3mod8", p, l, *_selmer((3, 3, -1), p, l))
    if r == 5:
        sign = jacobi(p, l)
        if sign == 1:
            obstructed = _quartic(p, l) != _quartic(l, p)
            note = "criterion: (p/l)4 = (l/p)4 fails" if obstructed else \
                "criterion: (p/l)4 = (l/p)4 holds; no certificate"
        else:
            sym = _gauss_unit_symbol(p, l)
            obstructed = sym == -1
            note = f"criterion: [(1+i)pi/lambda] = {sym:+d} at the pinned pi"
        return _one_sign("pl-5mod8", p, l, _selmer((5, 5, sign), p, l), obstructed, (note,))
    # r == 7: order so that (p/l) = +1 (always possible: the two Legendre
    # symbols are opposite for p = l = 3 mod 4)
    if jacobi(p, l) != 1:
        p, l = l, p
    sym = _lambda_pi_symbol(p, l)
    note = f"criterion: [Lambda/Pi] = {sym:+d}, Lambda of norm -{l}"
    return _one_sign("pl-7mod8", p, l, _selmer((7, 7, 1), p, l), sym == -1, (note,),
                     sha_psi=SquareClassGroup.span(p))


def classify_pair(p: int, l: int) -> Classification | None:
    """Dispatch k = pl, for distinct odd primes p < l, to its family by the
    residues mod 8; None when no family covers the pair."""
    if p % 8 != l % 8:
        return None
    if p % 8 == 1:
        if jacobi(p, l) == 1:
            return classify_11_plus(p, l)
        return classify_11_minus(p, l)
    return classify_small_residues(p, l)


def classify_auto(k: int) -> Classification | None:
    """Dispatch k to whichever family classifier applies, else None.
    Raises PreconditionUnmet for a k that is not an int."""
    if not is_int(k):
        raise PreconditionUnmet(f"k must be an int, got {k!r}")
    if k < 1:
        return None  # not positive: no criteria apply, nothing to factor
    f = factor(k)
    if f.squarefree_part() != k:
        return None  # not squarefree: no criteria apply
    ps = [q for q, _ in f.factors]
    if len(ps) != 2:
        return None
    if ps[0] == 2:
        return classify_2p(ps[1]) if ps[1] % 8 == 1 else None
    return classify_pair(*ps)
