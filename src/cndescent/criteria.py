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

Sign conventions: every symbol value is +1 or -1, never 0; a composite
(-4/n)_8 means the product over prime factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations, product
from math import gcd, isqrt
from typing import NamedTuple

from .arith import (
    _octic,
    _quartic,
    factor,
    is_prime,
    jacobi,
    octic_minus4,
    quartic_symbol,
    quartic_symbol_product,
)
from .errors import (
    FamilyMismatch,
    HypothesisViolated,
    InconsistentCriteria,
    PreconditionUnmet,
    UndefinedSymbol,
)
from .quadring import (
    GAUSS,
    SQRT2,
    QuadInt,
    _primary,
    _split,
    _symbol,
    primary_associate,
    primary_associate_mod4,
    ring_symbol,
    split_prime,
)
from .sqclass import LABELS, SquareClassGroup, _extend, _label_mul, concretize, label_span

# --- the residue profile ----------------------------------------------------


class ResidueProfile(NamedTuple):
    """The five signs that control the k = pl, (p/l) = +1 classification."""

    pi: int  # [P/L] in Z[sqrt2]
    a: int  # (l/p)_4
    b: int  # (p/l)_4
    c: int  # (-4/p)_8
    d: int  # (-4/l)_8


def _distinct_1mod8_primes(p: int, l: int) -> bool:
    """The pair hypothesis of the pl = 1 mod 8 criteria."""
    if p % 8 != 1 or l % 8 != 1 or p == l:
        return False
    return is_prime(p) and is_prime(l)


def _mutual_residues(primes) -> bool:
    """Every two of the distinct primes are quadratic residues of each other."""
    return all(jacobi(q, r) == 1 for q, r in combinations(primes, 2))


# covers the 2,384 primes = 1 mod 8 below 10^5, the largest survey box;
# about 1 MB when full
_PRIME_RECORDS = 4096


@lru_cache(maxsize=_PRIME_RECORDS)
def _prime_record(p: int) -> tuple[tuple[int, int], int]:
    """The per-prime part of a profile, for a checked prime p = 1 mod 8: the
    primary prime over p in Z[sqrt2] as an int pair, and (-4/p)_8."""
    w2 = SQRT2.omega2
    return _primary(*_split(p, w2), w2), _octic(p)


def residue_profile(p: int, l: int) -> ResidueProfile:
    """Profile of an admissible pair: p, l distinct primes = 1 mod 8 with
    (p/l) = +1.

    The pair is checked here on every call, so the symbols come from the
    unchecked kernels of `symbol_capital`, `quartic_symbol` and
    `octic_minus4`, and each prime is tested for primality once per call.
    Each prime's primary prime in Z[sqrt2] and its octic sign come from
    `_prime_record`, an LRU cache of the `_PRIME_RECORDS` = 4,096 most
    recently used checked primes, so a survey, where hundreds of pairs
    share each prime, splits each prime once and computes only [P/L] and
    the two quartic symbols per pair.

    (p/l) is not computed apart: p = 1 mod 4 gives (p/l) = (l/p), and
    (l/p)_4 is defined exactly when (l/p) = +1.
    """
    if not _distinct_1mod8_primes(p, l):
        raise FamilyMismatch(f"({p}, {l}) is not a pair of distinct primes = 1 mod 8")
    try:
        a = _quartic(l, p)
    except UndefinedSymbol:
        raise FamilyMismatch(f"profile needs (p/l) = +1; ({p}/{l}) = -1") from None
    P, c = _prime_record(p)
    L, d = _prime_record(l)
    return ResidueProfile(pi=_symbol(P, L, SQRT2.omega2), a=a, b=_quartic(p, l), c=c, d=d)


ALL_PROFILES = tuple(ResidueProfile(*signs) for signs in product((1, -1), repeat=5))

# --- psi side: eight solvability cases for T(p) ------------------------------

PSI_CASES = ("1Aa", "1Ab", "1Ba", "1Bb", "2Aa", "2Ab", "2Ba", "2Bb")


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


def psi_case_holds(case: str, profile: ResidueProfile) -> bool:
    """Necessary conditions on the profile for a T(p) point in this case.

    A global point on N^2 = p M^4 - p l^2 e^4 falls into exactly one of
    eight cases by the parities of e and N/p, whether l | M, and which of
    M^2 +- l e^2 the prime p divides; each case forces three sign
    conditions. If all eight fail, T(p) has no rational point.
    """
    try:
        forced, others = _psi_cases(profile)[case]
    except KeyError:
        raise PreconditionUnmet(f"unknown case label {case!r}") from None
    return forced == profile.pi and others


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


@dataclass(frozen=True)
class ProfileClassification:
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
    if len(profile) != 5 or any(s not in (1, -1) for s in profile):
        raise PreconditionUnmet(f"a profile is five signs +-1, got {profile}")
    profile = ResidueProfile(*profile)
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


@dataclass(frozen=True)
class Classification:
    """Everything the residue criteria can say about k = pl (or 2p when l
    is None); the rank bound is that of selmer_rank_bound."""

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
    psi, phi = LAGRANGE_SELMER[key]
    return concretize(psi, p, l), concretize(phi, p, l)


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
    return Classification(
        "pl-1mod8-plus", p, l, *_selmer((1, 1, 1), p, l),
        sha_psi=concretize(pc.sha_psi, p, l),
        sha_phi=concretize(pc.sha_phi_complement, p, l),
        w_phi=concretize(pc.w_phi, p, l),
        profile=profile,
    )


def classify_11_minus(p: int, l: int) -> Classification:
    """k = pl, p = l = 1 mod 8, (p/l) = -1.

    Selmer groups collapse to <-1, pl> and <2, pl>; the psi side has no
    obstruction (W already fills its Selmer group). The phi side is fully
    obstructed exactly when (-4/p)_8 (-4/l)_8 = -1, giving rank 0 with
    #Sha(E)[2] = 4. Otherwise each nontrivial class carries a necessary
    condition which that sign equation makes pass or fail together.
    """
    if not _distinct_1mod8_primes(p, l):
        raise FamilyMismatch(f"({p}, {l}) is not a pair of distinct primes = 1 mod 8")
    if jacobi(p, l) != -1:
        raise FamilyMismatch(f"classify_11_minus needs (p/l) = -1 for ({p}, {l})")
    cp, cl = octic_minus4(p), octic_minus4(l)
    notes = (
        f"class 2 and 2pl need (-4/p)8 = (-4/l)8; got {cp:+d}, {cl:+d}",
        f"class pl needs (-4/pl)8 = +1; got {cp * cl:+d}",
    )
    return _one_sign("pl-1mod8-minus", p, l, _selmer((1, 1, -1), p, l), cp * cl == -1, notes)


def classify_2p(p: int) -> Classification:
    """k = 2p with p = 1 mod 8: Selmer <-1, 2, p> and <p>; rank 0 with
    Sha[psi] = Sha[phi] = <p> when p = 9 mod 16."""
    if p % 8 != 1 or not is_prime(p):
        raise FamilyMismatch(f"classify_2p needs a prime = 1 mod 8, got {p}")
    s_phi = SquareClassGroup.span(p)
    obstructed = p % 16 == 9
    notes = () if obstructed else (f"p = {p % 16} mod 16: no obstruction certificate",)
    selmer = (SquareClassGroup.span(-1, 2, p), s_phi)
    return _one_sign("2p", p, None, selmer, obstructed, notes, sha_psi=s_phi)


def _gauss_unit_symbol(p: int, l: int) -> int:
    """[(1+i)pi/lambda] for p = l = 5 mod 8, with the conjugate of pi pinned.

    For p = 5 mod 8 both primes above p are primary, and the two choices
    give opposite symbols ([2ip/lambda] = -1 here), so the bare symbol
    carries no information.  A point on N^2 = 2p M^4 + 2p l^2 e^4 gives a
    factorization M^2 + i l e^2 = (1+i) pi alpha^2 over Z[i], and reducing
    the conjugate equation mod pi forces [1-i/pi] = -[pibar/pi], which
    pins the divisor.  Reducing mod lambda then makes [(1+i)pi/lambda]=+1
    necessary for solvability.  At the pinned pi the symbol does not
    depend on the choice of lambda ([2p/lambda] = +1), and it is
    symmetric in p and l.
    """
    pi = primary_associate(split_prime(p, GAUSS))
    if ring_symbol(QuadInt(GAUSS, 1, -1), pi) != -ring_symbol(pi.conj(), pi):
        pi = pi.conj()
    lam = primary_associate(split_prime(l, GAUSS))
    return ring_symbol(QuadInt(GAUSS, 1, 1) * pi, lam)


def classify_small_residues(p: int, l: int) -> Classification:
    """k = pl for the residue families (5,5), (3,3), (7,7) mod 8.

    Selmer groups come from the closed-form table; obstruction criteria:
      (5,5), (p/l) = +1: all of T(p), T(l), T(pl) on the phi side die
          when (p/l)_4 != (l/p)_4;
      (5,5), (p/l) = -1: T(2p), T(2l), T(pl) die when [(1+i)pi/lambda]=-1
          at the pinned prime pi above p (see _gauss_unit_symbol);
      (3,3): the phi Selmer group is trivial; rank 0 unconditionally;
      (7,7): with p, l ordered so (p/l) = +1: T(2) on phi and T(p), T(l)
          on psi die when [Lambda/Pi] = -1 in Z[sqrt2], Lambda primary of
          norm -l.
    """
    if not (is_prime(p) and is_prime(l)) or p == l or p % 2 == 0 or l % 2 == 0:
        raise FamilyMismatch(f"({p}, {l}) is not a pair of distinct odd primes")
    r = p % 8
    if l % 8 != r or r not in (3, 5, 7):
        raise FamilyMismatch(
            f"classify_small_residues covers p = l = 3, 5, 7 mod 8; "
            f"got ({p % 8}, {l % 8})"
        )
    if r == 3:
        return Classification("pl-3mod8", p, l, *_selmer((3, 3, -1), p, l))
    if r == 5:
        sign = jacobi(p, l)
        if sign == 1:
            obstructed = quartic_symbol(p, l) != quartic_symbol(l, p)
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
    lam = primary_associate_mod4(split_prime(l, SQRT2))
    cap_pi = primary_associate(split_prime(p, SQRT2))
    sym = ring_symbol(lam, cap_pi)
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
    """Dispatch k to whichever family classifier applies, else None."""
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


# --- witness decomposition and coherence checks --------------------------------


class PairRelations(NamedTuple):
    """Result triple of square_pair_relations."""

    congruence: bool
    rel_quartic: bool
    rel_octic: bool


def _mutual_residue_products(*ns: int) -> bool:
    """Each n a product of primes = 1 mod 4, all primes mutual residues."""
    primes: list[int] = []
    for n in ns:
        f = factor(n)
        if n < 1 or f.squarefree_part() != n:
            return False
        for q, _ in f.factors:
            if q % 4 != 1:
                return False
            primes.append(q)
    return _mutual_residues(primes)


def square_pair_relations(
    a_c: int, b_c: int, c_c: int, d_c: int, x: int, y: int, v: int, w: int
) -> PairRelations:
    """Consequences of the simultaneous representations

        A x^2 + B y^2 = C v^2,   A x^2 - B y^2 = D w^2

    for pairwise coprime A, B, C, D built from primes = 1 mod 4 that are
    residues of each other: C = D mod 8, a quartic-symbol product relation,
    and an octic relation involving (2/CD)_4. Quartic symbols of composite
    modulus mean the product over its prime factors.
    """
    if min(x, y, v, w) < 1 or min(a_c, b_c, c_c, d_c) < 1:
        raise HypothesisViolated("all coefficients and variables must be positive")
    if a_c * x * x + b_c * y * y != c_c * v * v:
        raise HypothesisViolated("A x^2 + B y^2 = C v^2 fails")
    if a_c * x * x - b_c * y * y != d_c * w * w:
        raise HypothesisViolated("A x^2 - B y^2 = D w^2 fails")
    pairs = [(a_c, b_c), (a_c, c_c), (a_c, d_c), (b_c, c_c), (b_c, d_c), (c_c, d_c)]
    if any(gcd(u, t) != 1 for u, t in pairs):
        raise HypothesisViolated("A, B, C, D must be pairwise coprime")
    if not _mutual_residue_products(a_c, b_c, c_c, d_c):
        raise HypothesisViolated(
            "A, B, C, D must be products of primes = 1 mod 4, mutual residues"
        )
    congruence = (c_c - d_c) % 8 == 0
    if not congruence:
        raise InconsistentCriteria(
            "C = D mod 8 fails on a valid representation pair; this is a bug"
        )
    rel4 = (
        quartic_symbol_product(a_c * b_c, c_c)
        * quartic_symbol_product(a_c * d_c, b_c)
        * quartic_symbol_product(b_c * d_c, a_c)
        == 1
    )
    exp = ((c_c - d_c) // 8) % 2
    rel5 = (
        (-1) ** exp
        * quartic_symbol_product(2, c_c * d_c)
        * quartic_symbol_product(b_c * c_c, d_c)
        * quartic_symbol_product(b_c * d_c, c_c)
        * quartic_symbol_product(c_c * d_c, a_c)
        == 1
    )
    return PairRelations(congruence, rel4, rel5)


def witness_fixed_sign(
    p_pr: int, l_pr: int, x: int, y: int, z: int, w: int, eps: int
) -> int:
    """Predicted [P/L] from a solution of x^2 - 2y^2 = -P z^2 together with
    x^2 - y^2 = eps L w^2: always +1."""
    _check_lemma_args(p_pr, l_pr, x, y, z, w, eps)
    if x * x - 2 * y * y != -p_pr * z * z:
        raise HypothesisViolated("x^2 - 2y^2 = -P z^2 fails")
    if x * x - y * y != eps * l_pr * w * w:
        raise HypothesisViolated("x^2 - y^2 = eps L w^2 fails")
    return 1


def witness_octic_sign(
    p_pr: int, l_pr: int, x: int, y: int, z: int, w: int, eps: int
) -> int:
    """Predicted [P/L] from a solution of x^2 + 2 eps y^2 = P z^2 together
    with x^2 + eps y^2 = L w^2: (-4/L)_8 when eps = -1, and
    (P/L)_4 (L/P)_4 (-4/L)_8 when eps = +1."""
    _check_lemma_args(p_pr, l_pr, x, y, z, w, eps)
    if x * x + 2 * eps * y * y != p_pr * z * z:
        raise HypothesisViolated("x^2 + 2 eps y^2 = P z^2 fails")
    if x * x + eps * y * y != l_pr * w * w:
        raise HypothesisViolated("x^2 + eps y^2 = L w^2 fails")
    if eps == -1:
        return octic_minus4(l_pr)
    return (
        quartic_symbol(p_pr, l_pr)
        * quartic_symbol(l_pr, p_pr)
        * octic_minus4(l_pr)
    )


def _check_lemma_args(
    p_pr: int, l_pr: int, x: int, y: int, z: int, w: int, eps: int
) -> None:
    """The hypotheses both witness lemmas share."""
    if not _distinct_1mod8_primes(p_pr, l_pr) or jacobi(p_pr, l_pr) != 1:
        raise HypothesisViolated(
            f"need distinct primes P, L = 1 mod 8 with (P/L) = +1; "
            f"got ({p_pr}, {l_pr})"
        )
    if eps not in (1, -1):
        raise HypothesisViolated(f"eps must be +-1, got {eps}")
    if min(x, y, z, w) < 1:
        raise HypothesisViolated("witness entries must be positive")


# per-case data for decomposing a point on the psi torsor T(p), k = pl: the
# square-pair quadruple (A, B, C, D), which witness checker applies, its
# argument order, and its eps. The label fixes the rest: u and v are each
# divisible by the digit, and p divides u in the a cases and v in the b cases.
_CASE_TABLE = {
    # case: (ABCD, checker, checker_vars, eps)
    "1Aa": (("1", "l", "p", "1"), "fixed", "bMae", -1),
    "1Ab": (("1", "l", "1", "p"), "fixed", "aMbe", 1),
    "1Ba": (("l", "1", "p", "1"), "octic", "beam", 1),
    "1Bb": (("l", "1", "1", "p"), "octic", "aebm", -1),
    "2Aa": (("p", "1", "1", "l"), "octic", "Mbea", -1),
    "2Ab": (("1", "p", "1", "l"), "fixed", "Maeb", 1),
    "2Ba": (("p", "1", "l", "1"), "octic", "ebma", 1),
    "2Bb": (("1", "p", "l", "1"), "fixed", "eamb", -1),
}


@dataclass(frozen=True)
class CaseDecomposition:
    """A psi-torsor point split into its two-squares representation."""

    case: str
    p: int
    l: int
    m_val: int  # M, or m = M/l in the B cases
    e_val: int
    a_val: int
    b_val: int
    quadruple: tuple[int, int, int, int]  # square-pair (A, B, C, D)
    variables: tuple[int, int, int, int]  # square-pair (x, y, v, w)
    lemma: str  # "fixed" or "octic", selecting the witness checker
    lemma_args: tuple[int, int, int, int]  # (x, y, z, w) for the checker
    lemma_pl: tuple[int, int]  # (P, L) for the checker
    eps: int


def decompose_psi_point(p: int, l: int, point) -> CaseDecomposition:
    """Split a primitive point (N, M, e) on N^2 = p M^4 - p l^2 e^4 into its
    case: 1 or 2 by the parity of e, A or B by l | M, a or b by which of the
    two square factors p divides."""
    if not _distinct_1mod8_primes(p, l):
        raise HypothesisViolated(f"need distinct primes p, l = 1 mod 8; got ({p}, {l})")
    if hasattr(point, "N"):
        n_val, m_raw, e_val = int(point.N), int(point.M), int(point.e)
    else:
        n_val, m_raw, e_val = (int(t) for t in point)
    n_val, m_raw = abs(n_val), abs(m_raw)
    if min(n_val, m_raw, e_val) < 1:
        raise HypothesisViolated("need a nontrivial point with N, M, e nonzero")
    if gcd(m_raw, e_val) != 1:
        raise HypothesisViolated("point must be primitive: gcd(M, e) = 1")
    if n_val * n_val != p * m_raw**4 - p * l * l * e_val**4:
        raise HypothesisViolated("point does not lie on the psi torsor of p")
    digit = "1" if e_val % 2 == 0 else "2"
    if m_raw % l == 0:
        letter = "B"
        m_val = m_raw // l
        u = l * m_val * m_val + e_val * e_val
        v = l * m_val * m_val - e_val * e_val
    else:
        letter = "A"
        m_val = m_raw
        u = m_val * m_val + l * e_val * e_val
        v = m_val * m_val - l * e_val * e_val
    if v <= 0:
        raise InconsistentCriteria("difference of squares side is nonpositive")
    sub = "a" if u % p == 0 else "b"
    case = digit + letter + sub
    div = int(digit)
    du, dv = (div * p, div) if sub == "a" else (div, div * p)
    if u % du or v % dv:
        raise InconsistentCriteria(f"case {case}: expected divisors fail")
    a_sq, b_sq = u // du, v // dv
    a_val, b_val = isqrt(a_sq), isqrt(b_sq)
    if a_val * a_val != a_sq or b_val * b_val != b_sq:
        raise InconsistentCriteria(f"case {case}: factors are not squares")
    abcd_sym, lemma, lemma_vars, eps = _CASE_TABLE[case]
    concrete = {"1": 1, "p": p, "l": l}
    quadruple = tuple(concrete[s] for s in abcd_sym)
    if digit == "1":
        variables = (m_val, e_val, a_val, b_val)
    else:
        variables = (a_val, b_val, m_val, e_val)
    env = {"M": m_val, "m": m_val, "e": e_val, "a": a_val, "b": b_val}
    lemma_args = tuple(env[c] for c in lemma_vars)
    lemma_pl = (p, l) if digit == "1" else (l, p)
    return CaseDecomposition(
        case=case,
        p=p,
        l=l,
        m_val=m_val,
        e_val=e_val,
        a_val=a_val,
        b_val=b_val,
        quadruple=quadruple,
        variables=variables,
        lemma=lemma,
        lemma_args=lemma_args,
        lemma_pl=lemma_pl,
        eps=eps,
    )


@dataclass(frozen=True)
class WitnessReport:
    """Every coherence check a single psi-torsor point gives rise to."""

    decomposition: CaseDecomposition
    relations: PairRelations
    predicted_symbol: int
    table_symbol: int
    actual_symbol: int
    case_conditions_hold: bool

    @property
    def ok(self) -> bool:
        return (
            all(self.relations)
            and self.predicted_symbol == self.actual_symbol
            and self.table_symbol == self.actual_symbol
            and self.case_conditions_hold
        )


def check_witness(p: int, l: int, point) -> WitnessReport:
    """Run every residue-symbol consequence of a found psi-torsor point:
    the two-squares relations, the lemma prediction for [P/L] against the
    directly computed symbol, and the case's profile conditions."""
    dec = decompose_psi_point(p, l, point)
    relations = square_pair_relations(*dec.quadruple, *dec.variables)
    fn = witness_fixed_sign if dec.lemma == "fixed" else witness_octic_sign
    predicted = fn(*dec.lemma_pl, *dec.lemma_args, dec.eps)
    profile = residue_profile(p, l)
    return WitnessReport(
        decomposition=dec,
        relations=relations,
        predicted_symbol=predicted,
        table_symbol=_psi_cases(profile)[dec.case][0],
        actual_symbol=profile.pi,
        case_conditions_hold=psi_case_holds(dec.case, profile),
    )
