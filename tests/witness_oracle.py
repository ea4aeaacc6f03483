"""The witness lemmas: what a found point on the psi torsor T(p) of k = pl
implies about the residue symbols, checked against `criteria`'s psi-case
table.

A primitive point (N, M, e) on N^2 = p M^4 - p l^2 e^4 falls into one of
the eight cases of `criteria._psi_cases`; `decompose_psi_point` splits it
into the two-squares representation of its case, `square_pair_relations`
and the two witness lemmas derive the symbol relations and the value of
[P/L] that representation forces, and `check_witness` compares them with
the directly computed profile and the table. No runtime path calls any of
this: it is an oracle for the table, as `classfield_oracle` is for the
symbols, and the package runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt
from typing import NamedTuple

from cndescent.arith import _quartic, factor, is_prime, jacobi, octic_minus4, quartic_symbol
from cndescent.criteria import ResidueProfile, _pair_class, _psi_cases, residue_profile
from cndescent.errors import BadResidueClass, DescentError, InconsistentCriteria, PreconditionUnmet


class HypothesisViolated(DescentError):
    """Witness data does not satisfy the defining equations."""


def quartic_symbol_product(a: int, n: int) -> int:
    """(a/n)_4 for odd composite n, as the product over prime factors.

    Every prime factor q of n must satisfy q = 1 mod 4 and (a/q) = +1.
    n = 1 gives the empty product +1.
    """
    result = 1
    for q, e in factor(n).factors:
        result *= quartic_symbol(a, q) ** e
    return result


def half_symbols(l: int) -> tuple[int, int]:
    """The pair ((2/l)_4, (l/2)_4) for a prime l = 1 mod 8.

    (2/l)_4 is the genuine quartic symbol (2 is a square mod l here);
    (l/2)_4 is the conventional (-1)^((l-1)/8). Their product equals
    (-4/l)_8, which is a theorem, not the definition, and is tested as such.
    """
    if l % 8 != 1 or not is_prime(l):
        raise BadResidueClass(f"half symbols need a prime = 1 mod 8, got {l}")
    return _quartic(2, l), 1 if (l - 1) // 8 % 2 == 0 else -1


# --- the psi-case table -------------------------------------------------------

PSI_CASES = ("1Aa", "1Ab", "1Ba", "1Bb", "2Aa", "2Ab", "2Ba", "2Bb")


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


def _mutual_residues(primes) -> bool:
    """Every two of the distinct primes are quadratic residues of each other."""
    return all(jacobi(q, r) == 1 for q, r in combinations(primes, 2))


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
    if _pair_class(p_pr, l_pr) != 1 or jacobi(p_pr, l_pr) != 1:
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
    if _pair_class(p, l) != 1:
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
