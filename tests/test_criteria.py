"""Residue-symbol criteria: profiles, the 32-row grid, family classifiers,
coprime-squares relations, and witness coherence."""

import itertools
import random
from math import prod

import pytest

from cndescent import arith, criteria, quadring
from cndescent.arith import is_prime, jacobi, octic_minus4, primes_in, quartic_symbol
from cndescent.criteria import (
    ALL_PROFILES,
    ResidueProfile,
    classify_11_minus,
    classify_11_plus,
    classify_2p,
    classify_auto,
    classify_profile,
    classify_small_residues,
    phi_pass_classes,
    psi_obstructed,
    residue_profile,
)
from cndescent.descent import PSI, Torsor, descend, search_points
from cndescent.errors import FamilyMismatch
from cndescent.quadring import (
    GAUSS,
    SQRT2,
    QuadInt,
    _root,
    primary_associate,
    ring_symbol,
    split_prime,
    symbol_capital,
)
from cndescent.sqclass import SquareClassGroup

import witness_oracle
from test_quadring import reference_primary_associate_mod4
from witness_oracle import (
    PSI_CASES,
    HypothesisViolated,
    check_witness,
    decompose_psi_point,
    psi_case_holds,
    square_pair_relations,
    witness_fixed_sign,
    witness_octic_sign,
)


def primes_with(residue, modulus, count, start=3):
    out = []
    n = start
    while len(out) < count:
        if n % modulus == residue and is_prime(n):
            out.append(n)
        n += 2
    return out


# --- residue profiles ---------------------------------------------------------


PROFILE_ORACLES = {
    (17, 1361): (1, 1, 1, -1, -1),
    (41, 769): (1, 1, 1, 1, -1),
    (113, 569): (-1, 1, 1, 1, 1),
    (17, 89): (1, 1, -1, -1, -1),
    (41, 113): (1, 1, -1, 1, 1),
}


def test_residue_profile_oracles():
    for (p, l), signs in PROFILE_ORACLES.items():
        assert tuple(residue_profile(p, l)) == signs, (p, l)


def test_residue_profile_rejects_bad_pairs():
    criteria._prime_record.cache_clear()
    with pytest.raises(FamilyMismatch):
        residue_profile(5, 13)  # not 1 mod 8
    with pytest.raises(FamilyMismatch):
        residue_profile(17, 17)
    with pytest.raises(FamilyMismatch):
        residue_profile(17, 97)  # (17/97) = -1
    with pytest.raises(FamilyMismatch):
        residue_profile(17, 91)  # 91 = 7 * 13
    with pytest.raises(FamilyMismatch):
        residue_profile(91, 17)
    # the per-prime records only ever hold primes of admissible pairs
    assert criteria._prime_record.cache_info().currsize == 0


def test_residue_profile_matches_checked_symbols_on_cold_and_warm_records():
    ps = list(primes_in(17, 2000, residue=1))
    pairs = [(p, l) for i, p in enumerate(ps) for l in ps[i + 1 :] if jacobi(p, l) == 1]
    assert len(pairs) > 1000
    want = {
        (p, l): (
            symbol_capital(p, l, SQRT2),
            quartic_symbol(l, p),
            quartic_symbol(p, l),
            octic_minus4(p),
            octic_minus4(l),
        )
        for p, l in pairs
    }
    criteria._prime_record.cache_clear()
    for order in (pairs, pairs[::-1]):  # cold records first, then warm ones
        for p, l in order:
            assert tuple(residue_profile(p, l)) == want[p, l], (p, l)
    assert criteria._prime_record.cache_info().currsize == len(ps)


def test_residue_profile_matches_symbol_capital_at_the_profile_workload_scale():
    # symbol_capital splits both primes and takes both primary associates,
    # so it is the oracle of the one-root [P/L]
    ps = primes_in(17, 10**6, residue=1)
    rng = random.Random(28)
    pairs = set()
    while len(pairs) < 2000:
        p, l = rng.sample(ps, 2)
        if jacobi(p, l) == 1:
            pairs.add((p, l))
    for p, l in sorted(pairs):
        for q, m in ((p, l), (l, p)):
            assert residue_profile(q, m).pi == symbol_capital(q, m, SQRT2), (q, m)


def test_p_side_symbol_is_one_value_over_generators_with_b_even_and_roots_of_2():
    # the two claims of residue_profile's docstring: every generator with b
    # even of either prime over p, +-eps^(2k) P and +-eps^(2k) P', gives one
    # Legendre value at either root of 2 mod l; an odd power of eps can flip it
    eps = QuadInt(SQRT2, 1, 1)
    eps2, eps_inv2 = eps * eps, QuadInt(SQRT2, 3, -2)
    ps = list(primes_in(17, 2000, residue=1))
    pairs = [(p, l) for p in ps for l in ps if p != l and jacobi(p, l) == 1]
    assert len(pairs) > 2000
    flipped = 0
    for p, l in pairs:
        P = primary_associate(split_prime(p, SQRT2))
        gens = {u * x for x in (P, P.conj()) for u in (eps2, eps_inv2, QuadInt(SQRT2, 1, 0))}
        gens |= {-g for g in gens}
        assert len(gens) == 12 and all(g.b % 2 == 0 and abs(g.norm) == p for g in gens)
        assert QuadInt(SQRT2, *criteria._generator(p)) in gens, p
        L = split_prime(l, SQRT2)
        r = -L.a * pow(L.b, -1, l) % l  # the root that L sends sqrt2 to
        assert r * r % l == 2
        pi = residue_profile(p, l).pi
        assert {jacobi(g.a + g.b * root, l) for g in gens for root in (r, l - r)} == {pi}, (p, l)
        odd = eps * P
        flipped += jacobi(odd.a + odd.b * r, l) != pi
    assert flipped > 0


def test_residue_profile_reads_the_legendre_symbol_off_the_quartic(monkeypatch):
    calls = []

    def counted(a, n):
        calls.append((a, n))
        return jacobi(a, n)

    monkeypatch.setattr(criteria, "jacobi", counted)
    classify_11_plus(17, 89)
    assert calls == []
    with pytest.raises(FamilyMismatch) as err:
        residue_profile(17, 97)
    assert str(err.value) == "profile needs (p/l) = +1; (17/97) = -1"


@pytest.mark.parametrize(
    "classify, p, l",
    [
        (classify_11_minus, 17, 41),
        (classify_small_residues, 5, 13),  # (5,5), (p/l) = -1
        (classify_small_residues, 5, 29),  # (5,5), (p/l) = +1
        (classify_small_residues, 7, 23),
        (classify_small_residues, 3, 11),
        (classify_11_plus, 17, 89),
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_classifiers_test_each_prime_once(monkeypatch, classify, p, l):
    # the classifier checks its pair, and every symbol after that runs on
    # unchecked kernels; cold records, so test order cannot hide a call
    criteria._prime_record.cache_clear()
    criteria._generator.cache_clear()
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    for module in (arith, quadring, criteria):
        monkeypatch.setattr(module, "is_prime", counted)
    classify(p, l)
    assert sorted(calls) == [p, l]


def reference_lambda_pi_symbol(p, l):
    """The boxed [Lambda/Pi] that `criteria._lambda_pi_symbol` replaced."""
    lam = reference_primary_associate_mod4(split_prime(l, SQRT2))
    return ring_symbol(lam, primary_associate(split_prime(p, SQRT2))), lam


def reference_pinned_pi(p):
    """The pinned primary prime over p = 5 mod 8 of the boxed
    [(1+i)pi/lambda]."""
    pi = primary_associate(split_prime(p, GAUSS))
    if ring_symbol(QuadInt(GAUSS, 1, -1), pi) != -ring_symbol(pi.conj(), pi):
        pi = pi.conj()
    return pi


def reference_gauss_unit_symbol(p, l):
    """The boxed [(1+i)pi/lambda] that `criteria._gauss_unit_symbol` replaced."""
    pi = reference_pinned_pi(p)
    lam = primary_associate(split_prime(l, GAUSS))
    return ring_symbol(QuadInt(GAUSS, 1, 1) * pi, lam)


def test_lambda_pi_symbol_matches_the_boxed_ring_symbol_at_both_roots():
    # every (7,7) pair below 2000, in the order with (p/l) = +1
    ps = primes_in(3, 2000, 7)
    pairs = [(p, l) for p in ps for l in ps if p != l and jacobi(p, l) == 1]
    assert len(pairs) > 2500
    seen = set()
    for p, l in pairs:
        want, lam = reference_lambda_pi_symbol(p, l)
        assert criteria._lambda_pi_symbol(p, l) == want, (p, l)
        r = _root(p, SQRT2.omega2)
        assert {jacobi(lam.a + lam.b * root, p) for root in (r, p - r)} == {want}, (p, l)
        # the sign is pinned: -Lambda has the opposite symbol
        assert ring_symbol(-lam, primary_associate(split_prime(p, SQRT2))) == -want
        seen.add(want)
    assert seen == {1, -1}


def test_gauss_unit_symbol_matches_the_boxed_ring_symbol_at_both_roots():
    # every (5,5) pair below 2000 with (p/l) = -1, in both orders
    ps = primes_in(3, 2000, 5)
    pairs = [(p, l) for p in ps for l in ps if p != l and jacobi(p, l) == -1]
    assert len(pairs) > 2500
    seen = set()
    for p, l in pairs:
        want = reference_gauss_unit_symbol(p, l)
        assert criteria._gauss_unit_symbol(p, l) == want, (p, l)
        pi = reference_pinned_pi(p)
        s = _root(l, GAUSS.omega2)
        values = {jacobi((1 + root) * (pi.a + pi.b * root), l) for root in (s, l - s)}
        assert values == {want}, (p, l)
        # the pin matters: the conjugate has the opposite symbol
        lam = split_prime(l, GAUSS)
        assert ring_symbol(QuadInt(GAUSS, 1, 1) * pi.conj(), lam) == -want
        seen.add(want)
    assert seen == {1, -1}


# --- the 32-profile grid ------------------------------------------------------


def test_grid_census():
    rank0 = rank4 = 0
    for profile in ALL_PROFILES:
        pc = classify_profile(profile)
        # W is the span of the passing classes, and must itself pass
        passing = phi_pass_classes(profile)
        assert pc.w_phi == (passing | {"1"})
        # complement: disjoint from W except "1", contained in failing classes
        assert pc.w_phi & pc.sha_phi_complement == {"1"}
        assert all(c == "1" or c not in passing for c in pc.sha_phi_complement)
        assert pc.sha_phi_dim == 3 - (len(pc.w_phi).bit_length() - 1)
        assert pc.rank_bound == 4 - pc.sha_phi_dim - pc.sha_psi_dim
        if pc.rank_bound == 0:
            rank0 += 1
        if pc.rank_bound == 4:
            rank4 += 1
    assert rank0 == 16
    assert rank4 == 1


SPOT_ROWS = {
    # (pi, a, b, c, d): (sha_psi_dim, w_phi, complement, rank_bound)
    (1, 1, 1, 1, 1): (0, {"1", "2", "p", "2p", "l", "2l", "pl", "2pl"}, {"1"}, 4),
    (1, 1, 1, 1, -1): (0, {"1", "p"}, {"1", "2", "l", "2l"}, 2),
    (1, 1, 1, -1, 1): (0, {"1", "l"}, {"1", "2", "p", "2p"}, 2),
    (1, 1, 1, -1, -1): (1, {"1"}, {"1", "2", "p", "2p", "l", "2l", "pl", "2pl"}, 0),
    (1, 1, -1, -1, -1): (0, {"1", "2pl"}, {"1", "2", "p", "2p"}, 2),
}


def test_classify_profile_cache_matches_a_fresh_computation():
    cached = criteria._classify_profile
    cached.cache_clear()
    # a plain tuple or list first: its entry must still hold a ResidueProfile
    assert type(classify_profile(tuple(ALL_PROFILES[7])).profile) is ResidueProfile
    assert type(classify_profile(list(ALL_PROFILES[8])).profile) is ResidueProfile
    for profile in ALL_PROFILES:
        pc = cached.__wrapped__(profile)
        assert classify_profile(profile) == pc, profile
        assert type(pc.profile) is ResidueProfile
        assert classify_profile(profile) is classify_profile(list(profile))
    assert cached.cache_info().currsize == 32


def test_grid_spot_rows():
    for signs, (sha_psi, w, comp, rank) in SPOT_ROWS.items():
        pc = classify_profile(ResidueProfile(*signs))
        assert pc.sha_psi_dim == sha_psi, signs
        assert pc.w_phi == frozenset(w), signs
        assert pc.sha_phi_complement == frozenset(comp), signs
        assert pc.rank_bound == rank, signs


def test_psi_case_labels():
    profile = ResidueProfile(1, 1, 1, 1, 1)
    assert all(psi_case_holds(c, profile) for c in ("1Aa", "1Ab", "2Ab", "2Bb"))
    with pytest.raises(ValueError):
        psi_case_holds("3Aa", profile)
    assert not psi_obstructed(profile)


def test_psi_cases_match_the_paper_on_every_profile():
    """All 32 profiles x 8 cases against the three sign conditions each case
    of T(p) forces, written out as in the paper; T(p) is obstructed exactly
    when no case holds."""
    for profile in ALL_PROFILES:
        pi, a, b, c, d = profile
        paper = {
            "1Aa": pi == 1 and a == 1 and c == 1,
            "1Ab": pi == 1 and b == 1 and a * c == 1,
            "1Ba": pi == c * d and a == 1 and b * c == 1,
            "1Bb": pi == d and b == 1 and c == 1,
            "2Aa": pi == c and a == 1 and d == 1,
            "2Ab": pi == 1 and a == 1 and b * d == 1,
            "2Ba": pi == c * d and b == 1 and a * d == 1,
            "2Bb": pi == 1 and b == 1 and d == 1,
        }
        assert set(paper) == set(PSI_CASES)
        for case, holds in paper.items():
            assert psi_case_holds(case, profile) == holds, (profile, case)
        assert psi_obstructed(profile) == (not any(paper.values())), profile


# --- family classifiers -------------------------------------------------------


def test_classify_11_plus_row4_pair():
    cls = classify_11_plus(17, 1361)
    assert cls.noncongruent
    assert cls.rank_bound == 0
    assert cls.sha2_dim == 4
    assert cls.sha_psi == SquareClassGroup.span(17)
    assert cls.sha_phi == SquareClassGroup.span(2, 17, 1361)
    assert cls.w_phi == SquareClassGroup.trivial()
    assert cls.selmer_psi == SquareClassGroup.span(-1, 17, 1361)
    assert cls.selmer_phi == SquareClassGroup.span(2, 17, 1361)


def test_classify_11_plus_row8_pair():
    cls = classify_11_plus(17, 89)
    assert not cls.noncongruent
    assert cls.rank_bound == 2
    assert cls.sha2_dim is None
    assert cls.sha_psi == SquareClassGroup.trivial()
    assert cls.sha_phi == SquareClassGroup.span(2, 17)
    assert cls.w_phi == SquareClassGroup.span(2 * 17 * 89)


def test_classify_11_minus():
    # octic signs: 17 -> -1, 41 -> +1, 73 -> -1
    cls = classify_11_minus(17, 41)
    assert cls.k == 697
    assert cls.noncongruent
    assert cls.sha_phi == SquareClassGroup.span(2, 697)
    assert cls.sha2_dim == 2
    assert cls.selmer_psi == SquareClassGroup.span(-1, 697)
    # product +1: no certificate
    cls = classify_11_minus(17, 73)
    assert not cls.noncongruent
    assert cls.rank_bound == 2
    with pytest.raises(FamilyMismatch):
        classify_11_minus(17, 89)  # (17/89) = +1


def test_classify_2p():
    for p, expect in [(17, False), (41, True), (73, True), (89, True), (97, False)]:
        cls = classify_2p(p)
        assert cls.k == 2 * p
        assert cls.selmer_psi == SquareClassGroup.span(-1, 2, p)
        assert cls.selmer_phi == SquareClassGroup.span(p)
        assert cls.noncongruent == expect, p
        if expect:
            assert cls.sha_psi == cls.sha_phi == SquareClassGroup.span(p)
            assert cls.sha2_dim == 2
    with pytest.raises(FamilyMismatch):
        classify_2p(3)
    with pytest.raises(FamilyMismatch):
        classify_2p(91)


def test_classify_small_residues_3mod8():
    cls = classify_small_residues(3, 11)
    assert cls.noncongruent
    assert cls.sha2_dim == 0
    assert cls.selmer_phi == SquareClassGroup.trivial()
    assert cls.selmer_psi == SquareClassGroup.span(-1, 33)
    assert classify_small_residues(3, 19).noncongruent
    assert classify_small_residues(11, 19).noncongruent


def test_classify_small_residues_5mod8():
    # (p/l) = +1: quartic symmetry criterion
    cls = classify_small_residues(5, 29)
    assert cls.selmer_phi == SquareClassGroup.span(5, 29)
    assert not cls.noncongruent  # (5/29)_4 = (29/5)_4
    cls = classify_small_residues(5, 61)
    assert cls.noncongruent
    assert cls.sha_phi == SquareClassGroup.span(5, 61)
    assert cls.sha2_dim == 2
    # (p/l) = -1: pinned Gaussian-unit criterion. 65 is a classical
    # congruent number, so (5, 13) must not be certified.
    cls = classify_small_residues(5, 13)
    assert cls.selmer_phi == SquareClassGroup.span(10, 26)
    assert not cls.noncongruent
    cls = classify_small_residues(5, 37)
    assert cls.noncongruent
    assert cls.sha_phi == SquareClassGroup.span(10, 74)
    assert cls.sha2_dim == 2


def test_classify_small_residues_7mod8():
    # (p, l) ordered internally so (p/l) = +1
    cls = classify_small_residues(7, 23)
    assert not cls.noncongruent  # [Lambda/Pi] = +1 for (23, 7)
    assert cls.selmer_phi == SquareClassGroup.span(2)
    cls = classify_small_residues(7, 31)
    assert cls.noncongruent
    assert cls.sha_psi == SquareClassGroup.span(cls.p)
    assert cls.sha_phi == SquareClassGroup.span(2)
    assert cls.sha2_dim == 2
    assert classify_small_residues(31, 23).noncongruent


def test_classify_small_residues_rejects():
    with pytest.raises(FamilyMismatch):
        classify_small_residues(3, 13)  # mixed residues
    with pytest.raises(FamilyMismatch):
        classify_small_residues(17, 41)  # 1 mod 8 pairs live elsewhere
    with pytest.raises(FamilyMismatch):
        classify_small_residues(7, 7)


def test_classify_auto_dispatch():
    assert classify_auto(65).family == "pl-5mod8"
    assert classify_auto(34).family == "2p"
    assert classify_auto(697).family == "pl-1mod8-minus"
    assert classify_auto(4633).family == "pl-1mod8-plus"
    assert classify_auto(33).family == "pl-3mod8"
    assert classify_auto(217).family == "pl-7mod8"
    assert classify_auto(30) is None  # three factors
    assert classify_auto(12) is None  # not squarefree
    assert classify_auto(17) is None  # single prime
    assert classify_auto(-65) is None
    assert classify_auto(15) is None  # 3 and 5 mod 8


def sample_family_inputs():
    """(family label, [classifier inputs]) for the Selmer agreement sweep:
    every pair of primes below 500 in the six LAGRANGE_SELMER families, and
    k = 2p for every p = 1 mod 8 below 2000."""
    def pairs_of(r, sign=None):
        ps = primes_in(3, 500, r)
        return [
            (p, l) for i, p in enumerate(ps) for l in ps[i + 1:]
            if sign is None or jacobi(p, l) == sign
        ]
    return [
        ("2p", [(p,) for p in primes_in(3, 2000, 1)]),
        ("plus", pairs_of(1, 1)),
        ("minus", pairs_of(1, -1)),
        ("3mod8", pairs_of(3)),
        ("5mod8", pairs_of(5)),
        ("7mod8", pairs_of(7)),
    ]


@pytest.mark.parametrize("family,inputs", sample_family_inputs())
def test_selmer_agreement_with_descent_module(family, inputs):
    """Closed-form Selmer groups match the local-solvability computation,
    descend finds nothing to note against the criteria, and the certificate
    splits Sel^phi: W^phi and Sha^phi meet in 1 and their orders multiply
    to its order."""
    classify = {
        "2p": classify_2p,
        "plus": classify_11_plus,
        "minus": classify_11_minus,
    }.get(family, classify_small_residues)
    assert len(inputs) >= 20, family
    for tup in inputs:
        cls = classify(*tup)
        rep = descend(cls.k, 0)
        assert rep.selmer_psi == cls.selmer_psi, (family, tup)
        assert rep.selmer_phi == cls.selmer_phi, (family, tup)
        assert rep.notes == (), (family, tup, rep.notes)
        sel_phi, w_phi, sha_phi = cls.selmer_phi, cls.w_phi, cls.sha_phi
        assert cls.sha_psi <= cls.selmer_psi, (family, tup)
        assert w_phi <= sel_phi and sha_phi <= sel_phi, (family, tup)
        assert w_phi & sha_phi == {1}, (family, tup)
        assert len(w_phi) * len(sha_phi) == len(sel_phi), (family, tup)


# --- general-divisor conditions on the phi side --------------------------------


def phi_divisor_conditions(k: int, a_div: int) -> dict[str, bool]:
    """Necessary conditions for a rational point on the phi-side torsor of
    class A = a_div, for squarefree k whose prime factors are all = 1 mod 8
    and pairwise quadratic residues.

    With B = k/A and alpha the product of the primary primes over the
    primes of A, a point forces all four of:
      A_octic_trivial:            (-4/A)_8 = +1
      alpha_trivial_over_B:       [alpha/pi] = +1 for every pi | B
      A_octic_matches_B_quartic:  (-4/p)_8 = (B/p)_4 for every p | A
      cofactor_symbols_trivial:   [alpha/g . g^-1 / g] = +1 for g | alpha

    This one alpha decides the conditions for every primary alpha of norm
    A, that is for every choice of conjugates of its prime factors. For pi
    over a prime r of k other than N(g), [g/pi][gbar/pi] = [N(g)/pi] =
    (N(g)/r) = +1 by the mutual residues, so flipping a factor g of alpha
    to gbar changes no symbol mod pi. For the cofactor x = alpha/g,
    flipping the modulus g itself gives [x/gbar] = [xbar/g], and xbar is x
    with every factor flipped, so again [xbar/g] = [x/g].
    """
    f = arith.factor(k)
    ps = [q for q, _ in f.factors]
    if k < 1 or f.squarefree_part() != k or any(q % 8 != 1 for q in ps):
        raise FamilyMismatch(
            "need squarefree positive k with all prime factors = 1 mod 8"
        )
    if not witness_oracle._mutual_residues(ps):
        raise FamilyMismatch(f"the prime factors of k = {k} are not mutual residues")
    if a_div <= 0 or k % a_div != 0:
        raise FamilyMismatch(f"A = {a_div} is not a positive divisor of k = {k}")
    b_div = k // a_div
    a_primes = [q for q in ps if a_div % q == 0]
    b_primes = [q for q in ps if b_div % q == 0]
    primary = {q: primary_associate(split_prime(q, GAUSS)) for q in ps}
    parts = [primary[q] for q in a_primes]  # the prime factors of alpha
    one = QuadInt(GAUSS, 1, 0)
    alpha = prod(parts, start=one)
    cond1 = prod(octic_minus4(q) for q in a_primes) == 1
    cond2 = all(ring_symbol(alpha, primary[q]) == 1 for q in b_primes)
    cond3 = all(
        octic_minus4(q) == witness_oracle.quartic_symbol_product(b_div, q) for q in a_primes
    )
    cond4 = all(
        ring_symbol(prod(parts[:i] + parts[i + 1 :], start=one), g) == 1
        for i, g in enumerate(parts)
    )
    return {
        "A_octic_trivial": cond1,
        "alpha_trivial_over_B": cond2,
        "A_octic_matches_B_quartic": cond3,
        "cofactor_symbols_trivial": cond4,
    }


def test_phi_divisor_conditions_trivial_class():
    res = phi_divisor_conditions(17 * 89, 1)
    assert all(res.values())


def test_phi_divisor_conditions_rejects():
    with pytest.raises(FamilyMismatch):
        phi_divisor_conditions(17 * 5, 17)  # 5 is not 1 mod 8
    with pytest.raises(FamilyMismatch):
        phi_divisor_conditions(17 * 97, 17)  # not mutual residues
    with pytest.raises(FamilyMismatch):
        phi_divisor_conditions(17 * 89, 3)  # not a divisor


def admissible_pairs(count):
    p18 = primes_with(1, 8, 30, start=17)
    out = []
    for i, p in enumerate(p18):
        for l in p18[i + 1:]:
            if jacobi(p, l) == 1:
                out.append((p, l))
    return sorted(out, key=lambda t: t[0] * t[1])[:count]


@pytest.mark.parametrize("p,l", admissible_pairs(12))
def test_phi_divisor_conditions_match_class_table(p, l):
    """For k = pl the four divisor conditions, taken together, agree with
    the per-class sign conditions of the profile table."""
    profile = residue_profile(p, l)
    for a_div, cls_name in [(p, "p"), (l, "l"), (p * l, "pl")]:
        res = phi_divisor_conditions(p * l, a_div)
        assert all(res.values()) == (cls_name in phi_pass_classes(profile)), (
            p, l, a_div, res,
        )


def reference_phi_divisor_conditions(k, a_div):
    """phi_divisor_conditions evaluated over every primary alpha of norm A,
    one per conjugation pattern of its prime factors, joined by logical and."""
    ps = [q for q, _ in arith.factor(k).factors]
    b_div = k // a_div
    a_primes = [q for q in ps if a_div % q == 0]
    b_primes = [q for q in ps if b_div % q == 0]
    primary = {q: primary_associate(split_prime(q, GAUSS)) for q in ps}
    base = [primary[q] for q in a_primes]
    one = QuadInt(GAUSS, 1, 0)
    alphas = [
        [g.conj() if (mask >> i) & 1 else g for i, g in enumerate(base)]
        for mask in range(1 << len(base))
    ]
    return {
        "A_octic_trivial": prod(octic_minus4(q) for q in a_primes) == 1,
        "alpha_trivial_over_B": all(
            ring_symbol(prod(parts, start=one), primary[q]) == 1
            for q in b_primes
            for parts in alphas
        ),
        "A_octic_matches_B_quartic": all(
            octic_minus4(q) == witness_oracle.quartic_symbol_product(b_div, q) for q in a_primes
        ),
        "cofactor_symbols_trivial": all(
            ring_symbol(prod(parts[:i] + parts[i + 1 :], start=one), piq) == 1
            for parts in alphas
            for i, piq in enumerate(parts)
        ),
    }


def test_phi_divisor_conditions_match_all_patterns():
    """One alpha gives what every conjugation pattern gives, on every
    divisor of 100 sets each of 2, 3 and 4 mutual-residue primes drawn from
    the first 60 primes = 1 mod 8."""
    pool = primes_with(1, 8, 60, start=17)
    rng = random.Random(18)
    cases = 0
    for size in (2, 3, 4):
        drawn = 0
        while drawn < 100:
            ps = sorted(rng.sample(pool, size))
            if any(jacobi(q, r) != 1 for q, r in itertools.combinations(ps, 2)):
                continue
            drawn += 1
            k = prod(ps)
            for n in range(size + 1):
                for sub in itertools.combinations(ps, n):
                    a_div = prod(sub)
                    assert phi_divisor_conditions(k, a_div) == (
                        reference_phi_divisor_conditions(k, a_div)
                    ), (ps, a_div)
                    cases += 1
    assert cases == 100 * (4 + 8 + 16)


def test_phi_divisor_conditions_three_primes():
    # 17, 89, 257: pairwise residues, all 1 mod 8
    k = 17 * 89 * 257
    for a_div in (1, 17, 89 * 257, k):
        res = phi_divisor_conditions(k, a_div)
        assert set(res) == {
            "A_octic_trivial",
            "alpha_trivial_over_B",
            "A_octic_matches_B_quartic",
            "cofactor_symbols_trivial",
        }
        assert all(isinstance(v, bool) for v in res.values())


# --- coprime-squares relations --------------------------------------------------


def mutual_pool():
    """Primes = 1 mod 8 that are pairwise quadratic residues."""
    pool = [17, 89, 257]
    for q, r in [(17, 89), (17, 257), (89, 257)]:
        assert jacobi(q, r) == 1
    return pool


def collect_representation_pairs(limit):
    """Instances A x^2 + B y^2 = C v^2, A x^2 - B y^2 = D w^2 with the
    coefficient alphabet {1, 17, 89, 257}."""
    from math import gcd, isqrt

    pool = [1] + mutual_pool()
    found = []
    for a_c in pool:
        for b_c in pool:
            for c_c in pool:
                for d_c in pool:
                    coeffs = [a_c, b_c, c_c, d_c]
                    if any(
                        gcd(u, t) != 1
                        for i, u in enumerate(coeffs)
                        for t in coeffs[i + 1:]
                    ):
                        continue
                    for x in range(1, 130):
                        for y in range(1, 130):
                            s = a_c * x * x + b_c * y * y
                            d2 = a_c * x * x - b_c * y * y
                            if d2 <= 0 or s % c_c or d2 % d_c:
                                continue
                            v2, w2 = s // c_c, d2 // d_c
                            v, w = isqrt(v2), isqrt(w2)
                            if v * v == v2 and w * w == w2:
                                found.append((a_c, b_c, c_c, d_c, x, y, v, w))
                                if len(found) >= limit:
                                    return found
    return found


def test_square_pair_relations_hold_on_instances():
    instances = collect_representation_pairs(25)
    assert len(instances) >= 20
    seen_nontrivial = 0
    for inst in instances:
        rel = square_pair_relations(*inst)
        assert rel.congruence and rel.rel_quartic and rel.rel_octic, inst
        if set(inst[:4]) != {1}:
            seen_nontrivial += 1
    assert seen_nontrivial > 0


def test_square_pair_relations_rejects():
    with pytest.raises(HypothesisViolated):
        square_pair_relations(1, 1, 1, 1, 1, 1, 1, 1)  # equations fail
    # 3^2 + 4^2 = 5^2 but 3 mod 4 coefficients are out of scope
    with pytest.raises(HypothesisViolated):
        square_pair_relations(3, 1, 1, 1, 1, 2, 0, 0)
    with pytest.raises(HypothesisViolated):
        # valid equations, coefficients not coprime (17 shared)
        square_pair_relations(17, 17, 1, 1, 1, 1, 0, 0)


# --- witness lemmas -------------------------------------------------------------


def test_witness_fixed_sign_instance():
    # 117^2 - 2*83^2 = -89, 117^2 - 83^2 = 17 * 20^2
    assert witness_fixed_sign(89, 17, 117, 83, 1, 20, 1) == 1
    with pytest.raises(HypothesisViolated):
        witness_fixed_sign(89, 17, 117, 83, 2, 20, 1)
    with pytest.raises(HypothesisViolated):
        witness_fixed_sign(89, 17, 117, 83, 1, 20, 2)
    with pytest.raises(HypothesisViolated):
        witness_fixed_sign(89, 97, 117, 83, 1, 20, 1)  # (89/97) = -1


def test_witness_octic_sign_instances():
    # eps = +1: 5^2 + 2*8^2 = 17*3^2 and 5^2 + 8^2 = 89
    assert witness_octic_sign(17, 89, 5, 8, 3, 1, 1) == (
        quartic_symbol(17, 89) * quartic_symbol(89, 17) * octic_minus4(89)
    )
    assert witness_octic_sign(17, 89, 5, 8, 3, 1, 1) == 1
    # eps = -1: 25^2 - 2*16^2 = 113 and 25^2 - 16^2 = 41*3^2
    assert witness_octic_sign(113, 41, 25, 16, 1, 3, -1) == octic_minus4(41) == 1
    with pytest.raises(HypothesisViolated):
        witness_octic_sign(17, 89, 5, 8, 3, 1, -1)


# --- point decomposition and full coherence -------------------------------------


def test_decompose_known_point():
    dec = decompose_psi_point(41, 113, (3936, 25, 1))
    assert dec.case == "2Aa"
    assert (dec.m_val, dec.e_val, dec.a_val, dec.b_val) == (25, 1, 3, 16)
    assert dec.quadruple == (41, 1, 1, 113)
    assert dec.variables == (3, 16, 25, 1)
    assert dec.lemma == "octic"
    assert dec.lemma_pl == (113, 41)
    assert dec.eps == -1


def test_decompose_rejects_bad_points():
    with pytest.raises(HypothesisViolated):
        decompose_psi_point(41, 113, (3936, 25, 2))
    with pytest.raises(HypothesisViolated):
        decompose_psi_point(41, 113, (3936, 50, 2))


def test_check_witness_known_point():
    rep = check_witness(41, 113, (3936, 25, 1))
    assert rep.ok
    assert rep.actual_symbol == 1
    assert rep.predicted_symbol == 1
    assert rep.table_symbol == 1
    assert all(rep.relations)
    assert rep.case_conditions_hold


@pytest.mark.parametrize("p,l", [(41, 113), (17, 89), (17, 137), (73, 137)])
def test_check_witness_over_searched_points(p, l):
    """Every point found on T(p) at small height passes all coherence
    checks; same for T(l) with the roles of p and l exchanged."""
    k = p * l
    checked = 0
    for pr, lq in ((p, l), (l, p)):
        torsor = Torsor(PSI, pr, -pr * lq * lq)
        for pt in search_points(torsor, 140):
            rep = check_witness(pr, lq, pt)
            assert rep.ok, (pr, lq, pt)
            checked += 1
    assert checked > 0, (p, l)
