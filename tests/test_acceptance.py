"""Gate suite: one test per headline guarantee of the package.

Every number asserted here is frozen reference data (the classification
grid, the symbol tables, the published example pairs) or an identity that
must hold with zero exceptions. Where a guarantee carries a runtime
budget, the test asserts the budget too. Run with -v to get one line per
guarantee.
"""

import json
import random
import time

from cndescent.arith import (
    jacobi,
    octic_minus4,
    primes_in,
    quartic_symbol,
)
from cndescent.cli import main as cli_main
from cndescent.criteria import (
    LAGRANGE_SELMER,
    classify_11_plus,
    classify_2p,
    classify_profile,
    residue_profile,
)
from cndescent.descent import PHI, PSI, Torsor, search_points, selmer_group
from cndescent.quadring import (
    GAUSS,
    SQRT2,
    SQRTM2,
    primary_associate,
    ring_symbol,
    split_prime,
    symbol_capital,
)
from cndescent.sqclass import SquareClassGroup, concretize
from cndescent.survey import (
    REFERENCE_GRID,
    SYMBOL_LIST_LARGE,
    SYMBOL_TABLE_SMALL,
    FamilySpec,
    run_survey,
    smallest_example,
)
from classfield_oracle import (
    form_class_group,
    fourth_power_class_test,
    fundamental_unit,
    scholz_case,
    strict_two_principal,
)
from test_descent import reference_search_points
from witness_oracle import check_witness, half_symbols


def test_grid_examples_match_printed_profiles():
    """All 32 published example pairs carry their row's residue profile."""
    t0 = time.monotonic()
    for row in REFERENCE_GRID:
        assert residue_profile(*row.example) == row.profile, row.example
    assert time.monotonic() - t0 < 60.0


def test_grid_classification_columns_and_census():
    """classify_profile reproduces every grid column on all 32 rows, the
    16 rank-zero rows, and the single rank-four row; the concrete
    classifier agrees on each row's example pair."""
    pcs = [classify_profile(row.profile) for row in REFERENCE_GRID]
    assert sum(1 for pc in pcs if pc.rank_bound == 0) == 16
    assert sum(1 for pc in pcs if pc.rank_bound == 4) == 1
    for row, pc in zip(REFERENCE_GRID, pcs):
        assert pc.rank_bound == row.rank_bound, row
        assert pc.sha_psi_dim == len(row.sha_psi), row
        assert pc.sha_phi_dim == len(row.sha_phi), row
        p, l = row.example
        cls = classify_11_plus(p, l)
        assert cls.rank_bound == row.rank_bound, row
        w_phi, sha_psi, comp = concretize(p, l, row.w_phi, row.sha_psi, row.sha_phi)
        assert cls.w_phi == w_phi, row
        assert cls.sha_psi == sha_psi, row
        # the printed complement generators are one valid choice among
        # several; check they certify the same obstruction space
        assert comp & cls.w_phi == {1}, row
        assert len(comp) * len(cls.w_phi) == 8, row
        assert cls.sha_phi.dim == len(row.sha_phi), row


def test_symbol_reference_tables():
    """Both published symbol tables recompute exactly."""
    for k, p, l, (a, b, c, d, pi_) in SYMBOL_TABLE_SMALL:
        assert k == p * l
        pr = residue_profile(p, l)
        assert (pr.a, pr.b, pr.c, pr.d, pr.pi) == (a, b, c, d, pi_), k
    for k, p, l, want in SYMBOL_LIST_LARGE:
        assert k == p * l
        assert symbol_capital(l, p, SQRT2) == want, k


def test_twice_prime_family():
    """k = 2p for p = 1 mod 8: Selmer groups are <-1,2,p> and <p>, and
    rank 0 is certified exactly when p = 9 mod 16."""
    t0 = time.monotonic()
    for p in (17, 41, 73, 89, 97):
        assert selmer_group(2 * p, PSI) == SquareClassGroup.span(-1, 2, p), p
        assert selmer_group(2 * p, PHI) == SquareClassGroup.span(p), p
        assert (classify_2p(p).rank_bound == 0) == (p % 16 == 9), p
    assert time.monotonic() - t0 < 60.0


def test_selmer_shapes_per_family():
    """One witness pair per closed-form Selmer row, both signs of (p/l)
    where the family splits by it."""
    fixture_pairs = {
        (1, 1, 1): (17, 89),
        (1, 1, -1): (17, 41),
        (5, 5, 1): (5, 29),
        (5, 5, -1): (5, 13),
        (3, 3, -1): (11, 3),
        (7, 7, 1): (7, 23),
    }
    assert set(fixture_pairs) == set(LAGRANGE_SELMER)
    for key, (p, l) in fixture_pairs.items():
        want_psi, want_phi = concretize(p, l, *LAGRANGE_SELMER[key])
        k = p * l
        assert selmer_group(k, PSI) == want_psi, key
        assert selmer_group(k, PHI) == want_phi, key


def test_symbol_identities_on_random_pairs():
    """Octic factorization, the rational product formula for the Gaussian
    symbol, the three-ring product, symmetry of the real and imaginary
    symbols, and conjugate-choice invariance: zero failures on 200 seeded
    admissible pairs with primes below 10**6."""
    ps = primes_in(17, 10**6, residue=1)
    rng = random.Random(1187)
    pairs = []
    while len(pairs) < 200:
        p, l = rng.sample(ps, 2)
        if jacobi(p, l) == 1:
            pairs.append((p, l))
    for p, l in pairs:
        for n in (p, l):
            q2, l2 = half_symbols(n)
            assert octic_minus4(n) == q2 * l2, n
        g = symbol_capital(p, l, GAUSS)
        assert g == quartic_symbol(p, l) * quartic_symbol(l, p), (p, l)
        s2 = symbol_capital(p, l, SQRT2)
        sm2 = symbol_capital(p, l, SQRTM2)
        assert s2 * sm2 == g, (p, l)
        assert s2 == symbol_capital(l, p, SQRT2), (p, l)
        assert sm2 == symbol_capital(l, p, SQRTM2), (p, l)
        for ring, base in ((GAUSS, g), (SQRT2, s2), (SQRTM2, sm2)):
            pi_c = primary_associate(split_prime(p, ring).conj())
            lam = primary_associate(split_prime(l, ring))
            lam_c = primary_associate(lam.conj())
            assert ring_symbol(pi_c, lam) == base, (p, l, ring)
            assert ring_symbol(pi_c, lam_c) == base, (p, l, ring)


def test_class_group_oracle_sweeps():
    """The residue-symbol shortcuts agree with class groups computed from
    scratch: unit-norm and class-number cases for every prime l = 1 mod 4
    below 3000, strict principality of the prime over 2 for every
    admissible l below 3000, and the fourth-power class test against the
    quadratic-ring symbol for every admissible pair below 1000. Budget
    five minutes; zero exceptions."""
    t0 = time.monotonic()
    for l in [q for q in primes_in(5, 3000) if q % 4 == 1]:
        pred = scholz_case(l)
        _, _, ne = fundamental_unit(2 * l)
        grp = form_class_group(8 * l)
        assert pred.admits(ne, grp.h, grp.h_plus), l
    n_adm = 0
    for l in primes_in(17, 3000, residue=1):
        if octic_minus4(l) != -1:
            continue
        n_adm += 1
        assert strict_two_principal(l) == (half_symbols(l)[0] == -1), l
    assert n_adm > 40
    ps = primes_in(17, 1000, residue=1)
    n_pairs = 0
    for p in ps:
        for l in ps:
            if p == l or jacobi(p, l) != 1:
                continue
            n_pairs += 1
            assert fourth_power_class_test(p, l) == (
                symbol_capital(p, l, SQRT2) == 1
            ), (p, l)
    assert n_pairs > 500
    assert time.monotonic() - t0 < 300.0


def test_witness_coherence_sweep():
    """Every point of height at most 1000 on the psi-torsor of p, over all
    admissible ordered pairs with both primes = 1 mod 8 below 500, passes
    all of its residue-symbol consequences: the case decomposition, the
    square-pair relations, and the predicted symbol value. The sieve finds
    the scan oracle's points on each torsor, in the same order."""
    ps = primes_in(17, 500, residue=1)
    n_points = 0
    for p in ps:
        for l in ps:
            if p == l or jacobi(p, l) != 1:
                continue
            torsor = Torsor(PSI, p, -p * l * l)
            pts = search_points(torsor, 1000)
            assert pts == reference_search_points(torsor, 1000), (p, l)
            for pt in pts:
                n_points += 1
                rep = check_witness(p, l, pt)
                assert rep.ok, (p, l, pt, rep)
    assert n_points >= 40  # the sweep must actually exercise points


def test_rank_two_certificate_via_cli(capsys):
    """classify --k 4633 --height 10000 proves rank exactly 2 within two
    minutes."""
    t0 = time.monotonic()
    code = cli_main(["classify", "--k", "4633", "--height", "10000", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    assert obj["rank_lower"] == 2 and obj["rank_upper"] == 2
    assert time.monotonic() - t0 < 120.0


def test_smallest_examples():
    """smallest_example reproduces the published pair on every grid row
    except the one row whose printed pair is not minimal, where the
    smaller pair with identical symbols wins. Budget ten minutes."""
    t0 = time.monotonic()
    for i, row in enumerate(REFERENCE_GRID):
        want = (41, 1321) if i == 12 else row.example
        assert smallest_example(row.profile) == want, (i + 1, row.example)
    assert time.monotonic() - t0 < 600.0


def test_certified_rank_zero_densities():
    """Certified-rank-zero fractions: for both primes = 1 mod 8 with
    (p/l) = -1 and primes below 10**4 the fraction sits in [0.4, 0.6];
    for both primes = 3 mod 8 below 10**3 it is exactly 1."""
    _, s_minus = run_survey(FamilySpec(bound=10**4, residues=(1, 1), legendre=-1))
    assert s_minus.total > 10**4
    assert 0.4 <= s_minus.rank_zero_fraction <= 0.6
    _, s33 = run_survey(FamilySpec(bound=10**3, residues=(3, 3)))
    assert s33.total > 500
    assert s33.rank_zero_fraction == 1.0
