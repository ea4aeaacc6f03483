import random
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import sqrt_mod

from cndescent.arith import (
    is_prime,
    jacobi,
    octic_minus4,
    primes_in,
    quartic_symbol,
)
from cndescent.errors import (
    BadResidueClass,
    CompositeModulus,
    DescentError,
    Inert,
    NoPrimaryAssociate,
    NotCoprime,
    UndefinedSymbol,
)
from cndescent.quadring import (
    GAUSS,
    RINGS,
    SQRT2,
    SQRTM2,
    QuadInt,
    _root,
    primary_associate,
    ring_symbol,
    split_prime,
    symbol_capital,
)

quadints = st.builds(
    QuadInt,
    st.sampled_from(RINGS),
    st.integers(-200, 200),
    st.integers(-200, 200),
)


@given(quadints, quadints)
def test_norm_multiplicative(x, y):
    if x.ring != y.ring:
        return
    assert (x * y).norm == x.norm * y.norm


@given(quadints, quadints)
def test_conjugation_is_multiplicative(x, y):
    if x.ring != y.ring:
        return
    assert (x * y).conj() == x.conj() * y.conj()


def test_split_prime_small_exhaustive_agreement():
    for p in primes_in(2, 2000):
        for ring in RINGS:
            admissible = {
                GAUSS: p % 4 == 1,
                SQRT2: p % 8 in (1, 7),
                SQRTM2: p % 8 in (1, 3),
            }[ring]
            if not admissible:
                with pytest.raises(Inert):
                    split_prime(p, ring)
                continue
            g = split_prime(p, ring)
            if ring is SQRT2:
                # sign of the norm is an associate choice, not pinned
                assert abs(g.norm) == p
            else:
                assert g.norm == p


def test_closed_form_root_matches_tonelli_shanks():
    # the least root of omega^2 in every split class, and Inert exactly where
    # omega^2 is a non-residue; 2 is inert although omega^2 has a root mod 2
    for p in primes_in(3, 2 * 10**5):
        for ring in RINGS:
            want = sqrt_mod(ring.omega2, p)
            if want is None:
                with pytest.raises(Inert):
                    _root(p, ring.omega2)
            else:
                assert _root(p, ring.omega2) == want, (p, ring)
    for ring in RINGS:
        with pytest.raises(Inert):
            _root(2, ring.omega2)


def test_split_prime_known_values():
    assert split_prime(17, GAUSS).norm == 17
    assert abs(split_prime(17, SQRT2).norm) == 17
    assert split_prime(89, GAUSS).norm == 89
    assert split_prime(1361, GAUSS).norm == 1361
    assert abs(split_prime(7, SQRT2).norm) == 7
    # primary normalization in Z[sqrt2] forces b even, hence norm = 1 mod 8
    assert primary_associate(split_prime(7, SQRT2)).norm == -7


def test_split_prime_large():
    p = primes_in(10**6, 10**6 + 2000, residue=1)[0]
    for ring in RINGS:
        assert abs(split_prime(p, ring).norm) == p


def test_primary_associate_known_values():
    assert primary_associate(QuadInt(GAUSS, 1, 4)) == QuadInt(GAUSS, 1, 4)
    assert primary_associate(QuadInt(SQRT2, 5, 2)) == QuadInt(SQRT2, 5, 2)
    assert primary_associate(QuadInt(SQRTM2, 3, 2)) == QuadInt(SQRTM2, -3, 2)
    assert primary_associate(QuadInt(GAUSS, 5, 8)) == QuadInt(GAUSS, 5, 8)


def test_primary_associate_idempotent_and_primary():
    rng = random.Random(7)
    for _ in range(300):
        ring = rng.choice(RINGS)
        x = QuadInt(ring, rng.randrange(-50, 50), rng.randrange(-50, 50))
        if x.is_zero or x.norm % 2 == 0:
            continue
        try:
            y = primary_associate(x)
        except NoPrimaryAssociate:
            # only Z[sqrt-2] elements of norm = 3 mod 8 lack one (b is odd)
            assert ring is SQRTM2 and x.norm % 8 == 3
            continue
        assert y.is_primary()
        assert abs(y.norm) == abs(x.norm)
        assert primary_associate(y) == y


_EPS2 = QuadInt(SQRT2, 1, 1)  # fundamental unit of Z[sqrt2], norm -1
_EPS2_INV = QuadInt(SQRT2, -1, 1)


@cache
def _reference_units(ring):
    """(|exponent|, unit) pairs: both signs of eps2^n, |n| <= 2, in Z[sqrt2]
    (every unit class mod 2 sqrt 2), and all units of Z[i] and Z[sqrt-2]."""
    if ring is GAUSS:
        return [(0, QuadInt(ring, 1, 0)), (1, QuadInt(ring, 0, 1)),
                (1, QuadInt(ring, 0, -1)), (2, QuadInt(ring, -1, 0))]
    if ring is SQRTM2:
        return [(0, QuadInt(ring, 1, 0)), (0, QuadInt(ring, -1, 0))]
    powers = {0: QuadInt(SQRT2, 1, 0)}
    for n in (1, 2):
        powers[n] = powers[n - 1] * _EPS2
        powers[-n] = powers[-(n - 1)] * _EPS2_INV
    return [(abs(n), w) for n, u in powers.items() for w in (u, -u)]


def reference_primary_associate(alpha):
    """Search oracle: rank every primary unit multiple of alpha and conj(alpha)
    by (|unit exponent|, a <= 0, b <= 0, conjugated), first found on ties."""
    if alpha.norm % 2 == 0:
        raise NoPrimaryAssociate(f"{alpha} has even norm")
    best = None
    for conj_flag, base in ((0, alpha), (1, alpha.conj())):
        for n, u in _reference_units(alpha.ring):
            cand = u * base
            if cand.is_primary():
                key = (n, cand.a <= 0, cand.b <= 0, conj_flag)
                if best is None or key < best[0]:
                    best = (key, cand)
    if best is None:
        raise NoPrimaryAssociate(f"no primary associate of {alpha}")
    return best[1]


def reference_primary_associate_mod4(alpha):
    """Search oracle: the first unit multiple with b even and a + b = 1 mod 4."""
    if alpha.norm % 2 == 0:
        raise NoPrimaryAssociate(f"{alpha} has even norm")
    for _n, u in _reference_units(SQRT2):
        cand = u * alpha
        if cand.b % 2 == 0 and (cand.a + cand.b) % 4 == 1:
            return cand
    raise NoPrimaryAssociate(f"no mod-4 primary associate of {alpha}")


def _round_div(num, den):
    """Nearest-integer division, ties toward +infinity."""
    return (2 * num + den) // (2 * den)


def reference_split_prime(p, ring):
    """Euclid oracle on QuadInt: the gcd of p and r - omega, r the least
    square root of omega^2 mod p, each quotient x * conj(y) / N(y) rounded
    coordinatewise."""
    if not is_prime(p):
        raise BadResidueClass(f"split_prime needs a prime, got {p}")
    r = None if p == 2 else sqrt_mod(ring.omega2, p)
    if r is None:
        raise Inert(f"{p} does not split in {ring}")
    x, y = QuadInt(ring, p, 0), QuadInt(ring, r, -1)
    while not y.is_zero:
        n = y.norm
        prod = x * y.conj()
        q = QuadInt(ring, _round_div(prod.a, n), _round_div(prod.b, n))
        x, y = y, x - q * y
    return x


def _outcome(fn, *args):
    """fn's result, or the type and message of the package error it raises."""
    try:
        return fn(*args)
    except DescentError as e:
        return type(e), str(e)


def _split_primes(bound, rings=RINGS):
    admissible = {GAUSS: (1, 5), SQRT2: (1, 7), SQRTM2: (1, 3)}
    return [
        split_prime(p, ring)
        for p in primes_in(3, bound)
        for ring in rings
        if p % 8 in admissible[ring]
    ]


def test_primary_associate_matches_unit_search():
    inputs = _split_primes(30000)
    inputs += [
        QuadInt(ring, a, b)
        for ring in RINGS
        for a in range(-30, 31)
        for b in range(-30, 31)
        if (a * a - ring.omega2 * b * b) % 2
    ]
    for g in _split_primes(5000, (SQRT2,)):
        u = v = QuadInt(SQRT2, 1, 0)
        for _ in range(5):
            inputs += [w * h for w in (u, -u, v, -v) for h in (g, g.conj())]
            u, v = u * _EPS2, v * _EPS2_INV
    assert len(inputs) > 18000, len(inputs)
    for x in inputs:
        assert _outcome(primary_associate, x) == _outcome(
            reference_primary_associate, x
        ), x


def test_split_and_primary_match_the_euclid_and_unit_search_oracles():
    # every prime below 2*10^5 in every ring, Inert and NoPrimaryAssociate
    # (Z[sqrt-2], p = 3 mod 8) included, and BadResidueClass on non-primes
    checked = 0
    for p in [0, 1, 9, 15, 91, 561, *primes_in(2, 2 * 10**5)]:
        for ring in RINGS:
            got = _outcome(split_prime, p, ring)
            assert got == _outcome(reference_split_prime, p, ring), (p, ring)
            if isinstance(got, QuadInt):
                want = _outcome(reference_primary_associate, got)
                assert _outcome(primary_associate, got) == want, got
                checked += 1
    assert checked > 26000, checked


def test_symbol_capital_matches_the_oracle_composition():
    for p, l in _admissible_pairs(10**6, 100, seed=14):
        for ring in RINGS:
            cap_p, cap_l = (
                reference_primary_associate(reference_split_prime(q, ring)) for q in (p, l)
            )
            assert symbol_capital(p, l, ring) == ring_symbol(cap_p, cap_l), (p, l, ring)


def test_ring_symbol_norm_descent():
    # [c / beta] = (c / q) for rational c and beta of norm +-q
    rng = random.Random(8)
    primes = primes_in(3, 3000)
    for _ in range(200):
        ring = rng.choice(RINGS)
        classes = {GAUSS: (1,), SQRT2: (1, 7), SQRTM2: (1, 3)}[ring]
        p = rng.choice(primes)
        if p % (4 if ring is GAUSS else 8) not in classes:
            continue
        beta = split_prime(p, ring)
        c = rng.randrange(1, p)
        assert ring_symbol(QuadInt(ring, c, 0), beta) == jacobi(c, p)


def test_ring_symbol_multiplicative():
    rng = random.Random(9)
    beta = split_prime(89, SQRT2)
    for _ in range(100):
        x = QuadInt(SQRT2, rng.randrange(-30, 30), rng.randrange(-30, 30))
        y = QuadInt(SQRT2, rng.randrange(-30, 30), rng.randrange(-30, 30))
        try:
            sx, sy = ring_symbol(x, beta), ring_symbol(y, beta)
        except NotCoprime:
            continue
        assert ring_symbol(x * y, beta) == sx * sy


def test_ring_symbol_unit_eps2_is_octic_character():
    for p in primes_in(17, 2000, residue=1)[:100]:
        beta = split_prime(p, SQRT2)
        assert ring_symbol(_EPS2, beta) == octic_minus4(p)


def test_ring_symbol_errors():
    with pytest.raises(CompositeModulus):
        ring_symbol(QuadInt(GAUSS, 1, 1), QuadInt(GAUSS, 3, 0))  # norm 9
    beta = split_prime(17, GAUSS)
    with pytest.raises(NotCoprime):
        ring_symbol(beta, beta)


def test_symbol_capital_known_values():
    assert symbol_capital(17, 89, SQRT2) == 1
    assert symbol_capital(17, 137, SQRT2) == -1
    assert symbol_capital(41, 113, SQRT2) == 1


def test_symbol_capital_preconditions():
    with pytest.raises(UndefinedSymbol):
        symbol_capital(17, 41, SQRT2)  # (17/41) = -1
    with pytest.raises(UndefinedSymbol):
        symbol_capital(17, 17, SQRT2)
    with pytest.raises(UndefinedSymbol):
        symbol_capital(13, 17, SQRT2)  # 13 not 1 mod 8
    # primality comes before (p/l), which would find the shared factor 17
    with pytest.raises(BadResidueClass, match="split_prime needs a prime, got 697"):
        symbol_capital(17, 697, SQRT2)  # 697 = 17 * 41


def _admissible_pairs(bound, count, seed):
    ps = primes_in(17, bound, residue=1)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, l = rng.sample(ps, 2)
        if jacobi(p, l) == 1:
            out.append((p, l))
    return out


def test_gauss_symbol_is_burde_product():
    # [pi/lambda] = (p/l)_4 (l/p)_4
    for p, l in _admissible_pairs(3000, 60, seed=10):
        assert symbol_capital(p, l, GAUSS) == quartic_symbol(p, l) * quartic_symbol(l, p)


def test_three_ring_product_relation():
    # [P/L][P*/L*] = [pi/lambda]
    for p, l in _admissible_pairs(3000, 60, seed=11):
        lhs = symbol_capital(p, l, SQRT2) * symbol_capital(p, l, SQRTM2)
        assert lhs == symbol_capital(p, l, GAUSS)


def test_reciprocity_in_real_and_imaginary_rings():
    for p, l in _admissible_pairs(3000, 60, seed=12):
        assert symbol_capital(p, l, SQRT2) == symbol_capital(l, p, SQRT2)
        assert symbol_capital(p, l, SQRTM2) == symbol_capital(l, p, SQRTM2)


def test_conjugate_choice_does_not_change_symbol():
    for p, l in _admissible_pairs(2000, 40, seed=13):
        for ring in RINGS:
            base = symbol_capital(p, l, ring)
            pi_conj = primary_associate(split_prime(p, ring).conj())
            lam = primary_associate(split_prime(l, ring))
            lam_conj = primary_associate(split_prime(l, ring).conj())
            assert ring_symbol(pi_conj, lam) == base
            assert ring_symbol(pi_conj, lam_conj) == base
