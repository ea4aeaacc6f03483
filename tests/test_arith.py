import random
from itertools import compress
from math import gcd, prod

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

from cndescent.arith import (
    _FACTOR_LIMIT,
    _TABLE_BOUND,
    FactoredInteger,
    _probable_prime,
    _strong_lucas_probable_prime,
    factor,
    is_prime,
    jacobi,
    octic_minus4,
    primes_in,
    quartic_symbol,
)
from cndescent.errors import (
    BadResidueClass,
    BudgetExceeded,
    FactorBudgetExceeded,
    NonOddModulus,
    NotCoprime,
    UndefinedSymbol,
)

from witness_oracle import half_symbols, quartic_symbol_product


def euler(a: int, p: int) -> int:
    """Legendre symbol by the Euler criterion; independent oracle."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


# --- jacobi ---------------------------------------------------------------


def test_jacobi_against_euler_on_primes():
    rng = random.Random(1)
    for _ in range(300):
        p = sympy.prime(rng.randrange(2, 500))
        a = rng.randrange(1, p)
        assert jacobi(a, p) == euler(a, p)


def test_jacobi_against_sympy_composite_moduli():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(1, 10**6) * 2 + 1
        a = rng.randrange(-(10**6), 10**6)
        if gcd(a, n) != 1:
            continue
        assert jacobi(a, n) == sympy.jacobi_symbol(a, n)


def test_jacobi_multiplicative_both_arguments():
    rng = random.Random(3)
    checked = 0
    while checked < 1000:
        n = rng.randrange(1, 5000) * 2 + 1
        m = rng.randrange(1, 5000) * 2 + 1
        a = rng.randrange(1, 10**6)
        b = rng.randrange(1, 10**6)
        if gcd(a * b, n * m) != 1:
            continue
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)
        assert jacobi(a, n * m) == jacobi(a, n) * jacobi(a, m)
        checked += 1


def test_jacobi_periodicity_and_unit_modulus():
    assert jacobi(7, 1) == 1
    assert jacobi(100, 1) == 1
    assert jacobi(3 + 2 * 35, 35) == jacobi(3, 35)


def test_jacobi_errors():
    with pytest.raises(NonOddModulus):
        jacobi(3, 10)
    with pytest.raises(NonOddModulus):
        jacobi(3, -7)
    with pytest.raises(NotCoprime):
        jacobi(6, 9)
    with pytest.raises(NotCoprime):
        jacobi(0, 9)


@given(st.integers(1, 10**9), st.integers(0, 10**4))
def test_jacobi_square_numerator_is_plus_one(a, t):
    n = 2 * t + 1
    if gcd(a, n) != 1:
        return
    assert jacobi(a * a, n) == 1


# --- quartic symbol -------------------------------------------------------


def test_quartic_known_values():
    assert quartic_symbol(17, 89) == -1
    assert quartic_symbol(89, 17) == 1
    assert quartic_symbol(16, 17) == 1
    assert quartic_symbol(2, 17) == -1


def test_quartic_square_collapses_to_jacobi():
    rng = random.Random(4)
    for _ in range(200):
        l = sympy.prime(rng.randrange(3, 2000))
        if l % 4 != 1:
            continue
        a = rng.randrange(1, l)
        if a % l == 0:
            continue
        assert quartic_symbol(a * a, l) == jacobi(a, l)


def test_quartic_value_is_a_sign():
    for l in [q for q in primes_in(5, 3000) if q % 4 == 1]:
        for a in (2, 3, 5):
            if a % l == 0:
                continue
            if jacobi(a, l) == 1:
                assert quartic_symbol(a, l) in (1, -1)
            else:
                with pytest.raises(UndefinedSymbol):
                    quartic_symbol(a, l)


def test_quartic_multiplicative_when_defined():
    rng = random.Random(5)
    for _ in range(200):
        l = sympy.prime(rng.randrange(4, 2000))
        if l % 4 != 1:
            continue
        a, b = rng.randrange(1, l), rng.randrange(1, l)
        if a % l == 0 or b % l == 0:
            continue
        if jacobi(a, l) == 1 and jacobi(b, l) == 1:
            assert quartic_symbol(a * b, l) == quartic_symbol(a, l) * quartic_symbol(b, l)


def test_quartic_errors():
    with pytest.raises(BadResidueClass):
        quartic_symbol(2, 7)  # 7 = 3 mod 4
    with pytest.raises(BadResidueClass):
        quartic_symbol(2, 15)  # composite
    with pytest.raises(NotCoprime):
        quartic_symbol(34, 17)


def test_quartic_product_over_composite():
    # (a/pl)_4 = (a/p)_4 (a/l)_4 by definition
    assert quartic_symbol_product(2, 17 * 89) == quartic_symbol(2, 17) * quartic_symbol(2, 89)
    assert quartic_symbol_product(5, 1) == 1


# --- octic character ------------------------------------------------------


def test_octic_known_values():
    assert octic_minus4(17) == -1
    assert octic_minus4(41) == 1
    assert octic_minus4(73) == -1
    assert octic_minus4(89) == -1
    assert octic_minus4(97) == -1


def test_octic_oracle_discrete_log():
    # -4 = (1+i)^4 mod p, so its discrete log is divisible by 4, and the
    # octic character is +1 exactly when -4 is an eighth power
    for p in primes_in(17, 1200, residue=1):
        g = sympy.primitive_root(p)
        dlog = sympy.ntheory.residue_ntheory.discrete_log(p, (-4) % p, g)
        assert dlog % 4 == 0
        assert octic_minus4(p) == (1 if dlog % 8 == 0 else -1)


def test_octic_identity_with_half_symbols():
    for l in primes_in(17, 10**5, residue=1):
        two4, lhalf4 = half_symbols(l)
        assert octic_minus4(l) == two4 * lhalf4


def test_octic_errors():
    with pytest.raises(BadResidueClass):
        octic_minus4(5)
    with pytest.raises(BadResidueClass):
        octic_minus4(33)


# --- half symbols ---------------------------------------------------------


def test_half_symbols_known_values():
    assert half_symbols(17) == (-1, 1)
    assert half_symbols(41) == (-1, -1)
    assert half_symbols(73) == (1, -1)
    assert half_symbols(97) == (-1, 1)
    assert half_symbols(113) == (1, 1)


def test_half_symbols_second_component_is_mod16():
    for l in primes_in(17, 3000, residue=1):
        _, lhalf = half_symbols(l)
        assert lhalf == (1 if l % 16 == 1 else -1)


# --- factor ---------------------------------------------------------------


def test_factor_round_trip():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randrange(2, 10**9)
        f = factor(n)
        assert f.value == n
        assert all(sympy.isprime(p) for p, _ in f.factors)
    assert factor(-12) == FactoredInteger(-1, ((2, 2), (3, 1)))
    assert factor(1) == FactoredInteger(1, ())


def test_factor_budget():
    assert _FACTOR_LIMIT == 10**18
    with pytest.raises(FactorBudgetExceeded):
        factor(10**19 + 1)
    with pytest.raises(BudgetExceeded):  # one budget type for every caller
        factor(10**18 + 1)
    assert factor(_FACTOR_LIMIT).factors == ((2, 18), (5, 18))
    assert factor(-_FACTOR_LIMIT).sign == -1
    for n in (_FACTOR_LIMIT + 1, -_FACTOR_LIMIT - 1):
        with pytest.raises(
            FactorBudgetExceeded, match=rf"^\|{n}\| exceeds factoring budget {10**18}$"
        ):
            factor(n)
    with pytest.raises(BadResidueClass):
        factor(0)


def test_factor_known_products():
    assert factor(4633).factors == ((41, 1), (113, 1))
    assert factor(93193).factors == ((41, 1), (2273, 1))
    assert factor(1513).factors == ((17, 1), (89, 1))


def test_factor_against_sympy_random():
    rng = random.Random(18)
    for _ in range(150):
        n = rng.randrange(1, 10 ** rng.randrange(2, 19) + 1) * rng.choice((1, -1))
        f = factor(n)
        assert f.value == n
        assert dict(f.factors) == sympy.factorint(abs(n))


def test_factor_semiprimes_squares_and_powers():
    rng = random.Random(9)
    for _ in range(12):
        p, q = sorted(sympy.nextprime(rng.randrange(10**8, 10**9 - 100)) for _ in range(2))
        assert factor(p * q).factors == (((p, 2),) if p == q else ((p, 1), (q, 1)))
        assert factor(p * p).factors == ((p, 2),)
        r = sympy.nextprime(rng.randrange(10**8, 5 * 10**8))
        assert factor(-4 * r * r) == FactoredInteger(-1, ((2, 2), (r, 2)))
    for p in (1009, 65537, 999983, 10**6 + 3):
        for e in range(2, 7):
            if 7 * p**e <= 10**18:
                assert factor(p**e).factors == ((p, e),)
                assert factor(7 * p**e).factors == ((7, 1), (p, e))
    p, q = sympy.prevprime(10**6), sympy.nextprime(10**6)
    assert factor(p * q * q).factors == ((p, 1), (q, 2))


def test_factor_memo_matches_the_plain_function():
    """The memo returns what the unmemoized body computes, on a first call
    and on a repeat; it caches no error; and its results are frozen, which
    is what makes handing one object to every caller safe."""
    plain = factor.__wrapped__
    ns = (
        1, -1, 2, -2, -12, 2**59, -(3**37),  # units, negatives, small powers
        1009**5, 65537**3, (10**6 + 3) ** 2, -4 * 4633**2,  # prime powers, squares
        1009 * 1013, 999983 * 1000003, 10007 * 99999989, 999999937 * 99991,  # rho
    )
    for n in ns:
        first = factor(n)
        assert first == plain(n), n
        assert factor(n) is first, n
    for n, error in ((0, BadResidueClass), (_FACTOR_LIMIT + 1, FactorBudgetExceeded)):
        for _ in range(3):
            with pytest.raises(error):
                factor(n)
    f = factor(4633)
    with pytest.raises(AttributeError):
        f.factors = ()
    with pytest.raises(AttributeError):
        f.sign = -1
    assert factor(4633).factors == ((41, 1), (113, 1))


# --- primality and prime ranges ----------------------------------------------


def test_is_prime_below_10_6_against_sympy():
    n = 10**6
    assert list(compress(range(n), map(is_prime, range(n)))) == list(sympy.primerange(0, n))
    assert not any(is_prime(m) for m in range(-50, 2))


def test_is_prime_table_agrees_with_the_test_it_replaces():
    # every n the table answers and 2000 past its edge, against the
    # Miller-Rabin/BPSW path that answers from the edge on
    assert _TABLE_BOUND == 2**16
    ns = range(-10, _TABLE_BOUND + 2000)
    assert [n for n in ns if is_prime(n) != (n >= 2 and _probable_prime(n))] == []
    assert is_prime(65521) and not is_prime(65535) and not is_prime(65536) and is_prime(65537)


# the least strong pseudoprimes to the first k primes, k = 1..13 (ten distinct
# values): the Miller-Rabin base-set bounds, where each shorter base set fails
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
              5394826801, 232250619601, 9746347772161)


def test_is_prime_at_base_set_bounds_and_pseudoprimes():
    for n in STRONG_PSEUDOPRIMES:
        assert not is_prime(n)
        for m in (n - 2, n - 1, n + 1, n + 2):
            assert is_prime(m) == sympy.isprime(m), m
    for n in CARMICHAEL:
        assert not is_prime(n)


def test_is_prime_random_large_against_sympy():
    rng = random.Random(64)
    for _ in range(1500):
        n = rng.getrandbits(rng.randrange(64, 257)) | 1
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(60):
        bits = rng.randrange(32, 129)
        p = sympy.nextprime(rng.getrandbits(bits))
        q = sympy.nextprime(rng.getrandbits(bits))
        assert is_prime(p) and is_prime(q) and not is_prime(p * q)


def test_strong_lucas_against_sympy():
    """The Lucas half of BPSW, on every odd n in [43^2, 10^5) without a
    factor up to 41: its strong Lucas pseudoprimes (5459, 5777, ...) too."""
    small = prod(sympy.primerange(3, 42))
    for n in range(43 * 43, 10**5, 2):
        if gcd(n, small) == 1:
            assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


def test_strong_lucas_exits_when_a_selfridge_d_shares_a_factor():
    # n = 43 * 58717 has (D/n) != -1 for D = 5, -7, ..., 41, so the walk
    # reaches D = -43, which shares the factor 43 with n
    n = 2524831
    assert n == 43 * 58717
    assert all(jacobi((-1) ** i * (5 + 2 * i), n) != -1 for i in range(19))
    with pytest.raises(NotCoprime):
        jacobi(-43, n)
    assert _strong_lucas_probable_prime(n) is False


@pytest.mark.parametrize(
    "lo,hi", [(-10, 2), (0, 3), (2, 3), (3, 1000), (17, 4000), (997, 1009),
              (10**6 - 500, 10**6 + 500), (10**12, 10**12 + 10**4)]
)
def test_primes_in_against_primerange(lo, hi):
    expect = list(sympy.primerange(lo, hi))
    assert primes_in(lo, hi) == expect
    for residue in (1, 2, 3, 5, 7):
        assert primes_in(lo, hi, residue) == [p for p in expect if p % 8 == residue]


def test_primes_in_takes_any_residue_mod_8():
    # -1 and 9 are the classes 7 and 1, not empty ones
    expect = list(sympy.primerange(0, 500))
    for r in range(-16, 17):
        assert primes_in(0, 500, r) == [p for p in expect if p % 8 == r % 8], r
