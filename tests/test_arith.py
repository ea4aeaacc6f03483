import random
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cndescent.arith import (
    FactoredInteger,
    factor,
    half_symbols,
    jacobi,
    octic_minus4,
    octic_minus4_product,
    primes_in,
    quartic_symbol,
    quartic_symbol_product,
)
from cndescent.errors import (
    BadResidueClass,
    FactorBudgetExceeded,
    NonOddModulus,
    NotCoprime,
    UndefinedSymbol,
)


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
    for l in primes_in(5, 3000, residue=1, mod=4):
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


def test_octic_product_convention():
    assert octic_minus4_product(17 * 89) == octic_minus4(17) * octic_minus4(89)
    assert octic_minus4_product(1) == 1


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
    with pytest.raises(FactorBudgetExceeded):
        factor(10**19 + 1)


def test_factor_known_products():
    assert factor(4633).factors == ((41, 1), (113, 1))
    assert factor(93193).factors == ((41, 1), (2273, 1))
    assert factor(1513).factors == ((17, 1), (89, 1))
