"""Units, Pell representability, and strict form class groups.

The sweeps here are sized for the unit-test budget; the full-range versions
(l < 3000, p, l < 1000) run in the acceptance module.
"""

import random
from math import gcd, isqrt

import pytest

from cndescent.arith import jacobi, primes_in
from cndescent.errors import BadResidueClass, BudgetExceeded, PreconditionUnmet
from cndescent.quadring import SQRT2, symbol_capital
from classfield_oracle import (
    NoRepresentation,
    _reduce_form,
    form_class_group,
    fourth_power_class_test,
    fundamental_unit,
    pell_solvable,
    represented_value,
    scholz_case,
    strict_two_principal,
)


# --- fundamental units ------------------------------------------------------


def test_fundamental_unit_fixtures():
    assert fundamental_unit(2) == (1, 1, -1)
    assert fundamental_unit(34) == (35, 6, 1)
    assert fundamental_unit(82) == (9, 1, -1)


@pytest.mark.parametrize("d", [-3, 0, 1, 4])
def test_fundamental_unit_rejects_bad_d_by_its_own_guard(d):
    # negative d must reach the guard, not fail inside isqrt
    with pytest.raises(ValueError, match="need a nonsquare d >= 2"):
        fundamental_unit(d)
    with pytest.raises(ValueError, match="need a nonsquare d >= 2"):
        pell_solvable(d, 1)


def test_fundamental_unit_satisfies_norm_equation():
    for d in (2, 3, 5, 10, 34, 82, 146, 226, 1186, 1714):
        u, v, n = fundamental_unit(d)
        assert u * u - d * v * v == n
        assert n in (1, -1)
        assert v >= 1


def test_fundamental_unit_is_least():
    # no unit with smaller positive v
    for d in (2, 10, 34, 82, 146):
        _, v0, _ = fundamental_unit(d)
        for v in range(1, v0):
            for c in (1, -1):
                t = c + d * v * v
                assert t < 0 or isqrt(t) ** 2 != t


def test_fundamental_unit_rejects_squares():
    with pytest.raises(ValueError):
        fundamental_unit(9)
    with pytest.raises(ValueError):
        fundamental_unit(1)


# --- Pell representability --------------------------------------------------


def test_pell_fixtures():
    assert pell_solvable(34, 2) == (6, 1)
    assert pell_solvable(194, 2) == (14, 1)
    assert pell_solvable(34, -2) is None
    assert pell_solvable(2, -1) == (1, 1)
    assert pell_solvable(146, -2) == (12, 1)
    assert pell_solvable(82, 2) is None


def test_pell_solutions_check_out():
    for d in (34, 82, 146, 194, 226, 1186):
        for c in (2, -2, 1, -1):
            got = pell_solvable(d, c)
            if got is not None:
                x, y = got
                assert x * x - d * y * y == c


def test_pell_absence_is_real():
    # brute force confirms the certified misses for |c| < sqrt(d)
    for d, c in ((34, -2), (82, 2), (226, 2), (226, -2)):
        if pell_solvable(d, c) is None:
            for y in range(0, 2000):
                t = c + d * y * y
                assert t < 0 or isqrt(t) ** 2 != t


def test_pell_input_guards():
    with pytest.raises(BudgetExceeded):
        pell_solvable(34, 100)
    with pytest.raises(ValueError):
        pell_solvable(25, 2)
    with pytest.raises(ValueError):
        pell_solvable(34, 0)


# --- form class groups ------------------------------------------------------


def test_class_numbers_17_and_41():
    g = form_class_group(136)
    assert (g.h, g.h_plus, g.norm_eps) == (2, 4, 1)
    # cyclic of order 4: exactly two squares
    assert len(g.squares()) == 2
    assert g.fourth_powers() == frozenset({g.identity})

    g = form_class_group(328)
    assert (g.h, g.h_plus, g.norm_eps) == (4, 4, -1)
    assert len(g.squares()) == 2
    assert g.fourth_powers() == frozenset({g.identity})


@pytest.mark.parametrize("l", [17, 89, 113, 593])
def test_group_axioms(l):
    g = form_class_group(8 * l)
    n = g.h_plus
    table = [[g.compose(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        assert sorted(table[i]) == list(range(n))
        assert table[g.identity][i] == i
        for j in range(n):
            assert table[i][j] == table[j][i]
            for k in range(n):
                assert table[table[i][j]][k] == table[i][table[j][k]]


def test_compose_matches_the_united_form():
    # Dirichlet's definition: when gcd(a1, a2, (b1 + b2)/2) = 1 the classes of
    # (a1, b1, .) and (a2, b2, .) compose to (a1 a2, B, .), where B is the
    # unique value mod 2 a1 a2 agreeing with b1 mod 2 a1 and b2 mod 2 a2 and
    # with B^2 = D mod 4 a1 a2
    checked = 0
    for disc in (136, 328, 712, 904, 4744):
        g = form_class_group(disc)
        for i, ci in enumerate(g.cycles):
            for j, cj in enumerate(g.cycles):
                (a1, b1, _), (a2, b2, _) = ci[0], cj[0]
                if gcd(a1, a2, (b1 + b2) // 2) != 1:
                    continue
                a = a1 * a2
                (b,) = [
                    b for b in range(2 * abs(a))
                    if (b - b1) % (2 * a1) == 0
                    and (b - b2) % (2 * a2) == 0
                    and (b * b - disc) % (4 * a) == 0
                ]
                assert g.class_of((a, b, (b * b - disc) // (4 * a))) == g.compose(i, j)
                checked += 1
    assert checked == 132


def test_opposite_form_is_inverse():
    for disc in (136, 328, 904, 4744):
        g = form_class_group(disc)
        for cyc in g.cycles:
            a, b, c = cyc[0]
            assert g.compose(g.class_of((a, b, c)), g.class_of((a, -b, c))) == g.identity


def _transformed(form, x, r, y, s):
    a, b, c = form
    return (
        a * x * x + b * x * y + c * y * y,
        2 * a * x * r + b * (x * s + y * r) + 2 * c * y * s,
        a * r * r + b * r * s + c * s * s,
    )


def test_reduction_respects_equivalence():
    # random proper transforms land back in the same cycle
    rng = random.Random(11)
    for disc in (712, 4744):
        g = form_class_group(disc)
        for i, cyc in enumerate(g.cycles):
            for _ in range(25):
                x, r, y, s = 1, 0, 0, 1
                for _ in range(6):
                    k = rng.randint(-3, 3)
                    x, r, y, s = x, r + k * x, y, s + k * y
                    x, r, y, s = r, -x, s, -y
                assert x * s - y * r == 1
                h = _transformed(cyc[0], x, r, y, s)
                assert g._index[_reduce_form(h, disc)] == i


def test_class_group_guards():
    with pytest.raises(ValueError):
        form_class_group(137)  # odd discriminant unsupported
    with pytest.raises(ValueError):
        form_class_group(144)  # square
    with pytest.raises(BudgetExceeded):
        form_class_group(8 * 10**5)
    g = form_class_group(136)
    with pytest.raises(ValueError):
        g.class_of((1, 2, -3))  # wrong discriminant
    with pytest.raises(ValueError):
        form_class_group(160).class_of((2, 4, -18))  # imprimitive


def test_h_plus_doubles_h_only_for_positive_norm():
    for l in (17, 41, 73, 89, 97, 113):
        g = form_class_group(8 * l)
        assert g.h_plus == (g.h if g.norm_eps == -1 else 2 * g.h)


# --- Scholz case split ------------------------------------------------------


def test_scholz_fixtures():
    c17 = scholz_case(17)
    assert c17.case == "split-1"
    assert c17.admits(1, 2, 4)
    assert not c17.admits(-1, 2, 4)
    assert not c17.admits(1, 4, 4)

    c41 = scholz_case(41)
    assert c41.case == "split-2"
    assert c41.admits(-1, 4, 4)

    c73 = scholz_case(73)
    assert c73.case == "split-1"

    c113 = scholz_case(113)
    assert c113.case == "split-3"
    assert c113.admits(1, 4, 8) and c113.admits(-1, 8, 8)
    assert not c113.admits(1, 4, 4)

    assert scholz_case(5).case == "2-nonresidue"
    assert scholz_case(13).admits(-1, 2, 2)


def test_scholz_rejects():
    with pytest.raises(BadResidueClass):
        scholz_case(7)
    with pytest.raises(BadResidueClass):
        scholz_case(25)


def test_scholz_against_computed_invariants():
    for l in [q for q in primes_in(5, 600) if q % 4 == 1]:
        pred = scholz_case(l)
        _, _, ne = fundamental_unit(2 * l)
        g = form_class_group(8 * l)
        assert pred.admits(ne, g.h, g.h_plus), (l, pred, ne, g.h, g.h_plus)


# --- the two descent-facing predicates ---------------------------------------


def test_strict_two_principal_fixtures():
    assert strict_two_principal(17) is True
    assert strict_two_principal(97) is True
    with pytest.raises(PreconditionUnmet):
        strict_two_principal(41)
    with pytest.raises(BadResidueClass):
        strict_two_principal(33)
    with pytest.raises(BadResidueClass):
        strict_two_principal(13)


def test_strict_two_principal_matches_quartic_symbol():
    from cndescent.arith import octic_minus4
    from witness_oracle import half_symbols

    for l in primes_in(17, 800, residue=1):
        if octic_minus4(l) != -1:
            continue
        assert strict_two_principal(l) == (half_symbols(l)[0] == -1), l


def test_fourth_power_class_fixtures():
    assert fourth_power_class_test(17, 89) is True
    assert fourth_power_class_test(41, 113) is True
    assert fourth_power_class_test(17, 137) is False


def test_fourth_power_class_guards():
    with pytest.raises(NoRepresentation):
        fourth_power_class_test(17, 97)  # (17/97) = -1
    with pytest.raises(BadResidueClass):
        fourth_power_class_test(5, 13)
    with pytest.raises(BadResidueClass):
        fourth_power_class_test(17, 17)


def test_fourth_power_class_matches_ring_symbol():
    ps = list(primes_in(17, 400, residue=1))
    checked = 0
    for p in ps:
        for l in ps:
            if p == l or jacobi(p, l) != 1:
                continue
            want = symbol_capital(p, l, SQRT2) == 1
            assert fourth_power_class_test(p, l) == want, (p, l)
            checked += 1
    assert checked >= 40


# --- genus characters and ambiguous classes ---------------------------------


def test_genus_base_case():
    # a class is a square iff its values have trivial characters at both
    # prime discriminants (8 and l)
    for l in (17, 41, 89, 113):
        g = form_class_group(8 * l)
        sq = g.squares()
        for i, cyc in enumerate(g.cycles):
            a = represented_value(cyc[0], 2 * l)
            chi2 = (-1) ** (((a * a - 1) // 8) % 2)
            chil = jacobi(a, l)
            assert (i in sq) == (chi2 == 1 and chil == 1), (l, i, a)


def test_wide_principality_of_two_matches_unit_norm():
    # in Z[sqrt(2l)] the ideal above 2 is principal iff the fundamental
    # unit has norm +1; the analogue fails for Z[sqrt(2)] itself, where
    # sqrt(2) generates the ideal even though the unit norm is -1
    for l in primes_in(17, 800, residue=1):
        wide = (
            pell_solvable(2 * l, 2) is not None
            or pell_solvable(2 * l, -2) is not None
        )
        assert wide == (fundamental_unit(2 * l)[2] == 1), l
    assert fundamental_unit(2)[2] == -1
    assert pell_solvable(2, 2) == (2, 1)
