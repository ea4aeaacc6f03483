"""Local solvability, Selmer groups, point search, and the full descent."""

import dataclasses
import os
import subprocess
import sys
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cndescent
from cndescent import cli, descent
from cndescent.arith import factor, jacobi, primes_in
from cndescent.criteria import Classification
from cndescent.descent import (
    PHI,
    PSI,
    Torsor,
    TorsorPoint,
    descend,
    enumerate_torsors,
    locally_solvable,
    search_points,
    selmer_group,
    solvable_at,
    _free_classes,
    _torsor_constant,
)
from cndescent.errors import BadResidueClass, InconsistentCriteria, PreconditionUnmet
from cndescent.sqclass import SquareClassGroup, squarefree_mul


def test_curve_pair_constants():
    """b1*b2 is -k^2 on the psi side and 4k^2 (odd k) or k^2/4 (even k) on phi."""
    for k, side, const in (
        (33, PSI, -(33**2)),
        (33, PHI, 4 * 33**2),
        (82, PSI, -(82**2)),
        (82, PHI, 82**2 // 4),
    ):
        ts = enumerate_torsors(k, side)
        assert ts and all(t.b1 * t.b2 == const for t in ts.values())
    with pytest.raises(ValueError):
        enumerate_torsors(0, PSI)


def test_enumerate_torsors_shapes():
    cases = [
        (82, [1, -1, 2, -2, 41, -41, 82, -82], [1, 41], 82**2 // 4),
        # odd k: the phi constant is 4k^2, so 2 joins the phi classes
        (33, [1, -1, 3, -3, 11, -11, 33, -33], [1, 2, 3, 6, 11, 22, 33, 66], 4 * 33**2),
    ]
    for k, psi_classes, phi_classes, phi_constant in cases:
        ts = enumerate_torsors(k, PSI)
        assert sorted(ts) == sorted(psi_classes)
        for b1, t in ts.items():
            assert t.b1 == b1 and t.b1 * t.b2 == -(k**2)
        tphi = enumerate_torsors(k, PHI)
        assert sorted(tphi) == phi_classes
        assert all(t.b1 * t.b2 == phi_constant for t in tphi.values())


def test_free_classes_lie_on_their_torsors():
    for k in (1, 33, 82, 145, 1513):
        for side in (PSI, PHI):
            ts = enumerate_torsors(k, side)
            for b1, pt in _free_classes(k, side).items():
                assert b1 in ts
                assert pt.on(ts[b1])


def test_point_validity():
    t = Torsor(PSI, 41, -(4633**2) // 41)
    assert TorsorPoint(3936, 25, 1).on(t)
    assert not TorsorPoint(3936, 25, 2).on(t)


# --- local solvability -------------------------------------------------------


def test_real_place_rules_out_double_negative():
    assert not locally_solvable(-3, -3)


def test_fourth_power_shortcut():
    # -b2/b1 = 16 is a rational fourth power: M/e = 2 gives N = 0
    assert locally_solvable(1, -16)
    assert solvable_at(1, -16, 2)


def test_phi_class_two_fails_for_33():
    # k = 33: the phi torsor with b1 = 2 has no 2-adic point
    assert not locally_solvable(2, 2 * 33**2)


def test_small_known_points_imply_solvability():
    # (24, 1, 1) on -2 M^4 + 578 e^4 (k = 34) and (17, 1, 1) on
    # 17 M^4 + 272 e^4: classes with global points pass every local test
    assert locally_solvable(-2, 578)
    assert locally_solvable(17, 272)


def _val(n, q):
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def _is_fourth_power_in_qq(num, den, q):
    """Exact test for num/den in (Q_q^x)^4."""
    v = _val(num, q) - _val(den, q)
    if v % 4 != 0:
        return False
    nu = num // q ** _val(num, q)
    du = den // q ** _val(den, q)
    if q == 2:
        return nu * pow(du, -1, 16) % 16 == 1  # (Z_2^x)^4 = 1 + 16 Z_2
    u = nu * pow(du, -1, q) % q
    return pow(u, (q - 1) // gcd(4, q - 1), q) == 1


def _chart_solvable(b1, b2, q, initial_depth):
    """Does N^2 = b1 z^4 + b2 have a solution with z in Z_q (depth 0)
    or z in q Z_q (depth 1)?

    BFS over residue classes z = c mod q^m with exact integer arithmetic.
    A class is decided once the valuation v of t(c) = b1 c^4 + b2 is
    pinned below the modulus with at least 1 (odd q) or 3 (q = 2) unit
    digits visible; t(c) = 0 is an exact N = 0 solution.
    """
    need = 3 if q == 2 else 1
    cap = _val(16 * (b1 * b2) ** 2, q) + 3
    frontier = [(0, initial_depth)]
    while frontier:
        next_frontier = []
        for c, m in frontier:
            t = b1 * c**4 + b2
            if m > 0:
                if t == 0:
                    return True
                v = _val(t, q)
                if v < m and m - v >= need:
                    if v % 2 == 0:
                        u = t // q**v
                        if q == 2:
                            if u % 8 == 1:
                                return True
                        elif pow(u % q, (q - 1) // 2, q) == 1:
                            return True
                    continue  # decided: not a square on this class
            assert m < cap, (b1, b2, q)
            step = q**m
            next_frontier.extend((c + j * step, m + 1) for j in range(q))
        frontier = next_frontier
    return False


def reference_solvable_at(b1, b2, q):
    """Residue-class search oracle for solvable_at: a q-adic fourth root of
    -b2/b1 is an N = 0 point, and it also makes the search terminate."""
    if _is_fourth_power_in_qq(-b2, b1, q):
        return True
    return _chart_solvable(b1, b2, q, 0) or _chart_solvable(b2, b1, q, 1)


def test_solvable_at_matches_residue_search():
    for q in (2, 3, 5, 7, 11, 13):
        for b1 in range(-40, 41):
            for b2 in range(-40, 41):
                if b1 and b2:
                    assert solvable_at(b1, b2, q) == reference_solvable_at(
                        b1, b2, q
                    ), (b1, b2, q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_solvable_at_matches_residue_search_on_valuations(q):
    # every valuation pair 0..4, so each normalised case and each fold
    bs = [u * q**v for u in range(-15, 16) if u % q for v in range(5)]
    for b1 in bs:
        for b2 in bs:
            assert solvable_at(b1, b2, q) == reference_solvable_at(b1, b2, q), (
                b1, b2, q,
            )


def _is_2adic_square(t):
    """Is the nonzero integer t a square in Q_2?"""
    v = (t & -t).bit_length() - 1
    return v % 2 == 0 and (t >> v) % 8 == 1


def reference_solvable_at_2(b1, b2):
    """Pair-search oracle for solvable_at at q = 2.

    Normalise as solvable_at does (a, b mod 4, both lowered by 2 when both
    are >= 2, a <= b). If a = b and u1 + u2 = 0 mod 16, -b2/b1 is a 2-adic
    fourth power: a point with N = 0. Otherwise v(t) <= a + 3, so t mod
    2^(a+6) decides whether t is a square; (M, e) mod 16 fixes it, as
    (M + 16j)^4 = M^4 mod 64, and the 192 pairs below 16 with M or e odd
    cover every primitive class.
    """
    a = (b1 & -b1).bit_length() - 1
    b = (b2 & -b2).bit_length() - 1
    u1, u2 = b1 >> a, b2 >> b
    a, b = a % 4, b % 4
    if a >= 2 and b >= 2:
        a, b = a - 2, b - 2
    if a > b:
        a, b, u1, u2 = b, a, u2, u1
    if a == b and (u1 + u2) % 16 == 0:
        return True
    return any(
        _is_2adic_square((u1 << a) * m**4 + (u2 << b) * e**4)
        for m in range(16)
        for e in range(16)
        if (m | e) & 1
    )


def test_solvable_at_2_matches_pair_search():
    # every valuation pair 0..3 and every odd unit part pair 1..63 (the
    # pair search sees the unit parts only mod 64)
    units = range(1, 64, 2)
    for a in range(4):
        for b in range(4):
            for u1 in units:
                for u2 in units:
                    b1, b2 = u1 << a, u2 << b
                    assert solvable_at(b1, b2, 2) == reference_solvable_at_2(
                        b1, b2
                    ), (b1, b2)


@settings(max_examples=60, deadline=None)
@given(
    b1=st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0),
    b2=st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0),
    s=st.integers(min_value=1, max_value=7),
    q=st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_local_solvability_square_invariant(b1, b2, s, q):
    # scaling both coefficients by s^2 rescales N and changes nothing
    assert solvable_at(b1, b2, q) == solvable_at(b1 * s * s, b2 * s * s, q)


# --- Selmer groups ------------------------------------------------------------


def test_selmer_2_times_41():
    assert selmer_group(82, PSI) == SquareClassGroup.span(-1, 2, 41)
    assert selmer_group(82, PHI) == SquareClassGroup.span(41)


def test_selmer_both_one_mod_8_families():
    # 1513 = 17 * 89 with (17/89) = +1
    assert selmer_group(1513, PSI) == SquareClassGroup.span(-1, 17, 89)
    assert selmer_group(1513, PHI) == SquareClassGroup.span(2, 17, 89)
    # 697 = 17 * 41 with (17/41) = -1
    assert selmer_group(697, PSI) == SquareClassGroup.span(-1, 697)
    assert selmer_group(697, PHI) == SquareClassGroup.span(2, 697)


def test_selmer_small_residue_families():
    assert selmer_group(145, PSI) == SquareClassGroup.span(-1, 145)
    assert selmer_group(145, PHI) == SquareClassGroup.span(5, 29)
    assert selmer_group(65, PHI) == SquareClassGroup.span(10, 26)
    assert selmer_group(33, PSI) == SquareClassGroup.span(-1, 33)
    assert selmer_group(33, PHI) == SquareClassGroup.trivial()
    assert selmer_group(161, PSI) == SquareClassGroup.span(-1, 7, 23)
    assert selmer_group(161, PHI) == SquareClassGroup.span(2)


def test_selmer_iterates_in_torsor_order():
    """descend walks selmer_group in place of the torsor dict: same classes,
    same order, and the torsor it builds from the side constant is the dict's."""
    for k in range(1, 2000):
        for side in (PSI, PHI):
            torsors = enumerate_torsors(k, side)
            sel = selmer_group(k, side)
            assert list(sel) == [b1 for b1 in torsors if b1 in sel], (k, side)
            const = _torsor_constant(k, side)
            for b1 in sel:
                assert Torsor(side, b1, const // b1) == torsors[b1], (k, side, b1)


# --- point search -------------------------------------------------------------


def test_search_finds_known_witnesses():
    t_psi = Torsor(PSI, 41, -(4633**2) // 41)
    pts = search_points(t_psi, 30, stop_at_first=True)
    assert pts and pts[0].on(t_psi)
    t_phi = Torsor(PHI, 2, 2 * 4633**2)
    pts2 = search_points(t_phi, 50, stop_at_first=True)
    assert pts2 and pts2[0].on(t_phi)


def test_search_respects_primitivity():
    t = Torsor(PSI, 1, -(5**2))
    for pt in search_points(t, 12):
        assert gcd(pt.M, pt.e) == 1


def reference_search_points(torsor, height, stop_at_first=False):
    """Scan oracle for search_points: every (M, e) in the interval where
    b1 M^4 + b2 e^4 >= 0, e ascending, then M ascending."""
    b1, b2 = torsor.b1, torsor.b2
    found = []
    if b1 < 0 and b2 < 0:
        return found
    for e in range(height + 1):
        # M bounds from exact fourth roots; m_lo may sit one below the
        # first M with b1 M^4 + b2 e^4 >= 0, which the t < 0 test skips
        if b1 > 0:
            m_lo = 0 if b2 >= 0 else isqrt(isqrt(-b2 * e**4 // b1))
            m_hi = height
        else:
            m_lo = 0
            m_hi = min(height, isqrt(isqrt(b2 * e**4 // -b1)))
        for m in range(m_lo, m_hi + 1):
            if gcd(m, e) != 1:
                continue
            t = b1 * m**4 + b2 * e**4
            if t < 0:
                continue
            n = isqrt(t)
            if n * n == t:
                found.append(TorsorPoint(n, m, e))
                if stop_at_first:
                    return found
    return found


@settings(max_examples=150, deadline=None)
@given(
    b1=st.integers(min_value=-40, max_value=40).filter(lambda n: n != 0),
    b2=st.integers(min_value=-3000, max_value=3000).filter(lambda n: n != 0),
    height=st.integers(min_value=0, max_value=60),
)
# N = 0 points sit exactly on the M bounds: (0, 2, 1) on both torsors
@example(b1=1, b2=-16, height=3)
@example(b1=-1, b2=16, height=3)
def test_search_matches_brute_force(b1, b2, height):
    # every primitive point with 0 <= M, e <= height, in the order the scan
    # visits them: e ascending, then M ascending
    expected = [
        TorsorPoint(isqrt(t), m, e)
        for e in range(height + 1)
        for m in range(height + 1)
        if gcd(m, e) == 1
        and (t := b1 * m**4 + b2 * e**4) >= 0
        and isqrt(t) ** 2 == t
    ]
    t = Torsor(PSI, b1, b2)
    assert reference_search_points(t, height) == expected  # the cut drops none
    assert search_points(t, height) == expected
    assert search_points(t, height, stop_at_first=True) == expected[:1]


@settings(max_examples=60, deadline=None)
@given(
    b1=st.integers(min_value=1, max_value=200),
    b2=st.integers(min_value=1, max_value=20000),
    height=st.integers(min_value=0, max_value=60),
)
@example(b1=17, b2=272, height=5)  # (17, 1, 1)
@example(b1=1, b2=1, height=60)  # only the points with M e = 0
def test_search_matches_brute_force_without_interval_cut(b1, b2, height):
    # phi-like torsors: b1, b2 > 0, so every M in [0, height] is a candidate
    t = Torsor(PHI, b1, b2)
    expected = reference_search_points(t, height)
    assert search_points(t, height) == expected
    assert search_points(t, height, stop_at_first=True) == expected[:1]


def test_search_matches_reference_on_selmer_torsors():
    """Every torsor descend may search: both Selmer groups of each
    squarefree k < 300, full point lists with their order, at height 120."""
    n_points = 0
    for k in range(1, 300):
        if factor(k).squarefree_part() != k:
            continue
        for side in (PSI, PHI):
            const = _torsor_constant(k, side)
            for b1 in selmer_group(k, side):
                t = Torsor(side, b1, const // b1)
                pts = search_points(t, 120)
                assert pts == reference_search_points(t, 120), (k, side, b1)
                n_points += len(pts)
    assert n_points >= 1000  # the sweep must actually exercise points


# Selmer torsors of these k have first points on both sides of the block
# edges (e = 0, 1, 4, 7, 8, 9, 13, 16, 17, 19, 25, 30, 31, 39, 41, 43, 52,
# 59, 75, 84, 93), and six have none at height 120
_BLOCK_EDGE_KS = (38, 61, 69, 77, 94, 137, 226, 230, 238, 257, 287)


@pytest.mark.parametrize("budget", [1, 24, 100, descent._BLOCK_BYTES])
def test_search_matches_reference_across_block_edges(monkeypatch, budget):
    """Heights whose last e falls on either side of a block edge: blocks
    grow 4-fold from 2 rows, so the first ones end below e = 2, 10 and 42,
    and a last block takes the rest or is cut short. The small budgets cap
    a block at a few rows, so later blocks start at every e0 mod q."""
    monkeypatch.setattr(descent, "_BLOCK_BYTES", budget)
    n_points = 0
    for k in _BLOCK_EDGE_KS:
        for side in (PSI, PHI):
            const = _torsor_constant(k, side)
            for b1 in selmer_group(k, side):
                t = Torsor(side, b1, const // b1)
                every = reference_search_points(t, 120)
                for height in (1, 2, 3, 7, 8, 9, 10, 11, 23, 24, 41, 42, 43, 56, 120):
                    expected = [pt for pt in every if max(pt.M, pt.e) <= height]
                    assert search_points(t, height) == expected, (t, height)
                    assert search_points(t, height, stop_at_first=True) == expected[:1]
                n_points += len(every)
    assert n_points >= 50


# --- full descent -------------------------------------------------------------


def test_descend_k1_is_noncongruent():
    rep = descend(1, height=20)
    assert rep.rank_upper == 0 and rep.noncongruent
    assert rep.sha2_dim == 0


def test_descend_34_rank_two():
    rep = descend(34, height=100)
    assert rep.selmer_psi == SquareClassGroup.span(-1, 2, 17)
    assert rep.selmer_phi == SquareClassGroup.span(17)
    assert rep.rank_lower == 2 and rep.rank_upper == 2
    assert not rep.noncongruent


def test_descend_82_certified_rank_zero():
    rep = descend(82, height=50)
    assert rep.rank_upper == 0
    assert rep.noncongruent
    assert rep.sha_psi_cert == SquareClassGroup.span(41)
    assert rep.sha_phi_cert == SquareClassGroup.span(41)
    assert rep.sha2_dim == 2
    assert not rep.notes


def test_descend_4633_rank_two_with_witnesses():
    rep = descend(4633, height=60)
    assert rep.rank_lower == 2 and rep.rank_upper == 2
    assert rep.sha_phi_cert == SquareClassGroup.span(41, 113)
    assert 41 in rep.witnesses[PSI] and 2 in rep.witnesses[PHI]
    assert rep.witnesses[PSI][41].on(Torsor(PSI, 41, -(4633**2) // 41))


def test_descend_17_consistent():
    rep = descend(17, height=60)
    assert rep.rank_lower <= rep.rank_upper
    assert rep.w_psi <= rep.selmer_psi
    assert rep.w_phi <= rep.selmer_phi


def _f2_rank(rows: list[int]) -> int:
    """Rank over F2 of a matrix given as one bitmask per row."""
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def monsky_s(k: int) -> int:
    """Monsky's 2-Selmer rank s(k) = dim Sel_2(E_k) - 2 for squarefree k with
    an odd prime factor (appendix to D. R. Heath-Brown, Invent. Math. 118
    (1994)): 2t minus the F2 rank of a 2t x 2t matrix over the t odd primes
    p_i of k.

    With [u/p] = 0 or 1 as u is or is not a square mod p, A has entries
    [p_j/p_i] off the diagonal and each row's sum on it, and D_u is the
    diagonal matrix of the [u/p_i]. The matrix is [[A+D_2, D_2], [D_2,
    A+D_-2]] for odd k and [[D_2, A+D_2], [A^T+D_2, D_-1]] for even k.
    """
    ps = [q for q, _ in factor(k).factors if q != 2]
    t = len(ps)

    def bit(u, q):
        return int(jacobi(u, q) == -1)

    a = [[bit(pj, pi) if i != j else 0 for j, pj in enumerate(ps)] for i, pi in enumerate(ps)]
    for i in range(t):
        a[i][i] = sum(a[i]) % 2

    def d(u):
        return [[bit(u, pi) if i == j else 0 for j in range(t)] for i, pi in enumerate(ps)]

    def add(x, y):
        return [[(u + v) % 2 for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]

    a_t = [list(col) for col in zip(*a)]
    if k % 2:
        blocks = ((add(a, d(2)), d(2)), (d(2), add(a, d(-2))))
    else:
        blocks = ((d(2), add(a, d(2))), (add(a_t, d(2)), d(-1)))
    rows = [
        int("".join(map(str, left[i] + right[i])), 2)
        for left, right in blocks
        for i in range(t)
    ]
    return 2 * t - _f2_rank(rows)


def test_descent_agrees_with_monsky_selmer_rank():
    """Against Monsky's closed form, on every squarefree k < 1000 with an odd
    prime factor: the found rank is at most s(k); the 2-isogeny bound
    dim Sel^psi + dim Sel^phi - 2 exceeds s(k) by 0 or 2; and s(k) is odd
    exactly when k = 5, 6, 7 mod 8. These are facts checked over this
    range, not theorems the test relies on."""
    ks = [k for k in range(3, 1000) if factor(k).squarefree_part() == k]
    assert len(ks) == 606
    gaps = []
    for k in ks:
        s = monsky_s(k)
        rep = descend(k, 200)
        assert rep.rank_lower <= s, k
        gap = rep.selmer_psi.dim + rep.selmer_phi.dim - 2 - s
        assert gap in (0, 2), k
        assert (s % 2 == 1) == (k % 8 in (5, 6, 7)), k
        gaps.append(gap)
    assert gaps.count(0) == 571


def tunnell_counts(n: int) -> tuple[int, int]:
    """Tunnell's counts (A, B) for squarefree n (J. B. Tunnell, Invent.
    Math. 72 (1983)): for odd n, the integer solutions of 2x^2 + y^2 + 8z^2
    = n and of 2x^2 + y^2 + 32z^2 = n; for even n, the same with 4x^2 in
    place of 2x^2, counted against n/2."""
    a, m = (2, n) if n % 2 else (4, n // 2)

    def count(c: int) -> int:
        xs, zs = isqrt(m // a), isqrt(m // c)
        total = 0
        for x in range(-xs, xs + 1):
            for z in range(-zs, zs + 1):
                r = m - a * x * x - c * z * z
                if r >= 0 and isqrt(r) ** 2 == r:
                    total += 1 if r == 0 else 2  # y = 0, or y = +-sqrt(r)
        return total

    return count(8), count(32)


def test_descent_agrees_with_tunnell():
    """Against Tunnell's theorem, on every squarefree k < 1000. A congruent
    k has A = 2B (unconditional, by Coates-Wiles), so every k whose descent
    found a point of infinite order (205 k) has A = 2B. Every k whose rank
    bound is 0 (166 k) has A != 2B; that rests on the converse, which needs
    the Birch and Swinnerton-Dyer conjecture, so it is a fact checked over
    this range, not a theorem the test relies on."""
    ks = [k for k in range(1, 1000) if factor(k).squarefree_part() == k]
    assert len(ks) == 608
    witnessed = bounded = 0
    for k in ks:
        rep = descend(k, 200)
        a, b = tunnell_counts(k)
        if rep.rank_lower > 0:
            assert a == 2 * b, k
            witnessed += 1
        if rep.rank_upper == 0:
            assert a != 2 * b, k
            bounded += 1
    assert (witnessed, bounded) == (205, 166)


def test_descend_factors_each_integer_once():
    """Every torsor of a side has the same constant b1 b2, so through the
    memoized factor a descend factors three integers once each: -k^2, the
    phi constant k^2/4 and k (for the torsion classes and the criteria)."""
    k = 30030
    factor.cache_clear()
    descend(k, 50)
    done = factor.cache_info()
    assert done.misses == 3 and done.hits > 100
    for n in (-k * k, k * k // 4, k):
        factor(n)
    assert factor.cache_info().misses == 3


def test_descend_enumerates_each_side_once(monkeypatch):
    calls = []

    def counted(k, side):
        calls.append(side)
        return enumerate_torsors(k, side)

    monkeypatch.setattr(descent, "enumerate_torsors", counted)
    descend(30030, 50)
    assert sorted(calls) == [PHI, PSI]


def test_descend_reports_criteria_it_contradicts(monkeypatch, capsys):
    # criteria that disagree with the computed Selmer groups: the mismatch
    # is noted and a certificate outside the Selmer group is dropped
    real = descent.classify_auto

    def wrong(k):
        return dataclasses.replace(
            real(k),
            selmer_phi=SquareClassGroup.span(2),
            sha_psi=SquareClassGroup.span(3),
        )

    monkeypatch.setattr(descent, "classify_auto", wrong)
    notes = (
        "dropping psi obstruction certificate <3>: not inside the Selmer group",
        "selmer mismatch on phi: computed <2, 41, 113>, criteria expected <2>",
    )
    rep = descend(4633, 50)
    assert rep.notes == notes
    assert rep.sha_psi_cert == SquareClassGroup.trivial()
    assert cli.main(["classify", "--k", "4633", "--height", "50"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [f"note: {n}" for n in notes] == out[-2:]


def _certify_30030(monkeypatch, sha_psi: SquareClassGroup) -> None:
    """Criteria for k = 30030, which no family covers, that agree with the
    computed Selmer groups and certify sha_psi."""
    sel = {side: selmer_group(30030, side) for side in (PSI, PHI)}
    cls = Classification("test", 2310, 13, sel[PSI], sel[PHI], sha_psi=sha_psi, w_phi=sel[PHI])
    monkeypatch.setattr(descent, "classify_auto", lambda k: cls)


def test_descend_skips_w_times_sha(monkeypatch):
    # W^psi starts as the torsion {+-1, +-30030}; with Sha^psi = <-2145> no
    # class of W * Sha outside W has a point, so none is searched (descend
    # once searched 14, -14 and 2145), nor any product with a W class found
    _certify_30030(monkeypatch, SquareClassGroup.span(-2145))
    searched = []

    def recorded(torsor, height, stop_at_first=False):
        searched.append(torsor.b1)
        return search_points(torsor, height, stop_at_first)

    monkeypatch.setattr(descent, "search_points", recorded)
    rep = descend(30030, 50)
    assert rep.notes == () and rep.sha_psi_cert == SquareClassGroup.span(-2145)
    assert rep.w_psi == SquareClassGroup.span(-1, 66, 455)
    torsion_sha = {squarefree_mul(w, s) for w in (1, -1, 30030, -30030) for s in (1, -2145)}
    assert searched and torsion_sha.isdisjoint(searched)
    # every class left outside W * Sha, the open classes, was searched once
    w_sha = {squarefree_mul(w, s) for w in rep.w_psi for s in (1, -2145)}
    assert set(rep.selmer_psi) - w_sha <= set(searched)
    assert len(set(searched)) == len(searched)


def test_descend_refuses_a_certified_torsion_class(monkeypatch):
    # -1 carries the point (k, 0, 1), so a certificate naming it is wrong
    _certify_30030(monkeypatch, SquareClassGroup.span(-1))
    with pytest.raises(InconsistentCriteria, match="torsion class"):
        descend(30030, 50)


def test_descend_drops_a_w_bound_outside_the_selmer_group(monkeypatch):
    # criteria whose W^phi bound holds 3, a class outside Sel^phi(1513) =
    # <2, 17, 89>: the bound is dropped with a note, so the phi search walks
    # Sel^phi instead and no torsor outside a Selmer group is searched
    real = descent.classify_auto
    forged = SquareClassGroup.span(3, 3026)
    monkeypatch.setattr(
        descent, "classify_auto", lambda k: dataclasses.replace(real(k), w_phi=forged)
    )
    searched = []

    def recorded(torsor, height, stop_at_first=False):
        searched.append((torsor.side, torsor.b1))
        return search_points(torsor, height, stop_at_first)

    monkeypatch.setattr(descent, "search_points", recorded)
    rep = descend(1513, 50)
    assert rep.notes == ("dropping phi W bound <3, 3026>: not inside the Selmer group",)
    selmer = {PSI: rep.selmer_psi, PHI: rep.selmer_phi}
    assert all(b1 in selmer[side] for side, b1 in searched)
    assert (PHI, 3) not in searched and (PHI, 89) in searched
    assert rep.w_phi == SquareClassGroup.span(3026) and rep.rank_lower == 2


def test_descend_refuses_a_rank_above_the_bound(monkeypatch):
    # 34 has rank 2 and descend finds both points by height 100, so a bound
    # of 0 contradicts them
    monkeypatch.setattr(descent, "selmer_rank_bound", lambda *groups: (0, 0))
    with pytest.raises(InconsistentCriteria, match="found rank 2 exceeds certified bound 0"):
        descend(34, 100)


def _certified_ks() -> list[int]:
    """Every k = pl with p, l in one residue class mod 8 (primes below 600
    for residue 1, below 300 for 3, 5 and 7), and k = 2p for p = 1 mod 8
    below 2000: the families whose criteria certify Sha classes."""
    ks = [2 * p for p in primes_in(0, 2000, 1)]
    for residue, bound in ((1, 600), (5, 300), (7, 300), (3, 300)):
        ps = primes_in(0, bound, residue)
        ks += [p * l for i, p in enumerate(ps) for l in ps[i + 1 :]]
    return ks


def test_no_point_on_a_class_of_w_times_sha():
    # descend never searches w s for w in W and a certified s != 1; this is
    # the independent check that such a torsor has no point to height 100
    torsors = 0
    for k in _certified_ks():
        rep = descend(k, 100)
        for side, sha, w in (
            (PSI, rep.sha_psi_cert, rep.w_psi),
            (PHI, rep.sha_phi_cert, rep.w_phi),
        ):
            const = _torsor_constant(k, side)
            for b1 in {squarefree_mul(x, s) for x in w for s in sha if s != 1}:
                torsors += 1
                torsor = Torsor(side, b1, const // b1)
                assert search_points(torsor, 100, stop_at_first=True) == [], torsor
    assert torsors == 1936  # W meet Sha = {1}: each (w, s) gives its own class


def test_descend_rejects_nonpositive():
    with pytest.raises(Exception):
        descend(0)


def test_bad_side_and_modulus_raise_typed_errors():
    # once a silent phi-side answer and a ZeroDivisionError
    with pytest.raises(PreconditionUnmet):
        selmer_group(5, "x")
    with pytest.raises(BadResidueClass):
        primes_in(0, 50, 3, 0)


@pytest.mark.parametrize("b1, b2", [(0, 5), (5, 0), (0, 0)])
def test_search_points_rejects_zero_coefficient(b1, b2):
    # (0, 5) once raised ZeroDivisionError from the fourth-root bound
    with pytest.raises(PreconditionUnmet):
        search_points(Torsor(PSI, b1, b2), 10)


def test_negative_height_is_rejected():
    # descend once accepted it silently; the CLI already rejects it
    with pytest.raises(PreconditionUnmet):
        descend(5, -1)
    with pytest.raises(PreconditionUnmet):
        search_points(Torsor(PSI, 1, -25), -1)
    assert search_points(Torsor(PSI, 1, -25), 0) == []


# each line once exhausted memory, stalled in a residue-class search, or (for
# solvable_at with a zero coefficient) divided 0 by q forever
_HARD_INPUTS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from cndescent.descent import descend, selmer_group, solvable_at
from cndescent.errors import BadResidueClass, FactorBudgetExceeded
print(selmer_group(10007, "psi").describe())
print(selmer_group(1306, "psi").describe())
print(descend(2**20 * 7, 50).rank_upper)
try:
    descend(999999937, 50)
except FactorBudgetExceeded:
    print("FactorBudgetExceeded")
for b1, b2, q in ((0, 5, 3), (5, 0, 2), (3, 5, 1), (3, 5, -1)):
    try:
        solvable_at(b1, b2, q)
    except BadResidueClass:
        print("BadResidueClass")
"""


def _run_child(code: str, **env_vars: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this package."""
    src = str(Path(cndescent.__file__).parents[1])
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_hard_inputs_finish_in_bounded_memory():
    out = _run_child(_HARD_INPUTS)
    # E_{2^20 * 7} is E_7 rescaled, and 7 is congruent: rank 1
    assert out.splitlines() == [
        "<-1, 10007>", "<-1, 1306>", "1", "FactorBudgetExceeded",
        "BadResidueClass", "BadResidueClass", "BadResidueClass", "BadResidueClass",
    ]


# stop_at_first searches at height 10^4 on the Selmer torsors TORSORS, then
# one exhaustive search at height 2000, which joins periods and caches
# windows of 8 rows. tracemalloc counts what the searches allocate: the
# ru_maxrss of a forked child starts at its parent's, so it would not move.
_SEARCH_MEMORY = """
import resource, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from cndescent.descent import PHI, Torsor, search_points
torsors = [Torsor(*t) for t in TORSORS]
tracemalloc.start()
found = sum(len(search_points(t, 10**4, stop_at_first=True)) for t in torsors)
found += len(search_points(Torsor(PHI, 53, 212), 2000))
print(found, *tracemalloc.get_traced_memory())
"""


def test_search_memory_does_not_grow_with_calls():
    """Each call stays under the bound search_points states, at most
    400 max(2048, nb) + 400 nb bytes (1.3 MB for the 1,251-byte rows of
    height 10^4), and what stays after the calls is only the small tables
    cached across calls: keeping each call's windows would keep about 100
    to 190 KB per torsor. The torsors have their first point past the
    first block, so each search builds one-row windows for several e."""
    torsors = []
    for k in range(1, 1000):
        if factor(k).squarefree_part() != k:
            continue
        for side in (PSI, PHI):
            const = _torsor_constant(k, side)
            for b1 in selmer_group(k, side):
                pts = search_points(Torsor(side, b1, const // b1), 120, stop_at_first=True)
                if pts and pts[0].e >= 8:
                    torsors.append((side, b1, const // b1))
        if len(torsors) >= 50:
            break
    code = _SEARCH_MEMORY.replace("TORSORS", repr(torsors))
    found, kept, peak = map(int, _run_child(code).split())
    assert len(torsors) >= 50 and found >= len(torsors) + 2
    nb = (10**4 + 8) // 8
    assert kept < 1 << 20, kept  # tiles, tile tuples and row plans
    assert peak <= 400 * max(descent._BLOCK_BYTES, nb) + 400 * nb + kept, peak


def test_profile_classification_repr_does_not_follow_the_string_hash():
    # sha_psi, w_phi and sha_phi_complement are frozensets of labels
    code = (
        "from cndescent.criteria import classify_profile, residue_profile\n"
        "print(repr(classify_profile(residue_profile(17, 89))))"
    )
    outs = {_run_child(code, PYTHONHASHSEED=str(seed)) for seed in range(4)}
    assert len(outs) == 1


def test_report_repr_does_not_follow_the_string_hash():
    # the criteria name square classes by string labels; the concrete groups
    # built from them must not inherit the per-process order of those strings
    code = "from cndescent import descend\nfor k in (1513, 4633): print(repr(descend(k, 60)))"
    outs = {_run_child(code, PYTHONHASHSEED=str(seed)) for seed in range(4)}
    assert len(outs) == 1
