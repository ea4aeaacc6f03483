"""Tunnell's theorem against the descent: every k that `descend` certifies
rank 0 has A != 2B, and every k where it finds a point has A = 2B. A flipped
sign in any family's criterion certifies congruent k as rank 0, which the
first test catches; a certificate on a k with a point raises in descend."""

from math import isqrt

from cndescent.descent import descend

from tunnell_oracle import tunnell_counts


def _squarefree(n: int) -> list[int]:
    return [k for k in range(1, n) if all(k % (q * q) for q in range(2, isqrt(k) + 1))]


def test_counts_single_out_the_congruent_numbers_below_50():
    counts = tunnell_counts(50)
    assert [k for k in _squarefree(50) if counts[k][0] == 2 * counts[k][1]] == [
        5, 6, 7, 13, 14, 15, 21, 22, 23, 29, 30, 31, 34, 37, 38, 39, 41, 46, 47,
    ]


def test_every_certified_rank_zero_k_has_a_b_not_2b():
    # A = 2B on a certified k contradicts a certificate or BSD: a finding
    counts = tunnell_counts(10**4)
    certified = [k for k in _squarefree(10**4) if descend(k, height=0).rank_upper == 0]
    assert len(certified) == 1499
    assert [k for k in certified if counts[k][0] == 2 * counts[k][1]] == []


def test_every_k_with_a_point_has_a_equal_2b():
    counts = tunnell_counts(1000)
    with_point = [k for k in _squarefree(1000) if descend(k, height=200).rank_lower >= 1]
    assert len(with_point) == 205
    assert [k for k in with_point if counts[k][0] != 2 * counts[k][1]] == []
