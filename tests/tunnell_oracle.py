"""Tunnell's theorem (Invent. Math. 72, 1983) as an oracle that shares no
code with the descent. For squarefree k let A and B count the integer
solutions of

    2x^2 + y^2 + 8z^2 = k      and  2x^2 + y^2 + 32z^2 = k      (k odd),
    4x^2 + y^2 + 8z^2 = k/2    and  4x^2 + y^2 + 32z^2 = k/2    (k even).

If k is congruent, then A = 2B; this direction is unconditional. So A != 2B
proves rank 0, and then W is the torsion image and every class a
certificate names, which meets the torsion classes only in 1, is in Sha.
The converse, A = 2B forcing a point, needs BSD.
"""

from math import isqrt


def _counts(a: int, c: int, n: int) -> list[int]:
    """count[m], for m < n, of the (x, y, z) in Z^3 with a x^2 + y^2 + c z^2 = m,
    by nested loops over x, z, y >= 0; a nonzero coordinate stands for both
    its signs."""
    count = [0] * n
    for x in range(isqrt((n - 1) // a) + 1):
        for z in range(isqrt((n - 1 - a * x * x) // c) + 1):
            for y in range(isqrt(n - 1 - a * x * x - c * z * z) + 1):
                count[a * x * x + y * y + c * z * z] += 2 ** ((x > 0) + (y > 0) + (z > 0))
    return count


def tunnell_counts(n: int) -> list[tuple[int, int]]:
    """(A, B) for every k < n; meaningful for squarefree k."""
    odd = _counts(2, 8, n), _counts(2, 32, n)
    even = _counts(4, 8, n // 2 + 1), _counts(4, 32, n // 2 + 1)
    return [
        (odd[0][k], odd[1][k]) if k % 2 else (even[0][k // 2], even[1][k // 2])
        for k in range(n)
    ]
