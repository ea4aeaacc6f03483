"""2-isogeny descent on the congruent-number curves y^2 = x(x^2 - k^2).

The package computes Selmer groups by checking local solvability of the
descent torsors, certifies elements of the Tate-Shafarevich group through
residue-symbol criteria, and turns the two into rank bounds: when the
upper bound is zero, k is certified non-congruent. Everything decidable
by symbols alone lives in `criteria`; `survey` scales the classification
over families and carries the frozen reference data. The oracles those
symbols are checked against are test code: the class-group oracles in
`tests/classfield_oracle.py`, and the witness lemmas, which check the
psi-case table on found points, in `tests/witness_oracle.py`.
"""

from .arith import jacobi, octic_minus4, primes_in, quartic_symbol
from .criteria import (
    ALL_PROFILES,
    Classification,
    ResidueProfile,
    classify_2p,
    classify_11_minus,
    classify_11_plus,
    classify_auto,
    classify_profile,
    classify_small_residues,
    residue_profile,
)
from .descent import (
    PHI,
    PSI,
    DescentReport,
    Torsor,
    TorsorPoint,
    descend,
    enumerate_torsors,
    locally_solvable,
    search_points,
    selmer_group,
)
from .errors import DescentError
from .quadring import (
    GAUSS,
    SQRT2,
    SQRTM2,
    primary_associate,
    ring_symbol,
    split_prime,
    symbol_capital,
)
from .sqclass import SquareClassGroup
from .survey import (
    REFERENCE_GRID,
    FamilySpec,
    run_survey,
    smallest_example,
    verify_reference,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_PROFILES",
    "Classification",
    "DescentError",
    "DescentReport",
    "FamilySpec",
    "GAUSS",
    "PHI",
    "PSI",
    "REFERENCE_GRID",
    "ResidueProfile",
    "SQRT2",
    "SQRTM2",
    "SquareClassGroup",
    "Torsor",
    "TorsorPoint",
    "classify_2p",
    "classify_11_minus",
    "classify_11_plus",
    "classify_auto",
    "classify_profile",
    "classify_small_residues",
    "descend",
    "enumerate_torsors",
    "jacobi",
    "locally_solvable",
    "octic_minus4",
    "primary_associate",
    "primes_in",
    "quartic_symbol",
    "residue_profile",
    "ring_symbol",
    "run_survey",
    "search_points",
    "selmer_group",
    "smallest_example",
    "split_prime",
    "symbol_capital",
    "verify_reference",
]
