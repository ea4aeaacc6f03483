"""Batch classification over prime families and regression against the
published reference grid.

Three consumers: density sampling (what fraction of a family is certified
rank 0), smallest-example searches for each of the 32 residue profiles, and
`verify_reference`, which recomputes every row of the reference tables,
judges each family's fixtures through `descend`, and reports mismatches as
data rather than exceptions.
"""

from __future__ import annotations

from collections import Counter
from json import JSONEncoder
from operator import attrgetter
from typing import NamedTuple

from .arith import jacobi, primes_in
from .criteria import (
    ALL_PROFILES,
    ResidueProfile,
    _checked_profile,
    classify_2p,
    classify_pair,
    classify_profile,
    residue_profile,
)
from .descent import descend, witnesses_json
from .errors import BudgetExceeded, FamilyMismatch, PreconditionUnmet, check_height, is_int
from .record import Record
from .sqclass import SquareClassGroup, label_span

# --- family specification ---------------------------------------------------------


class FamilySpec(Record):
    """One sampled family: either k = 2p (two_p=True) or k = pl with both
    primes in a fixed residue class mod 8, optionally filtered by (p/l).
    `bound` caps the primes, not k: the density statements this module
    measures are statements about prime pairs, so the sample must be a box
    in (p, l), not in pl."""

    __slots__ = ("bound", "residues", "two_p", "legendre")

    def __init__(
        self,
        bound: int,
        residues: tuple[int, int] | None = None,
        two_p: bool = False,
        legendre: int | None = None,
    ):
        if not is_int(bound) or bound < 3:
            raise PreconditionUnmet(f"bound must be an int >= 3, got {bound!r}")
        if not isinstance(two_p, bool):
            raise PreconditionUnmet(f"two_p must be a bool, got {two_p!r}")
        if two_p == (residues is not None):
            raise PreconditionUnmet("exactly one of two_p / residues must be set")
        if residues is not None:
            if not isinstance(residues, (tuple, list)) or len(residues) != 2:
                raise PreconditionUnmet(f"residues must be a pair, got {residues!r}")
            residues = tuple(residues)
            if not all(is_int(r) and r in (1, 3, 5, 7) for r in residues):
                raise PreconditionUnmet(f"residues must be ints in {{1,3,5,7}}, got {residues}")
            if residues[0] != residues[1]:
                raise FamilyMismatch(
                    f"mixed residue classes {residues} have no classification"
                )
        if not (legendre is None or is_int(legendre) and legendre in (1, -1)):
            raise PreconditionUnmet(f"legendre must be +-1 or None, got {legendre}")
        if legendre is not None and (two_p or residues[0] in (3, 7)):
            # for p = l = 3 or 7 mod 8, (p/l) = -(l/p): the sign depends on
            # the order of the pair, so it is not a property of k = pl
            raise PreconditionUnmet("legendre filter only applies to residues 1 or 5")
        self._set(bound, residues, two_p, legendre)


class SurveyRow(NamedTuple):
    """One classified k; its witnesses are a dict, so hashing a row raises
    TypeError."""

    k: int
    p: int
    l: int | None
    profile: ResidueProfile | None
    rank_lower: int
    rank_upper: int
    sha_psi: SquareClassGroup
    sha_phi: SquareClassGroup
    witnesses: dict

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "p": self.p,
            "l": self.l,
            "profile": list(self.profile) if self.profile is not None else None,
            "rank_lower": self.rank_lower,
            "rank_upper": self.rank_upper,
            "sha_phi": list(self.sha_phi),
            "sha_psi": list(self.sha_psi),
            "witnesses": self.witnesses,
        }


class SurveySummary(NamedTuple):
    total: int
    rank_zero: int
    per_profile: dict

    @property
    def rank_zero_fraction(self) -> float:
        return self.rank_zero / self.total if self.total else 0.0

    def to_json(self) -> dict:
        return {
            "summary": {
                "total": self.total,
                "rank_zero": self.rank_zero,
                "rank_zero_fraction": self.rank_zero_fraction,
                "per_profile": {
                    ("none" if k is None else " ".join(f"{s:+d}" for s in k)): v
                    for k, v in sorted(
                        self.per_profile.items(),
                        key=lambda kv: (kv[0] is None, kv[0]),
                    )
                },
            }
        }


def run_survey(spec: FamilySpec, height: int = 0) -> tuple[list[SurveyRow], SurveySummary]:
    """Classify every qualifying pair of primes below spec.bound.

    By default only the residue criteria run and rank_lower is the trivial
    0. With height > 0 a row is the report of descend(k, height), which
    classifies k itself: the survey classifies nothing, and the row reads
    k, p, l and the profile from the report's classification.
    """
    check_height(height)
    if spec.two_p:
        pairs = ((p, None) for p in primes_in(17, spec.bound, residue=1))
    else:
        ps = primes_in(3, spec.bound, residue=spec.residues[0])
        pairs = (
            (p, l) for i, p in enumerate(ps) for l in ps[i + 1 :]
            if spec.legendre is None or jacobi(p, l) == spec.legendre
        )
    rows = sorted((_row(p, l, height) for p, l in pairs), key=attrgetter("k", "p"))
    rank_zero = sum(1 for row in rows if row.rank_upper == 0)
    return rows, SurveySummary(len(rows), rank_zero, Counter(row.profile for row in rows))


def _row(p: int, l: int | None, height: int) -> SurveyRow:
    """The row of k = pl, or of k = 2p when l is None. descend takes the
    family's criteria whole when they agree with the computed descent and
    not at all otherwise, so a searched row is its report alone."""
    if height == 0:
        c = classify_2p(p) if l is None else classify_pair(p, l)
        return SurveyRow(c.k, c.p, c.l, c.profile, 0, c.rank_bound, c.sha_psi, c.sha_phi, {})
    rep = descend(2 * p if l is None else p * l, height=height)
    c = rep.classification
    return SurveyRow(c.k, c.p, c.l, c.profile, rep.rank_lower, rep.rank_upper,
                     rep.sha_psi_cert, rep.sha_phi_cert, witnesses_json(rep.witnesses))


# json.dumps's text without its check for circular references, which the
# rows' plain dicts and lists cannot have
_encode = JSONEncoder(check_circular=False).encode


def render_ndjson(rows: list[SurveyRow], summary: SurveySummary) -> str:
    out = [_encode(row.to_json()) for row in rows]
    out.append(_encode(summary.to_json()))
    return "\n".join(out) + "\n"


# --- smallest examples ------------------------------------------------------------


def smallest_example(profile: ResidueProfile, bound: int = 10**5) -> tuple[int, int]:
    """Smallest admissible pair (by pl, then p) of primes p < l, both
    1 mod 8, with (p/l) = +1, whose residue profile matches. The p < l
    normalization matters: the profile reads p and l asymmetrically, so
    the swapped pair realizes a different row. Raises PreconditionUnmet,
    before any scan, for a profile that is not five signs +-1 or a bound
    that is not an int."""
    profile = _checked_profile(profile)
    if not is_int(bound):
        raise PreconditionUnmet(f"bound must be an int, got {bound!r}")
    ps = primes_in(17, bound // 17 + 1, residue=1)
    pairs = []
    for i, p in enumerate(ps):
        for l in ps[i + 1 :]:
            if p * l > bound:  # ps ascends, so every later l is too large
                break
            pairs.append((p * l, p, l))
    pairs.sort()
    for _, p, l in pairs:
        if jacobi(p, l) != 1:
            continue
        if residue_profile(p, l) == profile:
            return (p, l)
    raise BudgetExceeded(f"no pair below pl = {bound} realizes {profile}")


# --- the reference grid and regression checks -------------------------------------


class GridRow(NamedTuple):
    """One printed row: profile signs, certified subgroup generators for
    both isogeny directions, the rank bound, the solvable phi-classes, and
    the published example pair."""

    profile: ResidueProfile
    sha_psi: tuple[str, ...]
    sha_phi: tuple[str, ...]
    rank_bound: int
    w_phi: tuple[str, ...]
    example: tuple[int, int]


def _grid(*rows) -> tuple[GridRow, ...]:
    assert len(rows) == 32
    return tuple(
        GridRow(ALL_PROFILES[i], sp, sf, rk, w, ex)
        for i, (sp, sf, rk, w, ex) in enumerate(rows)
    )


# columns: Sha[psi] generators, Sha[phi] generators, rank bound,
#          W^(phi) generators, example (p, l); row order matches ALL_PROFILES
REFERENCE_GRID = _grid(
    ((), (), 4, ("2", "p", "l"), (41, 2273)),
    ((), ("2p", "l"), 2, ("p",), (41, 769)),
    ((), ("p", "2l"), 2, ("l",), (97, 353)),
    (("p",), ("2", "p", "l"), 0, (), (17, 1361)),
    ((), ("p", "l"), 2, ("2",), (41, 113)),
    ((), ("p", "l"), 2, ("2p",), (113, 233)),
    (("p",), ("2", "p", "l"), 0, (), (17, 953)),
    ((), ("2", "p"), 2, ("2pl",), (17, 89)),
    ((), ("p", "l"), 2, ("2",), (41, 569)),
    (("p",), ("2", "p", "l"), 0, (), (41, 73)),
    ((), ("p", "l"), 2, ("2l",), (17, 457)),
    ((), ("p", "l"), 2, ("2pl",), (17, 433)),
    (("p",), ("p",), 2, ("2", "pl"), (41, 1601)),
    (("p",), ("2", "p", "l"), 0, (), (41, 449)),
    (("p",), ("2", "p", "l"), 0, (), (17, 569)),
    (("p",), ("2", "p", "l"), 0, (), (17, 977)),
    (("p",), ("2",), 2, ("p", "l"), (113, 569)),
    ((), ("2", "l"), 2, ("p",), (41, 433)),
    ((), ("2", "p"), 2, ("l",), (17, 353)),
    (("p",), ("2", "p", "l"), 0, (), (73, 89)),
    (("p",), ("2", "p", "l"), 0, (), (41, 353)),
    (("p",), ("2", "p", "l"), 0, (), (113, 241)),
    ((), ("2", "p"), 2, ("2l",), (17, 137)),
    (("p",), ("2", "p", "l"), 0, (), (89, 97)),
    (("p",), ("2", "p", "l"), 0, (), (41, 337)),
    ((), ("2", "l"), 2, ("2p",), (113, 401)),
    (("p",), ("2", "p", "l"), 0, (), (17, 257)),
    (("p",), ("2", "p", "l"), 0, (), (73, 97)),
    (("p",), ("p",), 2, ("2p", "2l"), (113, 257)),
    (("p",), ("2", "p", "l"), 0, (), (41, 241)),
    (("p",), ("2", "p", "l"), 0, (), (89, 257)),
    (("p",), ("2", "p", "l"), 0, (), (17, 281)),
)

# first reference list: k = pl below 10^4 where the full symbol set decides
# rank <= 2; columns (l/p)_4, (p/l)_4, (-4/p)_8, (-4/l)_8, [P/L]
SYMBOL_TABLE_SMALL = (
    (1513, 17, 89, (1, -1, -1, -1, 1)),
    (2329, 17, 137, (1, -1, -1, 1, -1)),
    (4633, 41, 113, (1, -1, 1, 1, 1)),
    (6001, 17, 353, (1, 1, -1, 1, -1)),
    (6953, 17, 409, (1, 1, -1, 1, -1)),
    (7361, 17, 433, (-1, 1, -1, -1, 1)),
    (7769, 17, 457, (-1, 1, -1, 1, 1)),
    (9809, 17, 577, (1, -1, -1, 1, -1)),
)

# second reference list: the pairs where only the quadratic-ring symbol
# decides, with the recorded value of [L/P]
SYMBOL_LIST_LARGE = (
    (64297, 113, 569, -1),
    (67009, 113, 593, -1),
    (93193, 41, 2273, 1),
    (94177, 41, 2297, -1),
)

# (name, k, family, Sha[2] dimension or None when open): descend(k, height=0)
# must dispatch k to the family, take its criteria whole and pin that value.
# Rows: the 2p family, each LAGRANGE_SELMER row at its smallest pair, spot checks
FAMILY_CHECKS = (
    ("2p family p=17", 34, "2p", None),
    ("2p family p=41", 82, "2p", 2),
    ("2p family p=73", 146, "2p", 2),
    ("2p family p=89", 178, "2p", 2),
    ("2p family p=97", 194, "2p", None),
    ("selmer shape (1, 1, 1) at (p,l)=(17,89)", 1513, "pl-1mod8-plus", None),
    ("selmer shape (1, 1, -1) at (p,l)=(17,41)", 697, "pl-1mod8-minus", 2),
    ("selmer shape (5, 5, 1) at (p,l)=(5,29)", 145, "pl-5mod8", None),
    ("selmer shape (5, 5, -1) at (p,l)=(5,13)", 65, "pl-5mod8", None),
    ("selmer shape (3, 3, -1) at (p,l)=(11,3)", 33, "pl-3mod8", 0),
    ("selmer shape (7, 7, 1) at (p,l)=(7,23)", 161, "pl-7mod8", None),
    ("minus pair (17,73) undecided", 1241, "pl-1mod8-minus", None),
    ("pair (5,37) certified", 185, "pl-5mod8", 2),
    ("pair (7,31) certified", 217, "pl-7mod8", 2),
    ("pair (3,19) certified", 57, "pl-3mod8", 0),
)


class CheckLine(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerifyReport(NamedTuple):
    checks: tuple[CheckLine, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [
            (f"ok   {c.name}" if c.passed else f"FAIL {c.name}: {c.detail}")
            for c in self.checks
        ]
        n_bad = sum(1 for c in self.checks if not c.passed)
        lines.append(
            f"{len(self.checks)} checks, "
            + ("all passed" if n_bad == 0 else f"{n_bad} FAILED")
        )
        return "\n".join(lines)


def check_grid_row(i: int, row: GridRow) -> tuple[CheckLine, CheckLine]:
    """Row i of the printed grid against classify_profile, every column,
    and its example pair against residue_profile."""
    pc = classify_profile(row.profile)
    w_span = label_span(row.w_phi)
    ok_w = pc.w_phi == w_span
    psi_span = label_span(row.sha_psi)
    ok_psi = pc.sha_psi == psi_span
    ok_rank = pc.rank_bound == row.rank_bound
    # the printed complement must be a genuine certificate: disjoint
    # from the solvable classes and of complementary dimension
    comp = label_span(row.sha_phi)
    ok_comp = (
        comp & pc.w_phi == frozenset({"1"})
        and len(comp) * len(pc.w_phi) == 8
    )
    detail = (
        f"W {sorted(pc.w_phi)} vs {sorted(w_span)}; "
        f"sha_psi dim {pc.sha_psi_dim} vs {len(row.sha_psi)}"
        + ("" if ok_psi else f" ({sorted(pc.sha_psi)} vs {sorted(psi_span)})")
        + f"; rank {pc.rank_bound} vs {row.rank_bound}; comp {sorted(comp)}"
    )
    pr = residue_profile(*row.example)
    return (
        CheckLine(f"grid row {i}", ok_w and ok_psi and ok_rank and ok_comp, detail),
        CheckLine(
            f"grid row {i} example {row.example}",
            pr == row.profile,
            f"profile {tuple(pr)} vs {tuple(row.profile)}",
        ),
    )


def verify_reference() -> VerifyReport:
    """Recompute every reference-table claim and report line by line; each
    FAMILY_CHECKS row runs through descend, which holds the family's Selmer
    groups and certificates against the computed descent."""
    checks: list[CheckLine] = []

    # census over the 32 profiles
    pcs = [classify_profile(pr) for pr in ALL_PROFILES]
    n0 = sum(1 for pc in pcs if pc.rank_bound == 0)
    n4 = sum(1 for pc in pcs if pc.rank_bound == 4)
    checks.append(CheckLine("grid: 16 of 32 profiles certify rank 0", n0 == 16, f"got {n0}"))
    checks.append(CheckLine("grid: exactly 1 profile allows rank 4", n4 == 1, f"got {n4}"))

    # the printed grid, row by row
    for i, row in enumerate(REFERENCE_GRID, start=1):
        checks.extend(check_grid_row(i, row))

    # small-k symbol table
    for k, p, l, (a, b, c, d, pi_) in SYMBOL_TABLE_SMALL:
        pr = residue_profile(p, l)
        got = (pr.a, pr.b, pr.c, pr.d, pr.pi)
        checks.append(
            CheckLine(
                f"symbol table k={k}",
                k == p * l and got == (a, b, c, d, pi_),
                f"got {got}, want {(a, b, c, d, pi_)}",
            )
        )

    # large-k symbol list
    for k, p, l, want in SYMBOL_LIST_LARGE:
        got = residue_profile(l, p).pi
        checks.append(
            CheckLine(f"symbol list k={k}", k == p * l and got == want, f"[L/P] = {got}")
        )

    # the families through descend; a refused family's detail is descend's note
    for name, k, family, sha2_dim in FAMILY_CHECKS:
        rep = descend(k, height=0)
        got = rep.classification.family if rep.classification else None
        ok = got == family and rep.notes == () and rep.sha2_dim == sha2_dim
        detail = "; ".join(rep.notes) or f"family {got}, sha2_dim {rep.sha2_dim}, want {sha2_dim}"
        checks.append(CheckLine(name, ok, detail))

    return VerifyReport(tuple(checks))
