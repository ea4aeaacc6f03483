"""Batch classification over prime families and regression against the
published reference grid.

Three consumers: density sampling (what fraction of a family is certified
rank 0), smallest-example searches for each of the 32 residue profiles, and
`verify_reference`, which recomputes every row of the reference tables and
reports mismatches as data rather than exceptions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .arith import jacobi, primes_in
from .criteria import (
    ALL_PROFILES,
    LAGRANGE_SELMER,
    Classification,
    ResidueProfile,
    classify_2p,
    classify_11_minus,
    classify_pair,
    classify_profile,
    classify_small_residues,
    residue_profile,
)
from .descent import descend, selmer_group, witnesses_json
from .errors import BudgetExceeded, FamilyMismatch, PreconditionUnmet
from .quadring import SQRT2, symbol_capital
from .sqclass import SquareClassGroup, concretize, label_span

# --- family specification ---------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """One sampled family: either k = 2p (two_p=True) or k = pl with both
    primes in a fixed residue class mod 8, optionally filtered by (p/l).
    `bound` caps the primes, not k: the density statements this module
    measures are statements about prime pairs, so the sample must be a box
    in (p, l), not in pl."""

    bound: int
    residues: tuple[int, int] | None = None
    two_p: bool = False
    legendre: int | None = None

    def __post_init__(self):
        if self.bound < 3:
            raise PreconditionUnmet(f"bound must be >= 3, got {self.bound}")
        if self.two_p == (self.residues is not None):
            raise PreconditionUnmet("exactly one of two_p / residues must be set")
        if self.residues is not None:
            r1, r2 = self.residues
            if r1 not in (1, 3, 5, 7) or r2 not in (1, 3, 5, 7):
                raise PreconditionUnmet(f"residues must lie in {{1,3,5,7}}, got {self.residues}")
            if r1 != r2:
                raise FamilyMismatch(
                    f"mixed residue classes {self.residues} have no classification"
                )
        if self.legendre not in (None, 1, -1):
            raise PreconditionUnmet(f"legendre must be +-1 or None, got {self.legendre}")
        if self.legendre is not None and (self.two_p or self.residues[0] in (3, 7)):
            # for p = l = 3 or 7 mod 8 the symbol is antisymmetric, so every
            # unordered pair matches both signs and the filter selects nothing
            raise PreconditionUnmet("legendre filter only applies to residues 1 or 5")


@dataclass(frozen=True)
class SurveyRow:
    k: int
    p: int
    l: int | None
    profile: ResidueProfile | None
    rank_lower: int
    rank_upper: int
    sha_psi: SquareClassGroup
    sha_phi: SquareClassGroup
    witnesses: dict = field(default_factory=dict, compare=False)

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


@dataclass(frozen=True)
class SurveySummary:
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

    With height > 0 each k additionally gets a descent point search, which
    fills rank_lower and witnesses; by default only the residue criteria
    run and rank_lower is the trivial 0.
    """
    if height < 0:
        raise PreconditionUnmet(f"height must be >= 0, got {height}")
    rows: list[SurveyRow] = []
    if spec.two_p:
        for p in primes_in(17, spec.bound, residue=1, mod=8):
            rows.append(_build_row(classify_2p(p), height))
    else:
        r = spec.residues[0]
        ps = list(primes_in(3, spec.bound, residue=r, mod=8))
        for i, p in enumerate(ps):
            for l in ps[i + 1 :]:
                if spec.legendre is not None and jacobi(p, l) != spec.legendre:
                    continue
                rows.append(_build_row(classify_pair(p, l), height))
    rows.sort(key=lambda row: (row.k, row.p))
    per_profile: dict = {}
    for row in rows:
        per_profile[row.profile] = per_profile.get(row.profile, 0) + 1
    summary = SurveySummary(
        total=len(rows),
        rank_zero=sum(1 for row in rows if row.rank_upper == 0),
        per_profile=per_profile,
    )
    return rows, summary


def _build_row(c: Classification, height: int) -> SurveyRow:
    # descend's bound already folds in every certificate that agrees with
    # the computed Selmer groups; a disagreeing one proves nothing
    rank_lower, rank_upper, witnesses = 0, c.rank_bound, {}
    if height > 0:
        rep = descend(c.k, height=height)
        rank_lower, rank_upper = rep.rank_lower, rep.rank_upper
        witnesses = witnesses_json(rep.witnesses)
    return SurveyRow(
        k=c.k,
        p=c.p,
        l=c.l,
        profile=c.profile,
        rank_lower=rank_lower,
        rank_upper=rank_upper,
        sha_psi=c.sha_psi,
        sha_phi=c.sha_phi,
        witnesses=witnesses,
    )


def render_ndjson(rows: list[SurveyRow], summary: SurveySummary) -> str:
    out = [json.dumps(row.to_json()) for row in rows]
    out.append(json.dumps(summary.to_json()))
    return "\n".join(out) + "\n"


# --- smallest examples ------------------------------------------------------------


def smallest_example(profile: ResidueProfile, bound: int = 10**5) -> tuple[int, int]:
    """Smallest admissible pair (by pl, then p) of primes p < l, both
    1 mod 8, with (p/l) = +1, whose residue profile matches. The p < l
    normalization matters: the profile reads p and l asymmetrically, so
    the swapped pair realizes a different row."""
    ps = list(primes_in(17, bound // 17 + 1, residue=1, mod=8))
    pairs = []
    for i, p in enumerate(ps):
        for l in ps[i + 1 :]:
            if p * l <= bound:
                pairs.append((p * l, p, l))
    pairs.sort()
    for _, p, l in pairs:
        if jacobi(p, l) != 1:
            continue
        if residue_profile(p, l) == profile:
            return (p, l)
    raise BudgetExceeded(f"no pair below pl = {bound} realizes {profile}")


# --- the reference grid and regression checks -------------------------------------


@dataclass(frozen=True)
class GridRow:
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

@dataclass(frozen=True)
class CheckLine:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
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
    """Recompute every reference-table claim and report line by line."""
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
        got = symbol_capital(l, p, SQRT2)
        checks.append(
            CheckLine(f"symbol list k={k}", k == p * l and got == want, f"[L/P] = {got}")
        )

    # k = 2p family against a direct Selmer computation
    for p in (17, 41, 73, 89, 97):
        cl = classify_2p(p)
        ok = (
            cl.selmer_psi == selmer_group(2 * p, "psi")
            and cl.selmer_phi == selmer_group(2 * p, "phi")
            and (cl.rank_bound == 0) == (p % 16 == 9)
        )
        checks.append(
            CheckLine(
                f"2p family p={p}",
                ok,
                f"selmer {sorted(cl.selmer_psi)}/{sorted(cl.selmer_phi)}, rank {cl.rank_bound}",
            )
        )

    # Selmer shapes of the five pl families on their smallest pairs
    fixture_pairs = {
        (1, 1, 1): (17, 89),
        (1, 1, -1): (17, 41),
        (5, 5, 1): (5, 29),
        (5, 5, -1): (5, 13),
        (3, 3, -1): (11, 3),
        (7, 7, 1): (7, 23),
    }
    for key, (p, l) in fixture_pairs.items():
        want_psi, want_phi = LAGRANGE_SELMER[key]
        k = p * l
        ok = selmer_group(k, "psi") == concretize(want_psi, p, l) and selmer_group(
            k, "phi"
        ) == concretize(want_phi, p, l)
        checks.append(CheckLine(f"selmer shape {key} at (p,l)=({p},{l})", ok))

    # certificate spot checks in the non-grid families
    spots = [
        ("minus pair (17,41) certified", classify_11_minus(17, 41).sha2_dim == 2),
        ("minus pair (17,73) undecided", classify_11_minus(17, 73).sha2_dim is None),
        ("pair (5,37) certified", classify_small_residues(5, 37).rank_bound == 0),
        ("pair (5,13) undecided", classify_small_residues(5, 13).rank_bound > 0),
        ("pair (7,31) certified", classify_small_residues(7, 31).rank_bound == 0),
        ("pair (3,19) certified", classify_small_residues(3, 19).rank_bound == 0),
    ]
    for name, ok in spots:
        checks.append(CheckLine(name, ok))

    return VerifyReport(tuple(checks))
