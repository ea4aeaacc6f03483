"""Family surveys, smallest-example searches, and the reference regression."""

import hashlib
import json

import pytest

from cndescent import criteria, descent, quadring, survey
from cndescent.arith import is_prime, jacobi
from cndescent.criteria import ALL_PROFILES, residue_profile
from cndescent.descent import descend, witnesses_json
from cndescent.errors import BudgetExceeded, FamilyMismatch
from cndescent.sqclass import SquareClassGroup
from cndescent.survey import (
    REFERENCE_GRID,
    FamilySpec,
    render_ndjson,
    run_survey,
    smallest_example,
    verify_reference,
)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(bound=2, residues=(1, 1))
    with pytest.raises(ValueError):
        FamilySpec(bound=100)  # neither two_p nor residues
    with pytest.raises(ValueError):
        FamilySpec(bound=100, residues=(1, 1), two_p=True)
    with pytest.raises(FamilyMismatch):
        FamilySpec(bound=100, residues=(1, 5))
    with pytest.raises(ValueError):
        FamilySpec(bound=100, residues=(2, 2))
    with pytest.raises(ValueError):
        FamilySpec(bound=100, residues=(3, 3), legendre=1)
    assert FamilySpec(bound=100, residues=[1, 1]) == FamilySpec(bound=100, residues=(1, 1))


def test_survey_two_p():
    rows, summary = run_survey(FamilySpec(bound=100, two_p=True))
    assert [(r.k, r.p) for r in rows] == [(34, 17), (82, 41), (146, 73), (178, 89), (194, 97)]
    assert [r.rank_upper for r in rows] == [2, 0, 0, 0, 2]
    assert summary.total == 5 and summary.rank_zero == 3


def test_survey_is_deterministic_and_sorted():
    spec = FamilySpec(bound=600, residues=(1, 1))
    rows1, s1 = run_survey(spec)
    rows2, s2 = run_survey(spec)
    assert rows1 == rows2 and s1.per_profile == s2.per_profile
    ks = [r.k for r in rows1]
    assert ks == sorted(ks)
    assert all(r.k == r.p * r.l for r in rows1)


def test_survey_minus_family_density():
    rows, summary = run_survey(FamilySpec(bound=1500, residues=(1, 1), legendre=-1))
    assert all(r.profile is None for r in rows)
    assert 0.35 <= summary.rank_zero_fraction <= 0.65
    # certificates in this family are always two-dimensional on the phi side
    for r in rows:
        if r.rank_upper == 0:
            assert len(r.sha_phi) == 4 and len(r.sha_psi) == 1


def test_survey_three_mod_eight_always_rank_zero():
    rows, summary = run_survey(FamilySpec(bound=10**3, residues=(3, 3)))
    assert summary.total > 10
    assert summary.rank_zero_fraction == 1.0


def test_survey_plus_family_matches_grid():
    rows, summary = run_survey(FamilySpec(bound=600, residues=(1, 1), legendre=1))
    by_profile = {g.profile: g for g in REFERENCE_GRID}
    for r in rows:
        assert r.profile is not None
        assert r.rank_upper == by_profile[r.profile].rank_bound
    assert sum(summary.per_profile.values()) == summary.total
    assert (17, 89) in [(r.p, r.l) for r in rows]


def test_survey_splits_only_the_p_of_each_pair_once(monkeypatch):
    euclid = quadring._euclid
    calls = []

    def counted(p, r, w2):
        calls.append(p)
        return euclid(p, r, w2)

    for module in (quadring, criteria):
        monkeypatch.setattr(module, "_euclid", counted)
    criteria._prime_record.cache_clear()
    criteria._generator.cache_clear()
    rows, _ = run_survey(FamilySpec(bound=4000, residues=(1, 1), legendre=1))
    as_p = {r.p for r in rows}
    primes = as_p | {r.l for r in rows}
    assert len(rows) == 4039 and len(primes) == 129 and len(as_p) < 129
    # the Euclid split runs once per prime seen as p, never for one seen
    # only as l; every prime's root and octic sign are computed once
    assert sorted(calls) == sorted(as_p)
    assert criteria._prime_record.cache_info().misses == 129


def test_survey_with_point_search():
    rows, _ = run_survey(FamilySpec(bound=75, two_p=True), height=300)
    assert [r.k for r in rows] == [34, 82, 146]
    for r in rows:
        assert r.rank_lower <= r.rank_upper
        assert r.witnesses  # at the very least the free classes carry points


def test_searched_rows_print_only_the_certificates_descend_took(monkeypatch):
    spec = FamilySpec(bound=120, residues=(1, 1), legendre=1)
    certs = [(r.k, r.sha_psi, r.sha_phi) for r in run_survey(spec)[0]]
    assert [(r.k, r.sha_psi, r.sha_phi) for r in run_survey(spec, height=50)[0]] == certs
    # criteria with a forged Sel^phi prove nothing, so descend takes none of
    # their certificates (see test_descend_takes_no_certificate_from_criteria_it_contradicts),
    # and a row must not print them either
    real = descent.classify_auto
    monkeypatch.setattr(
        descent, "classify_auto", lambda k: real(k)._replace(selmer_phi=SquareClassGroup.span(2))
    )
    rows, _ = run_survey(spec, height=50)
    trivial = SquareClassGroup.trivial()
    assert [(r.k, r.sha_psi, r.sha_phi) for r in rows] == [(k, trivial, trivial) for k, _, _ in certs]
    assert {r.k: r.rank_upper for r in rows}[4633] == 4


@pytest.mark.parametrize("spec, height", [
    (FamilySpec(150, residues=(1, 1)), 60),
    (FamilySpec(100, two_p=True), 300),
], ids=["11-150-h60", "2p-100-h300"])
def test_a_searched_row_is_its_descend_report(monkeypatch, spec, height):
    rows, _ = run_survey(spec, height)
    assert rows
    for row in rows:
        rep = descend(row.k, height)
        c = rep.classification
        assert row == (
            c.k, c.p, c.l, c.profile, rep.rank_lower, rep.rank_upper,
            rep.sha_psi_cert, rep.sha_phi_cert, witnesses_json(rep.witnesses),
        )

    # a searched sweep classifies nothing itself: descend classifies each k
    def refuse(*args):
        raise AssertionError(f"the survey classified {args}")

    monkeypatch.setattr(survey, "classify_pair", refuse)
    monkeypatch.setattr(survey, "classify_2p", refuse)
    assert run_survey(spec, height)[0] == rows


def test_ndjson_round_trip():
    rows, summary = run_survey(FamilySpec(bound=300, residues=(1, 1)))
    text = render_ndjson(rows, summary)
    parsed = [json.loads(line) for line in text.strip().split("\n")]
    assert len(parsed) == len(rows) + 1
    assert parsed[-1]["summary"]["total"] == summary.total
    for obj, row in zip(parsed, rows):
        assert set(obj) == {
            "k", "p", "l", "profile", "rank_lower", "rank_upper",
            "sha_phi", "sha_psi", "witnesses",
        }
        assert obj["k"] == row.k
        # canonical JSON: rendering the parsed row again is identical
        assert json.dumps(obj) == json.dumps(row.to_json())


# sha256 of render_ndjson(*run_survey(spec, height)) for the (1,1)+
# benchmark sweep, each other family at a small bound, and a searched (1,1)
# spec whose 21 rows all print witnesses: a faster encoder, row sort or
# class order must keep these bytes
NDJSON_SHA256 = (
    ((4000, (1, 1), False, 1), 0, 4039,
     "5826a65a02c7eedec187f164d31e0ed1f59a292261b20ce06c379e0add306461"),
    ((3000, None, True, None), 0, 101,
     "25f17700498f95aa29f05484c8ff858fe541a695cd50745eafa59d23374bc167"),
    ((300, (3, 3), False, None), 0, 120,
     "0fecb24fec83f193fe9b4aa6ddfaebd1715ada2d4b81c4b8d6957547bca2de7e"),
    ((300, (5, 5), False, None), 0, 136,
     "df107afddc61017eae6096742d81d204d41c3a7ba626295e78a0080de0c57994"),
    ((300, (7, 7), False, None), 0, 120,
     "94ae16b0ebb02993be9cc0e0ed8d12f55fd1a610de5474f4b22c033e4025843a"),
    ((150, (1, 1), False, None), 60, 21,
     "7575cd768975cbd5c47b9e4692e4c338da974d96205201f85501fc7377a278f7"),
)


@pytest.mark.parametrize(
    "spec, height, n_rows, digest", NDJSON_SHA256,
    ids=["11plus-4000", "2p-3000", "33-300", "55-300", "77-300", "11-150-h60"],
)
def test_ndjson_bytes_are_pinned(spec, height, n_rows, digest):
    rows, summary = run_survey(FamilySpec(*spec), height)
    assert len(rows) == n_rows
    assert all(row.witnesses for row in rows) == (height > 0)
    assert hashlib.sha256(render_ndjson(rows, summary).encode()).hexdigest() == digest


def test_smallest_example_fixtures():
    assert smallest_example(ALL_PROFILES[3]) == (17, 1361)
    assert smallest_example(ALL_PROFILES[16]) == (113, 569)
    # the printed pair for this row is (41, 1601); the smaller (41, 1321)
    # has the same profile and must win
    assert smallest_example(ALL_PROFILES[12]) == (41, 1321)


def test_smallest_example_round_trips():
    for idx in (3, 7, 12):
        pr = ALL_PROFILES[idx]
        p, l = smallest_example(pr)
        assert residue_profile(p, l) == pr


def test_smallest_example_is_the_least_pair_on_every_profile():
    # a brute-force scan of every pair of primes p < l, both 1 mod 8, with
    # pl <= bound and (p/l) = +1, keeping the least (pl, p) per profile
    bound = 10**5
    ps = [n for n in range(17, bound // 17 + 1, 8) if is_prime(n)]
    least = {}
    for p in ps:
        for l in ps:
            if p < l and p * l <= bound and jacobi(p, l) == 1:
                profile = residue_profile(p, l)
                least[profile] = min(least.get(profile, (p * l, p, l)), (p * l, p, l))
    assert len(least) == len(ALL_PROFILES)
    for profile in ALL_PROFILES:
        assert smallest_example(profile, bound) == least[profile][1:], profile


def test_smallest_example_budget():
    with pytest.raises(BudgetExceeded):
        smallest_example(ALL_PROFILES[0], bound=2000)


def test_verify_reference_all_green():
    report = verify_reference()
    assert report.passed
    assert len(report.checks) > 80
    text = report.render()
    assert "all passed" in text
    assert "FAIL" not in text


def test_verify_fails_exactly_the_fixtures_of_a_forged_selmer_row(monkeypatch):
    psi, _ = criteria.LAGRANGE_SELMER[5, 5, -1]
    monkeypatch.setitem(criteria.LAGRANGE_SELMER, (5, 5, -1), (psi, ("p", "l")))
    failed = [c for c in verify_reference().checks if not c.passed]
    assert [c.name for c in failed] == [
        "selmer shape (5, 5, -1) at (p,l)=(5,13)", "pair (5,37) certified",
    ]
    assert all("selmer mismatch on phi" in c.detail for c in failed)


def test_verify_pins_each_family_verdict(monkeypatch):
    # an obstruction at (5, 13) is still consistent with the descent, so
    # only the pinned Sha[2] dimension catches it
    monkeypatch.setattr(criteria, "_gauss_unit_symbol", lambda p, l: -1)
    failed = [c for c in verify_reference().checks if not c.passed]
    assert [(c.name, c.detail) for c in failed] == [(
        "selmer shape (5, 5, -1) at (p,l)=(5,13)", "family pl-5mod8, sha2_dim 2, want None",
    )]
