"""Record semantics: every public record compares and hashes by its fields,
refuses assignment, prints as `Name(field=value, ...)` and pickles. The
reprs are pinned from the records' dataclass forms, so replacing
`dataclasses` changed none of them; a group is a frozenset and prints as
one, its classes in group order."""

import pickle

import pytest

from cndescent.arith import FactoredInteger
from cndescent.criteria import Classification, ProfileClassification, ResidueProfile
from cndescent.descent import DescentReport, Torsor, TorsorPoint
from cndescent.quadring import GAUSS, QuadInt, Ring
from cndescent.record import Record
from cndescent.sqclass import LABELS, SquareClassGroup
from cndescent.survey import (
    CheckLine,
    FamilySpec,
    GridRow,
    SurveyRow,
    SurveySummary,
    VerifyReport,
)


def _group():
    return SquareClassGroup({1, 17})


def _report():
    g = _group()
    witnesses = {"psi": {1: TorsorPoint(1, 1, 0)}, "phi": {17: TorsorPoint(17, 2, 1)}}
    return DescentReport(34, g, g, g, g, g, g, 2, 2, None, False, 50, witnesses, None, ("n",))


def _row(witnesses):
    return SurveyRow(34, 17, None, None, 2, 2, _group(), _group(), witnesses)


ONE = ResidueProfile(1, 1, 1, 1, 1)

# name: (a constructor of fixed fields, the repr those fields print as)
RECORDS = {
    "FactoredInteger": (
        lambda: FactoredInteger(-1, ((41, 1), (113, 1))),
        "FactoredInteger(sign=-1, factors=((41, 1), (113, 1)))",
    ),
    "Ring": (lambda: Ring("Z[i]", -1), "Z[i]"),
    "QuadInt": (lambda: QuadInt(GAUSS, 1, 4), "QuadInt(ring=Z[i], a=1, b=4)"),
    "SquareClassGroup": (_group, "SquareClassGroup({1, 17})"),
    "ResidueProfile": (
        lambda: ResidueProfile(1, -1, 1, -1, 1),
        "ResidueProfile(pi=1, a=-1, b=1, c=-1, d=1)",
    ),
    "ProfileClassification": (
        lambda: ProfileClassification(ONE, frozenset({"1"}), frozenset(LABELS), frozenset({"1"})),
        "ProfileClassification(profile=ResidueProfile(pi=1, a=1, b=1, c=1, d=1), "
        "sha_psi=frozenset({'1'}), w_phi=frozenset({'1', '2', 'p', '2p', 'l', '2l', 'pl', "
        "'2pl'}), sha_phi_complement=frozenset({'1'}))",
    ),
    "Classification": (
        lambda: Classification("2p", 17, None, _group(), _group(), notes=("n",)),
        "Classification(family='2p', p=17, l=None, "
        "selmer_psi=SquareClassGroup({1, 17}), "
        "selmer_phi=SquareClassGroup({1, 17}), "
        "sha_psi=SquareClassGroup({1}), "
        "sha_phi=SquareClassGroup({1}), "
        "w_phi=SquareClassGroup({1}), profile=None, notes=('n',))",
    ),
    "Torsor": (lambda: Torsor("psi", 17, -289), "Torsor(side='psi', b1=17, b2=-289)"),
    "TorsorPoint": (lambda: TorsorPoint(1, 1, 0), "TorsorPoint(N=1, M=1, e=0)"),
    "DescentReport": (
        _report,
        "DescentReport(k=34, "
        + "".join(
            f"{f}=SquareClassGroup({{1, 17}}), "
            for f in ("selmer_psi", "selmer_phi", "w_psi", "w_phi", "sha_psi_cert", "sha_phi_cert")
        )
        + "rank_lower=2, rank_upper=2, sha2_dim=None, noncongruent=False, height=50, "
        "witnesses={'psi': {1: TorsorPoint(N=1, M=1, e=0)}, "
        "'phi': {17: TorsorPoint(N=17, M=2, e=1)}}, classification=None, notes=('n',))",
    ),
    "FamilySpec": (
        lambda: FamilySpec(100, residues=(1, 1), legendre=1),
        "FamilySpec(bound=100, residues=(1, 1), two_p=False, legendre=1)",
    ),
    "SurveyRow": (
        lambda: _row({"phi": {"17": [17, 2, 1]}}),
        "SurveyRow(k=34, p=17, l=None, profile=None, rank_lower=2, rank_upper=2, "
        "sha_psi=SquareClassGroup({1, 17}), "
        "sha_phi=SquareClassGroup({1, 17}), "
        "witnesses={'phi': {'17': [17, 2, 1]}})",
    ),
    "SurveySummary": (
        lambda: SurveySummary(5, 3, {None: 5}),
        "SurveySummary(total=5, rank_zero=3, per_profile={None: 5})",
    ),
    "GridRow": (
        lambda: GridRow(ONE, (), ("p",), 2, ("2",), (41, 113)),
        "GridRow(profile=ResidueProfile(pi=1, a=1, b=1, c=1, d=1), sha_psi=(), "
        "sha_phi=('p',), rank_bound=2, w_phi=('2',), example=(41, 113))",
    ),
    "CheckLine": (lambda: CheckLine("x", True), "CheckLine(name='x', passed=True, detail='')"),
    "VerifyReport": (
        lambda: VerifyReport((CheckLine("x", False, "d"),)),
        "VerifyReport(checks=(CheckLine(name='x', passed=False, detail='d'),))",
    ),
}

# records with a dict field: equal ones compare equal, but hashing raises
UNHASHABLE = {"DescentReport", "SurveyRow", "SurveySummary"}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records(name):
    make, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record = RECORDS[name][0]()
    # a group has no named field: its one property stands in for one
    field = (getattr(record, "_fields", record.__slots__) or ("dim",))[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 0
    assert repr(record) == before


@pytest.mark.parametrize("name", RECORDS)
def test_reprs_are_pinned(name):
    make, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_records_pickle(name):
    record = RECORDS[name][0]()
    assert pickle.loads(pickle.dumps(record)) == record


def test_survey_row_equality_includes_witnesses():
    # a row is a NamedTuple: it compares every field, and its dict of
    # witnesses makes it unhashable
    a, b = _row({}), _row({"psi": {"2": [112, 9, 1]}})
    assert a != b and a == _row({})
    with pytest.raises(TypeError):
        hash(a)
    assert a != SurveyRow(34, 17, None, None, 0, 2, _group(), _group(), {})


def test_only_records_that_must_not_act_as_tuples_derive_from_record():
    # a ring element multiplies and a spec validates; a group is a
    # frozenset, and every other record is a NamedTuple
    assert set(Record.__subclasses__()) == {QuadInt, FamilySpec}


def test_records_differ_by_class_and_by_field():
    # a Record equals only its own class, as a dataclass does; a group is
    # a frozenset, so it equals its set of classes
    assert QuadInt(GAUSS, 1, 4) != (GAUSS, 1, 4)
    assert _group() == frozenset({1, 17})
    assert FamilySpec(100, two_p=True) != FamilySpec(101, two_p=True)
