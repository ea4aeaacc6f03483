"""The argument contract: every public callable, given a hostile value of an
arithmetic argument, answers or raises a `DescentError`, and never another
exception type, a hang or an exhausted host. The callables of the witness
oracle in `tests/witness_oracle.py` keep the same contract.

One child process, capped at 1 GiB of address space, evaluates every probe
below and reports each outcome. Work-size arguments (`height`, `bound`, wide
`primes_in` ranges) are out of scope: refusing those needs time and memory
budgets, so every probe keeps them small.

Hostile types are in scope where the type check is cheap next to the call.
These refuse a value that is not an int, a bool included: `FamilySpec`'s
bound, residues and legendre, the k of `descend` and `classify_auto`,
every search height (`descend`, `search_points`, `run_survey`, even over
an empty sweep), the torsor coefficients of `search_points` and
`locally_solvable`, `smallest_example`'s bound, the bounds and residue of
`primes_in`, the classes of the `SquareClassGroup` constructors, and the
primes of `classify_2p`, `residue_profile` and the pl classifiers.
`FamilySpec`'s two_p must be a bool, and a profile must be a tuple or a
list. The symbols, `jacobi` first, and their kernels run thousands of
times per survey and stay unchecked for type.
"""

import json
from pathlib import Path

import cndescent

import witness_oracle
from test_descent import _run_child

# the expected outcome of each probe: "answer", or the DescentError it raises
PROBES = {
    "jacobi": {
        "jacobi(2, 17)": "answer",
        "jacobi(1, 0)": "NonOddModulus",
        "jacobi(1, -3)": "NonOddModulus",
        "jacobi(1, 4)": "NonOddModulus",
        "jacobi(0, 1)": "answer",
        "jacobi(3, 9)": "NotCoprime",
        "jacobi(-1, 15)": "answer",
        "jacobi(BIG, 3)": "answer",
    },
    "octic_minus4": {
        "octic_minus4(17)": "answer",
        "octic_minus4(0)": "BadResidueClass",
        "octic_minus4(1)": "BadResidueClass",
        "octic_minus4(-1)": "BadResidueClass",
        "octic_minus4(-17)": "BadResidueClass",
        "octic_minus4(697)": "BadResidueClass",
        "octic_minus4(9)": "BadResidueClass",
        "octic_minus4(13)": "BadResidueClass",
        "octic_minus4(BIG)": "BadResidueClass",
    },
    "primes_in": {
        "primes_in(0, 100, 1)": "answer",
        "primes_in(0, 0)": "answer",
        "primes_in(-50, 10)": "answer",
        "primes_in(10, -1)": "answer",
        "primes_in(0, 100, -1)": "answer",
        "primes_in('1', 10)": "PreconditionUnmet",
        "primes_in(1, 10.5)": "PreconditionUnmet",
        "primes_in(0, 10, residue='1')": "PreconditionUnmet",
    },
    "quartic_symbol": {
        "quartic_symbol(2, 17)": "answer",
        "quartic_symbol(2, 0)": "BadResidueClass",
        "quartic_symbol(2, 1)": "BadResidueClass",
        "quartic_symbol(2, -17)": "BadResidueClass",
        "quartic_symbol(2, 65)": "BadResidueClass",
        "quartic_symbol(2, 3)": "BadResidueClass",
        "quartic_symbol(0, 17)": "NotCoprime",
        "quartic_symbol(17, 17)": "NotCoprime",
        "quartic_symbol(3, 17)": "UndefinedSymbol",
        "quartic_symbol(-1, 13)": "answer",
        "quartic_symbol(2, BIG)": "BadResidueClass",
    },
    "classify_2p": {
        "classify_2p(17)": "answer",
        "classify_2p(0)": "FamilyMismatch",
        "classify_2p(1)": "FamilyMismatch",
        "classify_2p(-1)": "FamilyMismatch",
        "classify_2p(-17)": "FamilyMismatch",
        "classify_2p(2)": "FamilyMismatch",
        "classify_2p(9)": "FamilyMismatch",
        "classify_2p(697)": "FamilyMismatch",
        "classify_2p(13)": "FamilyMismatch",
        "classify_2p(BIG)": "FamilyMismatch",
        "classify_2p('17')": "FamilyMismatch",
    },
    "classify_11_minus": {
        "classify_11_minus(17, 97)": "answer",
        "classify_11_minus(0, 0)": "FamilyMismatch",
        "classify_11_minus(1, 1)": "FamilyMismatch",
        "classify_11_minus(-17, -97)": "FamilyMismatch",
        "classify_11_minus(97, 97)": "FamilyMismatch",
        "classify_11_minus(17, 697)": "FamilyMismatch",
        "classify_11_minus(17, 89)": "FamilyMismatch",
        "classify_11_minus(3, 11)": "FamilyMismatch",
        "classify_11_minus(17, BIG)": "FamilyMismatch",
        "classify_11_minus('17', 97)": "FamilyMismatch",
    },
    "classify_11_plus": {
        "classify_11_plus(17, 89)": "answer",
        "classify_11_plus(0, 0)": "FamilyMismatch",
        "classify_11_plus(1, 1)": "FamilyMismatch",
        "classify_11_plus(-17, -89)": "FamilyMismatch",
        "classify_11_plus(89, 89)": "FamilyMismatch",
        "classify_11_plus(17, 697)": "FamilyMismatch",
        "classify_11_plus(17, 97)": "FamilyMismatch",
        "classify_11_plus(5, 13)": "FamilyMismatch",
        "classify_11_plus(17, BIG)": "FamilyMismatch",
    },
    "classify_small_residues": {
        "classify_small_residues(3, 11)": "answer",
        "classify_small_residues(0, 0)": "FamilyMismatch",
        "classify_small_residues(1, 1)": "FamilyMismatch",
        "classify_small_residues(-3, -11)": "FamilyMismatch",
        "classify_small_residues(11, 11)": "FamilyMismatch",
        "classify_small_residues(3, 33)": "FamilyMismatch",
        "classify_small_residues(3, 5)": "FamilyMismatch",
        "classify_small_residues(17, 41)": "FamilyMismatch",
        "classify_small_residues(2, 3)": "FamilyMismatch",
        "classify_small_residues(3, BIG)": "FamilyMismatch",
        "classify_small_residues('3', 11)": "FamilyMismatch",
        "classify_small_residues('%d', 11)": "FamilyMismatch",
    },
    "residue_profile": {
        "residue_profile(17, 89)": "answer",
        "residue_profile(0, 0)": "FamilyMismatch",
        "residue_profile(1, 1)": "FamilyMismatch",
        "residue_profile(-17, -89)": "FamilyMismatch",
        "residue_profile(89, 89)": "FamilyMismatch",
        "residue_profile(9, 17)": "FamilyMismatch",
        "residue_profile(17, 97)": "FamilyMismatch",
        "residue_profile(5, 13)": "FamilyMismatch",
        "residue_profile(17, BIG)": "FamilyMismatch",
        "residue_profile('17', 89)": "FamilyMismatch",
    },
    "classify_auto": {
        "classify_auto(697)": "answer",
        "classify_auto(0)": "answer",
        "classify_auto(1)": "answer",
        "classify_auto(-1)": "answer",
        "classify_auto(-697)": "answer",
        "classify_auto(4)": "answer",
        "classify_auto(18)": "answer",
        "classify_auto(17 * 41 * 89)": "answer",
        "classify_auto(BIG)": "FactorBudgetExceeded",
        "classify_auto('697')": "PreconditionUnmet",
        "classify_auto(697.0)": "PreconditionUnmet",
    },
    "classify_profile": {
        "classify_profile((1, 1, 1, 1, 1))": "answer",
        "classify_profile((0, 0, 0, 0, 0))": "PreconditionUnmet",
        "classify_profile((2, 1, 1, 1, 1))": "PreconditionUnmet",
        "classify_profile((1, 1, 1, 1, -2))": "PreconditionUnmet",
        "classify_profile((1, 1, 1))": "PreconditionUnmet",
        "classify_profile(5)": "PreconditionUnmet",
    },
    "descend": {
        "descend(697, 10)": "answer",
        "descend(0, 10)": "PreconditionUnmet",
        "descend(-1, 10)": "PreconditionUnmet",
        "descend(-697, 10)": "PreconditionUnmet",
        "descend(1, 10)": "answer",
        "descend(18, 10)": "answer",
        "descend(697, -1)": "PreconditionUnmet",
        "descend(BIG, 10)": "FactorBudgetExceeded",
        "descend('5')": "PreconditionUnmet",
        "descend(5.0)": "PreconditionUnmet",
        "descend(697, '5')": "PreconditionUnmet",
        "descend(697, True)": "PreconditionUnmet",
    },
    "enumerate_torsors": {
        "enumerate_torsors(697, PSI)": "answer",
        "enumerate_torsors(0, PSI)": "PreconditionUnmet",
        "enumerate_torsors(-3, PHI)": "PreconditionUnmet",
        "enumerate_torsors(1, PHI)": "answer",
        "enumerate_torsors(12, PSI)": "answer",
        "enumerate_torsors(697, 'chi')": "PreconditionUnmet",
        "enumerate_torsors(BIG, PSI)": "FactorBudgetExceeded",
    },
    "selmer_group": {
        "selmer_group(697, PHI)": "answer",
        "selmer_group(0, PSI)": "PreconditionUnmet",
        "selmer_group(-5, PHI)": "PreconditionUnmet",
        "selmer_group(1, PSI)": "answer",
        "selmer_group(18, PHI)": "answer",
        "selmer_group(697, 'chi')": "PreconditionUnmet",
        "selmer_group(BIG, PSI)": "FactorBudgetExceeded",
    },
    "locally_solvable": {
        "locally_solvable(17, -17 * 697**2)": "answer",
        "locally_solvable(0, 5)": "BadResidueClass",
        "locally_solvable(5, 0)": "BadResidueClass",
        "locally_solvable(-1, -1)": "answer",
        "locally_solvable(1, -1)": "answer",
        "locally_solvable(4, -9)": "answer",
        "locally_solvable(BIG, -1)": "FactorBudgetExceeded",
        "locally_solvable('1', 2)": "BadResidueClass",
        "locally_solvable(1.5, 2)": "BadResidueClass",
    },
    "search_points": {
        "search_points(Torsor(PSI, 17, -17 * 697**2), 10)": "answer",
        "search_points(Torsor(PSI, 0, 5), 10)": "PreconditionUnmet",
        "search_points(Torsor(PSI, 5, 0), 10)": "PreconditionUnmet",
        "search_points(Torsor(PSI, -1, -1), 10)": "answer",
        "search_points(Torsor(PSI, 4, -9), 10)": "answer",
        "search_points(Torsor(PSI, 17, -17), -1)": "PreconditionUnmet",
        "search_points(Torsor(PSI, BIG, -BIG), 10)": "answer",
        "search_points(Torsor(PSI, 17, -17 * 697**2), 2.5)": "PreconditionUnmet",
        "search_points(Torsor(PSI, 1.5, -2), 10)": "PreconditionUnmet",
        "search_points(Torsor(PSI, '1', -2), 10)": "PreconditionUnmet",
    },
    "primary_associate": {
        "primary_associate(QuadInt(GAUSS, 1, 4))": "answer",
        "primary_associate(QuadInt(GAUSS, 0, 0))": "NoPrimaryAssociate",
        "primary_associate(QuadInt(GAUSS, 1, 1))": "NoPrimaryAssociate",
        "primary_associate(QuadInt(SQRT2, 2, 0))": "NoPrimaryAssociate",
        "primary_associate(QuadInt(SQRTM2, 0, 1))": "NoPrimaryAssociate",
        "primary_associate(QuadInt(GAUSS, -1, 0))": "answer",
        "primary_associate(QuadInt(SQRT2, BIG, 0))": "answer",
    },
    "ring_symbol": {
        "ring_symbol(QuadInt(GAUSS, 2, 1), QuadInt(GAUSS, 1, 4))": "answer",
        "ring_symbol(QuadInt(GAUSS, 2, 1), QuadInt(SQRT2, 3, 1))": "PreconditionUnmet",
        "ring_symbol(QuadInt(SQRT2, 1, 0), QuadInt(SQRTM2, 3, 1))": "PreconditionUnmet",
        "ring_symbol(QuadInt(GAUSS, 2, 1), QuadInt(GAUSS, 0, 0))": "CompositeModulus",
        "ring_symbol(QuadInt(GAUSS, 2, 1), QuadInt(GAUSS, 1, 0))": "CompositeModulus",
        "ring_symbol(QuadInt(GAUSS, 2, 1), QuadInt(GAUSS, 1, 1))": "CompositeModulus",
        "ring_symbol(QuadInt(GAUSS, 2, 1), QuadInt(GAUSS, 3, 4))": "CompositeModulus",
        "ring_symbol(QuadInt(GAUSS, 0, 0), QuadInt(GAUSS, 1, 4))": "NotCoprime",
        "ring_symbol(QuadInt(GAUSS, BIG, 1), QuadInt(GAUSS, 1, 4))": "answer",
    },
    "split_prime": {
        "split_prime(17, GAUSS)": "answer",
        "split_prime(0, GAUSS)": "BadResidueClass",
        "split_prime(1, SQRT2)": "BadResidueClass",
        "split_prime(-17, GAUSS)": "BadResidueClass",
        "split_prime(2, GAUSS)": "Inert",
        "split_prime(3, GAUSS)": "Inert",
        "split_prime(5, SQRT2)": "Inert",
        "split_prime(697, SQRTM2)": "BadResidueClass",
        "split_prime(BIG, GAUSS)": "BadResidueClass",
    },
    "symbol_capital": {
        "symbol_capital(17, 89, SQRT2)": "answer",
        "symbol_capital(0, 0, SQRT2)": "UndefinedSymbol",
        "symbol_capital(1, 1, GAUSS)": "UndefinedSymbol",
        "symbol_capital(-17, -89, SQRT2)": "UndefinedSymbol",
        "symbol_capital(89, 89, SQRT2)": "UndefinedSymbol",
        "symbol_capital(17, 697, SQRT2)": "BadResidueClass",
        "symbol_capital(17, 97, SQRTM2)": "UndefinedSymbol",
        "symbol_capital(5, 13, GAUSS)": "UndefinedSymbol",
        "symbol_capital(17, BIG, SQRT2)": "BadResidueClass",
    },
    "SquareClassGroup": {
        "SquareClassGroup.span(-1, 2, 697)": "answer",
        "SquareClassGroup.span(0)": "PreconditionUnmet",
        "SquareClassGroup.span(1)": "answer",
        "SquareClassGroup.span(-1)": "answer",
        "SquareClassGroup.span(4)": "PreconditionUnmet",
        "SquareClassGroup.span(-4)": "PreconditionUnmet",
        "SquareClassGroup.span(18)": "PreconditionUnmet",
        "SquareClassGroup.span(2, 8)": "PreconditionUnmet",
        "SquareClassGroup.span(BIG)": "FactorBudgetExceeded",
        "SquareClassGroup.from_elements([-1, 17, -17])": "answer",
        "SquareClassGroup.from_elements([2, 3])": "NotAGroup",
        "SquareClassGroup.from_elements([-1])": "answer",
        "SquareClassGroup.from_elements([0])": "PreconditionUnmet",
        "SquareClassGroup.span('2')": "PreconditionUnmet",
        "SquareClassGroup.span(2.0)": "PreconditionUnmet",
        "SquareClassGroup.span(True)": "PreconditionUnmet",
        "SquareClassGroup.from_elements(['a'])": "PreconditionUnmet",
        "SquareClassGroup.from_elements([1.5])": "PreconditionUnmet",
    },
    "FamilySpec": {
        "FamilySpec(100, residues=(1, 1))": "answer",
        "FamilySpec(2, residues=(1, 1))": "PreconditionUnmet",
        "FamilySpec(-5, two_p=True)": "PreconditionUnmet",
        "FamilySpec(100)": "PreconditionUnmet",
        "FamilySpec(100, residues=(1, 1), two_p=True)": "PreconditionUnmet",
        "FamilySpec(100, residues=(2, 2))": "PreconditionUnmet",
        "FamilySpec(100, residues=(-1, -1))": "PreconditionUnmet",
        "FamilySpec(100, residues=(1, 5))": "FamilyMismatch",
        "FamilySpec(100, residues=1)": "PreconditionUnmet",
        "FamilySpec(100, residues=(1, 1, 1))": "PreconditionUnmet",
        "FamilySpec(100, residues=(1,))": "PreconditionUnmet",
        "hash(FamilySpec(100, residues=[1, 1]))": "answer",
        "FamilySpec(100, residues=(1, 1), legendre=0)": "PreconditionUnmet",
        "FamilySpec(100, residues=(3, 3), legendre=1)": "PreconditionUnmet",
        "FamilySpec(100, two_p=True, legendre=-1)": "PreconditionUnmet",
        "FamilySpec(BIG, two_p=True)": "answer",
        "FamilySpec(100, residues=(1.0, 1))": "PreconditionUnmet",
        "FamilySpec(100, residues=(True, True))": "PreconditionUnmet",
        "FamilySpec('100', two_p=True)": "PreconditionUnmet",
        "FamilySpec(True, two_p=True)": "PreconditionUnmet",
        "FamilySpec(100, residues=(1, 1), legendre=1.0)": "PreconditionUnmet",
        "FamilySpec(100, two_p='yes')": "PreconditionUnmet",
        "FamilySpec(100, two_p=1)": "PreconditionUnmet",
    },
    "run_survey": {
        "run_survey(FamilySpec(200, residues=(1, 1)), 5)": "answer",
        "run_survey(FamilySpec(200, residues=(1, 1)), -1)": "PreconditionUnmet",
        "run_survey(FamilySpec(200, two_p=True), -5)": "PreconditionUnmet",
        "run_survey(FamilySpec(200, residues=(1, 1)), '1')": "PreconditionUnmet",
        "run_survey(FamilySpec(200, residues=(1, 1)), 1.5)": "PreconditionUnmet",
        "run_survey(FamilySpec(3, two_p=True), '1')": "PreconditionUnmet",
    },
    "smallest_example": {
        "smallest_example((1, 1, 1, 1, 1), 2000)": "BudgetExceeded",
        "smallest_example((1, 1, -1, -1, -1), 2000)": "answer",
        "smallest_example((0, 0, 0, 0, 0), 2000)": "PreconditionUnmet",
        "smallest_example((1, 1, 1, 1))": "PreconditionUnmet",
        "smallest_example((1, 1, 1, 1, 1), 0)": "BudgetExceeded",
        "smallest_example((1, 1, 1, 1, 1), -1)": "BudgetExceeded",
        "smallest_example((1, 1, -1, -1, -1), '2000')": "PreconditionUnmet",
        "smallest_example(5)": "PreconditionUnmet",
    },
    "verify_reference": {"verify_reference()": "answer"},
}

# the same contract for the callables of the witness oracle, which is test code
ORACLE_PROBES = {
    "half_symbols": {
        "half_symbols(17)": "answer",
        "half_symbols(0)": "BadResidueClass",
        "half_symbols(1)": "BadResidueClass",
        "half_symbols(-17)": "BadResidueClass",
        "half_symbols(9)": "BadResidueClass",
        "half_symbols(697)": "BadResidueClass",
        "half_symbols(5)": "BadResidueClass",
        "half_symbols(BIG)": "BadResidueClass",
    },
    "check_witness": {
        "check_witness(41, 113, (3936, 25, 1))": "answer",
        "check_witness(1, 0, (1, 1, 1))": "HypothesisViolated",
        "check_witness(0, 0, (0, 0, 0))": "HypothesisViolated",
        "check_witness(41, 41, (3936, 25, 1))": "HypothesisViolated",
        "check_witness(-41, 113, (3936, 25, 1))": "HypothesisViolated",
        "check_witness(41, 697, (3936, 25, 1))": "HypothesisViolated",
        "check_witness(41, 113, (0, 0, 0))": "HypothesisViolated",
        "check_witness(41, 113, (3936, 25, 2))": "HypothesisViolated",
        "check_witness(3, 11, (1, 1, 1))": "HypothesisViolated",
        "check_witness(41, BIG, (1, 1, 1))": "HypothesisViolated",
    },
    "decompose_psi_point": {
        "decompose_psi_point(41, 113, (3936, 25, 1))": "answer",
        "decompose_psi_point(1, 0, (1, 1, 1))": "HypothesisViolated",
        "decompose_psi_point(0, 0, (0, 0, 0))": "HypothesisViolated",
        "decompose_psi_point(41, 41, (3936, 25, 1))": "HypothesisViolated",
        "decompose_psi_point(113, -41, (3936, 25, 1))": "HypothesisViolated",
        "decompose_psi_point(9, 113, (3936, 25, 1))": "HypothesisViolated",
        "decompose_psi_point(41, 113, (-3936, -25, 1))": "answer",
        "decompose_psi_point(41, 113, (3936, 25, 0))": "HypothesisViolated",
        "decompose_psi_point(BIG, 41, (1, 1, 1))": "HypothesisViolated",
    },
}

# names of `cndescent.__all__` with no arithmetic argument to probe
EXEMPT = {
    "ALL_PROFILES": "constant",
    "GAUSS": "constant",
    "PHI": "constant",
    "PSI": "constant",
    "REFERENCE_GRID": "constant",
    "SQRT2": "constant",
    "SQRTM2": "constant",
    "Torsor": "plain record; search_points and locally_solvable check its fields",
    "TorsorPoint": "plain record; the witness oracle's decompose_psi_point checks it",
    "ResidueProfile": "plain record; classify_profile checks its signs",
    "Classification": "plain record the classifiers build",
    "DescentReport": "plain record descend builds",
    "DescentError": "the contract's base class",
}

_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, {tests!r})
from cndescent import *
from cndescent.quadring import QuadInt
from witness_oracle import check_witness, decompose_psi_point, half_symbols
BIG = 10**19 + 1  # past factor's budget of 10^18
for call in {calls!r}:
    try:
        eval(call)
        outcome = "answer"
    except DescentError as exc:
        outcome = type(exc).__name__
    except Exception as exc:
        outcome = "not a DescentError: " + type(exc).__name__
    print(json.dumps([call, outcome]))
"""


def test_hostile_arguments_answer_or_raise_a_descent_error():
    tables = {**PROBES, **ORACLE_PROBES}
    expected = {call: out for probes in tables.values() for call, out in probes.items()}
    out = _run_child(_CHILD.format(tests=str(Path(__file__).parent), calls=list(expected)))
    got = dict(json.loads(line) for line in out.splitlines())
    assert {c: o for c, o in got.items() if o.startswith("not a")} == {}
    assert {c: o for c, o in got.items() if o != expected[c]} == {}


def test_every_public_name_has_an_entry():
    names = set(cndescent.__all__)
    assert sorted(names - PROBES.keys() - EXEMPT.keys()) == []
    assert sorted((PROBES.keys() | EXEMPT.keys()) - names) == []
    assert sorted(PROBES.keys() & EXEMPT.keys()) == []
    assert sorted(ORACLE_PROBES.keys() & names) == []
    assert all(callable(getattr(witness_oracle, name)) for name in ORACLE_PROBES)
