import itertools
import math
import pickle
import random

import pytest

from cndescent.criteria import PHI_CLASSES
from cndescent.errors import NotAGroup, PreconditionUnmet
from cndescent.sqclass import SquareClassGroup, concretize, label_span, squarefree_mul
from cndescent.survey import REFERENCE_GRID


def test_squarefree_mul_cancels_common_part():
    assert squarefree_mul(6, 10) == 15
    assert squarefree_mul(5, 5) == 1
    assert squarefree_mul(-2, 3) == -6
    assert squarefree_mul(-2, -3) == 6


def test_span_and_membership():
    g = SquareClassGroup.span(-1, 17, 89)
    assert len(g) == 8
    assert g.dim == 3
    assert -1513 in g and 1513 in g
    assert 2 not in g


def test_from_elements_requires_closure():
    SquareClassGroup.from_elements({1, 2, 17, 34})
    with pytest.raises(NotAGroup):
        SquareClassGroup.from_elements({1, 2, 17})
    with pytest.raises(NotAGroup):
        SquareClassGroup.from_elements({2, 34})  # no identity


def _pairwise_from_elements(elements) -> bool:
    """Closure by forming every product: the check from_elements used to make."""
    elems = frozenset(elements) | {1}
    return all(squarefree_mul(a, b) in elems for a in elems for b in elems)


def _accepts(elements) -> bool:
    try:
        group = SquareClassGroup.from_elements(elements)
    except NotAGroup:
        return False
    assert group == frozenset(elements) | {1}
    return True


def test_from_elements_matches_pairwise_check():
    universe = SquareClassGroup.span(-1, 2, 17)
    for n in range(len(universe) + 1):
        for sub in itertools.combinations(sorted(universe), n):
            assert _accepts(sub) == _pairwise_from_elements(sub), sub
    rng = random.Random(1513)
    primes = (-1, 2, 3, 5, 7, 11, 13)
    accepted = 0
    for _ in range(500):
        group = SquareClassGroup.span(*rng.sample(primes, rng.randrange(5)))
        elems = set(group)
        # drop, add or keep a few classes, and sometimes the identity
        for x in rng.sample(sorted(elems), min(len(elems), rng.randrange(3))):
            elems.discard(x)
        for _ in range(rng.randrange(3)):
            elems.add(math.prod(rng.sample(primes, rng.randrange(1, 4))))
        ok = _accepts(elems)
        assert ok == _pairwise_from_elements(elems), sorted(elems)
        accepted += ok
    assert 0 < accepted < 500


def test_a_group_is_a_frozenset_of_its_classes():
    g = SquareClassGroup.span(-1, 2, 17)
    h = SquareClassGroup.span(17, 89)
    plain = frozenset(frozenset.__iter__(g))
    assert isinstance(g, frozenset)
    assert g == plain and plain == g and hash(g) == hash(plain)
    # the set algebra is frozenset's: meet and join are plain sets
    assert type(g & h) is frozenset and g & h == {1, 17}
    assert type(g | h) is frozenset and g | h == plain.union(h) and len(g | h) == 10
    assert all((x in g) == (x in plain) for x in (1, -1, -34, 89, 0, "1"))
    assert len(g) == len(plain) == 8
    assert SquareClassGroup.span(17) <= g and not h <= g
    # iteration at the Python level keeps the (|x|, x < 0) order
    order = [1, -1, 2, -2, 17, -17, 34, -34]
    assert list(g) == order and tuple(g) == tuple(order)
    back = pickle.loads(pickle.dumps(g))
    assert type(back) is SquareClassGroup and back == g and list(back) == order
    assert repr(g) == f"SquareClassGroup({{{', '.join(map(str, order))}}})"
    for name in ("dim", "elements", "x"):
        with pytest.raises(AttributeError):
            setattr(g, name, 0)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert list(g) == order


def test_generators_regenerate():
    g = SquareClassGroup.span(6, 10, -15)
    regen = SquareClassGroup.span(*g.generators())
    assert regen == g
    assert len(g.generators()) == g.dim


def test_trivial_and_describe():
    t = SquareClassGroup.trivial()
    assert t.dim == 0 and len(t) == 1
    assert t.describe() == "1"
    assert SquareClassGroup.span(2, 82).describe() == "<2, 41>"


def test_subgroup_order():
    small = SquareClassGroup.span(41)
    big = SquareClassGroup.span(2, 41)
    assert small <= big
    assert not big <= small


def _pairwise_closure(gens):
    elems = {1, *gens}
    while True:
        extra = {squarefree_mul(a, b) for a in elems for b in elems}
        if extra <= elems:
            return frozenset(elems)
        elems |= extra


def test_span_matches_pairwise_closure():
    rng = random.Random(2002)
    primes = (2, 3, 5, 7, 11, 13, 17)
    for _ in range(300):
        gens = []
        for _ in range(rng.randrange(6)):
            chosen = rng.sample(primes, rng.randrange(1, 4))
            gens.append(rng.choice((1, -1)) * math.prod(chosen))
        assert SquareClassGroup.span(*gens) == _pairwise_closure(gens), gens


def test_label_span_then_concretize_matches_span():
    p, l = 17, 89
    value = {"2": 2, "p": p, "2p": 2 * p, "l": l, "2l": 2 * l, "pl": p * l, "2pl": 2 * p * l}
    subsets = [
        sub for n in range(len(PHI_CLASSES) + 1)
        for sub in itertools.combinations(PHI_CLASSES, n)
    ]
    assert len(subsets) == 128
    for sub in subsets:
        labels = label_span(sub)
        want = SquareClassGroup.span(*(value[s] for s in sub))
        assert concretize(p, l, labels) == (want,), sub
        assert len(labels) == len(want), sub


def test_concretize_matches_span_on_every_label_subset():
    labels = ("-1", "1", "2", "p", "2p", "l", "2l", "pl", "2pl")
    for p, l in ((3, 11), (11, 3), (5, 13), (7, 23), (17, 89), (999983, 999961)):
        value = {"-1": -1, "1": 1, "2": 2, "p": p, "2p": 2 * p, "l": l,
                 "2l": 2 * l, "pl": p * l, "2pl": 2 * p * l}
        subs = [sub for n in range(len(labels) + 1) for sub in itertools.combinations(labels, n)]
        want = tuple(SquareClassGroup.span(*(value[s] for s in sub)) for sub in subs)
        # one call with every subset, as tuples and as frozensets
        assert concretize(p, l, *subs) == want, (p, l)
        assert concretize(p, l, *map(frozenset, subs)) == want, (p, l)
    # a list is a label set too, though it cannot key the plan cache
    assert concretize(17, 89, ["p", "-1"], ()) == concretize(17, 89, ("p", "-1"), ())
    assert concretize(17, 89) == ()


def test_iteration_order_is_abs_then_positive_first():
    def want(group):
        return sorted(group, key=lambda v: (abs(v), v < 0))

    labels = ("-1", "1", "2", "p", "2p", "l", "2l", "pl", "2pl")
    subs = [sub for n in range(len(labels) + 1) for sub in itertools.combinations(labels, n)]
    for row in REFERENCE_GRID:
        for group in concretize(*row.example, *subs):
            assert list(group) == want(group), (row.example, group)
    # spans with negative classes, -1 among the generators or not
    rng = random.Random(32)
    for _ in range(300):
        gens = [
            rng.choice((1, -1)) * math.prod(rng.sample((2, 3, 5, 7, 11, 13), rng.randrange(1, 4)))
            for _ in range(rng.randrange(1, 5))
        ]
        for group in (SquareClassGroup.span(*gens), SquareClassGroup.span(-1, *gens)):
            assert list(group) == want(group), gens


def test_concretize_rejects_an_unknown_label():
    with pytest.raises(PreconditionUnmet, match="'x'"):
        concretize(3, 11, ("p",), ("-1", "x"))


def test_label_span_rejects_an_unknown_label():
    with pytest.raises(PreconditionUnmet, match="'x'"):
        label_span(("x",))
    # "-1" is a concrete class, not a label over (2, p, l)
    with pytest.raises(PreconditionUnmet, match='"-1"'):
        label_span(("p", "-1"))
