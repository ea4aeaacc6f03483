"""Finite subgroups of Q*/Q*^2: concrete groups of squarefree integers, and
the label group over the basis (2, p, l) in which the criteria name them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd
from operator import itemgetter, xor

from .arith import factor
from .errors import NotAGroup, PreconditionUnmet


def squarefree_mul(a: int, b: int) -> int:
    """Product of square classes: squarefree representative of a*b."""
    g = gcd(a, b)
    return (a // g) * (b // g)


def _extend(group: set, candidates, mul) -> list:
    """Grow `group` in place by the candidates in order, G <- G u gG for
    each g not yet in G, and return the candidates that grew it: a basis of
    the new G over the old one.

    In an elementary abelian 2-group, G u gG is again a group, so no
    closure pass is needed after a candidate.
    """
    basis = []
    for g in candidates:
        if g not in group:
            group |= {mul(g, e) for e in group}
            basis.append(g)
    return basis


@dataclass(frozen=True)
class SquareClassGroup:
    """A finite subgroup of Q*/Q*^2 as a frozenset of squarefree ints.

    Always contains 1. Construct with `span` (closure of generators) or
    `from_elements` (verifies closure, raises NotAGroup otherwise).
    """

    elements: frozenset[int]

    @staticmethod
    def span(*generators: int) -> "SquareClassGroup":
        if 0 in generators:
            raise PreconditionUnmet("0 is not a square class")
        for g in generators:
            if factor(g).squarefree_part() != g:
                raise PreconditionUnmet(f"{g} is not squarefree")
        group = {1}
        _extend(group, generators, squarefree_mul)
        return SquareClassGroup(frozenset(group))

    @staticmethod
    def from_elements(elements) -> "SquareClassGroup":
        """The group of the given classes, 1 added. The elements must be
        nonzero squarefree ints; unlike `span`, this checks only nonzero, as
        checking squarefree would factor every Selmer class."""
        elems = frozenset(elements) | {1}
        if 0 in elems:
            raise PreconditionUnmet("0 is not a square class")

        def mul(a: int, b: int) -> int:
            c = squarefree_mul(a, b)
            if c not in elems:
                raise NotAGroup(f"{a} * {b} = {c} missing from {sorted(elems)}")
            return c

        # the span of elems equals elems iff elems is closed; checking each
        # product as it is formed keeps the span inside elems, at most
        # len(elems) - 1 products
        _extend({1}, elems, mul)
        return SquareClassGroup(elems)

    @staticmethod
    def trivial() -> "SquareClassGroup":
        return _TRIVIAL

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __iter__(self):
        """Classes by (|x|, x < 0); the JSON outputs list groups in this order."""
        return iter(sorted(self.elements, key=lambda v: (abs(v), v < 0)))

    def __len__(self) -> int:
        return len(self.elements)

    def __le__(self, other: "SquareClassGroup") -> bool:
        return self.elements <= other.elements

    @property
    def dim(self) -> int:
        """F_2-dimension; the order is always a power of two."""
        n = len(self.elements)
        return n.bit_length() - 1

    def generators(self) -> tuple[int, ...]:
        """Canonical minimal generating set: greedy by (|x|, sign)."""
        return tuple(_extend({1}, self, squarefree_mul))

    def describe(self) -> str:
        if len(self.elements) == 1:
            return "1"
        return "<" + ", ".join(str(g) for g in self.generators()) + ">"


_TRIVIAL = SquareClassGroup(frozenset({1}))  # shared: the group is immutable


# --- the label group over (2, p, l) -------------------------------------------

# the classes {1, 2, p, 2p, l, 2l, pl, 2pl} mod squares; a label's index is
# its 3-bit mask over the basis (2, p, l), so the product is XOR
LABELS = ("1", "2", "p", "2p", "l", "2l", "pl", "2pl")

# each label's 4-bit mask over the basis (-1, 2, p, l) of the concrete group
_CONCRETE_MASK = {"-1": 1, **{s: m << 1 for m, s in enumerate(LABELS)}}


def label_span(labels) -> frozenset[str]:
    """The subgroup of the label group generated by the given labels.

    Raises PreconditionUnmet for a label outside LABELS, "-1" included.
    """
    masks, _ = _span_masks(frozenset(labels))
    if 1 in masks:
        raise PreconditionUnmet('"-1" is not a label over (2, p, l)')
    return frozenset(LABELS[m >> 1] for m in masks)


def _label_mul(a: str, b: str) -> str:
    """The product of two labels over (2, p, l)."""
    return LABELS[LABELS.index(a) ^ LABELS.index(b)]


def concretize(labels, p: int, l: int) -> SquareClassGroup:
    """The concrete group spanned by label generators at primes p, l.

    Accepts "-1" besides the labels over (2, p, l), for the psi side, and
    raises PreconditionUnmet for any other label.
    p and l must be distinct odd primes: then -1, 2, p, l are independent
    modulo squares, the group is the XOR span of the labels' masks over
    them, and each mask's class is the product of its basis elements.
    """
    masks, pick = _span_masks(frozenset(labels))
    if len(masks) == 1:
        return _TRIVIAL
    pl = p * l
    values = (1, -1, 2, -2, p, -p, 2 * p, -2 * p,
              l, -l, 2 * l, -2 * l, pl, -pl, 2 * pl, -2 * pl)
    return SquareClassGroup(frozenset(pick(values)))


@cache
def _span_masks(labels: frozenset[str]) -> tuple[tuple[int, ...], itemgetter]:
    """The sorted masks of the span of the labels and an itemgetter over
    them, at most 2^9 sets, checked once per set; sorted so the ints enter
    the frozenset in one order in every process. The getter returns a
    tuple only for two masks or more, the nontrivial spans."""
    unknown = labels - _CONCRETE_MASK.keys()
    if unknown:
        raise PreconditionUnmet(f"unknown class labels {sorted(unknown)}")
    masks = {0}
    _extend(masks, (_CONCRETE_MASK[s] for s in labels), xor)
    masks = tuple(sorted(masks))
    return masks, itemgetter(*masks)
