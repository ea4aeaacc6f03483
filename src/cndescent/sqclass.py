"""Finite subgroups of Q*/Q*^2: concrete groups of squarefree integers, and
the label group over the basis (2, p, l) in which the criteria name them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd
from operator import xor

from .errors import NotAGroup


def squarefree_mul(a: int, b: int) -> int:
    """Product of square classes: squarefree representative of a*b."""
    g = gcd(a, b)
    return (a // g) * (b // g)


def _double(generators, mul, one) -> set:
    """Span by doubling: G <- G u gG for each g not yet in G.

    In an elementary abelian 2-group, G u gG is again a group, so no
    closure pass is needed after a generator.
    """
    elems = {one}
    for g in generators:
        if g not in elems:
            elems |= {mul(g, e) for e in elems}
    return elems


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
            raise ValueError("0 is not a square class")
        return SquareClassGroup(frozenset(_double(generators, squarefree_mul, 1)))

    @staticmethod
    def from_elements(elements) -> "SquareClassGroup":
        elems = frozenset(elements) | {1}

        def mul(a: int, b: int) -> int:
            c = squarefree_mul(a, b)
            if c not in elems:
                raise NotAGroup(f"{a} * {b} = {c} missing from {sorted(elems)}")
            return c

        # the span of elems equals elems iff elems is closed; checking each
        # product as it is formed keeps the span inside elems, at most
        # len(elems) - 1 products
        _double(elems, mul, 1)
        return SquareClassGroup(elems)

    @staticmethod
    def trivial() -> "SquareClassGroup":
        return SquareClassGroup(frozenset({1}))

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
        gens: list[int] = []
        span = {1}
        for x in self:
            if x in span:
                continue
            gens.append(x)
            span |= {squarefree_mul(x, e) for e in span}
        return tuple(gens)

    def describe(self) -> str:
        if len(self.elements) == 1:
            return "1"
        return "<" + ", ".join(str(g) for g in self.generators()) + ">"


# --- the label group over (2, p, l) -------------------------------------------

# the classes {1, 2, p, 2p, l, 2l, pl, 2pl} mod squares; a label's index is
# its 3-bit mask over the basis (2, p, l), so the product is XOR
LABELS = ("1", "2", "p", "2p", "l", "2l", "pl", "2pl")
_MASK = {s: m for m, s in enumerate(LABELS)}


def label_span(labels) -> frozenset[str]:
    """The subgroup of the label group generated by the given labels."""
    return frozenset(LABELS[m] for m in _double((_MASK[s] for s in labels), xor, 0))


# each label's 4-bit mask over the basis (-1, 2, p, l) of the concrete group
_CONCRETE_MASK = {"-1": 1, **{s: m << 1 for s, m in _MASK.items()}}


def concretize(labels, p: int, l: int) -> SquareClassGroup:
    """The concrete group spanned by label generators at primes p, l.

    Accepts "-1" besides the labels over (2, p, l), for the psi side.
    p and l must be distinct odd primes: then -1, 2, p, l are independent
    modulo squares, the group is the XOR span of the labels' masks over
    them, and each mask's class is the product of its basis elements.
    """
    pl = p * l
    values = (1, -1, 2, -2, p, -p, 2 * p, -2 * p,
              l, -l, 2 * l, -2 * l, pl, -pl, 2 * pl, -2 * pl)
    masks = _span_masks(frozenset(labels).intersection(_CONCRETE_MASK))
    return SquareClassGroup(frozenset([values[m] for m in masks]))


@cache
def _span_masks(labels: frozenset[str]) -> tuple[int, ...]:
    """The sorted masks of the span of known labels, at most 2^9 sets;
    sorted so the ints enter the frozenset in one order in every process."""
    return tuple(sorted(_double((_CONCRETE_MASK[s] for s in labels), xor, 0)))
