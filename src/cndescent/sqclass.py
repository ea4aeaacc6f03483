"""Finite subgroups of Q*/Q*^2: concrete groups of squarefree integers, and
the label group over the basis (2, p, l) in which the criteria name them."""

from __future__ import annotations

from functools import cache, lru_cache
from math import gcd
from operator import itemgetter, xor

from .arith import factor
from .errors import NotAGroup, PreconditionUnmet, is_int


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


class SquareClassGroup(frozenset):
    """A finite subgroup of Q*/Q*^2: a frozenset of squarefree ints.

    Always contains 1. Construct with `span` (closure of generators) or
    `from_elements` (verifies closure, raises NotAGroup otherwise). The set
    algebra is frozenset's: a group equals and hashes as the plain frozenset
    of its classes, and `&` and `|` return plain frozensets. Only iteration
    at the Python level is ordered.
    """

    __slots__ = ()

    @staticmethod
    def span(*generators: int) -> "SquareClassGroup":
        for g in generators:
            if not is_int(g) or g == 0 or factor(g).squarefree_part() != g:
                raise PreconditionUnmet(f"{g!r} is not a nonzero squarefree int")
        group = {1}
        _extend(group, generators, squarefree_mul)
        return SquareClassGroup(group)

    @staticmethod
    def from_elements(elements) -> "SquareClassGroup":
        """The group of the given classes, 1 added. The elements must be
        nonzero squarefree ints; unlike `span`, this checks only nonzero
        ints, as checking squarefree would factor every Selmer class."""
        elems = frozenset(elements) | {1}
        if 0 in elems or not all(map(is_int, elems)):
            raise PreconditionUnmet(f"square classes are nonzero ints, got {elems!r}")

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

    def __iter__(self):
        """Classes by (|x|, x < 0); the JSON outputs and the repr list groups
        in this order. Two C-level sorts give it: x descending puts x before
        -x, and the stable sort by |x| keeps that. The classes come from
        frozenset's own iterator, as `sorted(self)` would call this one."""
        return iter(sorted(sorted(frozenset.__iter__(self), reverse=True), key=abs))

    @property
    def dim(self) -> int:
        """F_2-dimension; the order is always a power of two."""
        return len(self).bit_length() - 1

    def generators(self) -> tuple[int, ...]:
        """Canonical minimal generating set: greedy by (|x|, sign)."""
        return tuple(_extend({1}, self, squarefree_mul))

    def describe(self) -> str:
        if len(self) == 1:
            return "1"
        return "<" + ", ".join(str(g) for g in self.generators()) + ">"


_TRIVIAL = SquareClassGroup({1})  # shared: the group is immutable


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


def concretize(p: int, l: int, *label_sets) -> tuple[SquareClassGroup, ...]:
    """The concrete groups spanned by each set of label generators at
    primes p, l, one group per set, from one table of the 16 classes.

    Accepts "-1" besides the labels over (2, p, l), for the psi side, and
    raises PreconditionUnmet for any other label.
    p and l must be distinct odd primes: then -1, 2, p, l are independent
    modulo squares, a group is the XOR span of its labels' masks over
    them, and each mask's class is the product of its basis elements.

    Which classes each group takes depends on the label sets alone, so
    `_plan` works it out once per distinct tuple of sets; a pair then
    costs its value table and one frozenset per nontrivial group.
    """
    pl = p * l
    values = (1, -1, 2, -2, p, -p, 2 * p, -2 * p,
              l, -l, 2 * l, -2 * l, pl, -pl, 2 * pl, -2 * pl)
    try:
        plan = _plan(label_sets)
    except TypeError:  # a label set that is not hashable, a list say
        plan = _plan(tuple(map(frozenset, label_sets)))
    return tuple([_TRIVIAL if pick is None else SquareClassGroup(pick(values))
                  for pick in plan])


@lru_cache(maxsize=64)
def _plan(label_sets: tuple) -> tuple[itemgetter | None, ...]:
    """Per label set, the `_span_masks` getter of its span's classes from
    `concretize`'s value table, or None for the trivial span. The
    classifiers pass 16 distinct tuples: 11 for the 32 (1,1)+ profiles,
    whose certificates repeat, and one for each other Selmer row."""
    return tuple(None if len(masks) == 1 else pick
                 for masks, pick in map(_span_masks, map(frozenset, label_sets)))


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
