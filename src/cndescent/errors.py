"""Typed failure modes shared across the package.

Every computational dead end gets its own class so callers can tell a
precondition violation from an internal inconsistency. Nothing here ever
returns a sentinel value; symbols are +1/-1 or an exception.

The argument contract: every rejected argument raises a `DescentError`.
A check with no more specific class raises `PreconditionUnmet`, which is
also a `ValueError`. An integer argument of another type is rejected too
(`is_int`, and `check_height` for every search height), where the check
costs nothing next to the call.
"""


def is_int(value) -> bool:
    """Whether value may stand for an integer argument: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


class DescentError(Exception):
    """Base class for all package errors."""


class NotCoprime(DescentError):
    """Symbol arguments share a factor with the modulus."""


class NonOddModulus(DescentError):
    """Jacobi modulus must be odd and positive."""


class UndefinedSymbol(DescentError):
    """Quartic/ring symbol evaluated where it has no value."""


class BadResidueClass(DescentError):
    """Argument lies outside the residue class the operation needs."""


class Inert(DescentError):
    """Prime does not split in the requested quadratic ring."""


class NoPrimaryAssociate(DescentError):
    """No associate (or conjugate associate) meets the primary congruence."""


class CompositeModulus(DescentError):
    """Ring symbol modulus must have odd prime norm."""


class NotAGroup(DescentError):
    """A set that must be closed under the square-class product is not."""


class InconsistentCriteria(DescentError):
    """Two results that must agree do not: a profile's W candidates are
    not a group, a torsion class lies outside its Selmer group, or the
    found rank exceeds the certified bound."""


class FamilyMismatch(DescentError):
    """Classifier invoked outside the residue family it covers."""


class BudgetExceeded(DescentError):
    """Bounded search exhausted without a conclusive answer."""


class FactorBudgetExceeded(BudgetExceeded):
    """Factoring gave up within the configured effort bound."""


class FrozenRecord(DescentError, AttributeError):
    """Assignment to a field of an immutable record; an `AttributeError`
    too, as for any read-only attribute."""


class PreconditionUnmet(DescentError, ValueError):
    """Operation precondition fails for these arguments; a `ValueError` too,
    so `except ValueError` callers catch it."""


def check_height(height) -> None:
    """Refuse a point-search height that is not an int >= 0."""
    if not is_int(height) or height < 0:
        raise PreconditionUnmet(f"height must be an int >= 0, got {height!r}")
