"""Exception types shared across the package."""


class GL2RepError(Exception):
    """Base class for all package errors."""


class NonIntegral(GL2RepError):
    """A quantity that must be a rational integer is not.

    Multiplicities of irreducible constituents are nonnegative integers;
    hitting this error indicates an inconsistent character-table encoding
    or a malformed input, never a legitimate mathematical outcome.
    """


class OrderTooLarge(GL2RepError):
    """Requested root-of-unity order exceeds the supported cap, cyclotomic.MAX_ORDER."""


class NotPrime(GL2RepError):
    pass


class NotPrimePower(GL2RepError):
    pass


class BudgetExceeded(GL2RepError):
    """The requested computation exceeds the brute-force size budget."""


class ZeroElement(GL2RepError):
    """The discrete log, order or inverse of the zero field element was requested."""


class Singular(GL2RepError):
    """A matrix expected to be invertible has determinant zero."""


class MismatchedQ(GL2RepError):
    """Labels from different base fields q were combined."""


class MismatchedGroup(GL2RepError):
    """Group functions over different groups were combined."""


class InvalidLabel(GL2RepError):
    """A parameter label violates its domain constraints."""


class NotMultiplicityFree(GL2RepError):
    """Operation requires an irreducible with multiplicity-free induction."""


class WitnessFailed(GL2RepError):
    """A designated high-multiplicity witness came out below two."""


class InvalidClassMap(GL2RepError):
    """Subgroup-to-group conjugacy class map is malformed."""


class InvalidCharTable(GL2RepError):
    """An explicit character table is not square or its rows are not orthogonal."""


class NegativeMultiplicity(GL2RepError):
    """An indicator-form multiplicity evaluated below zero.

    The subtracted indicator conditions are mutually exclusive on valid
    labels, so this can only fire on an encoding bug.
    """
