"""Exception types shared across the library, all under UnitIndexError."""


class UnitIndexError(Exception):
    """Base of every failure the library raises on purpose."""


class PreconditionViolated(UnitIndexError, ValueError):
    """An argument fails the defining condition of the requested operation."""


class NoSquareRoot(UnitIndexError, ValueError):
    """Modular square root requested for a quadratic non-residue."""


class NotSquarefree(UnitIndexError, ValueError):
    """Input has a repeated prime factor where a squarefree value is required."""


class CompositeResidualFactor(UnitIndexError, RuntimeError):
    """Factorization gave up with a composite cofactor left over."""


class NotSplit(UnitIndexError, ValueError):
    """Rational prime does not split in the requested extension."""


class NotCoprime(UnitIndexError, ValueError):
    """Symbol numerator shares a factor with the modulus."""


class NoNegativeNormUnit(UnitIndexError, ValueError):
    """The real quadratic field has no unit of norm -1."""


class LocalObstruction(UnitIndexError, ValueError):
    """A ternary form has no nontrivial zero over some completion."""

    def __init__(self, place, message=None):
        self.place = place
        super().__init__(message or f"no nontrivial solution over the completion at {place}")


class HeightExceeded(UnitIndexError, RuntimeError):
    """Solution search exhausted its height bound."""


class IterationLimitExceeded(UnitIndexError, RuntimeError):
    """An iterative routine hit its safety cap."""


class OutOfScopeM(UnitIndexError, ValueError):
    """The unit-index verdict is only defined for the two largest split counts."""


class TheoryViolation(UnitIndexError, RuntimeError):
    """A numeric fact the underlying theory guarantees failed to hold.

    Raised instead of silently producing wrong output; scan drivers catch
    these, record them per prime, and surface them in reports.
    """


class NoDecomposition(TheoryViolation):
    """No kernel vector yields a globally solvable two-block splitting of d."""


class NormalizationFailed(TheoryViolation):
    """A ternary solution could not be brought to the normalized shape."""


class NonRealSymbolProduct(TheoryViolation):
    """A quartic-symbol product that must be real came out imaginary."""
