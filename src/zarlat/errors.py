"""Exception types shared across the package."""


class ZarlatError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(ZarlatError):
    """Matrix or vector dimensions do not match the operation's contract."""


class SingularMatrixError(ZarlatError):
    """A linear solve, inversion or discriminant hit a singular matrix."""


class DomainError(ZarlatError):
    """An argument lies outside the operation's domain."""


class AxiomViolationError(ZarlatError):
    """Two distinct components pair negatively under the quadratic form.

    Carries the offending index pairs and the labels that name them.
    """

    def __init__(self, pairs, labels):
        self.pairs = tuple(pairs)
        self.labels = tuple(labels)
        shown = ", ".join(f"({self.labels[i]}, {self.labels[j]})" for i, j in self.pairs)
        super().__init__(f"not an intersection product; negative pairings at {shown}")


class InconsistencyError(ZarlatError):
    """A computation reached a state that valid inputs cannot produce."""


class OracleMismatchError(ZarlatError):
    """Exhaustive enumeration found zero or several candidate decompositions."""
