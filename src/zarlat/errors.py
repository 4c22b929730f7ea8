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

    Carries the offending index pairs so callers can report them.
    """

    def __init__(self, pairs, labels=None):
        self.pairs = tuple(pairs)
        self.labels = tuple(labels) if labels is not None else None
        shown = ", ".join(self._describe(i, j) for i, j in self.pairs)
        super().__init__(f"not an intersection product; negative pairings at {shown}")

    def _describe(self, i, j):
        if self.labels is not None:
            return f"({self.labels[i]}, {self.labels[j]})"
        return f"({i}, {j})"


class InconsistencyError(ZarlatError):
    """A computation reached a state that valid inputs cannot produce."""


class OracleMismatchError(ZarlatError):
    """Exhaustive enumeration found zero or several candidate decompositions."""


class GenerationError(ZarlatError):
    """Random instance generation exhausted its resampling budget."""
