"""Exact linear algebra kernel over arbitrary-precision rationals.

Everything in this module is exact.  Matrices hold ``fractions.Fraction``
entries.  Every determinant, leading minor and definiteness verdict goes
through one fraction-free (Bareiss) elimination loop over integers: a
rational matrix is first scaled by the lcm ``c`` of its denominators, and
``det A == det(cA) / c**n``.  Run without pivoting on a symmetric matrix,
the loop's successive pivots are the leading principal minors of ``cA``,
so a single pass (:func:`sylvester_pass`) decides Sylvester's criterion,
yields ``det`` and, by integer back-substitution of ``det * x`` (integral
by Cramer's rule), solves a linear system with exact divisions only.
``solve`` (Gaussian elimination over ``Fraction``) and ``signature``
(symmetric congruence reduction with a 2x2 pivot fallback, so hyperbolic
blocks with zero diagonal stay exact) are separate eliminations, kept as
independent cross-checks of that pass.  Floating point is rejected on
input and never appears internally: denominators are data here, not noise.

``smith_normal_form`` is one integer loop that enforces the divisibility
chain while it eliminates and records both unimodular transforms, a
certificate that discriminant groups check (:meth:`SmithNormalForm.verify`).

All values are immutable after construction and every operation is a pure
function, so matrices can be shared freely between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError, ShapeError, SingularMatrixError


_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def as_rational(value) -> Fraction:
    """Convert ``value`` to an exact rational.

    Accepts ``int`` (not ``bool``), ``Fraction`` and strings in the exact
    grammar ``^-?[0-9]+(/[1-9][0-9]*)?$`` such as ``"3"`` or ``"-5/7"``; the
    CLI reads problem files and ``--volume`` through this same function.
    Everything else raises :class:`DomainError`: floats and strings like
    ``"1.5"`` or ``"1e3"``, because a caller holding one has already lost
    exactness, and ``" 3"``, ``"+3"``, ``"3/0"`` or ``"3/-4"``, because
    they are not in the grammar.
    """
    if type(value) is Fraction:
        return value  # immutable and already reduced
    if isinstance(value, bool):
        raise DomainError(f"boolean {value!r} is not a rational number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value) is None:
            raise DomainError(
                f"{value!r} is not an exact rational; expected an integer or a 'p/q' string"
            )
        return Fraction(value)
    if isinstance(value, float):
        raise DomainError(f"float {value!r} rejected; use int, Fraction or 'p/q' string")
    raise DomainError(f"cannot interpret {type(value).__name__} as an exact rational")


def as_vector(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(as_rational(v) for v in values)


class RationalMatrix:
    """Immutable two-dimensional array of exact rationals."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable]):
        converted = tuple(tuple(as_rational(x) for x in row) for row in rows)
        if converted and any(len(r) != len(converted[0]) for r in converted):
            raise ShapeError("rows have inconsistent lengths")
        self._rows = converted

    @classmethod
    def _trusted(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "RationalMatrix":
        """Wrap rows of already validated ``Fraction`` entries without
        converting or checking them again."""
        m = object.__new__(cls)
        m._rows = rows
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def symmetric(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        """Build a matrix that is required to be symmetric.

        Rejects any input where entry (i, j) differs from entry (j, i).
        """
        m = cls(rows)
        if not m.is_square():
            raise ShapeError(f"symmetric matrix must be square, got {m.nrows}x{m.ncols}")
        for i in range(m.nrows):
            for j in range(i + 1, m.ncols):
                if m[i, j] != m[j, i]:
                    raise ShapeError(f"asymmetric entry at ({i}, {j}): {m[i, j]} != {m[j, i]}")
        return m

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        return all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self._rows for x in row)

    def int_rows(self) -> list[list[int]]:
        """Entries as plain Python ints; raises if any entry is fractional."""
        if not self.is_integral():
            raise DomainError("matrix has non-integer entries")
        return [[int(x) for x in row] for row in self._rows]

    def submatrix(self, indices: Sequence[int]) -> "RationalMatrix":
        """Principal submatrix on the given (row = column) indices."""
        idx = list(indices)
        rows = self._rows
        return RationalMatrix._trusted(tuple(tuple(rows[i][j] for j in idx) for i in idx))

    def replace_column(self, j: int, column: Sequence) -> "RationalMatrix":
        col = as_vector(column)
        if len(col) != self.nrows:
            raise ShapeError("replacement column has wrong length")
        return RationalMatrix._trusted(
            tuple(
                tuple(col[i] if c == j else self._rows[i][c] for c in range(self.ncols))
                for i in range(self.nrows)
            )
        )

    def matvec(self, vec: Sequence) -> tuple[Fraction, ...]:
        """``self @ vec`` by integer dot products: the vector is scaled by the
        lcm of its denominators, the matrix by the lcm of its own, and each
        entry of the result is one ``Fraction``."""
        v = as_vector(vec)
        if len(v) != self.ncols:
            raise ShapeError(f"vector length {len(v)} != column count {self.ncols}")
        rows, c = scaled_int_rows(self._rows)
        s = lcm(*(x.denominator for x in v))
        w = [x.numerator * (s // x.denominator) for x in v]
        scale = c * s
        return tuple(Fraction(sum(map(mul, row, w)), scale) for row in rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"RationalMatrix({self.nrows}x{self.ncols}: {body})"


def as_matrix(value) -> RationalMatrix:
    return value if isinstance(value, RationalMatrix) else RationalMatrix(value)


def scaled_int_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """``(int_rows, c)``: the rows of ``c * rows`` as fresh lists of ints,
    where ``c`` is the lcm of the entry denominators (1 when integral)."""
    c = lcm(*(x.denominator for row in rows for x in row))
    if c == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (c // x.denominator) for x in row] for row in rows], c


def _bareiss_pivots(a: list[list[int]], n: int, symmetric: bool = False) -> Iterator[int]:
    """Fraction-free Gaussian elimination of the integer rows ``a``, in place.

    ``a`` has ``n`` rows and at least ``n`` columns; columns past the
    ``n``-th (right-hand sides) are carried along.  For ``k = 0, 1, ...``
    this yields pivot ``k`` before eliminating with it; the caller may stop
    at any pivot.  Every division is exact: by Sylvester's identity each
    entry is a minor of the input, divisible by the previous pivot
    (Bareiss 1968).

    By default a zero pivot is replaced by a lower row that is nonzero in
    that column, each yielded pivot carries the sign of the row permutation
    so far, and the last value yielded is the determinant (0 when no row
    can be swapped in).  With ``symmetric`` the leading block must be
    symmetric and rows are never swapped: pivot ``k`` is the ``(k + 1)``-th
    leading principal minor, a zero pivot ends the elimination (after being
    yielded), and only the upper triangle is updated, since the trailing
    block stays symmetric and that half suffices for the pivots and for
    back-substitution.
    """
    sign = 1
    prev = 1
    for k in range(n):
        row_k = a[k]
        if row_k[k] == 0:
            swap = None if symmetric else next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                yield 0
                return
            a[k], a[swap] = a[swap], row_k
            row_k = a[k]
            sign = -sign
        pivot = row_k[k]
        yield sign * pivot
        for i in range(k + 1, n):
            row_i = a[i]
            if symmetric:
                start, factor = i, row_k[i]
            else:
                start, factor = k + 1, row_i[k]
            row_i[start:] = [
                (x * pivot - factor * y) // prev for x, y in zip(row_i[start:], row_k[start:])
            ]
        prev = pivot


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of square integer rows (the rows are overwritten)."""
    value = 1
    for value in _bareiss_pivots(rows, len(rows)):
        pass
    return value


def det(matrix) -> Fraction:
    """Exact determinant: ``det A == det(cA) / c**n`` with ``c`` the lcm of
    the denominators, and ``det(cA)`` by pivoting Bareiss elimination."""
    m = as_matrix(matrix)
    if not m.is_square():
        raise ShapeError(f"determinant needs a square matrix, got {m.nrows}x{m.ncols}")
    rows, c = scaled_int_rows(m.entries)
    return Fraction(_int_det(rows), c ** m.nrows)


def sylvester_pass(rows: list[list[int]]) -> Optional[tuple[int, list[int]]]:
    """One fraction-free symmetric elimination without pivoting.

    ``rows`` holds ``[M | r]``: ``n`` integer rows of a symmetric ``n x n``
    matrix ``M``, each optionally followed by one right-hand-side entry.
    The rows are overwritten.  Returns ``None`` unless ``M`` is negative
    definite, which is decided by Sylvester's criterion on the pivots (the
    leading minors must be ``-, +, -, ...``; the pass stops at the first
    one breaking the pattern).  Otherwise returns ``(det M, y)`` with
    ``M (y / det M) == r``; ``y`` is integral by Cramer's rule and is
    recovered by back-substitution with exact integer divisions (``y`` is
    empty when no right-hand side was given).  ``det M`` is 1 for ``n = 0``.
    """
    n = len(rows)
    d = 1
    for k, d in enumerate(_bareiss_pivots(rows, n, symmetric=True)):
        if d == 0 or (d < 0) != (k % 2 == 0):
            return None
    if n == 0 or len(rows[0]) == n:
        return d, []
    y = [0] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        y[k] = (d * row[n] - sum(map(mul, row[k + 1 : n], y[k + 1 :]))) // row[k]
    return d, y


def solve(matrix, rhs) -> tuple[Fraction, ...]:
    """Solve ``matrix @ x = rhs`` exactly for a square nonsingular matrix."""
    m = as_matrix(matrix)
    if not m.is_square():
        raise ShapeError(f"solve needs a square matrix, got {m.nrows}x{m.ncols}")
    b = as_vector(rhs)
    if len(b) != m.nrows:
        raise ShapeError(f"right-hand side length {len(b)} != matrix size {m.nrows}")
    n = m.nrows
    a = [list(m.row(i)) + [b[i]] for i in range(n)]
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        a[k], a[pivot_row] = a[pivot_row], a[k]
        pivot = a[k][k]
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            f = a[i][k] / pivot
            for j in range(k, n + 1):
                a[i][j] -= f * a[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = a[k][n] - sum((a[k][j] * x[j] for j in range(k + 1, n)), Fraction(0))
        x[k] = acc / a[k][k]
    return tuple(x)


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative and zero squares of a symmetric form."""

    n_plus: int
    n_minus: int
    n_zero: int


def signature(matrix) -> Inertia:
    """Inertia of a symmetric matrix by exact congruence reduction.

    Nonzero diagonal entries are used as 1x1 pivots; when every remaining
    diagonal entry vanishes, a nonzero off-diagonal entry provides a 2x2
    hyperbolic pivot contributing one positive and one negative square.
    By Sylvester's law of inertia the counts are congruence invariants.
    """
    m = as_matrix(matrix)
    if not m.is_symmetric():
        raise ShapeError("signature needs a symmetric matrix")
    a = [list(row) for row in m.entries]
    live = list(range(m.nrows))
    n_plus = n_minus = n_zero = 0
    while live:
        pivot = next((i for i in live if a[i][i] != 0), None)
        if pivot is not None:
            p = a[pivot][pivot]
            if p > 0:
                n_plus += 1
            else:
                n_minus += 1
            live.remove(pivot)
            for r in live:
                if a[r][pivot] == 0:
                    continue
                f = a[r][pivot] / p
                for s in live:
                    a[r][s] -= f * a[pivot][s]
            continue
        block = None
        for pos, i in enumerate(live):
            for j in live[pos + 1 :]:
                if a[i][j] != 0:
                    block = (i, j)
                    break
            if block:
                break
        if block is None:
            n_zero += len(live)
            break
        i, j = block
        b = a[i][j]
        n_plus += 1
        n_minus += 1
        live.remove(i)
        live.remove(j)
        # Schur complement of the hyperbolic 2x2 block [[0, b], [b, 0]].
        for r in live:
            ri, rj = a[r][i], a[r][j]
            if ri == 0 and rj == 0:
                continue
            for s in live:
                a[r][s] -= (ri * a[j][s] + rj * a[i][s]) / b
    return Inertia(n_plus, n_minus, n_zero)


def leading_principal_minors(matrix) -> tuple[Fraction, ...]:
    m = as_matrix(matrix)
    if not m.is_square():
        raise ShapeError("principal minors need a square matrix")
    return tuple(det(m.submatrix(range(k + 1))) for k in range(m.nrows))


def is_negative_definite(matrix) -> bool:
    """Sylvester criterion: leading principal minors strictly alternate,
    starting negative; decided by one :func:`sylvester_pass`."""
    m = as_matrix(matrix)
    if not m.is_symmetric():
        raise ShapeError("definiteness test needs a symmetric matrix")
    return sylvester_pass(scaled_int_rows(m.entries)[0]) is not None


@dataclass(frozen=True)
class SmithNormalForm:
    """Diagonalization ``left @ matrix @ right == diag(diagonal)``.

    ``left`` and ``right`` are unimodular integer matrices, kept so the
    reduction can be certified after the fact instead of trusted.  The
    diagonal is nonnegative, each entry divides the next, and zeros come last.
    """

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    matrix: tuple[tuple[int, ...], ...]

    def verify(self) -> bool:
        """Check the whole contract: ``n x n`` parts, ``U M V == diag``,
        ``|det U| == |det V| == 1``, and a nonnegative diagonal in which each
        entry divides the next (zero divides only zero, so zeros come last)."""
        diag = self.diagonal
        n = len(diag)
        if {len(r) for t in (self.left, self.right, self.matrix) for r in (t, *t)} != {n}:
            return False
        if any(x < 0 for x in diag) or any((b % a if a else b) for a, b in zip(diag, diag[1:])):
            return False
        umv = _int_matmul(_int_matmul(self.left, self.matrix), self.right)
        if umv != tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)):
            return False
        return all(abs(_int_det([list(r) for r in t])) == 1 for t in (self.left, self.right))


def _int_matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def smith_normal_form(matrix) -> SmithNormalForm:
    """Smith normal form of a square integer matrix with transform records.

    For each ``t`` an entry of least magnitude in the trailing block moves
    to ``(t, t)``, and column ``t`` and row ``t`` are cleared by division
    with remainder; when the pivot divides row ``t`` but not the whole
    block, a row of the block is first added into row ``t``.  Row operations
    are recorded in ``left`` and column operations in ``right``.
    """
    m = as_matrix(matrix)
    if not m.is_square():
        raise ShapeError(f"Smith normal form needs a square matrix, got {m.nrows}x{m.ncols}")
    d = m.int_rows()
    n = len(d)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [row[:] for row in u]
    for t in range(n):
        # Each repeat leaves a nonzero remainder smaller than |d[t][t]| in row
        # or column t, so |d[t][t]| strictly decreases and no budget is needed.
        while True:
            block = ((abs(x), i, j) for i in range(t, n) for j, x in enumerate(d[i][t:], t) if x)
            least = min(block, default=None)
            if least is None:
                break  # the trailing block is zero, and so is the rest of the diagonal
            _, i, j = least
            for mat in (d, u):
                mat[t], mat[i] = mat[i], mat[t]
            for row in d + v:
                row[t], row[j] = row[j], row[t]
            p = d[t][t]
            for i in range(t + 1, n):
                q = d[i][t] // p
                if q:
                    for mat in (d, u):
                        mat[i] = [x - q * y for x, y in zip(mat[i], mat[t])]
            column_left = any(d[i][t] for i in range(t + 1, n))
            if not column_left and not any(x % p for x in d[t][t + 1 :]):
                # Adding a row with an entry p does not divide makes clearing
                # row t below leave a remainder.
                bad = next((i for i in range(t + 1, n) if any(x % p for x in d[i][t + 1 :])), None)
                if bad is not None:
                    for mat in (d, u):
                        mat[t] = [x + y for x, y in zip(mat[t], mat[bad])]
            for j in range(t + 1, n):
                q = d[t][j] // p
                if q:
                    for row in d + v:
                        row[j] -= q * row[t]
            if not column_left and not any(d[t][t + 1 :]):
                break
        if d[t][t] < 0:
            for mat in (d, u):
                mat[t] = [-x for x in mat[t]]
    return SmithNormalForm(
        diagonal=tuple(d[t][t] for t in range(n)),
        left=tuple(tuple(r) for r in u),
        right=tuple(tuple(r) for r in v),
        matrix=tuple(tuple(r) for r in m.int_rows()),
    )
