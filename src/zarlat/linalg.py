"""Exact linear algebra kernel over arbitrary-precision rationals.

Everything in this module is exact.  Matrices hold ``fractions.Fraction``
entries.  Every determinant, leading minor and definiteness verdict goes
through fraction-free (Bareiss) elimination over integers: a rational
matrix is first scaled by the lcm ``c`` of its denominators, and
``det A == det(cA) / c**n``.  ``det`` pivots.  Run without pivoting on a
symmetric matrix, the pivots are the leading principal minors of ``cA``,
so one symmetric elimination (:class:`BorderedElimination`) decides
Sylvester's criterion, yields ``det`` and, by integer back-substitution of
``det * x`` (integral by Cramer's rule), solves the system for every
right-hand-side column it carries, with exact divisions only.  It can be
bordered with further rows and columns without eliminating the old ones
again; :func:`sylvester_pass` is the extension of the empty state.
``solve`` (Gaussian elimination over ``Fraction``, the only ``Fraction``
elimination left) and ``signature`` (symmetric congruence reduction over
integers, with a 2x2 hyperbolic pivot when the diagonal of the live block
vanishes) are separate eliminations, kept as independent cross-checks of
the symmetric one.  Floating point is rejected on input and never appears
internally: denominators are data here, not noise.

``smith_normal_form`` is one integer loop that enforces the divisibility
chain while it eliminates and records both unimodular transforms, a
certificate that discriminant groups check (:meth:`SmithNormalForm.verify`).

Every function is pure; a :class:`BorderedElimination` is the one mutable
state, owned by the caller that extends it.  A matrix's entries never
change; its integer rows (:attr:`RationalMatrix.scaled_rows`) are computed
on first use and kept in a second slot.  Two threads reading them first may
both compute them, and each stores an equal tuple, so the race is benign
and matrices can be shared freely between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

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

    __slots__ = ("_rows", "_scaled")

    def __init__(self, rows: Iterable[Iterable]):
        converted = tuple(tuple(as_rational(x) for x in row) for row in rows)
        if converted and any(len(r) != len(converted[0]) for r in converted):
            raise ShapeError("rows have inconsistent lengths")
        self._rows = converted
        self._scaled = None

    @classmethod
    def _trusted(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "RationalMatrix":
        """Wrap rows of already validated ``Fraction`` entries without
        converting or checking them again."""
        m = object.__new__(cls)
        m._rows = rows
        m._scaled = None
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

    @property
    def scaled_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(rows, c)``: :func:`scaled_int_rows` of the entries, computed on
        first use and kept.  The rows are tuples, so no caller can change
        them; one that eliminates in place takes fresh lists from
        :func:`scaled_int_rows`."""
        scaled = self._scaled
        if scaled is None:
            rows, c = scaled_int_rows(self._rows)
            scaled = self._scaled = tuple(map(tuple, rows)), c
        return scaled

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
        rows, c = self.scaled_rows
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


def _int_det(a: list[list[int]]) -> int:
    """Determinant of square integer rows by fraction-free Gaussian
    elimination (the rows are overwritten).

    A zero pivot is replaced by a lower row that is nonzero in that column,
    and each row swap flips the sign; when no row can be swapped in, the
    determinant is 0.  Every division is exact: by Sylvester's identity each
    entry is a minor of the input, divisible by the previous pivot
    (Bareiss 1968), and the last pivot is the determinant.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        row_k = a[k]
        if row_k[k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], row_k
            row_k = a[k]
            sign = -sign
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            row_i[k + 1 :] = [
                (x * pivot - factor * y) // prev for x, y in zip(row_i[k + 1 :], row_k[k + 1 :])
            ]
        prev = pivot
    return sign * prev


def det(matrix) -> Fraction:
    """Exact determinant: ``det A == det(cA) / c**n`` with ``c`` the lcm of
    the denominators, and ``det(cA)`` by pivoting Bareiss elimination."""
    m = as_matrix(matrix)
    if not m.is_square():
        raise ShapeError(f"determinant needs a square matrix, got {m.nrows}x{m.ncols}")
    rows, c = scaled_int_rows(m.entries)
    return Fraction(_int_det(rows), c ** m.nrows)


class BorderedElimination:
    """Sylvester's criterion for negative definiteness by fraction-free
    symmetric elimination without pivoting, grown by bordering.

    The state is ``[M | R]`` for a symmetric ``n x n`` integer matrix ``M``
    and a fixed number of right-hand-side columns ``R``, after all ``n``
    elimination steps: row ``t`` holds, from column ``t`` on, its entries
    after ``t`` Bareiss steps, and :attr:`pivots` are the leading principal
    minors of ``M``.  By Sylvester's identity those entries depend only on
    the first ``t + 1`` rows and columns (Bareiss 1968), so :meth:`extend`
    borders ``M`` with new rows and columns without eliminating any old
    entry again: the state equals one fresh elimination over the rows in
    the order they joined.  Every division is exact, each entry being a
    minor divisible by the previous pivot.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def det(self) -> int:
        """``det M``: the last pivot (1 for ``n = 0``)."""
        return self.pivots[-1] if self.pivots else 1

    def extend(self, new_rows: list[list[int]]) -> bool:
        """Border ``M`` with ``new_rows``, each holding its entries in every
        column, old and new in the order of :attr:`rows` then ``new_rows``,
        followed by its right-hand-side entries.  The rows are taken over
        and overwritten.  Returns whether the bordered ``M`` is negative
        definite, that is whether the leading minors still read
        ``-, +, -, ...``; after ``False`` the state is spent.

        The new rows go through the old pivots in full, from the column
        after the pivot on.  Their entry in old column ``s`` after ``s``
        steps is, by symmetry, the old pivot row's entry in their column,
        so it is inserted into that row before the rows are updated with
        it.  The entries of an old row in the right-hand-side columns never
        change.  Then the new trailing block is eliminated, updating only
        its upper triangle, which stays symmetric.
        """
        rows, pivots = self.rows, self.pivots
        k = len(rows)
        prev = 1
        for s, row_s in enumerate(rows):
            pivot = pivots[s]
            row_s[k:k] = [row[s] for row in new_rows]
            tail = row_s[s + 1 :]
            for row in new_rows:
                factor = row[s]
                row[s + 1 :] = [(x * pivot - factor * y) // prev
                                for x, y in zip(row[s + 1 :], tail)]
            prev = pivot
        rows += new_rows
        n = len(rows)
        for s in range(k, n):
            row_s = rows[s]
            pivot = row_s[s]
            if pivot == 0 or (pivot < 0) != (s % 2 == 0):
                return False
            pivots.append(pivot)
            for i in range(s + 1, n):
                row_i = rows[i]
                factor = row_s[i]
                row_i[i:] = [(x * pivot - factor * y) // prev
                             for x, y in zip(row_i[i:], row_s[i:])]
            prev = pivot
        return True

    def solution(self, column: int) -> list[int]:
        """The integer ``y`` with ``M (y / det M) == R[:, column]``, in the
        order of :attr:`rows`; integral by Cramer's rule, and recovered by
        back-substitution with exact integer divisions."""
        rows = self.rows
        n = len(rows)
        d = self.det
        col = n + column
        y = [0] * n
        for t in range(n - 1, -1, -1):
            row = rows[t]
            y[t] = (d * row[col] - sum(map(mul, row[t + 1 : n], y[t + 1 :]))) // row[t]
        return y


def sylvester_pass(rows: list[list[int]]) -> Optional[tuple[int, list[list[int]]]]:
    """One fraction-free symmetric elimination without pivoting: a
    :class:`BorderedElimination` extended once from the empty state.

    ``rows`` holds ``[M | R]``: ``n`` integer rows of a symmetric ``n x n``
    matrix ``M``, each followed by the same number (possibly none) of
    right-hand-side entries, one per column of ``R``.  The rows are
    overwritten.  Returns ``None`` unless ``M`` is negative definite, which
    is decided by Sylvester's criterion on the pivots (the leading minors
    must be ``-, +, -, ...``; the pass stops at the first one breaking the
    pattern).  Otherwise returns ``(det M, solutions)``, one integer list
    ``y`` per column ``r`` of ``R`` with ``M (y / det M) == r``.  For
    ``n = 0`` there are no rows to carry a column: the result is ``(1, [])``.
    """
    elimination = BorderedElimination()
    if not elimination.extend(rows):
        return None
    n = len(rows)
    width = len(rows[0]) if n else 0
    return elimination.det, [elimination.solution(c) for c in range(width - n)]


def solve(matrix, rhs) -> tuple[Fraction, ...]:
    """Solve ``matrix @ x = rhs`` exactly for a square nonsingular matrix."""
    m = as_matrix(matrix)
    if not m.is_square():
        raise ShapeError(f"solve needs a square matrix, got {m.nrows}x{m.ncols}")
    b = as_vector(rhs)
    if len(b) != m.nrows:
        raise ShapeError(f"right-hand side length {len(b)} != matrix size {m.nrows}")
    n = m.nrows
    a = [list(row) + [x] for row, x in zip(m.entries, b)]
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
    """Inertia of a symmetric matrix by exact congruence reduction over integers.

    The reduction starts from the integer rows of ``c * A`` (``c > 0``, see
    :attr:`RationalMatrix.scaled_rows`) and keeps only the live block, the
    rows and columns not yet pivoted on.  The first nonzero diagonal entry
    ``p`` of the block is a 1x1 pivot: the new block is ``|p|`` times the
    Schur complement, entries ``|p| a_rs - sign(p) a_rp a_ps``.  When the
    whole diagonal vanishes, the first nonzero entry ``b`` above it spans a
    hyperbolic 2x2 pivot ``[[0, b], [b, 0]]``, one positive and one negative
    square, and the new block is ``b**2`` times its Schur complement,
    entries ``b**2 a_rs - b (a_ri a_js + a_rj a_is)``.  After each step the
    block is divided by the gcd of its entries.  Every scale is positive, so
    each block is congruent to a positive multiple of the ``Fraction``
    reduction's, with the same pivots chosen, and by Sylvester's law of
    inertia the counts are those of ``A``.
    """
    m = as_matrix(matrix)
    a, _ = m.scaled_rows
    n = m.nrows
    if n != m.ncols or any(a[i][j] != a[j][i] for i in range(n) for j in range(i + 1, n)):
        raise ShapeError("signature needs a symmetric matrix")
    n_plus = n_minus = 0
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is not None:
            pivot_row = a[k]
            p = pivot_row[k]
            if p > 0:
                n_plus += 1
            else:
                n_minus += 1
            q = abs(p)
            rest_k = pivot_row[:k] + pivot_row[k + 1 :]
            block = []
            for r, row in enumerate(a):
                if r == k:
                    continue
                f = row[k] if p > 0 else -row[k]
                rest = row[:k] + row[k + 1 :]
                block.append([q * x - f * y for x, y in zip(rest, rest_k)] if f
                             else [q * x for x in rest])
        else:
            ij = next(((i, j) for i, row in enumerate(a) for j in range(i + 1, len(a)) if row[j]),
                      None)
            if ij is None:
                break  # the live block is zero
            i, j = ij
            row_i, row_j = a[i], a[j]
            b = row_i[j]
            bb = b * b
            n_plus += 1
            n_minus += 1
            keep = [s for s in range(len(a)) if s != i and s != j]
            block = []
            for r in keep:
                row, ri, rj = a[r], a[r][i], a[r][j]
                block.append([bb * row[s] - b * (ri * row_j[s] + rj * row_i[s]) for s in keep])
        g = gcd(*(x for row in block for x in row))
        a = [[x // g for x in row] for row in block] if g > 1 else block
    return Inertia(n_plus, n_minus, n - n_plus - n_minus)


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
