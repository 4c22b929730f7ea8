"""Exact linear algebra kernel over arbitrary-precision rationals.

A :class:`RationalMatrix` is the integer rows of ``cA`` and the scale
``c``, the lcm of the entry denominators, computed once by the constructor
and never changed, so matrices can be shared freely between threads.
``Fraction`` values appear only at the edges, in the entries a caller
reads and the results it gets back; floats are rejected on input, since
denominators are data here.  One reader, :func:`scaled_rationals`, turns
every rational vector and the entries of every matrix into integers over
one lcm, building no ``Fraction``; what is not an ``int`` or a ``Fraction``
is read by the one grammar, :func:`as_rational`.  Exact input is built in
a few C-level passes, not one Python step per entry: a list or tuple of
nothing but ``int`` is its own numerators over ``1``, decided by one type
scan, and a matrix reaches the reader as one flat list, each row that is
not a list or tuple read into one first: a refused row raises before any
entry, then entries in reading order, then the shape.  Symmetry is one
comparison of the rows with their transpose, ``tuple(zip(*rows))``.

Every determinant, leading minor and definiteness verdict is fraction-free
(Bareiss) elimination over those integers, with ``det A == det(cA) / c**n``
and every division exact by Sylvester's identity.  The kernel has two such
loops and one back-substitution they share (:func:`back_substitute`).
``det`` pivots (:func:`bareiss_det`), and :func:`bareiss_solve`, behind
``solve``, runs that loop over ``[M | r]`` and back-substitutes its one
right-hand side.  Without pivoting on a symmetric matrix the pivots are the
leading principal minors of ``cA``, so one symmetric elimination, two
pivots per pass (:class:`BorderedElimination`), decides Sylvester's
criterion, yields ``det`` and, by integer back-substitution of ``det * x``
(integral by Cramer's rule), solves for every right-hand side it carries.
It can be bordered with further rows and columns without eliminating the
old ones again.  ``signature`` is a third elimination, a congruence
reduction over integers with one pivot rule, 1x1; when the diagonal of the
live block vanishes, a unimodular congruence first makes one entry of it
nonzero.  ``smith_normal_form`` is one integer loop that enforces the
divisibility chain while it eliminates and records both unimodular
transforms, a certificate that discriminant groups check
(:meth:`SmithNormalForm.verify`).

Every function is pure; a :class:`BorderedElimination` is the one mutable
state, owned by the caller that extends it.
"""

from __future__ import annotations

import decimal
import re
import sys
from collections.abc import Iterable, Mapping, Set as AbstractSet
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DomainError, ShapeError, SingularMatrixError


_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _digit_limit_error(what: str, digits: int) -> DomainError:
    """The error for a string in an integer grammar whose conversion the
    interpreter refuses: more digits than ``sys.get_int_max_str_digits()``
    allows.  It gives the digit count, not the string."""
    return DomainError(f"{what} has {digits} digits, more than the interpreter's limit of "
                       f"{sys.get_int_max_str_digits()} for integer string conversion")


# Ints of at most this many bits (at most 4215 decimal digits) stay under the
# interpreter's default 4300-digit conversion limit and use the builtin.
_BUILTIN_STR_BITS = 14_000
# Leaves of the divide and conquer: small enough for a direct conversion.
_LEAF_BITS = 128


def decimal_string(n: int) -> str:
    """``n`` in decimal, exactly as ``int.__str__`` writes it, at any size.

    Above the default conversion limit the value is split as
    ``n = hi * 2**h + lo``, ``h`` half its bit length, down to 128-bit
    leaves, and reassembled in :mod:`decimal` arithmetic, whose large
    products are subquadratic; each power of two is computed once per call.
    This is ``int_to_decimal_string`` from CPython 3.12's ``Lib/_pylong.py``
    (gh-90716), about 6x faster than ``int.__str__`` on the 168,192-digit
    reverse bound of ``K3n:2`` at rho = 2.
    """
    if n.bit_length() <= _BUILTIN_STR_BITS:
        return int.__repr__(n)
    two = decimal.Decimal(2)
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        result = powers.get(w)
        if result is None:
            if w <= _LEAF_BITS:
                result = two ** w
            elif w - 1 in powers:
                result = powers[w - 1] + powers[w - 1]
            else:
                # The smaller half first, so an odd ``w`` finds ``w - 1`` cached.
                result = power(w >> 1) * power(w - (w >> 1))
            powers[w] = result
        return result

    def convert(m: int, w: int) -> decimal.Decimal:
        if w <= _LEAF_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(n), abs(n).bit_length()))
    return "-" + digits if n < 0 else digits


def _fraction_string(q: Fraction) -> str:
    """``str(q)`` for an int or a ``Fraction``, at any size."""
    if q.denominator == 1:
        return decimal_string(q.numerator)
    return f"{decimal_string(q.numerator)}/{decimal_string(q.denominator)}"


def _shown(value) -> str:
    """``repr(value)`` for an error message, at any size: an int or a
    ``Fraction``, or a list or tuple of them, prints its digits by
    :func:`decimal_string`, so a value past the int/str conversion limit
    still gives the intended error; anything else is its own ``repr``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return decimal_string(value)
    if isinstance(value, Fraction):
        return (f"{type(value).__name__}({decimal_string(value.numerator)}, "
                f"{decimal_string(value.denominator)})")
    if type(value) is list:
        return f"[{', '.join(map(_shown, value))}]"
    if type(value) is tuple:
        return f"({', '.join(map(_shown, value))}{',' if len(value) == 1 else ''})"
    return repr(value)


def as_rational(value) -> Fraction:
    """Convert ``value`` to an exact rational.

    Accepts ``int`` (not ``bool``), ``Fraction`` and strings in the exact
    grammar ``^-?[0-9]+(/[1-9][0-9]*)?$`` such as ``"3"`` or ``"-5/7"``; the
    CLI reads problem files and ``--volume`` through this same function.
    Everything else raises :class:`DomainError`: floats and strings like
    ``"1.5"`` or ``"1e3"``, because a caller holding one has already lost
    exactness, and ``" 3"``, ``"+3"``, ``"3/0"`` or ``"3/-4"``, because
    they are not in the grammar.  A string in the grammar with more digits
    than the interpreter's int/str conversion limit allows raises
    :class:`DomainError` too; the limit is the caller's to lift.
    """
    if isinstance(value, bool):
        raise DomainError(f"boolean {value!r} is not a rational number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value) is None:
            raise DomainError(
                f"{value!r} is not an exact rational; expected an integer or a 'p/q' string"
            )
        try:
            return Fraction(value)
        except ValueError:  # in the grammar, so only the digit limit refuses it
            raise _digit_limit_error("rational string", sum(map(str.isdigit, value))) from None
    if isinstance(value, float):
        raise DomainError(f"float {value!r} rejected; use int, Fraction or 'p/q' string")
    raise DomainError(f"cannot interpret {type(value).__name__} as an exact rational")


def as_integer(value) -> int:
    """``value`` as an ``int`` when :func:`as_rational` reads it as an
    integral rational: an ``int`` (``BigInt`` too, as a plain ``int``), an
    integral ``Fraction`` or a string such as ``"-3"``.  A fractional value
    raises :class:`DomainError`, as does everything :func:`as_rational` refuses."""
    if type(value) is int:
        return value
    q = as_rational(value)
    if q.denominator != 1:
        raise DomainError(f"{_shown(value)} is not an integer")
    return q.numerator


def _sequence(values, what: str):
    """``values``, unless it is not iterable, or a string, bytes, a mapping or a set, whose
    iteration yields no coordinates: :class:`DomainError` naming its type.  Lists, tuples,
    ranges and generators are read; lists and tuples skip the slow ABC checks."""
    if type(values) not in (list, tuple) and (
            not isinstance(values, Iterable)
            or isinstance(values, (str, bytes, bytearray, Mapping, AbstractSet))):
        raise DomainError(f"cannot interpret {type(values).__name__} as {what}")
    return values


class RationalMatrix:
    """Immutable two-dimensional array of exact rationals: the integer rows
    of ``c * A`` and the scale ``c``, the lcm of the reduced entry
    denominators.  The pair is canonical, so it decides equality and hashing.
    :attr:`entries`, indexing and ``repr`` build ``Fraction`` values on each
    call; every computation reads :attr:`scaled_rows`.

    The constructor reads in one order: every row that is not a list or
    tuple becomes a list (a row :func:`_sequence` refuses raises here,
    before any entry is read), then :func:`scaled_rationals` reads all
    entries at once, in row-major order, as one flat list (so integer rows
    take its all-``int`` pass), and then the shape is checked."""

    __slots__ = ("_scaled",)

    def __init__(self, rows: Iterable[Iterable]):
        rows = [row if type(row) in (list, tuple) else list(_sequence(row, "a matrix row"))
                for row in _sequence(rows, "matrix rows")]
        flat, c = scaled_rationals(list(chain.from_iterable(rows)))
        if len(set(map(len, rows))) > 1:
            raise ShapeError("rows have inconsistent lengths")
        n = len(rows[0]) if rows else 0
        self._scaled = tuple(zip(*[iter(flat)] * n)) if n else ((),) * len(rows), c

    @classmethod
    def _from_scaled(cls, rows: tuple[tuple[int, ...], ...], c: int) -> "RationalMatrix":
        """``rows / c`` for tuple rows of ints and ``c > 0``, both divided by
        their gcd so the pair stays canonical."""
        g = gcd(c, *(x for row in rows for x in row))
        m = object.__new__(cls)
        m._scaled = (rows, c) if g == 1 else (tuple(tuple(x // g for x in r) for r in rows), c // g)
        return m

    @classmethod
    def symmetric(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        """Build a matrix, rejecting any input that is not square or where
        entry (i, j) differs from entry (j, i).  The rows are compared with
        their transpose at once; only a matrix that fails is scanned entry by
        entry, for the first asymmetric pair above the diagonal."""
        m = cls(rows)
        if not m.is_square():
            raise ShapeError(f"symmetric matrix must be square, got {m.nrows}x{m.ncols}")
        if not m.is_symmetric():  # name the first asymmetric pair in row-major order
            a, _ = m._scaled
            for i, row in enumerate(a):
                for j in range(i + 1, m.ncols):
                    if row[j] != a[j][i]:
                        upper, lower = _fraction_string(m[i, j]), _fraction_string(m[j, i])
                        raise ShapeError(f"asymmetric entry at ({i}, {j}): {upper} != {lower}")
        return m

    @property
    def nrows(self) -> int:
        return len(self._scaled[0])

    @property
    def ncols(self) -> int:
        return len(self._scaled[0][0]) if self._scaled[0] else 0

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as ``Fraction`` values, built on each call."""
        rows, c = self._scaled
        return tuple(tuple(Fraction(x, c) for x in row) for row in rows)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        rows, c = self._scaled
        return Fraction(rows[i][j], c)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        """Square and equal to its transpose, compared row for row."""
        a, _ = self._scaled
        return self.is_square() and tuple(zip(*a)) == a

    @property
    def scaled_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """``(rows, c)``: the integer rows of ``c * A``, as tuples no caller
        can change, and the scale; one that eliminates in place copies the
        rows into lists first."""
        return self._scaled

    def is_integral(self) -> bool:
        return self._scaled[1] == 1

    def int_rows(self) -> list[list[int]]:
        """Entries as plain Python ints; raises if any entry is fractional."""
        if not self.is_integral():
            raise DomainError("matrix has non-integer entries")
        return [list(row) for row in self._scaled[0]]

    def submatrix(self, indices: Sequence[int]) -> "RationalMatrix":
        """Principal submatrix on the given (row = column) indices, sliced
        from :attr:`scaled_rows`.  Each index is read by :func:`as_integer`;
        order and repeats are kept, and one outside the matrix raises
        :class:`ShapeError`."""
        idx = [as_integer(i) for i in _sequence(indices, "submatrix indices")]
        if not all(0 <= i < min(self.nrows, self.ncols) for i in idx):
            raise ShapeError(
                f"indices {_shown(idx)} out of range for a {self.nrows}x{self.ncols} matrix")
        rows, c = self._scaled
        return RationalMatrix._from_scaled(tuple(tuple(rows[i][j] for j in idx) for i in idx), c)

    def matvec(self, vec: Sequence) -> tuple[Fraction, ...]:
        """``self @ vec`` by integer dot products: the vector is scaled by the
        lcm of its denominators, the matrix by the lcm of its own, and each
        entry of the result is one ``Fraction``."""
        w, s = scaled_rationals(vec)
        if len(w) != self.ncols:
            raise ShapeError(f"vector length {len(w)} != column count {self.ncols}")
        rows, c = self.scaled_rows
        scale = c * s
        return tuple(Fraction(sum(map(mul, row, w)), scale) for row in rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self._scaled == other._scaled

    def __hash__(self) -> int:
        return hash(self._scaled)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(_fraction_string, row)) for row in self.entries)
        return f"RationalMatrix({self.nrows}x{self.ncols}: {body})"


def as_matrix(value) -> RationalMatrix:
    return value if isinstance(value, RationalMatrix) else RationalMatrix(value)


def scaled_rationals(values: Iterable) -> tuple[list[int], int]:
    """``(numerators, s)``: the entries, each read as by :func:`as_rational`,
    times ``s``, the lcm of their reduced denominators, as a fresh list of
    ints.  The one reader from exact input to integers, in one pass; an
    ``int`` or a ``Fraction`` gives its ratio by ``as_integer_ratio()``, so no
    ``Fraction`` is built, and a string, bytes, a mapping or a set is refused,
    not read element by element.  A list or tuple whose entries are all
    exactly ``int`` is its own numerators over ``s = 1``, decided by one
    C-level type scan after a test of the first entry alone, so a vector of
    ``Fraction`` values pays one type test for it."""
    if (type(values) in (list, tuple) and values and type(values[0]) is int
            and set(map(type, values)) == {int}):
        return list(values), 1
    numerators, denominators = [], []
    for x in _sequence(values, "a vector of exact rationals"):
        n, d = (x if type(x) is int or type(x) is Fraction else as_rational(x)).as_integer_ratio()
        numerators.append(n)
        denominators.append(d)
    s = lcm(*denominators)
    return [n * (s // d) for n, d in zip(numerators, denominators)] if s > 1 else numerators, s


def bareiss_det(a: list[list[int]]) -> int:
    """Determinant of the leading square of integer rows by fraction-free
    Gaussian elimination; the rows are overwritten, columns beyond the
    square included.

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
    rows, c = m.scaled_rows
    return Fraction(bareiss_det(list(map(list, rows))), c ** m.nrows)


def back_substitute(rows: list[list[int]], d: int, col: int) -> list[int]:
    """``y`` with ``M (y / d) == R[:, col]`` from rows ``[M | R]`` eliminated
    to echelon form, ``d = +-det M``: ``y`` is integral by Cramer's rule,
    so every division is exact."""
    n = len(rows)
    y = [0] * n
    for t in range(n - 1, -1, -1):
        row = rows[t]
        y[t] = (d * row[col] - sum(map(mul, row[t + 1 : n], y[t + 1 :]))) // row[t]
    return y


def bareiss_solve(rows: list[list[int]]) -> tuple[int, list[int]]:
    """``(det M, y)`` with ``M (y / det M) == r`` for integer rows ``[M | r]``,
    ``M`` square and ``r`` one column, overwritten by the pivoting loop of
    :func:`bareiss_det`.  A singular ``M`` raises :class:`SingularMatrixError`.
    ``n = 0`` gives ``(1, [])``."""
    d = bareiss_det(rows)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    return d, back_substitute(rows, d, len(rows))


class BorderedElimination:
    """Sylvester's criterion for negative definiteness by fraction-free
    symmetric elimination without pivoting, grown by bordering.

    The state is ``[M | R]`` for a symmetric ``n x n`` integer matrix ``M``
    and a fixed number of right-hand-side columns ``R``, after all ``n``
    elimination steps: row ``t`` holds, from column ``t`` on, its level-``t``
    entries (those after ``t`` Bareiss steps), and :attr:`pivots` are the
    leading principal minors of ``M``.  By Sylvester's identity those
    entries depend only on the first ``t + 1`` rows and columns (Bareiss
    1968), so :meth:`extend` borders ``M`` with new rows and columns without
    eliminating any old entry again: the state equals one fresh elimination
    over the rows in the order they joined.

    Pivots are applied two at a time, Bareiss's two-step method (*Math.
    Comp.* 22, 1968): a row goes
    from level ``s`` to level ``s + 2`` in one pass, with 3 multiplications
    and 1 exact division per entry where two single steps take 4 and 2.
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

        The two-step update for pivots ``(s, s + 1)``: with ``a`` the
        level-``s`` entries, ``p0 = a_ss``, ``u`` row ``s + 1`` at level
        ``s + 1``, ``p1 = u_s+1``, and ``q`` the pivot before ``s`` (1 for
        ``s = 0``), a later row ``i`` goes to level ``s + 2`` as

            (p1 a_ij - a_i,s+1 u_j + a_is v_j) // q,
            v_j = (a_s,s+1 a_s+1,j - a_sj a_s+1,s+1) // q.

        Writing the two single steps out over level-``s`` entries gives
        ``p0 q c_ij = p0 (p1 a_ij - a_i,s+1 u_j + a_is v_j)`` for the
        level-``s + 2`` entry ``c_ij``, so the numerator is ``q c_ij``.  By
        Sylvester's identity ``v_j``, a 2x2 determinant of level-``s``
        entries over ``q``, is the minor of ``M`` on rows ``0..s+1`` and
        columns ``0..s-1, s+1, j``.  Both divisions are exact.

        The new rows pass the old pivot rows in pairs, from the column
        after the pair on.  Their entry in old column ``s`` at level ``s``
        is, by symmetry, the old pivot row's entry in their column, so it is
        inserted into row ``s``; their entry in column ``s + 1``, taken one
        single step on, is inserted into row ``s + 1``.  Only the stored
        rows are at hand, row ``s`` at level ``s`` and row ``s + 1`` at level
        ``s + 1``, so ``v`` comes from them alone: eliminating ``a_s+1,j``
        between ``u_j`` and ``p1`` gives ``p0 v_j = a_s,s+1 u_j - p1 a_sj``,
        an exact division by ``p0``.  An odd last old pivot takes one single
        step.  The entries of an old row in the right-hand-side columns never
        change.  Then the new trailing block is eliminated, updating only
        its upper triangle, which stays symmetric: row ``s + 1`` takes one
        single step, which gives ``p1`` for the sign test before any later
        row is touched, and the later rows take the two-step update.
        """
        rows, pivots = self.rows, self.pivots
        k = len(rows)
        q = 1
        for s in range(0, k - 1, 2):
            row_s, row_t = rows[s], rows[s + 1]
            p0, p1 = pivots[s], pivots[s + 1]
            f = row_s[s + 1]
            row_s[k:k] = [row[s] for row in new_rows]
            row_t[k:k] = [(p0 * row[s + 1] - row[s] * f) // q for row in new_rows]
            u = row_t[s + 2 :]
            v = [(f * y - p1 * x) // p0 for x, y in zip(row_s[s + 2 :], u)]
            for row in new_rows:
                g, h = row[s], row[s + 1]
                row[s + 2 :] = [(p1 * x - h * y + g * z) // q
                                for x, y, z in zip(row[s + 2 :], u, v)]
            q = p1
        if k % 2:
            s = k - 1
            row_s, p0 = rows[s], pivots[s]
            row_s[k:k] = [row[s] for row in new_rows]
            for row in new_rows:
                g = row[s]
                row[k:] = [(p0 * x - g * y) // q for x, y in zip(row[k:], row_s[k:])]
            q = p0
        rows += new_rows
        n = len(rows)
        for s in range(k, n, 2):
            row_s = rows[s]
            p0 = row_s[s]
            if p0 == 0 or (p0 < 0) != (s % 2 == 0):
                return False
            pivots.append(p0)
            if s + 1 == n:
                break
            row_t = rows[s + 1]
            f, e = row_s[s + 1], row_t[s + 1]
            w = row_t[s + 2 :]  # level s: a_s+1,j, and by symmetry a_j,s+1
            row_t[s + 1 :] = [(p0 * y - f * x) // q
                              for x, y in zip(row_s[s + 1 :], row_t[s + 1 :])]
            p1 = row_t[s + 1]
            if p1 == 0 or (p1 < 0) != (s % 2 == 1):
                return False
            pivots.append(p1)
            u = row_t[s + 2 :]
            v = [(f * y - e * x) // q for x, y in zip(row_s[s + 2 :], w)]
            for j, row in enumerate(rows[s + 2 :]):
                i = s + 2 + j
                g, h = row_s[i], w[j]
                row[i:] = [(p1 * x - h * y + g * z) // q
                           for x, y, z in zip(row[i:], u[j:], v[j:])]
            q = p1
        return True

    def solution(self, column: int) -> list[int]:
        """The integer ``y`` with ``M (y / det M) == R[:, column]``, in the
        order of :attr:`rows`, by :func:`back_substitute`."""
        return back_substitute(self.rows, self.det, len(self.rows) + column)


def solve(matrix, rhs) -> tuple[Fraction, ...]:
    """Solve ``matrix @ x = rhs`` exactly for a square nonsingular matrix,
    by :func:`bareiss_solve` on the integer rows of ``t * [matrix | rhs]``,
    ``t`` the lcm of the matrix's scale and that of ``rhs``."""
    m = as_matrix(matrix)
    if not m.is_square():
        raise ShapeError(f"solve needs a square matrix, got {m.nrows}x{m.ncols}")
    b, s = scaled_rationals(rhs)
    if len(b) != m.nrows:
        raise ShapeError(f"right-hand side length {len(b)} != matrix size {m.nrows}")
    rows, c = m.scaled_rows
    t = lcm(c, s)
    d, y = bareiss_solve([[y * (t // c) for y in row] + [x * (t // s)]
                          for row, x in zip(rows, b)])
    return tuple(Fraction(v, d) for v in y)


class Inertia(NamedTuple):
    """Counts of positive, negative and zero squares of a symmetric form."""

    n_plus: int
    n_minus: int
    n_zero: int


def signature(matrix) -> Inertia:
    """Inertia of a symmetric matrix by exact congruence reduction over integers.

    The reduction starts from the integer rows of ``c * A`` (``c > 0``, see
    :attr:`RationalMatrix.scaled_rows`) and keeps only the live block, the
    rows and columns not yet pivoted on.  Every step is one 1x1 pivot on the
    first nonzero diagonal entry ``p`` of the block: the new block is ``|p|``
    times the Schur complement, entries ``|p| a_rs - sign(p) a_rp a_ps``,
    divided by the gcd of its entries.  When the whole diagonal vanishes,
    the first nonzero entry ``a_kj`` above it (``k < j``) gives one: adding
    row ``j`` to row ``k`` and column ``j`` to column ``k`` is a unimodular
    congruence that puts ``2 a_kj`` on the diagonal at ``k``, and the pivot
    is taken there.  Each step builds new rows and never writes into the
    stored ones.  Every scale is positive and every transform a congruence,
    so by Sylvester's law of inertia the counts are those of ``A``.
    """
    m = as_matrix(matrix)
    if not m.is_symmetric():
        raise ShapeError("signature needs a symmetric matrix")
    a, _ = m.scaled_rows
    n = m.nrows
    n_plus = n_minus = 0
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is None:
            kj = next(((i, j) for i, row in enumerate(a) for j in range(i + 1, len(a)) if row[j]),
                      None)
            if kj is None:
                break  # the live block is zero
            k, j = kj
            a = [[*row[:k], row[k] + row[j], *row[k + 1 :]] for row in a]  # column j into k
            a[k] = [x + y for x, y in zip(a[k], a[j])]  # row j into k
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
            block.append([q * x - f * y for x, y in zip(rest, rest_k)])
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
    starting negative; decided by one :meth:`BorderedElimination.extend`."""
    m = as_matrix(matrix)
    if not m.is_symmetric():
        raise ShapeError("definiteness test needs a symmetric matrix")
    return BorderedElimination().extend(list(map(list, m.scaled_rows[0])))


class SmithNormalForm(NamedTuple):
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
        return all(abs(bareiss_det([list(r) for r in t])) == 1 for t in (self.left, self.right))


def _int_matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def smith_normal_form(matrix) -> SmithNormalForm:
    """Smith normal form of a square integer matrix with transform records.

    For each ``t`` an entry of least magnitude in the trailing block moves
    to ``(t, t)``, and column ``t`` and row ``t`` are cleared by division
    with remainder; when the pivot divides row ``t`` but not the whole
    block, a row of the block is first added into row ``t``, so the
    divisibility chain holds as soon as the loop ends.  Row operations are
    recorded in ``left`` and column operations in ``right``, the certificate
    :meth:`SmithNormalForm.verify` checks.
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
        matrix=m.scaled_rows[0],
    )
