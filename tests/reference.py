"""One plain specification per operation, written to be read, not to be
fast; the differential tests compare the library's results, and its error
classes and messages, with these.  Copies that pin what a specification
cannot say so: the order in which the matrix constructor reads its input,
and the frozen draw order of the instance generator.  A change that makes
an operation faster is checked against the specification here, not
against a copy of its old code (``tests/test_source.py`` keeps every
reference in this module)."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

from zarlat import linalg
from zarlat.bounds import CramerAnalysis
from zarlat.errors import DomainError, OracleMismatchError, ShapeError, SingularMatrixError
from zarlat.linalg import Inertia, RationalMatrix, _sequence, as_rational
from zarlat.zariski import (
    MASK64,
    Decomposition,
    IntersectionForm,
    as_divisor,
    require_intersection_product,
    support_of,
    witness_certifies,
)


def rationals(values):
    """Reference: the entries of ``values``, each read by ``as_rational``; a
    string, bytes, a mapping or a set is refused by type, not read element
    by element."""
    return tuple(as_rational(x) for x in _sequence(values, "a vector of exact rationals"))


def scaled_rationals(values):
    """Reference: ``(numerators, s)``, the :func:`rationals` of ``values``
    times ``s``, the lcm of their denominators."""
    a = rationals(values)
    s = lcm(*(x.denominator for x in a))
    return [int(x * s) for x in a], s


def effective_divisor(values, size):
    """Reference: the coefficients of an effective divisor on ``size``
    components, read by :func:`rationals`; the length is checked before
    the signs."""
    a = rationals(values)
    if len(a) != size:
        raise ShapeError(f"divisor has {len(a)} coefficients, form has {size} components")
    bad = next((i for i, x in enumerate(a) if x < 0), None)
    if bad is not None:
        raise DomainError(f"effective divisor needs nonnegative coefficients; entry {bad} is {a[bad]}")
    return a


def matrix_in_reading_order(rows):
    """Reference: ``RationalMatrix(rows)`` read in three phases: every row
    first, each into a list, so that a refused row raises before any entry
    is read; then the entries one at a time in row-major order, so that the
    first bad entry raises first; then the shape.  Pins which error a bad
    input raises and its text; the result is built without the constructor."""
    self = object.__new__(RationalMatrix)
    read = [list(_sequence(row, "a matrix row")) for row in _sequence(rows, "matrix rows")]
    flat, c = scaled_rationals([x for row in read for x in row])
    widths = [len(row) for row in read]
    if len(set(widths)) > 1:
        raise ShapeError("rows have inconsistent lengths")
    n = widths[0] if widths else 0
    self._scaled = tuple(tuple(flat[i * n : i * n + n]) for i in range(len(widths))), c
    return self


def symmetric_in_reading_order(rows):
    """Reference: ``RationalMatrix.symmetric(rows)``: the matrix as
    :func:`matrix_in_reading_order` reads it (rows, then entries, then the
    shape), then the square check, then the first asymmetric pair above the
    diagonal in row-major order.  Pins which pair the error names and its
    text."""
    m = matrix_in_reading_order(rows)
    if not m.is_square():
        raise ShapeError(f"symmetric matrix must be square, got {m.nrows}x{m.ncols}")
    a, _ = m._scaled
    for i, row in enumerate(a):
        for j in range(i + 1, m.ncols):
            if row[j] != a[j][i]:
                raise ShapeError(f"asymmetric entry at ({i}, {j}): {m[i, j]} != {m[j, i]}")
    return m


def cofactor_det(rows):
    """Reference: the determinant by textbook recursive cofactor expansion
    along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def solve(rows, rhs):
    """Reference: Gaussian elimination over ``Fraction`` with the first
    nonzero entry of each column as pivot, then back-substitution."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
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


def signature(rows):
    """Reference: congruence reduction over ``Fraction``, dividing as it
    goes: a 1x1 pivot on the first nonzero diagonal entry, else the first
    nonzero entry ``b`` above it spans a hyperbolic 2x2 block ``[[0, b],
    [b, 0]]``, one positive and one negative square, eliminated at once.
    The kernel instead makes a diagonal entry nonzero by a unimodular
    congruence; the 2x2 block is kept here on purpose, so the two are
    independent formulations of the reduction."""
    a = [[Fraction(x) for x in row] for row in rows]
    live = list(range(len(a)))
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
        for r in live:
            ri, rj = a[r][i], a[r][j]
            if ri == 0 and rj == 0:
                continue
            for s in live:
                a[r][s] -= (ri * a[j][s] + rj * a[i][s]) / b
    return Inertia(n_plus, n_minus, n_zero)


def single_step_extend(self, new_rows):
    """Reference: :meth:`BorderedElimination.extend` with one pass over the
    rows per pivot, in both phases, its state ``self`` (anything with
    ``rows`` and ``pivots``) passed in."""
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


def unimodular(ops, n):
    """Reference: ``(m, inverse)``, an integer matrix of determinant +-1 built
    from the identity by the elementary row operations ``ops`` and its
    inverse; ``(0, i, j, k)`` adds ``k`` times row ``j`` to row ``i``, ``(1, i,
    j, _)`` swaps them, indices taken mod ``n`` and ``i == j`` skipped."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for kind, i, j, k in ops:
        i, j = i % n, j % n
        if i == j:
            continue
        if kind == 0:
            # m: row i += k row j  =>  inv: col j -= k col i
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
            for row in inv:
                row[j] -= k * row[i]
        else:
            m[i], m[j] = m[j], m[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
    return m, inv


def in_nef_region(form, divisor, candidate):
    """Reference: whether ``0 <= b <= a`` and ``(Gram b)_j >= 0`` for every
    ``j`` in the support of the divisor ``a``, for the candidate ``b``; the
    divisor is read first, then the candidate and its length."""
    a = effective_divisor(divisor, form.size)
    b = rationals(candidate)
    if len(b) != form.size:
        raise ShapeError(f"candidate has {len(b)} coefficients, form has {form.size}")
    if any(x < 0 or x > ai for x, ai in zip(b, a)):
        return False
    gb = form.gram.matvec(b)
    return all(gb[j] >= 0 for j in support_of(a))


def decomposition_checks(form, divisor, dec):
    """Reference: the five checks of ``decomposition_checks``, with a
    ``Fraction`` sum for ``parts_sum`` and ``Gram P`` taken on the integer
    rows of ``c * Gram`` and ``s * P``, which have the signs of ``Gram P``;
    ``negative_exceptional`` asks ``N_j > 0`` on the recorded support and
    runs the library's one witness verifier."""
    a = effective_divisor(divisor, form.size)
    p, n = rationals(dec.positive), dec.negative
    if len(p) != form.size:
        raise ShapeError(f"positive part has {len(p)} coefficients, form has {form.size}")
    rows, _ = form.gram.scaled_rows
    big_p, _ = scaled_rationals(p)
    gp = [sum(map(mul, row, big_p)) for row in rows]
    support_n = support_of(n)
    return {
        "parts_sum": tuple(x + z for x, z in zip(p, n)) == a,
        "positive_nef": all(v >= 0 for v in gp),
        "negative_exceptional": support_n == dec.negative_support
        and all(n[j] > 0 for j in support_n)
        and witness_certifies(rows, support_n, dec.witness),
        "orthogonal": sum(x * v for x, v in zip(n, gp) if x) == 0,
        "support_union": tuple(sorted(set(support_of(p)) | set(support_n))) == support_of(a),
    }


def decompose_bruteforce(form, divisor, limit=12):
    """Reference: the Zariski decomposition by enumeration.  A subset ``S``
    of the support is accepted when ``Gram_S`` has the inertia ``(0, |S|,
    0)``, the :func:`solve` of ``Gram_S N_S = (Gram a)_S`` lies in ``[0, a]``,
    ``P = a - N`` is nef and ``q(P, N) = 0``; exactly one ``N`` must be.  The
    witness is ``Gram_S y = -1`` solved in primitive integers.  The library
    oracle keeps only subsets where every coefficient of ``N`` is positive
    and needs exactly one; the map keyed by ``N``, which also takes subsets
    with zero coefficients, is kept here on purpose, so the two are
    independent formulations of the acceptance."""
    a = effective_divisor(divisor, form.size)
    require_intersection_product(form)
    support = support_of(a)
    if len(support) > limit:
        raise DomainError(f"support size {len(support)} exceeds oracle limit {limit}")
    gram = form.gram
    ga = gram.matvec(a)
    accepted = {}
    definite = {()}  # the negative definite subsets of the previous size
    for size in range(len(support) + 1):
        if size:
            smaller, definite = definite, set()
            if not smaller:
                break  # no larger subset can be negative definite
        for subset in combinations(support, size):
            negative = [Fraction(0)] * form.size
            if subset:
                if any(subset[:i] + subset[i + 1 :] not in smaller for i in range(size)):
                    continue
                sub = gram.submatrix(subset)
                if linalg.signature(sub) != Inertia(0, size, 0):
                    continue
                definite.add(subset)
                solution = solve(sub.entries, [ga[j] for j in subset])
                if any(x < 0 or x > a[j] for j, x in zip(subset, solution)):
                    continue
                for j, x in zip(subset, solution):
                    negative[j] = x
            positive = [ai - ni for ai, ni in zip(a, negative)]
            if any(x < 0 for x in gram.matvec(positive)):
                continue
            if sum((p * q for p, q in zip(positive, gram.matvec(negative))), Fraction(0)) != 0:
                continue
            accepted.setdefault(tuple(negative), subset)
    if len(accepted) != 1:
        raise OracleMismatchError(
            f"enumeration found {len(accepted)} distinct decompositions instead of one"
        )
    negative = next(iter(accepted))
    support = support_of(negative)
    sub = gram.submatrix(support).entries
    certificate = solve(sub, [-1] * len(support))
    scale = lcm(*(x.denominator for x in certificate))
    g = gcd(*(x.numerator for x in certificate))
    return Decomposition(positive=tuple(ai - ni for ai, ni in zip(a, negative)),
                         negative=negative, negative_support=support,
                         rounds=0, negative_gram_det=cofactor_det(sub),
                         witness=tuple(x.numerator * (scale // x.denominator) // g for x in certificate))


def cramer_analysis(form, divisor, support):
    """Reference: ``cramer_analysis`` by Cramer's rule, one pivoting ``det``
    of ``Gram_S`` with each column in turn replaced by ``(Gram a)_S``, and
    one of ``Gram_S`` itself."""
    sub = [[form.gram[i, j] for j in support] for i in support]
    ga = form.gram.matvec(divisor)
    rhs = [ga[j] for j in support]
    gram_det = linalg.det(sub)
    column_dets = tuple(
        linalg.det([[rhs[r] if k == i else x for k, x in enumerate(row)] for r, row in enumerate(sub)])
        for i in range(len(support)))
    return CramerAnalysis(
        coefficients=tuple(cd / gram_det for cd in column_dets),
        column_determinants=column_dets,
        gram_determinant=gram_det,
        common_denominator=abs(int(gram_det)),
    )


def frozen_splitmix64(seed):
    """Reference: the frozen SplitMix64 stream of 64-bit outputs from ``seed``."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def frozen_random_instance(spec):
    """Reference: ``random_instance`` drawn from :func:`frozen_splitmix64`,
    each draw in ``[lo, hi]`` as ``lo + output % (hi - lo + 1)``: the Gram
    matrix row by row, each row its diagonal entry and then the entries
    right of it, then each coefficient's numerator and denominator.  Pins
    the draw order."""
    stream = frozen_splitmix64(spec.seed)

    def randint(lo, hi):
        return lo + next(stream) % (hi - lo + 1)
    m = spec.m
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = randint(*spec.diagonal_range)
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = randint(*spec.offdiagonal_range)
    coeffs = [Fraction(randint(*spec.coefficient_range), randint(1, spec.denominator_max))
              for _ in range(m)]
    labels = tuple(f"D{i + 1}" for i in range(m))
    return IntersectionForm(labels=labels, gram=symmetric_in_reading_order(rows)), as_divisor(coeffs, m)
