"""Zariski decomposition of effective divisors over an exact intersection form.

An *intersection form* here is a symmetric rational Gram matrix over a list
of labelled prime components where every off-diagonal pairing is
nonnegative.  Under that single axiom every effective divisor ``D`` (a
nonnegative rational coefficient vector) splits uniquely as ``D = P + N``
with

* ``P`` nef on the component basis: ``(gram @ P)_j >= 0`` for every ``j``,
* ``N`` supported on a set whose Gram submatrix is negative definite (or
  ``N = 0``),
* ``P`` and ``N`` orthogonal under the form,
* ``supp(P) union supp(N) == supp(D)``.

A note on nefness, prominently: the engine certifies nonnegative pairing
against the *modeled basis only*.  That is the entire verifiable content,
because any effective combination of the modeled components automatically
pairs nonnegatively with every prime class outside the model: distinct
components pair nonnegatively by the axiom.

``decompose`` computes the splitting by support enlargement: start from the
components that pair negatively with ``D``, solve for the negative part on
that support, and grow the support by every component the remainder still
pairs negatively with, until stable.  One fraction-free elimination over
integers (:class:`zarlat.linalg.BorderedElimination`) grows with the
support, eliminating each row once: each round borders it with the rows of
the components that joined, and it gives the definiteness verdict, the
negative part and ``det Gram_S``; after the last round it gives an integer
definiteness witness.  ``decompose_bruteforce`` is the independent oracle:
it enumerates every candidate support, keeps the candidates satisfying all
the defining conditions, and demands exactly one resulting decomposition.
Its one elimination per subset pivots (:func:`zarlat.linalg.bareiss_det`),
the engine's does not; they share only input conversion (``_scaled_divisor``),
back-substitution, the witness normalizer and ``_split``, which builds
``P`` and ``N`` from the integer solution, and each tests its solution
against the form on its own terms.
The two must agree coefficient for coefficient; any divergence is a bug by
uniqueness.

Between the input and the result there is no ``Fraction``.  Every rational
vector is read once per call, by the one reader
:func:`zarlat.linalg.scaled_rationals`, into integer numerators over one
scale, a divisor into ``(A, s)`` with ``A = s * a``.  A divisor is read once
in all: :func:`as_divisor` returns a tuple that keeps ``(A, s)``, and every
function here given it takes the integers from it instead of reading again.
The engine and the oracle build each coefficient of ``P`` and ``N`` once from
those integers, zeros sharing one ``Fraction(0)``, and
``decomposition_checks`` and ``in_nef_region`` compare integers only.

One verifier, ``witness_certifies``, checks every definiteness certificate
in the module: a positive integer vector ``y`` with ``Gram_S y < 0`` on a
support whose distinct components pair nonnegatively (the M-matrix
characterization).  ``decomposition_checks`` runs it on the witness and
runs no elimination; ``exceptional_certificate`` runs it on the vector
along ``Gram_S^-1 (-1, ..., -1)``.  One normalizer, ``primitive_witness``,
turns that vector into a primitive integer one for the engine, the oracle
and the certificate alike; sharing it is safe because the verifier
re-checks whatever it returns.

All arithmetic is exact; all operations are pure and deterministic.
``random_instance`` derives everything from an explicit 64-bit seed through
a self-contained SplitMix64 stream, so test corpora are stable across
platforms and releases.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    AxiomViolationError,
    DomainError,
    InconsistencyError,
    OracleMismatchError,
    ShapeError,
    SingularMatrixError,
)
from .linalg import (
    BorderedElimination,
    RationalMatrix,
    _sequence,
    as_integer,
    back_substitute,
    bareiss_det,
    bareiss_solve,
    det,  # not called here; perfbench/selftest.py checks its tracer rebinds zariski.det
    scaled_rationals,
    sylvester_pass,
)


_ZERO = Fraction(0)  # immutable: every zero coefficient of a result shares it


class _FormFields(NamedTuple):
    labels: tuple[str, ...]
    gram: RationalMatrix


class IntersectionForm(_FormFields):
    """Symmetric rational pairing on a list of labelled prime components."""

    __slots__ = ()

    def __new__(cls, labels: Sequence[str], gram: RationalMatrix) -> "IntersectionForm":
        # A tuple, whatever sequence was given, so equal forms compare and hash equal.
        labels = tuple(_sequence(labels, "component labels"))
        if not gram.is_symmetric():
            raise ShapeError("intersection form needs a symmetric Gram matrix")
        if len(labels) != gram.nrows:
            raise ShapeError(f"{len(labels)} labels for a {gram.nrows}x{gram.ncols} Gram matrix")
        if len(set(labels)) != len(labels):
            repeated = next(x for x in labels if labels.count(x) > 1)
            raise DomainError(f"component label {repeated!r} is repeated")
        return super().__new__(cls, labels, gram)

    @classmethod
    def _make(cls, iterable) -> "IntersectionForm":
        # The inherited _make, which _replace calls, would skip __new__.
        return cls(*iterable)

    @classmethod
    def from_rows(cls, labels: Sequence[str], rows: Iterable[Iterable]) -> "IntersectionForm":
        return cls(labels=labels, gram=RationalMatrix.symmetric(rows))

    @property
    def size(self) -> int:
        return len(self.labels)

    def pairing(self, u: Sequence, v: Sequence) -> Fraction:
        """``u . gram . v`` on integers; each needs ``size`` coefficients."""
        rows, c = self.gram.scaled_rows
        (a, s), (b, t) = scaled_rationals(u), scaled_rationals(v)
        if len(a) != self.size or len(b) != self.size:
            raise ShapeError(f"pairing needs {self.size} coefficients, got {len(a)} and {len(b)}")
        return Fraction(sum(y * sum(map(mul, row, a)) for y, row in zip(b, rows)), c * s * t)


def intersection_axiom_violations(form: IntersectionForm) -> tuple[tuple[int, int], ...]:
    """Every off-diagonal pair (i, j), i < j, with a negative pairing, read
    from the rows of ``c * gram``: ``c > 0`` keeps every sign."""
    rows, _ = form.gram.scaled_rows
    return tuple(
        (i, j)
        for i, row in enumerate(rows)
        for j in range(i + 1, len(row))
        if row[j] < 0
    )


def require_intersection_product(form: IntersectionForm) -> None:
    violations = intersection_axiom_violations(form)
    if violations:
        raise AxiomViolationError(violations, form.labels)


class _Divisor(tuple):
    """A divisor :func:`as_divisor` validated: the tuple of its ``Fraction``
    coefficients ``a``, which alone gives its ``repr``, equality and hash,
    and in ``_scaled`` the ints ``(s, *A)``, ``A = s * a``, it was built from.
    ``_scaled`` lives in the instance dict, since a tuple subclass takes no
    nonempty ``__slots__``.  The class has no ``__new__`` of its own, so
    ``copy`` and ``pickle`` rebuild it through tuple's ``__getnewargs__``
    and restore ``_scaled``."""

    @classmethod
    def _from_scaled(cls, big_a: Sequence[int], s: int) -> "_Divisor":
        """``A / s`` for validated ints ``A >= 0`` and the lcm ``s`` of the
        reduced denominators of ``A / s``; zeros are ``_ZERO``."""
        divisor = cls(Fraction(x, s) if x else _ZERO for x in big_a)
        divisor._scaled = (s, *big_a)
        return divisor


def as_divisor(values: Iterable, size: int) -> tuple[Fraction, ...]:
    """Validate an effective divisor: ``size`` exact nonnegative coefficients.

    The result is a tuple of ``Fraction``s that also keeps the integers it
    was read into, so every function here given it skips the reader, this
    one included: given such a divisor of ``size`` entries, it returns it."""
    size = as_integer(size)
    if type(values) is _Divisor and len(values) == size:
        return values
    return _Divisor._from_scaled(*_scaled_divisor(values, size))


def _scaled_divisor(values: Iterable, size: int) -> tuple[list[int], int]:
    """``(A, s)``: the coefficients ``a`` of :func:`as_divisor` as the ints
    ``A = s * a``, read in one pass by :func:`zarlat.linalg.scaled_rationals`,
    or, from a divisor :func:`as_divisor` returned with ``size`` entries,
    copied from what it keeps, with no read."""
    if type(values) is _Divisor and len(values) == size:
        s, *big_a = values._scaled
        return big_a, s
    big_a, s = scaled_rationals(values)
    if len(big_a) != size:
        raise ShapeError(f"divisor has {len(big_a)} coefficients, form has {size} components")
    for i, x in enumerate(big_a):
        if x < 0:
            raise DomainError(
                f"effective divisor needs nonnegative coefficients; entry {i} is {Fraction(x, s)}")
    return big_a, s


def support_of(vec: Sequence) -> tuple[int, ...]:
    return tuple(i for i, x in enumerate(vec) if x != 0)


def support_rows(
    form: IntersectionForm, indices: Sequence[int]
) -> tuple[tuple[int, ...], list[list[int]], int]:
    """``(indices, rows, c)`` for a support that is a sequence of integers,
    read as lattice coordinates are, nonempty and strictly increasing (else
    :class:`DomainError`) within ``[0, form.size)`` (else
    :class:`ShapeError`): ``rows`` are fresh integer rows of ``c * Gram_S``,
    sliced from the Gram matrix's stored rows
    (:attr:`zarlat.linalg.RationalMatrix.scaled_rows`), so ``c`` is the lcm
    of the denominators of the whole Gram matrix, not of ``Gram_S`` as in
    :meth:`~zarlat.linalg.RationalMatrix.submatrix`."""
    idx = tuple(as_integer(i) for i in _sequence(indices, "support indices"))
    if not idx:
        raise DomainError("empty support")
    if any(i >= j for i, j in zip(idx, idx[1:])):
        raise DomainError(f"support {list(idx)} is not strictly increasing")
    if idx[0] < 0 or idx[-1] >= form.size:
        raise ShapeError(f"support {list(idx)} out of range for {form.size} components")
    rows, c = form.gram.scaled_rows
    return idx, [[rows[i][j] for j in idx] for i in idx], c


def is_exceptional(form: IntersectionForm, indices: Sequence[int]) -> bool:
    """Is the Gram submatrix on ``indices`` negative definite?  Decided exactly
    by Sylvester's criterion (leading principal minors ``-, +, -, ...``) in one
    :func:`zarlat.linalg.sylvester_pass` over the rows of :func:`support_rows`."""
    return sylvester_pass(support_rows(form, indices)[1]) is not None


def witness_certifies(rows: Sequence[Sequence[int]], support: Sequence[int],
                      y: Sequence[int]) -> bool:
    """Does ``y`` prove the Gram submatrix on ``support`` negative definite?

    ``rows`` are the integer rows of ``c * gram`` for some ``c > 0``, indexed
    by component, and ``y`` has one entry per support index, in order.
    ``-Gram_S`` is positive definite when its off-diagonal entries are
    ``<= 0`` (the sign pattern) and some ``y > 0`` has ``(-Gram_S) y > 0``
    entrywise (the M-matrix characterization, Berman & Plemmons, ch. 6).  So
    the answer is yes exactly when ``len(y) == |S|``, every ``y_i`` is a
    positive ``int``, every off-diagonal entry of ``Gram_S`` is ``>= 0`` and
    ``Gram_S y < 0``, whatever produced ``y``.  The sign pattern is checked
    here, not assumed from the form: without it a positive ``y`` with
    ``Gram_S y < 0`` proves nothing (``[[-1, -2], [-2, -1]]`` and
    ``y = (1, 1)``).  One integer matrix-vector product; no elimination.
    """
    return (
        len(y) == len(support)
        and all(type(v) is int and v > 0 for v in y)
        and all(rows[i][j] >= 0 for i in support for j in support if i != j)
        and all(sum(map(mul, [rows[i][j] for j in support], y)) < 0 for i in support)
    )


def primitive_witness(d: int, w: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector in the direction of ``w / d``, for ``w``
    nonzero and ``d`` nonzero: with ``w = d * (c * Gram_S)^-1 (-1, ..., -1)``
    from a fraction-free elimination, ``d = det(c * Gram_S)``, it is the
    candidate definiteness witness, whatever the sign of ``d``."""
    g = gcd(*w) if d > 0 else -gcd(*w)
    return tuple(v // g for v in w)


class CertificateOutcome(NamedTuple):
    """Result of the positive-combination certificate on a support set.

    ``solution`` always satisfies ``gram_S @ solution == (-1, ..., -1)``.
    ``accepted`` is :func:`witness_certifies` of the primitive integer vector
    along it: true exactly when ``gram_S`` is negative definite and its
    off-diagonal entries are nonnegative (the M-matrix characterization), so
    a strictly positive combination of the components pairs strictly
    negatively with every one of them.
    """

    solution: tuple[Fraction, ...]
    accepted: bool


def exceptional_certificate(form: IntersectionForm, indices: Sequence[int]) -> CertificateOutcome:
    """Solve ``Gram_S x = (-1, ..., -1)`` on the support ``indices`` and test
    ``x`` as a definiteness certificate (:class:`CertificateOutcome`).

    One pivoting fraction-free elimination, :func:`zarlat.linalg.bareiss_solve`,
    over the rows of :func:`support_rows`; :func:`witness_certifies` then
    decides on the primitive integer vector in the direction of ``x``, the
    same check :func:`decomposition_checks` runs on ``Decomposition.witness``.
    A singular ``Gram_S`` raises :class:`SingularMatrixError`.
    """
    _, rows, c = support_rows(form, indices)
    # (c * Gram_S) x == (-c, ..., -c) exactly when Gram_S x == (-1, ..., -1).
    outcome = bareiss_solve([row + [-c] for row in rows])
    if outcome is None:
        raise SingularMatrixError("matrix is singular")
    d, (y,) = outcome
    return CertificateOutcome(
        solution=tuple(Fraction(v, d) for v in y),
        accepted=witness_certifies(rows, range(len(rows)), primitive_witness(d, y)),
    )


def in_nef_region(form: IntersectionForm, divisor: Sequence, candidate: Sequence) -> bool:
    """Membership in the region of sub-divisors of D that are nef on supp(D).

    True iff ``0 <= b <= a`` entrywise, ``b`` vanishes outside ``supp(a)``,
    and ``(gram @ b)_j >= 0`` for every ``j`` in ``supp(a)``.  The positive
    part of the decomposition is the unique entrywise-maximal member.

    Decided on integers, with no ``Fraction`` arithmetic: the candidate is
    validated and converted to ``B = t * b``, and the divisor to
    ``A = s * a``, unless it came from :func:`as_divisor`, which kept ``A``
    and ``s``.  Then ``b <= a`` reads ``B * s <= A * t`` and makes
    ``b`` vanish outside ``supp(a)``, and the rows of ``c * gram`` times
    ``B`` are positive multiples of ``gram @ b``.
    """
    size = form.size
    big_a, s = _scaled_divisor(divisor, size)
    big_b, t = scaled_rationals(candidate)
    if len(big_b) != size:
        raise ShapeError(f"candidate has {len(big_b)} coefficients, form has {size}")
    for v, w in zip(big_b, big_a):
        if v < 0 or v * s > w * t:
            return False
    for row, w in zip(form.gram.scaled_rows[0], big_a):
        if w and sum(map(mul, row, big_b)) < 0:
            return False
    return True


class Decomposition(NamedTuple):
    """The splitting D = positive + negative.

    ``negative_support`` is the support of the negative part;
    ``negative_gram_det`` the exact determinant of the Gram submatrix on it
    (1 for an empty support), whose absolute value bounds every denominator
    of the negative coefficients for integral input; ``rounds`` counts
    support-enlargement iterations (0 when the divisor was already nef, and
    for oracle results, which do not iterate).  ``joined`` records the
    components each round added to the working support, the initial
    support first, so ``rounds == len(joined)``; it is ``()`` when the
    divisor was already nef and for oracle results.

    ``witness`` certifies that the Gram submatrix on ``negative_support``
    is negative definite: the primitive integer vector ``y`` in the
    direction of ``(-Gram_S)^-1 (1, ..., 1)``, one entry per support index.
    Every ``y_i > 0`` and ``Gram_S y < 0`` entrywise, which together with
    nonnegative off-diagonal entries on ``S`` proves the definiteness
    (:func:`decomposition_checks`).  ``()`` means no certificate; it is
    also the witness of an empty support.
    """

    positive: tuple[Fraction, ...]
    negative: tuple[Fraction, ...]
    negative_support: tuple[int, ...]
    rounds: int
    negative_gram_det: Fraction
    witness: tuple[int, ...] = ()
    joined: tuple[tuple[int, ...], ...] = ()


def decompose(form: IntersectionForm, divisor: Sequence) -> Decomposition:
    """Compute the unique Zariski decomposition by support enlargement.

    The working support starts at every component of ``supp(D)`` pairing
    negatively with ``D``; each round solves for the negative part on the
    current support (forcing the remainder orthogonal to it) and then adds
    every component of ``supp(D)`` the remainder still pairs negatively
    with.  The loop runs at most ``|supp(D)|`` rounds.

    Inputs violating the intersection-product axiom are rejected before any
    work.  If an intermediate Gram submatrix fails to be negative definite,
    or a solved coefficient leaves ``(0, a_i]``, the input was inconsistent
    with the axioms and an :class:`InconsistencyError` names the offending
    components rather than silently proceeding.

    On valid input every solved coefficient is positive, so the last working
    support is ``supp(N)`` and its elimination gives ``det Gram_S``.  By the
    axiom and the verdict, ``-Gram_S`` is a positive definite Z-matrix, hence
    ``-Gram_S^-1 >= 0`` with a positive diagonal (Berman & Plemmons, ch. 6).
    Round 1 solves against ``(gram @ D)_S < 0``; each later round adds
    ``Gram_S^-1 w``, with ``w`` zero on the old support and negative on the
    added components.

    The working support is eliminated in the order its components joined.
    Each round borders the elimination with the new components' rows of
    ``c * gram``, carrying ``r_i`` and ``-1`` as right-hand sides, so no row
    is eliminated twice, and back-substitutes the ``r_S`` column.  After
    the loop the ``-1`` column is back-substituted once: ``(-Gram_S)^-1
    (1, ..., 1) > 0``, up to a positive factor, becomes the result's
    definiteness ``witness``.  A symmetric permutation changes neither the
    verdict nor ``det``, so the results are those of one elimination over
    the sorted support.  They are returned in sorted order, error messages
    name the sorted support, and the range check reports the first
    offending component in sorted order.
    """
    big_a, s = _scaled_divisor(divisor, form.size)
    require_intersection_product(form)
    # Integers throughout: rows of c * gram and A = s * a, with c and s the
    # lcms of the denominators, so r = (c * gram) @ A = c * s * (gram @ a).
    rows, c = form.gram.scaled_rows
    r = [sum(map(mul, row, big_a)) for row in rows]
    support = support_of(big_a)
    new = [j for j in support if r[j] < 0]
    if not new:  # D is nef: N = 0
        positive, negative = _split(big_a, s, (), (), 1)
        return Decomposition(positive=positive, negative=negative,
                             negative_support=(), rounds=0, negative_gram_det=Fraction(1))
    # The working support in the order its components joined, and the
    # elimination of [c * gram_S | r_S, -1] over it, which grows with it.
    order: list[int] = []
    joined = []
    elimination = BorderedElimination()
    while new:
        order += new
        joined.append(tuple(new))
        system = [[rows[i][j] for j in order] + [r[i], -1] for i in new]
        if not elimination.extend(system):
            raise InconsistencyError(
                f"Gram submatrix on {self_labels(form, sorted(order))} is not negative definite; "
                "the input does not admit a decomposition"
            )
        # d = det(c * gram_S) and y = d * s * n_S solve (c * gram_S) (s * n_S) = r_S.
        d = elimination.det
        y = elimination.solution(0)
        scale = abs(d)
        if d < 0:
            y = [-v for v in y]
        for j, v in sorted(zip(order, y)):
            if v <= 0 or v > scale * big_a[j]:
                raise InconsistencyError(
                    f"solved coefficient {Fraction(v, scale * s)} for component "
                    f"{form.labels[j]!r} falls outside (0, {Fraction(big_a[j], s)}]"
                )
        # c * s * |d| * (gram @ (a - n))_j = |d| * r_j - (c * gram)_j @ y.
        members = set(order)
        new = [
            j for j in support
            if j not in members and scale * r[j] < sum(rows[j][i] * v for i, v in zip(order, y))
        ]
    positive, negative = _split(big_a, s, order, y, scale)
    # w = d * (c * gram_S)^-1 (-1, ..., -1), solved once, for the last support.
    by_index = sorted(zip(order, elimination.solution(1)))
    return Decomposition(positive=positive, negative=negative,
                         negative_support=tuple(j for j, _ in by_index),
                         rounds=len(joined), negative_gram_det=Fraction(d, c ** len(order)),
                         witness=primitive_witness(d, [v for _, v in by_index]),
                         joined=tuple(joined))


def _split(big_a: Sequence[int], s: int, support: Sequence[int], y: Sequence[int],
           scale: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """``(P, N)``, each coefficient one ``Fraction`` built from integers: on
    ``support`` ``N_j = y_j / (scale * s)`` and ``P_j = (scale * A_j - y_j) /
    (scale * s)``, off it ``N_j = 0`` and ``P_j = A_j / s``; zeros are ``_ZERO``."""
    den = scale * s
    positive, negative = [None] * len(big_a), [_ZERO] * len(big_a)
    for j, v in zip(support, y):
        p = scale * big_a[j] - v
        positive[j] = Fraction(p, den) if p else _ZERO
        negative[j] = Fraction(v, den) if v else _ZERO
    for j, x in enumerate(big_a):
        if positive[j] is None:
            positive[j] = Fraction(x, s) if x else _ZERO
    return tuple(positive), tuple(negative)


def self_labels(form: IntersectionForm, indices: Sequence[int]) -> str:
    return "{" + ", ".join(form.labels[i] for i in indices) + "}"


def decompose_bruteforce(
    form: IntersectionForm, divisor: Sequence, limit: int = 12
) -> Decomposition:
    """Oracle by exhaustive enumeration of candidate supports.

    Scans every subset of ``supp(D)`` in increasing size order, keeps those
    with a negative definite Gram submatrix whose solved negative part
    stays in ``[0, a]``, leaves the remainder nef on the whole basis, and
    is orthogonal to it.  Distinct subsets may describe the same splitting
    when a solved coefficient is zero, so acceptance is deduplicated by the
    negative-part vector; anything other than exactly one surviving
    decomposition raises :class:`OracleMismatchError`.

    Every principal submatrix of a negative definite matrix is negative
    definite (Horn & Johnson, *Matrix Analysis*, 4.3), so a subset is tested
    only when each subset one element smaller was found negative definite,
    whatever its range test gave.  The pruning skips no subset that could be
    kept, and the enumeration stays exhaustive.

    A tested subset gets one pivoting elimination,
    :func:`zarlat.linalg.bareiss_det`, over ``[(c * gram)_S | r_S, -1]``.
    Its proper principal submatrices being negative definite, Sylvester's
    criterion comes down to the last minor: ``d = det(c * Gram_S)`` must be
    nonzero with the sign of ``(-1)^|S|``.  Only then is the ``r_S`` column
    back-substituted: ``y = |d| * s * n_S`` decides the range, nef and
    orthogonality tests on integers, as in :func:`decompose`.  The ``-1``
    column, the witness, is back-substituted once, for the accepted subset.
    """
    big_a, s = _scaled_divisor(divisor, form.size)
    require_intersection_product(form)
    support = support_of(big_a)
    limit = as_integer(limit)
    if len(support) > limit:
        raise DomainError(f"support size {len(support)} exceeds oracle limit {limit}")
    # Integers throughout: rows of c * gram and A = s * a, so
    # r = (c * gram) @ A = c * s * (gram @ a).
    rows, c = form.gram.scaled_rows
    r = [sum(map(mul, row, big_a)) for row in rows]
    # N -> (P, S, d, the eliminated rows), the first subset giving that N.
    accepted: dict[tuple[Fraction, ...], tuple] = {}
    if all(v >= 0 for v in r):  # D is nef: N = 0
        positive, negative = _split(big_a, s, (), (), 1)
        accepted[negative] = (positive, (), 1, [])
    definite = {()}  # the negative definite subsets of the previous size
    for size in range(1, len(support) + 1):
        smaller, definite = definite, set()
        if not smaller:
            break  # no larger subset can be negative definite
        for subset in combinations(support, size):
            if any(subset[:i] + subset[i + 1 :] not in smaller for i in range(size)):
                continue
            system = [[rows[i][j] for j in subset] + [r[i], -1] for i in subset]
            d = bareiss_det(system)
            if d == 0 or (d < 0) != (size % 2 == 1):
                continue
            definite.add(subset)
            # d = det(c * gram_S); y = d * s * n_S, made |d| * s * n_S.
            y = back_substitute(system, d, size)
            scale, y = (d, y) if d > 0 else (-d, [-v for v in y])
            if any(v < 0 or v > scale * big_a[j] for j, v in zip(subset, y)):
                continue
            # c * s * |d| * (gram @ (a - n)) = |d| * r - (c * gram)[:, S] @ y.
            gp = [scale * rj - sum(row[j] * v for j, v in zip(subset, y))
                  for row, rj in zip(rows, r)]
            if any(v < 0 for v in gp):
                continue
            if sum(v * gp[j] for j, v in zip(subset, y)) != 0:
                continue
            positive, negative = _split(big_a, s, subset, y, scale)
            accepted.setdefault(negative, (positive, subset, d, system))
    if len(accepted) != 1:
        raise OracleMismatchError(
            f"enumeration found {len(accepted)} distinct decompositions instead of one"
        )
    negative, (positive, subset, d, system) = next(iter(accepted.items()))
    # w = d * (c * gram_S)^-1 (-1, ..., -1).  A part with a zero coefficient
    # on S solves the system on S without it, accepted first: S == supp(N).
    w = back_substitute(system, d, len(subset) + 1)
    return Decomposition(positive=positive, negative=negative, negative_support=subset,
                         rounds=0, negative_gram_det=Fraction(d, c ** len(subset)),
                         witness=primitive_witness(d, w))


def decomposition_checks(
    form: IntersectionForm, divisor: Sequence, dec: Decomposition
) -> dict[str, bool]:
    """Evaluate the five defining invariants of a decomposition, exactly.

    Keys, in fixed order: ``parts_sum`` (P + N == D), ``positive_nef``
    ((gram @ P)_j >= 0 for every j), ``negative_exceptional`` (support of N
    matches the recorded support and its Gram submatrix is negative
    definite, or N = 0), ``orthogonal`` (q(P, N) == 0), ``support_union``
    (supp(P) union supp(N) == supp(D)).

    No elimination and no ``Fraction`` arithmetic runs here: ``D``, ``P``
    and ``N`` are each validated and scaled once, to ``A = s * a``,
    ``s_P * P`` and ``s_N * N`` as ints, and every key compares integers.
    ``P`` and ``N`` need one coefficient per component (else
    :class:`ShapeError`), each read by :func:`zarlat.linalg.as_rational`
    (else :class:`DomainError`).  Definiteness is read from ``dec.witness``
    by :func:`witness_certifies`, which also checks the sign pattern on
    ``S``, because ``form`` is not re-validated here.
    """
    size = form.size
    big_a, s = _scaled_divisor(divisor, size)
    big_p, s_p = scaled_rationals(dec.positive)
    if len(big_p) != size:
        raise ShapeError(f"positive part has {len(big_p)} coefficients, form has {size}")
    big_n, s_n = scaled_rationals(dec.negative)
    if len(big_n) != size:
        raise ShapeError(f"negative part has {len(big_n)} coefficients, form has {size}")
    rows, _ = form.gram.scaled_rows
    # A positive multiple of gram @ P: the same signs, and zero pairing with N
    # exactly when q(P, N) == 0.
    gp = [sum(map(mul, row, big_p)) for row in rows]
    support_n = support_of(big_n)
    # P + N == D, times s_P * s_N * s.
    u, v, w = s_n * s, s_p * s, s_p * s_n
    return {
        "parts_sum": all(x * u + z * v == y * w for x, z, y in zip(big_p, big_n, big_a)),
        "positive_nef": all(x >= 0 for x in gp),
        "negative_exceptional": support_n == dec.negative_support
        and witness_certifies(rows, support_n, dec.witness),
        "orthogonal": sum(x * g for x, g in zip(big_n, gp) if x) == 0,
        "support_union": support_of([x or z for x, z in zip(big_p, big_n)])
        == support_of(big_a),
    }


MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator backing the instance generator.

    The algorithm is frozen so seeded corpora never change between
    releases: the state advances by the 64-bit constant
    ``0x9E3779B97F4A7C15``; each output mixes the new state with
    ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31`` (all arithmetic modulo 2**64).
    ``randint(lo, hi)`` reduces one output by ``% (hi - lo + 1)``.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise DomainError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


class _SpecFields(NamedTuple):
    seed: int
    m: int
    coefficient_range: tuple[int, int] = (0, 9)
    diagonal_range: tuple[int, int] = (-9, 9)
    offdiagonal_range: tuple[int, int] = (0, 9)
    denominator_max: int = 1


_RANGES = ("coefficient_range", "diagonal_range", "offdiagonal_range")


def _integer_pair(value, name: str) -> tuple[int, int]:
    """``(lo, hi)`` from a tuple or list of two integers, each read by
    :func:`zarlat.linalg.as_integer`; anything else raises :class:`DomainError`."""
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise DomainError(f"{name} needs a pair of integers, got {value!r}")
    return as_integer(value[0]), as_integer(value[1])


class InstanceSpec(_SpecFields):
    """Description of a random decomposition instance.

    All ranges are inclusive integer pairs.  Coefficients are drawn as
    ``numerator / denominator`` with the numerator from
    ``coefficient_range`` (nonnegative) and the denominator uniform in
    ``[1, denominator_max]``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "InstanceSpec":
        fields = super().__new__(cls, *args, **kwargs)
        spec = super().__new__(
            cls, as_integer(fields.seed), as_integer(fields.m),
            *(_integer_pair(getattr(fields, name), name) for name in _RANGES),
            as_integer(fields.denominator_max))
        if spec.m < 1:
            raise DomainError(f"need at least one component, got m={spec.m}")
        for name in _RANGES:
            lo, hi = getattr(spec, name)
            if lo > hi:
                raise DomainError(f"{name} is empty: [{lo}, {hi}]")
        if spec.offdiagonal_range[0] < 0:
            raise DomainError("off-diagonal range must be nonnegative (intersection product)")
        if spec.coefficient_range[0] < 0:
            raise DomainError("coefficient numerators must be nonnegative (effective divisor)")
        if spec.denominator_max < 1:
            raise DomainError("denominator_max must be at least 1")
        return spec

    @classmethod
    def _make(cls, iterable) -> "InstanceSpec":
        # The inherited _make, which _replace calls, would skip __new__.
        return cls(*iterable)

    @classmethod
    def standard(cls, seed: int, m: int, denominator_max: int = 4) -> "InstanceSpec":
        """The corpus used throughout the test and fuzzing harnesses."""
        return cls(seed=seed, m=m, denominator_max=denominator_max)


def random_instance(spec: InstanceSpec) -> tuple[IntersectionForm, tuple[Fraction, ...]]:
    """Deterministic instance from a seed.

    Draw order (one SplitMix64 stream seeded with ``spec.seed``): the Gram
    matrix row by row, each row i taking the diagonal entry then the
    off-diagonal entries j > i; then one coefficient per component, drawn as
    its numerator and then its denominator."""
    rng = SplitMix64(spec.seed)
    m = spec.m
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = rng.randint(*spec.diagonal_range)
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = rng.randint(*spec.offdiagonal_range)
    coeffs = []
    for _ in range(m):
        numerator = rng.randint(*spec.coefficient_range)
        denominator = rng.randint(1, spec.denominator_max)
        coeffs.append(Fraction(numerator, denominator))
    labels = tuple(f"D{i + 1}" for i in range(m))
    return IntersectionForm(labels=labels, gram=RationalMatrix.symmetric(rows)), as_divisor(coeffs, m)
