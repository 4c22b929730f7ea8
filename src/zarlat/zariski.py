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
definiteness witness.  ``decomposition_checks`` verifies that witness with
one integer matrix-vector product and runs no elimination.
``decompose_bruteforce`` is the independent oracle: it enumerates every
candidate support, keeps the candidates satisfying all the defining
conditions, and demands exactly one resulting decomposition.  It decides
definiteness by ``signature`` (integer congruence reduction), testing a
subset only when every subset one element smaller is negative definite,
and solves by Gaussian elimination over ``Fraction``, so it shares no
elimination with the engine.  That ``solve`` is the oracle's only
``Fraction`` elimination: its range, nef and orthogonality tests, like the
queries of ``in_nef_region``, run on integer rows of ``c * gram``.  The two
must agree coefficient for coefficient; any divergence is a bug by
uniqueness.

All arithmetic is exact; all operations are pure and deterministic.
``random_instance`` derives everything from an explicit 64-bit seed through
a self-contained SplitMix64 stream, so test corpora are stable across
platforms and releases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import (
    AxiomViolationError,
    DomainError,
    InconsistencyError,
    OracleMismatchError,
    ShapeError,
)
from .linalg import (
    BorderedElimination,
    Inertia,
    RationalMatrix,
    as_rational,
    as_vector,
    det,
    scaled_int_rows,
    signature,
    solve,
    sylvester_pass,
)


@dataclass(frozen=True)
class IntersectionForm:
    """Symmetric rational pairing on a list of labelled prime components."""

    labels: tuple[str, ...]
    gram: RationalMatrix

    def __post_init__(self):
        if not self.gram.is_symmetric():
            raise ShapeError("intersection form needs a symmetric Gram matrix")
        if len(self.labels) != self.gram.nrows:
            raise ShapeError(
                f"{len(self.labels)} labels for a {self.gram.nrows}x{self.gram.ncols} Gram matrix"
            )
        if len(set(self.labels)) != len(self.labels):
            repeated = next(x for x in self.labels if self.labels.count(x) > 1)
            raise DomainError(f"component label {repeated!r} is repeated")

    @classmethod
    def from_rows(cls, labels: Sequence[str], rows: Iterable[Iterable]) -> "IntersectionForm":
        return cls(labels=tuple(labels), gram=RationalMatrix.symmetric(rows))

    @property
    def size(self) -> int:
        return len(self.labels)

    def pairing(self, u: Sequence, v: Sequence) -> Fraction:
        gu = self.gram.matvec(u)
        return sum((as_rational(x) * g for x, g in zip(v, gu)), Fraction(0))


def intersection_axiom_violations(form: IntersectionForm) -> tuple[tuple[int, int], ...]:
    """Every off-diagonal pair (i, j), i < j, with a negative pairing."""
    return tuple(
        (i, j)
        for i, row in enumerate(form.gram.entries)
        for j in range(i + 1, len(row))
        if row[j].numerator < 0
    )


def require_intersection_product(form: IntersectionForm) -> None:
    violations = intersection_axiom_violations(form)
    if violations:
        raise AxiomViolationError(violations, form.labels)


def as_divisor(values: Iterable, size: int) -> tuple[Fraction, ...]:
    """Validate an effective divisor: ``size`` exact nonnegative coefficients."""
    vec = as_vector(values)
    if len(vec) != size:
        raise ShapeError(f"divisor has {len(vec)} coefficients, form has {size} components")
    bad = next((i for i, x in enumerate(vec) if x.numerator < 0), None)
    if bad is not None:
        raise DomainError(f"effective divisor needs nonnegative coefficients; entry {bad} is {vec[bad]}")
    return vec


def support_of(vec: Sequence[Fraction]) -> tuple[int, ...]:
    return tuple(i for i, x in enumerate(vec) if x != 0)


def support_rows(
    form: IntersectionForm, indices: Sequence[int]
) -> tuple[tuple[int, ...], list[list[int]], int]:
    """``(indices, rows, c)`` for a support that is nonempty and strictly
    increasing (else :class:`DomainError`) within ``[0, form.size)`` (else
    :class:`ShapeError`): ``rows`` are fresh integer rows of ``c * Gram_S``."""
    idx = tuple(indices)
    if not idx:
        raise DomainError("empty support")
    if any(i >= j for i, j in zip(idx, idx[1:])):
        raise DomainError(f"support {list(idx)} is not strictly increasing")
    if idx[0] < 0 or idx[-1] >= form.size:
        raise ShapeError(f"support {list(idx)} out of range for {form.size} components")
    entries = form.gram.entries
    rows, c = scaled_int_rows([[entries[i][j] for j in idx] for i in idx])
    return idx, rows, c


def is_exceptional(form: IntersectionForm, indices: Sequence[int]) -> bool:
    """Is the Gram submatrix on ``indices`` negative definite?  Decided exactly
    by Sylvester's criterion (leading principal minors ``-, +, -, ...``) in one
    :func:`zarlat.linalg.sylvester_pass` over the rows of :func:`support_rows`."""
    return sylvester_pass(support_rows(form, indices)[1]) is not None


@dataclass(frozen=True)
class CertificateOutcome:
    """Result of the positive-combination certificate on a support set.

    ``solution`` always satisfies ``gram_S @ solution == (-1, ..., -1)``.
    For a symmetric matrix with nonnegative off-diagonal entries, the
    solution is entrywise positive exactly when the submatrix is negative
    definite (the M-matrix characterization), so ``accepted`` doubles as a
    definiteness certificate: a strictly positive combination of the
    components pairs strictly negatively with every one of them.
    """

    solution: tuple[Fraction, ...]
    accepted: bool
    failing_index: Optional[int]


def exceptional_certificate(form: IntersectionForm, indices: Sequence[int]) -> CertificateOutcome:
    _, rows, c = support_rows(form, indices)
    # (c * Gram_S) x == (-c, ..., -c) exactly when Gram_S x == (-1, ..., -1).
    solution = solve(rows, [-c] * len(rows))
    failing = next((i for i, x in enumerate(solution) if x <= 0), None)
    return CertificateOutcome(
        solution=solution, accepted=failing is None, failing_index=failing
    )


def in_nef_region(form: IntersectionForm, divisor: Sequence, candidate: Sequence) -> bool:
    """Membership in the region of sub-divisors of D that are nef on supp(D).

    True iff ``0 <= b <= a`` entrywise, ``b`` vanishes outside ``supp(a)``,
    and ``(gram @ b)_j >= 0`` for every ``j`` in ``supp(a)``.  The positive
    part of the decomposition is the unique entrywise-maximal member.

    Decided on integers: ``A = t * a`` and ``B = t * b`` for one common
    denominator ``t``, and the rows of ``c * gram``, whose products with
    ``B`` are positive multiples of ``(gram @ b)_j``.  ``B <= A`` already
    makes ``b`` vanish outside ``supp(a)``.
    """
    a = as_divisor(divisor, form.size)
    b = as_vector(candidate)
    if len(b) != form.size:
        raise ShapeError(f"candidate has {len(b)} coefficients, form has {form.size}")
    t = lcm(*(x.denominator for x in a), *(x.denominator for x in b))
    big_a = [x.numerator * (t // x.denominator) for x in a]
    big_b = [x.numerator * (t // x.denominator) for x in b]
    if any(v < 0 or v > w for v, w in zip(big_b, big_a)):
        return False
    rows, _ = form.gram.scaled_rows
    return all(sum(map(mul, row, big_b)) >= 0 for row, w in zip(rows, big_a) if w)


@dataclass(frozen=True)
class Decomposition:
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
    a = as_divisor(divisor, form.size)
    require_intersection_product(form)
    # Integers throughout: rows of c * gram and A = s * a, with c and s the
    # lcms of the denominators, so r = (c * gram) @ A = c * s * (gram @ a).
    rows, c = form.gram.scaled_rows
    s = lcm(*(x.denominator for x in a))
    big_a = [x.numerator * (s // x.denominator) for x in a]
    r = [sum(map(mul, row, big_a)) for row in rows]
    support = support_of(a)
    new = [j for j in support if r[j] < 0]
    if not new:  # D is nef: N = 0
        return Decomposition(positive=a, negative=(Fraction(0),) * form.size,
                             negative_support=(), rounds=0, negative_gram_det=Fraction(1))
    # The working support in the order its components joined, and the
    # elimination of [c * gram_S | r_S, -1] over it, which grows with it.
    order: list[int] = []
    joined = []
    elimination = BorderedElimination()
    while new:
        order += new
        joined.append(tuple(new))
        system = []
        for i in new:
            row = rows[i]
            system.append([row[j] for j in order] + [r[i], -1])
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
                    f"{form.labels[j]!r} falls outside (0, {a[j]}]"
                )
        # c * s * |d| * (gram @ (a - n))_j = |d| * r_j - (c * gram)_j @ y.
        members = set(order)
        new = [
            j for j in support
            if j not in members and scale * r[j] < sum(rows[j][i] * v for i, v in zip(order, y))
        ]
    negative = [Fraction(0)] * form.size
    for j, v in zip(order, y):
        negative[j] = Fraction(v, abs(d) * s)
    # w = d * (c * gram_S)^-1 (-1, ..., -1), solved once, for the last support.
    w = elimination.solution(1)
    g = gcd(*w) if d > 0 else -gcd(*w)
    by_index = sorted(zip(order, w))
    return Decomposition(positive=tuple(ai - ni for ai, ni in zip(a, negative)),
                         negative=tuple(negative), negative_support=tuple(j for j, _ in by_index),
                         rounds=len(joined), negative_gram_det=Fraction(d, c ** len(order)),
                         witness=tuple(v // g for _, v in by_index), joined=tuple(joined))


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
    by ``signature`` only when each subset one element smaller was found
    negative definite, whatever its range test gave.  The pruning skips no
    subset that could be kept, and the enumeration stays exhaustive.

    ``solve`` over ``Fraction`` is the only elimination per subset.  Its
    solution, scaled by the lcm ``t`` of its denominators, and ``r``, the
    integer product of ``c * gram`` with ``s * a``, decide the range, nef
    and orthogonality tests on integers; every scale is positive, so each
    test has the verdict of the rational one.
    """
    a = as_divisor(divisor, form.size)
    require_intersection_product(form)
    support = support_of(a)
    if len(support) > limit:
        raise DomainError(f"support size {len(support)} exceeds oracle limit {limit}")
    gram = form.gram
    # Integers for the acceptance tests: rows of c * gram and A = s * a, so
    # r = (c * gram) @ A = c * s * (gram @ a).
    rows, c = gram.scaled_rows
    s = lcm(*(x.denominator for x in a))
    big_a = [x.numerator * (s // x.denominator) for x in a]
    r = [sum(map(mul, row, big_a)) for row in rows]
    accepted: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
    if all(v >= 0 for v in r):
        accepted[(Fraction(0),) * form.size] = ()  # D is nef: N = 0
    definite = {()}  # the negative definite subsets of the previous size
    for size in range(1, len(support) + 1):
        smaller, definite = definite, set()
        if not smaller:
            break  # no larger subset can be negative definite
        for subset in combinations(support, size):
            if any(subset[:i] + subset[i + 1 :] not in smaller for i in range(size)):
                continue
            sub = gram.submatrix(subset)
            if signature(sub) != Inertia(0, size, 0):
                continue
            definite.add(subset)
            solution = solve(sub, [Fraction(r[j], c * s) for j in subset])
            # N = t * n_S; c * s * t * (gram @ (a - n)) = t * r - s * (c * gram)[:, S] @ N.
            t = lcm(*(x.denominator for x in solution))
            big_n = [x.numerator * (t // x.denominator) for x in solution]
            if any(v < 0 or v * s > big_a[j] * t for j, v in zip(subset, big_n)):
                continue
            gp = [t * rj - s * sum(row[j] * v for j, v in zip(subset, big_n))
                  for row, rj in zip(rows, r)]
            if any(v < 0 for v in gp):
                continue
            if sum(v * gp[j] for j, v in zip(subset, big_n)) != 0:
                continue
            negative = [Fraction(0)] * form.size
            for j, x in zip(subset, solution):
                negative[j] = x
            accepted.setdefault(tuple(negative), subset)
    if len(accepted) != 1:
        raise OracleMismatchError(
            f"enumeration found {len(accepted)} distinct decompositions instead of one"
        )
    negative = next(iter(accepted))
    support = support_of(negative)
    sub = gram.submatrix(support)
    certificate = solve(sub, [-1] * len(support))
    scale = lcm(*(x.denominator for x in certificate))
    y = [x.numerator * (scale // x.denominator) for x in certificate]
    g = gcd(*y)  # 1 for an integral Gram matrix, not always for a rational one
    return Decomposition(positive=tuple(ai - ni for ai, ni in zip(a, negative)),
                         negative=negative, negative_support=support,
                         rounds=0, negative_gram_det=det(sub),
                         witness=tuple(v // g for v in y))


def decomposition_checks(
    form: IntersectionForm, divisor: Sequence, dec: Decomposition
) -> dict[str, bool]:
    """Evaluate the five defining invariants of a decomposition, exactly.

    Keys, in fixed order: ``parts_sum`` (P + N == D), ``positive_nef``
    ((gram @ P)_j >= 0 for every j), ``negative_exceptional`` (support of N
    matches the recorded support and its Gram submatrix is negative
    definite, or N = 0), ``orthogonal`` (q(P, N) == 0), ``support_union``
    (supp(P) union supp(N) == supp(D)).

    No elimination runs here: every key is integer arithmetic on the rows of
    ``c * gram``.  Definiteness is read from ``dec.witness``: ``-Gram_S`` is
    positive definite when its off-diagonal entries are ``<= 0`` (the sign
    pattern, required because ``form`` is not re-validated here) and some
    ``y > 0`` has ``(-Gram_S) y > 0`` entrywise (the M-matrix
    characterization, Berman & Plemmons, ch. 6).  So the key holds exactly
    when ``len(witness) == |S|``, every ``y_i > 0``, every off-diagonal entry
    of ``Gram_S`` is ``>= 0`` and ``Gram_S y < 0``, whatever produced ``y``.
    """
    a = as_divisor(divisor, form.size)
    p, n = as_vector(dec.positive), dec.negative
    if len(p) != form.size:
        raise ShapeError(f"positive part has {len(p)} coefficients, form has {form.size}")
    rows, _ = form.gram.scaled_rows
    (big_p,), _ = scaled_int_rows([p])
    # A positive multiple of gram @ P: the same signs, and zero pairing with N
    # exactly when q(P, N) == 0.
    gp = [sum(map(mul, row, big_p)) for row in rows]
    support_n = support_of(n)
    y = dec.witness
    return {
        "parts_sum": tuple(x + z for x, z in zip(p, n)) == a,
        "positive_nef": all(v >= 0 for v in gp),
        "negative_exceptional": support_n == dec.negative_support
        and len(y) == len(support_n)
        and all(type(v) is int and v > 0 for v in y)
        and all(rows[i][j] >= 0 for i in support_n for j in support_n if i != j)
        and all(sum(map(mul, [rows[i][j] for j in support_n], y)) < 0 for i in support_n),
        "orthogonal": sum(x * v for x, v in zip(n, gp) if x) == 0,
        "support_union": tuple(sorted(set(support_of(p)) | set(support_n)))
        == support_of(a),
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


@dataclass(frozen=True)
class InstanceSpec:
    """Description of a random decomposition instance.

    All ranges are inclusive integer pairs.  Coefficients are drawn as
    ``numerator / denominator`` with the numerator from
    ``coefficient_range`` (nonnegative) and the denominator uniform in
    ``[1, denominator_max]``."""

    seed: int
    m: int
    coefficient_range: tuple[int, int] = (0, 9)
    diagonal_range: tuple[int, int] = (-9, 9)
    offdiagonal_range: tuple[int, int] = (0, 9)
    denominator_max: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"need at least one component, got m={self.m}")
        for name in ("coefficient_range", "diagonal_range", "offdiagonal_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise DomainError(f"{name} is empty: [{lo}, {hi}]")
        if self.offdiagonal_range[0] < 0:
            raise DomainError("off-diagonal range must be nonnegative (intersection product)")
        if self.coefficient_range[0] < 0:
            raise DomainError("coefficient numerators must be nonnegative (effective divisor)")
        if self.denominator_max < 1:
            raise DomainError("denominator_max must be at least 1")

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
    return IntersectionForm(labels=labels, gram=RationalMatrix.symmetric(rows)), tuple(coeffs)
