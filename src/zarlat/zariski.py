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
pairs negatively with, until stable.  Each round is one fraction-free pass
(:func:`zarlat.linalg.sylvester_pass`) over integers, which gives the
definiteness verdict, the negative part and ``det Gram_S`` together.
``decompose_bruteforce`` is the independent oracle: it enumerates every
candidate support, keeps the candidates satisfying all the defining
conditions, and demands exactly one resulting decomposition.  It decides
definiteness by ``signature`` and solves by Gaussian elimination over
``Fraction``, so it shares no elimination with the engine.  The two must
agree coefficient for coefficient; any divergence is a bug by uniqueness.

All arithmetic is exact; all operations are pure and deterministic.
``random_instance`` derives everything from an explicit 64-bit seed through
a self-contained SplitMix64 stream, so test corpora are stable across
platforms and releases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
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
    g = form.gram
    return tuple(
        (i, j)
        for i in range(form.size)
        for j in range(i + 1, form.size)
        if g[i, j] < 0
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
    bad = next((i for i, x in enumerate(vec) if x < 0), None)
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
    """
    a = as_divisor(divisor, form.size)
    b = as_vector(candidate)
    if len(b) != form.size:
        raise ShapeError(f"candidate has {len(b)} coefficients, form has {form.size}")
    if any(x < 0 or x > ai for x, ai in zip(b, a)):
        return False
    gb = form.gram.matvec(b)
    return all(gb[j] >= 0 for j in support_of(a))


@dataclass(frozen=True)
class Decomposition:
    """The splitting D = positive + negative.

    ``negative_support`` is the support of the negative part;
    ``negative_gram_det`` the exact determinant of the Gram submatrix on it
    (1 for an empty support), whose absolute value bounds every denominator
    of the negative coefficients for integral input; ``rounds`` counts
    support-enlargement iterations (0 when the divisor was already nef, and
    for oracle results, which do not iterate).
    """

    positive: tuple[Fraction, ...]
    negative: tuple[Fraction, ...]
    negative_support: tuple[int, ...]
    rounds: int
    negative_gram_det: Fraction


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
    support is ``supp(N)`` and its pass gives ``det Gram_S``.  By the axiom and
    the pass, ``-Gram_S`` is a positive definite Z-matrix, hence ``-Gram_S^-1 >= 0``
    with a positive diagonal (Berman & Plemmons, ch. 6).  Round 1 solves
    against ``(gram @ D)_S < 0``; each later round adds ``Gram_S^-1 w``, with
    ``w`` zero on the old support and negative on the added components.
    """
    a = as_divisor(divisor, form.size)
    require_intersection_product(form)
    # Integers throughout: rows of c * gram and A = s * a, with c and s the
    # lcms of the denominators, so r = (c * gram) @ A = c * s * (gram @ a).
    rows, c = scaled_int_rows(form.gram.entries)
    s = lcm(*(x.denominator for x in a))
    big_a = [x.numerator * (s // x.denominator) for x in a]
    r = [sum(map(mul, row, big_a)) for row in rows]
    support = support_of(a)
    working = [j for j in support if r[j] < 0]
    d, y, rounds = 1, [], 0
    while working:
        # (c * gram_S) (s * n_S) = r_S; the pass returns d = det(c * gram_S)
        # and y = d * s * n_S.
        system = []
        for i in working:
            row = rows[i]
            system.append([row[j] for j in working] + [r[i]])
        outcome = sylvester_pass(system)
        if outcome is None:
            raise InconsistencyError(
                f"Gram submatrix on {self_labels(form, working)} is not negative definite; "
                "the input does not admit a decomposition"
            )
        d, y = outcome
        scale = abs(d)
        if d < 0:
            y = [-v for v in y]
        for j, v in zip(working, y):
            if v <= 0 or v > scale * big_a[j]:
                raise InconsistencyError(
                    f"solved coefficient {Fraction(v, scale * s)} for component "
                    f"{form.labels[j]!r} falls outside (0, {a[j]}]"
                )
        rounds += 1
        # c * s * |d| * (gram @ (a - n))_j = |d| * r_j - (c * gram)_j @ y.
        members = set(working)
        grown = [
            j for j in support
            if j not in members and scale * r[j] < sum(rows[j][i] * v for i, v in zip(working, y))
        ]
        if not grown:
            break
        working = sorted(working + grown)
    negative = [Fraction(0)] * form.size
    for j, v in zip(working, y):
        negative[j] = Fraction(v, abs(d) * s)
    return Decomposition(positive=tuple(ai - ni for ai, ni in zip(a, negative)),
                         negative=tuple(negative), negative_support=tuple(working),
                         rounds=rounds, negative_gram_det=Fraction(d, c ** len(working)))


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
    """
    a = as_divisor(divisor, form.size)
    require_intersection_product(form)
    support = support_of(a)
    if len(support) > limit:
        raise DomainError(f"support size {len(support)} exceeds oracle limit {limit}")
    gram = form.gram
    ga = gram.matvec(a)
    accepted: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
    for size in range(len(support) + 1):
        for subset in combinations(support, size):
            negative = [Fraction(0)] * form.size
            if subset:
                sub = gram.submatrix(subset)
                if signature(sub) != Inertia(0, size, 0):
                    continue
                solution = solve(sub, [ga[j] for j in subset])
                if any(x < 0 or x > a[j] for j, x in zip(subset, solution)):
                    continue
                for j, x in zip(subset, solution):
                    negative[j] = x
            positive = [ai - ni for ai, ni in zip(a, negative)]
            gp = gram.matvec(positive)
            if any(x < 0 for x in gp):
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
    return Decomposition(positive=tuple(ai - ni for ai, ni in zip(a, negative)),
                         negative=negative, negative_support=support,
                         rounds=0, negative_gram_det=det(gram.submatrix(support)))


def decomposition_checks(
    form: IntersectionForm, divisor: Sequence, dec: Decomposition
) -> dict[str, bool]:
    """Evaluate the five defining invariants of a decomposition, exactly.

    Keys, in fixed order: ``parts_sum`` (P + N == D), ``positive_nef``
    ((gram @ P)_j >= 0 for every j), ``negative_exceptional`` (support of N
    matches the recorded support and its Gram submatrix is negative
    definite, or N = 0), ``orthogonal`` (q(P, N) == 0), ``support_union``
    (supp(P) union supp(N) == supp(D)).
    """
    a = as_divisor(divisor, form.size)
    gram = form.gram
    p, n = dec.positive, dec.negative
    gp = gram.matvec(p)
    support_n = support_of(n)
    return {
        "parts_sum": tuple(x + y for x, y in zip(p, n)) == a,
        "positive_nef": all(x >= 0 for x in gp),
        "negative_exceptional": support_n == dec.negative_support
        and (not support_n or is_exceptional(form, support_n)),
        "orthogonal": sum((x * y for x, y in zip(n, gp)), Fraction(0)) == 0,
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
