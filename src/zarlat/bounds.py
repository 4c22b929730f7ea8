"""Closed-form bound calculators with exact big integers and a factorial guard.

The chain of bounds computed here:

* ``denominator_bound(b, rho)``: if every prime component square is at
  least ``-b`` and at most ``rho - 1`` components can carry the negative
  part, every decomposition denominator divides some ``|det|`` bounded by
  ``b**(rho - 1)``, so ``(b**(rho - 1))!`` clears all denominators at once.
* ``reverse_negativity_bound(d, card)``: conversely, denominators bounded
  by ``d`` force squares no smaller than ``-(d! * d * card)`` where
  ``card`` is the order of the Neron-Severi discriminant group.
* ``birationality_bound(n, card, rho)``: the explicit multiple
  ``(n + 1) * (2n + 3) * (4 * card)**(rho - 1)!`` making the linear system
  of a big line bundle birational on a ``2n``-fold.
* ``chow_degree_bound``: the resulting degree bound ``m0**(2n) * C`` for
  volume-``C`` models in projective space.

These numbers are astronomically large by design; they are meaningful as
formulas.  A factorial is materialized only while its argument does not
exceed a guard (default 100000, overridable via the ``BBF_FACTORIAL_GUARD``
environment variable, ASCII digits only, or the ``guard=`` keyword); beyond
the guard the value is kept as an exact symbolic descriptor carrying the
precise integer argument (``{"factorial_of": "...", "times": "..."}`` in
JSON), so equality tests stay exact either way.  Derived quantities over a
deferred value (the reverse bound, the Chow degree) nest the descriptor.

Materialized values print in full: :func:`zarlat.linalg.decimal_string`
renders an int of any size by divide and conquer over :mod:`decimal`, in
quasi-linear time and without CPython's limit on int-to-str conversion (4300
digits by default).  Bound values are :class:`BigInt`/:class:`BigFraction`
instances, which compare, hash and compute as the plain ``int`` or
``Fraction`` and whose ``str()`` goes through it, and the deferred
descriptors render their arguments the same way.

``cramer_analysis`` ties decompositions to determinants: on an integral
instance it reads the negative-part coefficients, as ratios of
column-replaced determinants to ``det Gram_S``, off one elimination, which
is why every denominator divides ``|det|``.  ``instance_failures`` is the
``zarlat fuzz`` suite.
"""

from __future__ import annotations

import math
import os
import re
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence, Union

from . import zariski
from .errors import DomainError, InconsistencyError, ZarlatError
from .lattice import DeformationPreset, DiscriminantGroup, discriminant_group
# det is not called here; perfbench/selftest.py checks its tracer rebinds bounds.det.
from .linalg import (BorderedElimination, _digit_limit_error, _fraction_string, _shown,
                     as_integer, as_rational, bareiss_solve, decimal_string, det)
from .zariski import IntersectionForm, _scaled_divisor, as_divisor, decompose, support_rows

DEFAULT_FACTORIAL_GUARD = 100_000
GUARD_ENV_VAR = "BBF_FACTORIAL_GUARD"


def factorial_guard(override: Optional[int] = None) -> int:
    """Largest factorial argument that gets materialized.

    A guard that is not a nonnegative integer, from the keyword (read by
    :func:`zarlat.linalg.as_integer`) or from the environment, raises
    :class:`DomainError`; the environment value must be ASCII decimal digits.
    """
    if override is not None:
        try:
            guard = as_integer(override)
        except DomainError:
            raise DomainError(
                f"factorial guard {_shown(override)} is not a nonnegative integer") from None
        if guard < 0:
            raise DomainError(
                f"factorial guard {decimal_string(guard)} is not a nonnegative integer")
        return guard
    raw = os.environ.get(GUARD_ENV_VAR)
    if not raw:
        return DEFAULT_FACTORIAL_GUARD
    if re.fullmatch(r"[0-9]+", raw) is None:
        raise DomainError(f"{GUARD_ENV_VAR}={raw!r} is not a nonnegative integer")
    try:
        return int(raw)
    except ValueError:  # digits past the interpreter's int/str conversion limit
        raise _digit_limit_error(GUARD_ENV_VAR, len(raw)) from None


class BigInt(int):
    """A materialized bound: an ``int`` whose ``str()`` works at any size."""

    __slots__ = ()

    def __repr__(self) -> str:
        return decimal_string(self)

    __str__ = __repr__


class BigFraction(Fraction):
    """A materialized Chow degree: a ``Fraction`` whose ``str()`` works at any size."""

    __slots__ = ()

    def __str__(self) -> str:
        return _fraction_string(self)

    def __repr__(self) -> str:
        return f"BigFraction({decimal_string(self.numerator)}, {decimal_string(self.denominator)})"


class DeferredFactorial(NamedTuple):
    """Exact value ``times * factorial(factorial_of)``, kept symbolic."""

    factorial_of: int
    times: int = 1

    def __str__(self) -> str:
        prefix = f"{decimal_string(self.times)} * " if self.times != 1 else ""
        return f"{prefix}({decimal_string(self.factorial_of)})!"

    def to_json_dict(self) -> dict:
        return {"factorial_of": decimal_string(self.factorial_of), "times": decimal_string(self.times)}


class DeferredReverse(NamedTuple):
    """Exact value ``d! * d * card`` where ``d`` is itself deferred."""

    denominator: DeferredFactorial
    card: int

    def __str__(self) -> str:
        return f"d! * d * {decimal_string(self.card)} with d = {self.denominator}"

    def to_json_dict(self) -> dict:
        return {"reverse_of": self.denominator.to_json_dict(), "card": decimal_string(self.card)}


class DeferredPower(NamedTuple):
    """Exact value ``scale * base**exponent`` with a deferred base."""

    base: DeferredFactorial
    exponent: int
    scale: Fraction

    def __str__(self) -> str:
        return f"{_fraction_string(self.scale)} * ({self.base})**{decimal_string(self.exponent)}"

    def to_json_dict(self) -> dict:
        return {
            "power_of": self.base.to_json_dict(),
            "exponent": decimal_string(self.exponent),
            "scale": _fraction_string(self.scale),
        }


BoundValue = Union[BigInt, DeferredFactorial]


def _factorial_times(argument: int, times: int, guard: Optional[int]) -> BoundValue:
    if argument <= factorial_guard(guard):
        return BigInt(times * math.factorial(argument))
    return DeferredFactorial(factorial_of=BigInt(argument), times=BigInt(times))


def denominator_bound(b: int, rho: int, guard: Optional[int] = None) -> BoundValue:
    """``(b**(rho - 1))!`` — clears every decomposition denominator."""
    b = as_integer(b)
    rho = as_integer(rho)
    if b < 1:
        raise DomainError(f"negativity bound must be positive, got {decimal_string(b)}")
    if rho < 1:
        raise DomainError(f"rho must be at least 1, got {decimal_string(rho)}")
    return _factorial_times(b ** (rho - 1), 1, guard)


def reverse_negativity_bound(d: int, card: int, guard: Optional[int] = None) -> BoundValue:
    """``d! * d * card`` — squares forced by denominators bounded by d."""
    d = as_integer(d)
    card = as_integer(card)
    if d < 1 or card < 1:
        raise DomainError("reverse bound needs positive d and card")
    return _factorial_times(d, d * card, guard)


def birationality_bound(n: int, card: int, rho: int, guard: Optional[int] = None) -> BoundValue:
    """``(1/2)(2n + 2)(2n + 3) * (4 * card)**(rho - 1)!``, an integer.

    The polynomial prefactor ``(n + 1)(2n + 3)`` is always integral, so
    only the factorial part is subject to the guard.
    """
    n = as_integer(n)
    card = as_integer(card)
    rho = as_integer(rho)
    if n < 1 or card < 1 or rho < 1:
        raise DomainError("birationality bound needs positive n, card and rho")
    prefactor = (n + 1) * (2 * n + 3)
    return _factorial_times((4 * card) ** (rho - 1), prefactor, guard)


def chow_degree_bound(n: int, volume, m0) -> Union[BigFraction, DeferredPower]:
    """Degree bound ``m0**(2n) * C`` for the image in projective space."""
    n = as_integer(n)
    if n < 1:
        raise DomainError(f"half-dimension must be positive, got {decimal_string(n)}")
    c = as_rational(volume)
    if c <= 0:
        raise DomainError(f"volume must be positive, got {_fraction_string(c)}")
    if isinstance(m0, DeferredFactorial):
        return DeferredPower(base=m0, exponent=2 * n, scale=c)
    m0 = as_integer(m0)
    if m0 < 1:
        raise DomainError(f"birationality multiple must be positive, got {decimal_string(m0)}")
    return BigFraction(Fraction(m0) ** (2 * n) * c)


class BoundSet(NamedTuple):
    """The bound chain evaluated at one value of the Picard-number input."""

    rho: int
    denominator_bound: BoundValue
    reverse_negativity_bound: Union[BigInt, DeferredFactorial, DeferredReverse]
    birationality_multiple: BoundValue
    chow_degree: Union[BigFraction, DeferredPower]


class BoundReport(NamedTuple):
    """All closed-form bounds for one deformation family.

    ``at_rho`` evaluates the chain at the requested Picard number;
    ``uniform`` replaces it by ``h11 = b2 - 2``, which bounds the Picard number of
    every member of the deformation family, so those values hold uniformly.
    The reverse bound uses the order of ``group``, the second-cohomology
    discriminant group the chain is read from, as a stand-in for the
    Neron-Severi one; feed :func:`reverse_negativity_bound` the actual
    Neron-Severi order when it is known.
    """

    group: DiscriminantGroup
    volume: Fraction
    at_rho: BoundSet
    uniform: BoundSet


def _bound_set(rho: int, b: int, card: int, half_dim: int, volume: Fraction,
               guard: Optional[int]) -> BoundSet:
    dx = denominator_bound(b, rho, guard)
    if isinstance(dx, int):
        reverse = reverse_negativity_bound(dx, card, guard)
    else:
        reverse = DeferredReverse(denominator=dx, card=card)
    m0 = birationality_bound(half_dim, card, rho, guard)
    chow = chow_degree_bound(half_dim, volume, m0)
    return BoundSet(
        rho=rho,
        denominator_bound=dx,
        reverse_negativity_bound=reverse,
        birationality_multiple=m0,
        chow_degree=chow,
    )


def full_report(preset: DeformationPreset, rho: int, volume=1,
                guard: Optional[int] = None) -> BoundReport:
    """Assemble every bound for a deformation family at Picard number rho."""
    rho = as_integer(rho)
    if rho < 1 or rho > preset.h11:
        raise DomainError(f"rho must lie in [1, {preset.h11}] for {preset.display_name}, "
                          f"got {decimal_string(rho)}")
    vol = as_rational(volume)
    if vol <= 0:
        raise DomainError(f"volume must be positive, got {_fraction_string(vol)}")
    group = discriminant_group(preset.lattice)
    guard = factorial_guard(guard)  # read once; the int is passed down
    b = group.negativity_bound
    return BoundReport(
        group=group,
        volume=vol,
        at_rho=_bound_set(rho, b, group.cardinality, preset.half_dim, vol, guard),
        uniform=_bound_set(preset.h11, b, group.cardinality, preset.half_dim, vol, guard),
    )


class CramerAnalysis(NamedTuple):
    """Negative-part coefficients as determinant ratios.

    ``column_determinants[i]`` is ``det Gram_S`` with column ``i`` replaced
    by ``(gram @ a)_S``, and ``gram_determinant`` is ``det Gram_S``; both
    are integers.  ``coefficients`` and ``common_denominator`` are read off
    them, so every coefficient denominator divides the common denominator.
    """

    column_determinants: tuple[Fraction, ...]
    gram_determinant: Fraction

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """``column_determinants[i] / gram_determinant``, built exactly on each read."""
        d = self.gram_determinant.numerator
        return tuple(Fraction(v.numerator, d) for v in self.column_determinants)

    @property
    def common_denominator(self) -> int:
        """``|gram_determinant|``."""
        return abs(self.gram_determinant.numerator)


def cramer_analysis(form: IntersectionForm, divisor: Sequence,
                    support: Sequence[int]) -> CramerAnalysis:
    """Reconstruct negative-part coefficients by Cramer's rule.

    Requires an integral Gram matrix and an integral divisor (that is the
    setting in which the determinant bounds denominators), read once into ints
    ``A``.  One :func:`zarlat.linalg.bareiss_solve` of ``[Gram_S | (gram @ A)_S]``
    gives ``d = det Gram_S`` and ``y = d * n_S``, by Cramer's rule the
    column-replaced determinants.  The reconstruction is cross-checked against
    :func:`zarlat.zariski.decompose` of ``A``; a mismatch raises :class:`InconsistencyError`.
    A singular ``Gram_S`` raises :class:`SingularMatrixError`, as in
    :func:`zarlat.zariski.exceptional_certificate`.
    """
    big_a, s = _scaled_divisor(divisor, form.size)
    idx, rows, c = support_rows(form, support)
    if c != 1:
        raise DomainError("Cramer analysis needs an integral Gram matrix")
    if s != 1:
        raise DomainError("Cramer analysis needs an integral divisor")
    gram, _ = form.gram.scaled_rows
    d, y = bareiss_solve([row + [sum(map(mul, gram[i], big_a))] for i, row in zip(idx, rows)])
    analysis = CramerAnalysis(column_determinants=tuple(map(Fraction, y)),
                              gram_determinant=Fraction(d))
    reference = decompose(form, big_a)
    for j, value in zip(idx, analysis.coefficients):
        if reference.negative[j] != value:
            raise InconsistencyError(
                f"Cramer coefficient {_fraction_string(value)} at component {form.labels[j]!r} "
                f"disagrees with the decomposition value {_fraction_string(reference.negative[j])}"
            )
    return analysis


def det_trace_bound_holds(form: IntersectionForm, support: Sequence[int], b: int) -> bool:
    """Verify ``|det Gram_S| <= b**|S|`` exactly.

    Valid whenever the support Gram matrix is negative definite with every
    diagonal entry at least ``-b`` (then the arithmetic-geometric mean
    inequality on the eigenvalue magnitudes forces the bound), so a False
    return from admissible input would expose a bug, not a property of the
    input.  Inadmissible input raises :class:`DomainError`.  One
    :class:`zarlat.linalg.BorderedElimination` gives the verdict and the determinant.
    """
    _, rows, c = support_rows(form, support)
    b = as_integer(b)
    if b < 1:
        raise DomainError(f"diagonal bound must be positive, got {decimal_string(b)}")
    low_diagonal = any(row[i] < -b * c for i, row in enumerate(rows))
    elimination = BorderedElimination()
    if not elimination.extend(rows):
        raise DomainError("support Gram matrix is not negative definite")
    if low_diagonal:
        raise DomainError(f"a diagonal entry lies below -{decimal_string(b)}")
    return abs(elimination.det) <= (b * c) ** len(rows)


def instance_failures(form: IntersectionForm, divisor: Sequence, oracle_limit: int,
                      seed: int) -> list[str]:
    """Names of the ``zarlat fuzz`` properties that fail on one instance.

    In order: false :func:`zarlat.zariski.decomposition_checks` keys, ``oracle_match``
    (if ``|supp(D)| <= oracle_limit``), then on a nonempty negative support
    ``cramer_divisibility``, ``det_trace_bound``, ``negative_pairing_exists``,
    ``negative_square`` (one combination drawn from ``SplitMix64(seed ^ 0xD1F7)``)
    and ``certificate_positive``.  A :class:`ZarlatError` raised by a check fails it
    (``decomposition_checks`` for the invariants, ``decompose`` alone for the engine).
    ``cramer_divisibility`` runs :func:`cramer_analysis` on the integral form
    ``c * gram`` and the numerators ``s * a``, whose negative part is ``s * N``
    on the same support, and asks its ``common_denominator`` to clear every
    engine coefficient ``s * N_j``, so it holds on a rational Gram matrix too
    (``zarlat fuzz`` draws integral ones).
    """
    oracle_limit, seed = as_integer(oracle_limit), as_integer(seed)
    divisor = as_divisor(divisor, form.size)  # read once; every check below reads none
    numerators, s = _scaled_divisor(divisor, form.size)
    rows, c = form.gram.scaled_rows
    try:
        dec = zariski.decompose(form, divisor)
    except ZarlatError:
        return ["decompose"]
    try:
        checks = zariski.decomposition_checks(form, divisor, dec)
    except ZarlatError:
        checks = {"decomposition_checks": False}
    failures = [name for name, ok in checks.items() if not ok]
    support = dec.negative_support

    def check(name: str, holds) -> None:
        try:
            if holds():
                return
        except ZarlatError:
            pass
        failures.append(name)

    def oracle_match() -> bool:
        oracle = zariski.decompose_bruteforce(form, divisor, limit=oracle_limit)
        return (oracle.positive, oracle.negative) == (dec.positive, dec.negative)

    def cramer_divisibility() -> bool:
        # Every defining condition holds for c * gram exactly when it holds
        # for gram, and scaling D by s scales P and N, so by uniqueness the
        # negative part of s * a under c * gram is s * N, on ``support``.
        scaled = form if c == 1 else IntersectionForm.from_rows(form.labels, rows)
        bound = cramer_analysis(scaled, numerators, support).common_denominator
        return all(bound % (s * dec.negative[j]).denominator == 0 for j in support)

    if len(zariski.support_of(divisor)) <= oracle_limit:
        check("oracle_match", oracle_match)
    if not support:
        return failures
    check("cramer_divisibility", cramer_divisibility)
    # b = ceil(-gram_ii), the least integer with every diagonal entry >= -b.
    b = max(-(rows[i][i] // c) for i in support)
    check("det_trace_bound", lambda: det_trace_bound_holds(form, support, b))
    # One random nonzero nonnegative combination on the support must pair
    # negatively with some component and have negative square; the signs
    # are read off the rows of c * gram, a positive multiple of the form.
    rng = zariski.SplitMix64(seed ^ 0xD1F7)
    combination = [0] * form.size
    while not any(combination):
        for i in support:
            combination[i] = rng.randint(0, 5)
    pairings = [sum(map(mul, row, combination)) for row in rows]
    check("negative_pairing_exists", lambda: any(pairings[j] < 0 for j in support))
    check("negative_square", lambda: sum(map(mul, combination, pairings)) < 0)
    check("certificate_positive", lambda: zariski.exceptional_certificate(form, support).accepted)
    return failures
