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
formulas.  A factorial is materialized only while its argument stays below
a guard (default 100000, overridable via the ``BBF_FACTORIAL_GUARD``
environment variable or a keyword); beyond the guard the value is kept as
an exact symbolic descriptor carrying the precise integer argument, so
equality tests stay exact either way.

``cramer_analysis`` ties decompositions to determinants: on an integral
instance it reconstructs the negative-part coefficients as ratios of
column-replaced determinants to the support Gram determinant, which is why
every denominator divides ``|det|``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DomainError, InconsistencyError
from .lattice import DeformationPreset, discriminant_group
from .linalg import as_rational, det, is_negative_definite
from .zariski import IntersectionForm, as_divisor, decompose

DEFAULT_FACTORIAL_GUARD = 100_000
GUARD_ENV_VAR = "BBF_FACTORIAL_GUARD"


def factorial_guard(override: Optional[int] = None) -> int:
    """Largest factorial argument that gets materialized.

    A guard that is not a nonnegative integer, from the keyword or from the
    environment, raises :class:`DomainError`.
    """
    if override is not None:
        guard = int(override)
        source = f"factorial guard {guard}"
    else:
        raw = os.environ.get(GUARD_ENV_VAR)
        if not raw:
            return DEFAULT_FACTORIAL_GUARD
        source = f"{GUARD_ENV_VAR}={raw!r}"
        try:
            guard = int(raw)
        except ValueError:
            guard = -1
    if guard < 0:
        raise DomainError(f"{source} is not a nonnegative integer")
    return guard


@dataclass(frozen=True)
class DeferredFactorial:
    """Exact value ``times * factorial(factorial_of)``, kept symbolic."""

    factorial_of: int
    times: int = 1

    def __str__(self) -> str:
        prefix = f"{self.times} * " if self.times != 1 else ""
        return f"{prefix}({self.factorial_of})!"

    def to_json_dict(self) -> dict:
        return {"factorial_of": str(self.factorial_of), "times": str(self.times)}


@dataclass(frozen=True)
class DeferredReverse:
    """Exact value ``d! * d * card`` where ``d`` is itself deferred."""

    denominator: DeferredFactorial
    card: int

    def __str__(self) -> str:
        return f"d! * d * {self.card} with d = {self.denominator}"

    def to_json_dict(self) -> dict:
        return {"reverse_of": self.denominator.to_json_dict(), "card": str(self.card)}


@dataclass(frozen=True)
class DeferredPower:
    """Exact value ``scale * base**exponent`` with a deferred base."""

    base: DeferredFactorial
    exponent: int
    scale: Fraction

    def __str__(self) -> str:
        return f"{self.scale} * ({self.base})**{self.exponent}"

    def to_json_dict(self) -> dict:
        return {
            "power_of": self.base.to_json_dict(),
            "exponent": str(self.exponent),
            "scale": str(self.scale),
        }


BoundValue = Union[int, DeferredFactorial]


def _factorial_times(argument: int, times: int, guard: Optional[int]) -> BoundValue:
    if argument <= factorial_guard(guard):
        return times * math.factorial(argument)
    return DeferredFactorial(factorial_of=argument, times=times)


def denominator_bound(b: int, rho: int, guard: Optional[int] = None) -> BoundValue:
    """``(b**(rho - 1))!`` — clears every decomposition denominator."""
    b = int(b)
    rho = int(rho)
    if b < 1:
        raise DomainError(f"negativity bound must be positive, got {b}")
    if rho < 1:
        raise DomainError(f"rho must be at least 1, got {rho}")
    return _factorial_times(b ** (rho - 1), 1, guard)


def reverse_negativity_bound(d: int, card: int, guard: Optional[int] = None) -> BoundValue:
    """``d! * d * card`` — squares forced by denominators bounded by d."""
    d = int(d)
    card = int(card)
    if d < 1 or card < 1:
        raise DomainError("reverse bound needs positive d and card")
    return _factorial_times(d, d * card, guard)


def birationality_bound(n: int, card: int, rho: int, guard: Optional[int] = None) -> BoundValue:
    """``(1/2)(2n + 2)(2n + 3) * (4 * card)**(rho - 1)!``, an integer.

    The polynomial prefactor ``(n + 1)(2n + 3)`` is always integral, so
    only the factorial part is subject to the guard.
    """
    n = int(n)
    card = int(card)
    rho = int(rho)
    if n < 1 or card < 1 or rho < 1:
        raise DomainError("birationality bound needs positive n, card and rho")
    prefactor = (n + 1) * (2 * n + 3)
    return _factorial_times((4 * card) ** (rho - 1), prefactor, guard)


def chow_degree_bound(n: int, volume, m0) -> Union[Fraction, DeferredPower]:
    """Degree bound ``m0**(2n) * C`` for the image in projective space."""
    n = int(n)
    if n < 1:
        raise DomainError(f"half-dimension must be positive, got {n}")
    c = as_rational(volume)
    if c <= 0:
        raise DomainError(f"volume must be positive, got {c}")
    if isinstance(m0, DeferredFactorial):
        return DeferredPower(base=m0, exponent=2 * n, scale=c)
    m0 = int(m0)
    if m0 < 1:
        raise DomainError(f"birationality multiple must be positive, got {m0}")
    return Fraction(m0) ** (2 * n) * c


@dataclass(frozen=True)
class BoundSet:
    """The bound chain evaluated at one value of the Picard-number input."""

    rho: int
    denominator_bound: BoundValue
    reverse_negativity_bound: Union[int, DeferredFactorial, DeferredReverse]
    birationality_multiple: BoundValue
    chow_degree: Union[Fraction, DeferredPower]


@dataclass(frozen=True)
class BoundReport:
    """All closed-form bounds for one deformation family.

    ``at_rho`` evaluates the chain at the requested Picard number;
    ``uniform`` replaces it by ``h11``, which bounds the Picard number of
    every member of the deformation family, so those values hold uniformly.
    The reverse bound uses the full second-cohomology discriminant order as
    a stand-in for the Neron-Severi one; feed
    :func:`reverse_negativity_bound` the actual Neron-Severi order when it
    is known.
    """

    preset_tag: str
    name: str
    half_dim: int
    negativity_bound: int
    negativity_bound_refined: int
    published_max_square: int
    cardinality: int
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
    rho = int(rho)
    if rho < 1 or rho > preset.h11:
        raise DomainError(f"rho must lie in [1, {preset.h11}] for {preset.display_name}, got {rho}")
    vol = as_rational(volume)
    if vol <= 0:
        raise DomainError(f"volume must be positive, got {vol}")
    group = discriminant_group(preset.lattice)
    b = 4 * group.cardinality
    return BoundReport(
        preset_tag=preset.tag,
        name=preset.display_name,
        half_dim=preset.half_dim,
        negativity_bound=b,
        negativity_bound_refined=4 * group.exponent,
        published_max_square=preset.published_max_square,
        cardinality=group.cardinality,
        volume=vol,
        at_rho=_bound_set(rho, b, group.cardinality, preset.half_dim, vol, guard),
        uniform=_bound_set(preset.h11, b, group.cardinality, preset.half_dim, vol, guard),
    )


@dataclass(frozen=True)
class CramerAnalysis:
    """Negative-part coefficients as determinant ratios.

    ``coefficients[i] == column_determinants[i] / gram_determinant``
    exactly; for integral input every coefficient denominator divides
    ``common_denominator == |gram_determinant|``.
    """

    support: tuple[int, ...]
    coefficients: tuple[Fraction, ...]
    column_determinants: tuple[Fraction, ...]
    gram_determinant: Fraction
    common_denominator: int


def cramer_analysis(form: IntersectionForm, divisor: Sequence,
                    support: Sequence[int]) -> CramerAnalysis:
    """Reconstruct negative-part coefficients by Cramer's rule.

    Requires an integral Gram matrix and an integral divisor (that is the
    setting in which the determinant bounds denominators).  The
    reconstruction is cross-checked against :func:`zarlat.zariski.decompose`
    and a mismatch raises :class:`InconsistencyError`.
    """
    if not form.gram.is_integral():
        raise DomainError("Cramer analysis needs an integral Gram matrix")
    a = as_divisor(divisor, form.size)
    if any(x.denominator != 1 for x in a):
        raise DomainError("Cramer analysis needs an integral divisor")
    idx = sorted(set(support))
    if not idx:
        raise DomainError("empty support")
    sub = form.gram.submatrix(idx)
    gram_det = det(sub)
    if gram_det == 0:
        raise DomainError("support Gram matrix is singular")
    ga = form.gram.matvec(a)
    rhs = [ga[j] for j in idx]
    column_dets = tuple(det(sub.replace_column(i, rhs)) for i in range(len(idx)))
    coefficients = tuple(cd / gram_det for cd in column_dets)
    reference = decompose(form, a)
    for j, value in zip(idx, coefficients):
        if reference.negative[j] != value:
            raise InconsistencyError(
                f"Cramer coefficient {value} at component {form.labels[j]!r} disagrees "
                f"with the decomposition value {reference.negative[j]}"
            )
    return CramerAnalysis(
        support=tuple(idx),
        coefficients=coefficients,
        column_determinants=column_dets,
        gram_determinant=gram_det,
        common_denominator=abs(int(gram_det)),
    )


def det_trace_bound_holds(form: IntersectionForm, support: Sequence[int], b: int) -> bool:
    """Verify ``|det Gram_S| <= b**|S|`` exactly.

    Valid whenever the support Gram matrix is negative definite with every
    diagonal entry at least ``-b`` (then the arithmetic-geometric mean
    inequality on the eigenvalue magnitudes forces the bound), so a False
    return from admissible input would expose a bug, not a property of the
    input.  Inadmissible input raises :class:`DomainError`.
    """
    idx = sorted(set(support))
    if not idx:
        raise DomainError("empty support")
    b = int(b)
    if b < 1:
        raise DomainError(f"diagonal bound must be positive, got {b}")
    sub = form.gram.submatrix(idx)
    if not is_negative_definite(sub):
        raise DomainError("support Gram matrix is not negative definite")
    if any(sub[i, i] < -b for i in range(len(idx))):
        raise DomainError(f"a diagonal entry lies below -{b}")
    return abs(det(sub)) <= Fraction(b) ** len(idx)
