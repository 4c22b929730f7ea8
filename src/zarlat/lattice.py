"""Integral quadratic lattices and their discriminant invariants.

Provides the standard even blocks (hyperbolic plane, E8(-1), A2(-1),
rank-one lattices), direct sums, discriminant groups computed through Smith
normal form (certified against the Gram matrix, by ``|det| == prod(diag)``
when it is nonsingular), the second-cohomology lattices of the four known
deformation families of irreducible symplectic manifolds, the negativity
bounds ``4 * Card`` / ``4 * exponent``, properties of the discriminant group,
and the integrality test for the dual curve class ``-2 q(E, .) / q(E)`` of a
candidate prime exceptional class ``E``.  Each record stores only what it
cannot derive: a group's order and exponent, a preset's ``b2`` and ``h11``
and the dual-curve verdict are properties read off the stored fields.

The published per-family values (discriminant group, largest negative
square of a prime exceptional divisor) are catalog data, stored verbatim in
one table row per family, and the published exponent is the group's last
elementary divisor; the lattice-theoretic columns are recomputed from the
Gram matrices so the two can be cross-checked.  For OG10
the stored largest square, 6, is finer than the general bound
``4 * Card(A_X) = 12``.  ``preset``, ``normalize_tag``, ``PRESET_TAGS`` and
``presets(n)`` (read by the ``table`` command) all derive from that table,
so a family is added or corrected in one row.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import DomainError, InconsistencyError, ShapeError, SingularMatrixError
from .linalg import (RationalMatrix, _sequence, _shown, as_integer, decimal_string, det,
                     smith_normal_form)


class _LatticeFields(NamedTuple):
    name: str
    gram: RationalMatrix


class IntegralLattice(_LatticeFields):
    """A free Z-module with an integral symmetric bilinear form.

    It is even when every diagonal entry of ``gram.int_rows()`` is even."""

    __slots__ = ()

    def __new__(cls, name: str, gram: RationalMatrix) -> "IntegralLattice":
        if not gram.is_symmetric():
            raise ShapeError(f"lattice {name!r}: Gram matrix must be symmetric")
        if not gram.is_integral():
            raise DomainError(f"lattice {name!r}: Gram matrix must be integral")
        return super().__new__(cls, name, gram)

    @classmethod
    def _make(cls, iterable) -> "IntegralLattice":
        # The inherited _make, which _replace calls, would skip __new__.
        return cls(*iterable)

    @property
    def rank(self) -> int:
        return self.gram.nrows

    def determinant(self) -> int:
        return int(det(self.gram))

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        rows, _ = self.gram.scaled_rows
        a, b = _coordinates(self, u), _coordinates(self, v)
        return sum(y * sum(map(mul, row, a)) for y, row in zip(b, rows))

    def square(self, v: Sequence[int]) -> int:
        return self.pairing(v, v)


def _coordinates(lattice: IntegralLattice, values: Sequence[int]) -> list[int]:
    """``values`` as ``rank`` integers, each read by :func:`zarlat.linalg.as_integer`:
    a list, a tuple or another iterable that is not a string, bytes, a
    mapping or a set.  Lattice pairings and the dual-curve test read
    coordinates through it."""
    vec = [as_integer(x) for x in _sequence(values, "lattice coordinates")]
    if len(vec) != lattice.rank:
        raise ShapeError(f"class has {len(vec)} coordinates, lattice rank is {lattice.rank}")
    return vec


_E8_EDGES = ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))


def _e8_minus_rows() -> list[list[int]]:
    rows = [[0] * 8 for _ in range(8)]
    for i in range(8):
        rows[i][i] = -2
    for i, j in _E8_EDGES:
        rows[i][j] = rows[j][i] = 1
    return rows


def hyperbolic_plane() -> IntegralLattice:
    """The even unimodular rank-two block with Gram [[0, 1], [1, 0]]."""
    return IntegralLattice("U", RationalMatrix([[0, 1], [1, 0]]))


def e8_minus() -> IntegralLattice:
    """The negative definite E8 lattice (negated Cartan matrix, det 1)."""
    return IntegralLattice("E8(-1)", RationalMatrix(_e8_minus_rows()))


def a2_minus() -> IntegralLattice:
    """The negative definite A2 lattice, Gram [[-2, 1], [1, -2]], det 3."""
    return IntegralLattice("A2(-1)", RationalMatrix([[-2, 1], [1, -2]]))


def rank_one(k: int) -> IntegralLattice:
    """Rank-one lattice generated by a vector of square ``k``.

    ``k`` must be nonzero and, matching the even lattices this catalog
    serves, even.
    """
    k = as_integer(k)
    if k == 0:
        raise DomainError("rank-one lattice needs a nonzero square")
    if k % 2 != 0:
        raise DomainError(
            f"rank-one square {decimal_string(k)} is odd; the catalog holds even lattices only")
    return IntegralLattice(f"<{decimal_string(k)}>", RationalMatrix([[k]]))


# Every catalog block by name; ``rank1`` alone takes its square k.
_BLOCKS = {"U": hyperbolic_plane, "E8_minus": e8_minus, "A2_minus": a2_minus, "rank1": rank_one}


def block(name: str, parameter: Optional[int] = None) -> IntegralLattice:
    """Catalog lookup: ``U``, ``E8_minus``, ``A2_minus`` or ``rank1`` with k.

    ``rank1`` needs its square k; the other three take no parameter, and a
    given one raises :class:`DomainError` rather than being ignored."""
    if not isinstance(name, str) or name not in _BLOCKS:
        raise DomainError(f"unknown block {name!r}; expected one of {', '.join(_BLOCKS)}")
    if name == "rank1":
        if parameter is None:
            raise DomainError("rank1 block needs its square as a parameter")
        return rank_one(parameter)
    if parameter is not None:
        raise DomainError(f"{name} block takes no parameter, got {_shown(parameter)}")
    return _BLOCKS[name]()


def direct_sum(parts: Iterable[IntegralLattice]) -> IntegralLattice:
    """Orthogonal direct sum; Gram matrices are placed block-diagonally.

    ``parts`` is read as lattice coordinates are, so a string, bytes, a
    mapping, a set or a value that is not iterable is refused, and so is a
    summand that is not an :class:`IntegralLattice`, each with
    :class:`DomainError`."""
    parts = list(_sequence(parts, "lattice summands"))
    if not parts:
        raise DomainError("direct sum needs at least one summand")
    for part in parts:
        if not isinstance(part, IntegralLattice):
            raise DomainError(f"cannot interpret {type(part).__name__} as a lattice summand")
    total = sum(p.rank for p in parts)
    rows = [[0] * total for _ in range(total)]
    offset = 0
    for part in parts:
        for i, row in enumerate(part.gram.int_rows()):
            rows[offset + i][offset : offset + part.rank] = row
        offset += part.rank
    name = " + ".join(p.name for p in parts)
    return IntegralLattice(name, RationalMatrix(rows))


class DiscriminantGroup(NamedTuple):
    """The finite quotient (dual lattice)/(lattice) of a nonsingular lattice.

    ``elementary_divisors`` are the invariant factors > 1 in divisibility
    order, so the group is the product of Z/d for d in that tuple, and it is
    cyclic when ``len(elementary_divisors) <= 1``.  They are the one stored
    field; the order, the exponent and both negativity bounds are read off
    them.  The ``lattice``, ``table`` and ``bounds`` commands read the
    bounds from here.
    """

    elementary_divisors: tuple[int, ...]

    @property
    def cardinality(self) -> int:
        """The group order, the product of the elementary divisors."""
        return prod(self.elementary_divisors)

    @property
    def exponent(self) -> int:
        """The largest element order, the last elementary divisor (1 for the trivial group)."""
        return self.elementary_divisors[-1] if self.elementary_divisors else 1

    @property
    def negativity_bound(self) -> int:
        """General lower-bound magnitude for prime exceptional squares: 4 * Card."""
        return 4 * self.cardinality

    @property
    def negativity_bound_refined(self) -> int:
        """Refinement by the largest element order instead of the order: 4 * exponent."""
        return 4 * self.exponent


def format_group(divisors: Sequence[int]) -> str:
    if not divisors:
        return "1"
    return " x ".join(f"Z/{decimal_string(d)}" for d in divisors)


def discriminant_group(lattice: IntegralLattice) -> DiscriminantGroup:
    """Invariant factors of the discriminant group via Smith normal form.

    The certificate is checked against the Gram matrix ``G`` before its diagonal is
    used: ``U G V == diag`` and, for a nonsingular ``G``, one determinant, ``|det G| ==
    prod(diag)``, the group order; a degenerate lattice passes through ``det U`` and
    ``det V``, then raises :class:`SingularMatrixError`."""
    snf = smith_normal_form(lattice.gram)
    if not snf.verify(lattice.gram):
        raise InconsistencyError(f"Smith normal form of {lattice.name!r} fails its certificate")
    if not all(snf.diagonal):
        raise SingularMatrixError(f"lattice {lattice.name!r} is degenerate")
    return DiscriminantGroup(tuple(d for d in snf.diagonal if d > 1))


class DualCurveClass(NamedTuple):
    """Outcome of the dual-curve integrality test for a class E.

    ``dual_class`` is the rational vector representing -2 q(E, .) / q(E) in
    the dual basis and ``square`` is q(E).  ``integral`` and
    ``failing_index`` are read off ``dual_class``.
    """

    dual_class: tuple[Fraction, ...]
    square: int

    @property
    def failing_index(self) -> Optional[int]:
        """The first basis vector on which the class is not integral, or None."""
        return next((i for i, x in enumerate(self.dual_class) if x.denominator != 1), None)

    @property
    def integral(self) -> bool:
        """Whether the class lies in the dual lattice's integral structure,
        i.e. whether q(E) divides 2 q(E, basis vector) for every basis vector."""
        return self.failing_index is None


def dual_curve_integrality(lattice: IntegralLattice, coords: Sequence[int]) -> DualCurveClass:
    """Test whether -2 q(E, .) / q(E) takes integer values on the lattice."""
    vec = _coordinates(lattice, coords)
    rows, _ = lattice.gram.scaled_rows
    ge = [sum(map(mul, row, vec)) for row in rows]
    square = sum(map(mul, vec, ge))
    if square == 0:
        raise DomainError("isotropic class: q(E) = 0, the dual curve class is undefined")
    return DualCurveClass(dual_class=tuple(Fraction(-2 * g, square) for g in ge), square=square)


class _Family(NamedTuple):
    """A catalog row: tag spellings, display name (formatted with ``n``),
    whether ``n`` is taken, and ``build``: ``n`` to the summands after U^3,
    the published discriminant group, largest negative square, half-dimension."""

    aliases: tuple[str, ...]
    name: str
    takes_n: bool
    build: Callable[[Optional[int]], tuple[list[IntegralLattice], tuple[int, ...], int, int]]


# One row per deformation family, in the order of the discriminant table.
_FAMILIES = {
    "K3n": _Family(("k3n", "k3"), "K3^[{n}]", True, lambda n: (
        [e8_minus(), e8_minus(), rank_one(-(2 * n - 2))], (2 * n - 2,), 8 * n - 8, n)),
    "Kummer": _Family(("kummer", "kummern"), "Kummer {n}", True, lambda n: (
        [rank_one(-(2 * n + 2))], (2 * n + 2,), 8 * n + 8, n)),
    "OG6": _Family(("og6",), "OG6", False, lambda n: (
        [rank_one(-2), rank_one(-2)], (2, 2), 8, 3)),
    "OG10": _Family(("og10",), "OG10", False, lambda n: (
        [e8_minus(), e8_minus(), a2_minus()], (3,), 6, 5)),
}

PRESET_TAGS = tuple(_FAMILIES)


class DeformationPreset(NamedTuple):
    """Second-cohomology lattice of one deformation family, plus its
    published discriminant data and extremal negative square.  ``b2`` and
    ``h11`` are read off the lattice's rank."""

    tag: str
    n: Optional[int]
    half_dim: int
    lattice: IntegralLattice
    published_group: tuple[int, ...]
    published_max_square: int

    @property
    def b2(self) -> int:
        """The second Betti number, the lattice's rank."""
        return self.lattice.rank

    @property
    def h11(self) -> int:
        """``b2 - 2``, which bounds the Picard number."""
        return self.lattice.rank - 2

    @property
    def display_name(self) -> str:
        return _FAMILIES[self.tag].name.format(n=_shown(self.n))


def normalize_tag(tag: str) -> str:
    if isinstance(tag, str):
        key = tag.strip().lower().replace("_", "").replace("-", "")
        for name, family in _FAMILIES.items():
            if key in family.aliases:
                return name
    raise DomainError(f"unknown deformation type {tag!r}; expected one of {PRESET_TAGS}")


def preset(tag: str, n: Optional[int] = None) -> DeformationPreset:
    """Build the catalog entry for one deformation family.

    ``n`` (the half-dimension) is required and must be >= 2 for ``K3n`` and
    ``Kummer``; it must be omitted for ``OG6`` and ``OG10``.
    """
    tag = normalize_tag(tag)
    family = _FAMILIES[tag]
    if family.takes_n:
        n = None if n is None else as_integer(n)
        if n is None or n < 2:
            raise DomainError(f"{tag} needs an integer parameter n >= 2, got {_shown(n)}")
    elif n is not None:
        raise DomainError(f"{tag} takes no parameter, got n={_shown(n)}")
    summands, published, square, half_dim = family.build(n)
    return DeformationPreset(
        tag=tag, n=n, half_dim=half_dim, lattice=direct_sum([hyperbolic_plane()] * 3 + summands),
        published_group=published, published_max_square=square,
    )


def presets(n: int) -> list[DeformationPreset]:
    """One preset per family, in catalog order; ``n`` goes to the families
    that take it."""
    return [preset(tag, n if family.takes_n else None) for tag, family in _FAMILIES.items()]
