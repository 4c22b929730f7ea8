from collections import Counter
from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from zarlat.bounds import BigInt
from zarlat.errors import DomainError, InconsistencyError, ShapeError, SingularMatrixError
from zarlat.lattice import a2_minus, direct_sum, e8_minus, hyperbolic_plane, rank_one
from zarlat.linalg import (
    BorderedElimination,
    Inertia,
    RationalMatrix,
    SmithNormalForm,
    as_rational,
    bareiss_solve,
    det,
    is_negative_definite,
    leading_principal_minors,
    scaled_rationals,
    signature,
    smith_normal_form,
    solve,
)
from zarlat.zariski import SplitMix64

import reference
from conftest import UNIMODULAR_OPS, congruent


def square_int_matrices(max_size=5, lo=-9, hi=9):
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def snf_matrices(max_size=6):
    """Square integer matrices of sizes 0..max_size: dense ones with small or
    wide entries, 0/1 ones, and products A B through an inner dimension
    k <= n, which are singular when k < n and zero when k == 0."""

    def grid(rows, cols, lo, hi):
        return st.lists(st.lists(st.integers(lo, hi), min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows)

    def product(n, ab):
        a, b = ab
        return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(n)] for i in range(n)]

    def of_size(n):
        low_rank = st.integers(0, n).flatmap(
            lambda k: st.tuples(grid(n, k, -3, 3), grid(k, n, -3, 3))
        ).map(lambda ab: product(n, ab))
        return st.one_of(grid(n, n, -9, 9), grid(n, n, -30, 30), grid(n, n, 0, 1), low_rank)

    return st.integers(0, max_size).flatmap(of_size)


def rational_square(max_size=6):
    """Square rational matrices of sizes 0..max_size, almost all of them
    asymmetric: dense ones, sparse ones (whose zero pivots force row swaps),
    and products A B through an inner dimension k <= n, which are singular
    when k < n."""
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    sparse = st.sampled_from((0, 0, 0, 1, Fraction(-3, 2)))

    def grid(rows, cols, values):
        return st.lists(st.lists(values, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows)

    def product(n, ab):
        a, b = ab
        return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(n)]
                for i in range(n)]

    def of_size(n):
        low_rank = st.integers(0, n).flatmap(
            lambda k: st.tuples(grid(n, k, entry), grid(k, n, entry))
        ).map(lambda ab: product(n, ab))
        return st.one_of(grid(n, n, entry), grid(n, n, sparse), low_rank)

    return st.integers(0, max_size).flatmap(of_size)


def symmetric_from(rows):
    n = len(rows)
    return [[rows[i][j] if i <= j else rows[j][i] for j in range(n)] for i in range(n)]


@st.composite
def spelled_matrices(draw, max_size=4):
    """``(rows, symmetric_wanted)``: square rows of rationals, each spelled as
    an ``int``, a ``Fraction`` or an unreduced ``"p/q"`` string.  When
    mirrored, the lower triangle holds the upper one's values as
    ``Fraction``s, a different spelling of the same rational."""
    n = draw(st.integers(0, max_size))
    q = draw(st.integers(1, 12))  # a shared denominator, so entries can cancel

    def spelled():
        p = draw(st.integers(-30, 30))
        k = draw(st.integers(1, 3))
        how = draw(st.sampled_from(("int", "fraction", "string")))
        if how == "int":
            return p
        d = draw(st.sampled_from((1, q, 2 * q)))
        return Fraction(p, d) if how == "fraction" else f"{p * k}/{d * k}"

    rows = [[spelled() for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[row[j] if i <= j else as_rational(rows[j][i]) for j, _ in enumerate(row)]
                for i, row in enumerate(rows)]
    return rows


class TestMatrix:
    @settings(max_examples=300, deadline=None)
    @given(spelled_matrices(), st.data())
    def test_integer_rows_are_the_representation(self, rows, data):
        # Every accessor agrees with its definition over the Fraction entries.
        n = len(rows)
        m = RationalMatrix(rows)
        fractions = tuple(tuple(as_rational(x) for x in row) for row in rows)
        assert m.entries == fractions
        assert all(type(x) is Fraction for row in m.entries for x in row)
        assert all(m[i, j] == x for i, row in enumerate(fractions) for j, x in enumerate(row))
        assert m.scaled_rows == reference.matrix_in_reading_order(rows).scaled_rows
        integral = all(x.denominator == 1 for row in fractions for x in row)
        assert m.is_integral() == integral
        if integral:
            assert m.int_rows() == [[int(x) for x in row] for row in fractions]
        else:
            with pytest.raises(DomainError):
                m.int_rows()
        assert m.is_symmetric() == all(
            fractions[i][j] == fractions[j][i] for i in range(n) for j in range(n))
        idx = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 1) if n else st.just([]))
        sub = m.submatrix(idx)
        expected = RationalMatrix([[fractions[i][j] for j in idx] for i in idx])
        assert sub == expected and hash(sub) == hash(expected)
        assert sub.scaled_rows == expected.scaled_rows and sub.entries == expected.entries

    def test_symmetric_constructor_rejects_asymmetry(self):
        with pytest.raises(ShapeError):
            RationalMatrix.symmetric([[1, 2], [3, 4]])

    @pytest.mark.parametrize("rows, message", [
        ([[1, 2], [3, 4]], "asymmetric entry at (0, 1): 2 != 3"),
        ([[1, 2, 3], [5, 1, 4], [3, 7, 1]], "asymmetric entry at (0, 1): 2 != 5"),
        ([[0, "1/2", "1/3"], ["1/2", 0, "2/3"], ["1/4", "1/5", 0]],
         "asymmetric entry at (0, 2): 1/3 != 1/4"),
        # (1, 2) is passed before (0, 3) column-wise, but not in row-major order.
        ([[0, 1, 1, "7/2"], [1, 0, "-5/3", 1], [1, 2, 0, 1], [0, 1, 1, 0]],
         "asymmetric entry at (0, 3): 7/2 != 0"),
        ([[0, 1, 1, 1], [1, 0, "-5/3", 1], [1, Fraction(5, 3), 0, 9], [1, 1, 1, 0]],
         "asymmetric entry at (1, 2): -5/3 != 5/3"),
        ((("1/6", 0), (Fraction(-2, 4), "1/6")), "asymmetric entry at (0, 1): 0 != -1/2"),
    ])
    def test_first_asymmetric_pair_named(self, rows, message):
        # Several asymmetric pairs: the first above the diagonal in
        # row-major order is named, entries shown as reduced fractions.
        with pytest.raises(ShapeError) as info:
            RationalMatrix.symmetric(rows)
        assert str(info.value) == message
        assert not RationalMatrix(rows).is_symmetric()

    def test_entries_are_reduced_fractions(self):
        m = RationalMatrix([["2/4", "6/3"]])
        assert m[0, 0] == Fraction(1, 2) and m[0, 0].denominator == 2
        assert m[0, 1] == Fraction(2)

    def test_floats_rejected(self):
        with pytest.raises(DomainError):
            RationalMatrix([[0.5]])

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            RationalMatrix([[1, 2], [3]])

    def test_submatrix_indices_are_integers_inside_the_matrix(self):
        # Indices follow the one integer grammar, keep their order and
        # repeats, and must lie in the matrix: -1 no longer wraps to the last
        # row, True no longer reads as 1, and 2 no longer escapes as IndexError.
        m = RationalMatrix([[1, 2], [3, 4]])
        assert m.submatrix(["1", Fraction(2, 2), 0]) == RationalMatrix(
            [[4, 4, 3], [4, 4, 3], [2, 2, 1]])
        assert m.submatrix(range(2)) == m and m.submatrix([]) == RationalMatrix([])
        for bad in ([-1], [2], [0, 5]):
            with pytest.raises(ShapeError, match="out of range for a 2x2 matrix"):
                m.submatrix(bad)
        with pytest.raises(ShapeError, match="out of range for a 1x3 matrix"):
            RationalMatrix([[1, 2, 3]]).submatrix([1])
        for bad in ([True], [0.0], ["1/2"], "01", b"\x00", {0: 1}, {0}):
            with pytest.raises(DomainError):
                m.submatrix(bad)

    def test_repr_shows_shape_and_entries(self):
        assert repr(RationalMatrix([["1/2", 2], [3, -4]])) == "RationalMatrix(2x2: 1/2 2; 3 -4)"

    def test_matvec_length_must_match(self):
        with pytest.raises(ShapeError, match="vector length 3 != column count 2"):
            RationalMatrix([[1, 2], [3, 4]]).matvec([1, 2, 3])


@st.composite
def spelled_vectors(draw, max_size=6):
    """Rationals, each spelled as an ``int``, a ``Fraction`` or an unreduced
    ``"p/q"`` string, over a few denominators so that entries can cancel."""
    q = draw(st.integers(1, 12))

    def spelled():
        p = draw(st.integers(-30, 30))
        d = draw(st.sampled_from((1, q, 2 * q, 3)))
        k = draw(st.integers(1, 3))
        return draw(st.sampled_from((p, Fraction(p, d), f"{p * k}/{d * k}")))

    return [spelled() for _ in range(draw(st.integers(0, max_size)))]


class TestScaledRationals:
    """The one reader from exact input to integers: ``(numerators, s)``, the
    entries as ``as_rational`` reads them times ``s``, the lcm of their
    reduced denominators."""

    @settings(max_examples=300, deadline=None)
    @given(spelled_vectors())
    def test_numerators_over_lcm(self, values):
        result = scaled_rationals(values)
        assert type(result) is tuple and len(result) == 2
        numerators, s = result
        assert type(numerators) is list and all(type(x) is int for x in numerators)
        assert type(s) is int and result == reference.scaled_rationals(values)

    def test_builds_no_fraction(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("Fraction built by the reader")

        values = [3, Fraction(-2, 7), 0, Fraction(5, 14)]
        monkeypatch.setattr(Fraction, "__new__", refused)
        result = scaled_rationals(values)
        monkeypatch.undo()
        assert result == ([42, -4, 0, 5], 14)

    def test_subclass_entries_read_by_as_rational(self):
        # Only an exact int or Fraction gives its own ratio; a subclass is
        # read by as_rational, whatever its as_integer_ratio says.
        class Count(int):
            def as_integer_ratio(self):
                raise AssertionError("subclass ratio read")

        class Ratio(Fraction):
            def as_integer_ratio(self):
                raise AssertionError("subclass ratio read")

        assert scaled_rationals([Count(3), 4]) == ([3, 4], 1)
        assert scaled_rationals([Count(3), Fraction(1, 2)]) == ([6, 1], 2)
        assert scaled_rationals([Ratio(1, 3), Count(2)]) == ([1, 6], 3)

    def test_integer_lists_are_their_own_numerators(self):
        # A list or tuple of nothing but ints comes back as a fresh list over
        # s = 1; a bool, an int subclass or any other entry after the first
        # sends it through the entry-by-entry pass, with its errors.
        for values in ([3, -4, 0], (7,), [10**40, -1]):
            numerators, s = scaled_rationals(values)
            assert (numerators, s) == (list(values), 1) and numerators is not values
            numerators.append(99)
            assert len(values) == len(numerators) - 1
        assert scaled_rationals([]) == ([], 1) and scaled_rationals(()) == ([], 1)
        assert scaled_rationals([2, Fraction(1, 3)]) == ([6, 1], 3)
        assert scaled_rationals([2, "1/2"]) == ([4, 1], 2)
        for bad in ([1, True], [1, 2.0], (4, None)):
            with pytest.raises(DomainError):
                scaled_rationals(bad)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "1.5", "1e3", None])
    def test_rejects_what_as_rational_rejects(self, bad):
        with pytest.raises(DomainError) as raised:
            scaled_rationals([1, bad, "1/2"])
        with pytest.raises(DomainError) as expected:
            as_rational(bad)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)


class TestAsRational:
    """The one rational grammar, ``^-?[0-9]+(/[1-9][0-9]*)?$``, shared by the
    library and the CLI."""

    @pytest.mark.parametrize(
        "value, expected",
        [
            (0, Fraction(0)),
            (12, Fraction(12)),
            ("0", Fraction(0)),
            ("12", Fraction(12)),
            ("-5/7", Fraction(-5, 7)),
            ("2/4", Fraction(1, 2)),
            (Fraction(-5, 7), Fraction(-5, 7)),
        ],
    )
    def test_accepts(self, value, expected):
        result = as_rational(value)
        assert result == expected and type(result) is Fraction

    @pytest.mark.parametrize(
        "value",
        ["1.5", "1e3", " 3", "3 ", "3\n", "+3", "3/0", "3/-4", "3/04", "", "-", "1/2/3",
         "\u0663", 1.5, 2.0, True, False, None, [1]],
    )
    def test_rejects(self, value):
        with pytest.raises(DomainError):
            as_rational(value)


class TestDet:
    def test_identity(self):
        assert det(RationalMatrix([[1, 0], [0, 1]])) == 1

    def test_a2(self):
        assert det([[-2, 1], [1, -2]]) == 3

    def test_e8_against_cofactor_oracle(self):
        rows = e8_minus().gram.int_rows()
        assert reference.cofactor_det(rows) == 1
        assert det(rows) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            det([[1, 2, 3], [4, 5, 6]])

    def test_rational_entries(self):
        assert det([["1/2", 1], [1, "1/2"]]) == Fraction(-3, 4)

    @settings(max_examples=150, deadline=None)
    @given(square_int_matrices())
    def test_matches_cofactor_expansion(self, rows):
        assert det(rows) == reference.cofactor_det(rows)


class TestBareissSolve:
    def test_examples(self):
        assert bareiss_solve([]) == (1, [])
        assert bareiss_solve([[3, 6]]) == (3, [6])
        assert bareiss_solve([[0, 2, 1], [3, 0, 1]]) == (-6, [-2, -3])  # one row swap
        with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
            bareiss_solve([[1, 2, 1], [2, 4, 5]])

    @settings(max_examples=300, deadline=None)
    @given(snf_matrices(), st.data())
    def test_integer_product(self, m, data):
        # M (y / det M) == r, checked as M y == det M * r on integers.
        rhs = data.draw(st.lists(st.integers(-9, 9), min_size=len(m), max_size=len(m)))
        d = reference.cofactor_det(m)
        if d == 0:
            with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                bareiss_solve([row + [r] for row, r in zip(m, rhs)])
            return
        outcome = bareiss_solve([row + [r] for row, r in zip(m, rhs)])
        assert outcome[0] == d and len(outcome[1]) == len(m)
        assert [sum(map(mul, row, outcome[1])) for row in m] == [d * r for r in rhs]


class TestSolve:
    def test_identity(self):
        assert solve(RationalMatrix([[1, 0], [0, 1]]), ["3/2", -1]) == (Fraction(3, 2), Fraction(-1))

    def test_scalar(self):
        assert solve([[-2]], [-1]) == (Fraction(1, 2),)

    def test_a2(self):
        assert solve([[-2, 1], [1, -2]], [-1, -1]) == (Fraction(1), Fraction(1))

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            solve([[1, 1], [1, 1]], [1, 2])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            solve([[1, 0], [0, 1]], [1, 2, 3])

    @settings(max_examples=300, deadline=None)
    @given(rational_square(), st.data())
    def test_against_fraction_solve(self, rows, data):
        n = len(rows)
        rhs = data.draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                                 min_size=n, max_size=n))
        try:
            expected = reference.solve(rows, rhs)
        except SingularMatrixError:
            assert reference.cofactor_det(rows) == 0
            with pytest.raises(SingularMatrixError):
                solve(rows, rhs)
        else:
            assert solve(rows, rhs) == expected

    @settings(max_examples=150, deadline=None)
    @given(square_int_matrices(max_size=4), st.data())
    def test_substitution(self, rows, data):
        if det(rows) == 0:
            return
        n = len(rows)
        rhs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        x = solve(rows, rhs)
        m = RationalMatrix(rows)
        assert m.matvec(x) == tuple(Fraction(b) for b in rhs)


def rational_symmetric(max_size=5, lo=-9, hi=9, denominator_max=4):
    """Symmetric matrices of exact rationals, sizes 0..max_size."""
    entry = st.builds(Fraction, st.integers(lo, hi), st.integers(1, denominator_max))
    return st.integers(0, max_size).flatmap(
        lambda n: st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(symmetric_from)
    )


def charpoly_inertia(rows):
    """Inertia from the characteristic polynomial, computed by sympy.  Every
    root of a symmetric matrix is real, so Descartes' rule of signs is exact:
    the positive roots are the sign changes of the coefficients, the
    negative ones those of ``p(-x)``, and the zero root's multiplicity is
    the number of trailing zero coefficients."""
    import sympy

    n = len(rows)
    if n == 0:
        return Inertia(0, 0, 0)
    ref = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator)
                              for row in rows for x in row])
    coeffs = ref.charpoly().all_coeffs()  # degree n down to 0

    def sign_changes(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    n_zero = next(k for k, v in enumerate(reversed(coeffs)) if v != 0)
    mirrored = [v * (-1) ** (n - k) for k, v in enumerate(coeffs)]
    return Inertia(sign_changes(coeffs), sign_changes(mirrored), n_zero)


def zero_diagonal(rows):
    return [[Fraction(0) if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


def inertia_cases(max_size=5):
    """Symmetric rational matrices of sizes 0..max_size: dense ones (mostly
    indefinite), ones with a zero diagonal (the congruence that makes a
    diagonal entry nonzero runs at the start), and ``B diag(e) B^T / q``
    through an inner dimension ``r <= n`` (singular when ``r < n`` or some
    ``e_i == 0``)."""

    def congruent_diagonal(n):
        return st.integers(0, n).flatmap(lambda r: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r),
                     min_size=n, max_size=n),
            st.lists(st.integers(-2, 2), min_size=r, max_size=r),
            st.integers(1, 4),
        )).map(lambda drawn: [
            [Fraction(sum(bi[t] * e * bj[t] for t, e in enumerate(drawn[1])), drawn[2])
             for bj in drawn[0]]
            for bi in drawn[0]
        ])

    return st.one_of(
        rational_symmetric(max_size),
        rational_symmetric(max_size).map(zero_diagonal),
        st.integers(0, max_size).flatmap(congruent_diagonal),
    )


class TestSignature:
    def test_hyperbolic_plane(self):
        assert signature([[0, 1], [1, 0]]) == Inertia(1, 1, 0)

    def test_negative_line(self):
        assert signature([[-2]]) == Inertia(0, 1, 0)

    def test_k3_square_lattice(self):
        lat = direct_sum([hyperbolic_plane()] * 3 + [e8_minus(), e8_minus(), rank_one(-2)])
        # cross-check against the block signature sum (1,1)*3 + (0,8)*2 + (0,1)
        assert signature(lat.gram) == Inertia(3, 20, 0)

    def test_degenerate(self):
        assert signature([[0, 0], [0, 5]]) == Inertia(1, 0, 1)

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError):
            signature([[1, 2], [3, 4]])
        with pytest.raises(ShapeError):
            signature([["1/2", 1], ["1/3", 0]])
        with pytest.raises(ShapeError):
            signature([[1, 2]])

    def test_empty(self):
        assert signature([]) == Inertia(0, 0, 0)

    def test_zero_diagonal_then_one_by_one(self):
        # eigenvalues 2, -1, -1
        assert signature([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == Inertia(1, 2, 0)
        assert signature([[0] * 3] * 3) == Inertia(0, 0, 3)
        # eigenvalues about -4.47, -0.05, 1.31, 3.21; the diagonal is zero, so
        # the first pivot is made from a_01
        rows = [[0, 1, -3, 2], [1, 0, 1, 0], [-3, 1, 0, 1], [2, 0, 1, 0]]
        assert signature(rows) == Inertia(2, 2, 0)

    def test_rational_entries(self):
        assert signature([["-1/2", "1/3"], ["1/3", "-1/2"]]) == Inertia(0, 2, 0)
        assert signature([["1/6", "1/2"], ["1/2", "3/2"]]) == Inertia(1, 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(inertia_cases())
    def test_against_fraction_reduction(self, rows):
        assert signature(rows) == reference.signature(rows)

    @settings(max_examples=100, deadline=None)
    @given(inertia_cases(max_size=4))
    def test_against_sympy_charpoly(self, rows):
        pytest.importorskip("sympy")
        assert signature(rows) == charpoly_inertia(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(square_int_matrices(max_size=4).map(symmetric_from),
                     rational_symmetric(max_size=4).filter(len).map(zero_diagonal)),
           UNIMODULAR_OPS)
    def test_congruence_invariance(self, sym, ops):
        a, _ = reference.unimodular(ops, len(sym))
        assert signature(sym) == signature(congruent(a, sym))


class TestDefiniteness:
    def test_examples(self):
        assert is_negative_definite([[-2]])
        assert is_negative_definite([[-2, 1], [1, -2]])
        assert not is_negative_definite([[-1, 2], [2, -1]])
        assert not is_negative_definite([[0, 0], [0, -1]])

    def test_minors(self):
        assert leading_principal_minors([[-2, 1], [1, -2]]) == (Fraction(-2), Fraction(3))

    @settings(max_examples=150, deadline=None)
    @given(square_int_matrices(max_size=5))
    def test_agrees_with_inertia(self, rows):
        sym = symmetric_from(rows)
        n = len(sym)
        assert is_negative_definite(sym) == (signature(sym) == Inertia(0, n, 0))


class TestSmithNormalForm:
    def test_scalar(self):
        s = smith_normal_form([[2]])
        assert s.diagonal == (2,) and s.verify()

    def test_a2(self):
        s = smith_normal_form([[-2, 1], [1, -2]])
        assert s.diagonal == (1, 3) and s.verify()

    def test_already_chained(self):
        assert smith_normal_form([[2, 0], [0, 4]]).diagonal == (2, 4)

    def test_chain_fixup(self):
        assert smith_normal_form([[6, 0], [0, 4]]).diagonal == (2, 12)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            smith_normal_form([["1/2"]])

    @settings(max_examples=120, deadline=None)
    @given(square_int_matrices(max_size=4))
    def test_certificate_and_divisibility(self, rows):
        s = smith_normal_form(rows)
        assert s.verify()
        nonzero = [d for d in s.diagonal if d != 0]
        assert all(d > 0 for d in nonzero)
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        # zeros, if any, come last
        assert list(s.diagonal) == nonzero + [0] * (len(s.diagonal) - len(nonzero))
        d = det(rows)
        if d != 0:
            prod = 1
            for x in nonzero:
                prod *= x
            assert prod == abs(d)

    @settings(max_examples=60, deadline=None)
    @given(square_int_matrices(max_size=4), st.data())
    def test_diagonal_permutation_invariant(self, rows, data):
        n = len(rows)
        perm = data.draw(st.permutations(range(n)))
        permuted = [[rows[perm[i]][j] for j in range(n)] for i in range(n)]
        assert smith_normal_form(rows).diagonal == smith_normal_form(permuted).diagonal

    @pytest.mark.parametrize(
        "diagonal",
        [(-2,), (4, 2), (0, 2)],
        ids=["negative", "not_dividing", "zero_first"],
    )
    def test_verify_rejects_broken_contract(self, diagonal):
        # U M V == diag with identity transforms, so only the diagonal's own
        # conditions can fail.
        n = len(diagonal)
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        rows = tuple(tuple(diagonal[i] if i == j else 0 for j in range(n)) for i in range(n))
        assert not SmithNormalForm(diagonal, eye, eye, rows).verify()

    def test_verify_rejects_non_square_parts(self):
        assert not SmithNormalForm((2,), ((1, 5),), ((1,),), ((2,),)).verify()
        assert not SmithNormalForm((2,), ((1,),), ((1,),), ((2, 7),)).verify()

    @settings(max_examples=200, deadline=None)
    @given(snf_matrices())
    def test_against_sympy_invariant_factors(self, rows):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        n = len(rows)
        ref = sympy.Matrix(n, n, [x for row in rows for x in row])
        expected = [abs(int(x)) for x in invariant_factors(ref, domain=sympy.ZZ)]
        s = smith_normal_form(rows)
        assert list(s.diagonal) == expected + [0] * (n - len(expected))
        assert s.verify()


class TestKernelCongruence:
    """A unimodular change of basis ``U^T G U`` keeps the determinant, the
    inertia and the Smith normal form diagonal of a Gram matrix ``G``: the
    first seed of both ``growth_instances`` families at m = 24 and 48, with
    ``U`` from ``2 m`` seeded elementary row operations."""

    @pytest.mark.parametrize("m", [24, 48])
    def test_invariants_survive(self, growth_instances, m):
        # The two families' first seed, negative-heavy then mixed.
        forms = [form for form, _ in growth_instances if form.size == m][:2]
        rng = SplitMix64(m)
        for family, form in enumerate(forms):
            g = form.gram.int_rows()
            ops = [(rng.randint(0, 1), rng.randint(0, m - 1), rng.randint(0, m - 1),
                    rng.randint(-2, 2)) for _ in range(2 * m)]
            u, _ = reference.unimodular(ops, m)
            h = congruent(u, g)
            assert abs(det(u)) == 1 and h != g
            assert det(h) == det(g)
            assert signature(h) == signature(g)
            # The negative-heavy SNF at m = 48 costs about 1 s for the pair
            # on a shared 2-core machine; every other pair takes under 0.25 s.
            if m == 24 or family == 1:
                assert smith_normal_form(h).diagonal == smith_normal_form(g).diagonal


def is_nd(rows):
    return signature(rows) == Inertia(0, len(rows), 0)


def pass_on_rationals(rows, rhs):
    """Run one :class:`BorderedElimination` on a rational system the way the
    engine does: scale ``A`` by the lcm ``c`` of its denominators and
    ``c * b`` by the lcm ``s`` of its own; return ``(det A, x)`` or ``None``."""
    ints, c = RationalMatrix(rows).scaled_rows
    cb = [c * Fraction(b) for b in rhs]
    s = lcm(*(x.denominator for x in cb))
    elimination = BorderedElimination()
    if not elimination.extend([[*row, int(x * s)] for row, x in zip(ints, cb)]):
        return None
    d = elimination.det
    return Fraction(d, c ** len(rows)), tuple(Fraction(v, s * d) for v in elimination.solution(0))


class TestSylvesterCriterion:
    """One :class:`BorderedElimination` from the empty state against
    ``signature``, ``det``, the ``Fraction`` reference solve and, where
    installed, sympy."""

    def test_empty(self):
        elimination = BorderedElimination()
        assert elimination.extend([]) and elimination.det == 1
        assert is_negative_definite([]) and det([]) == 1

    def test_scalar(self):
        elimination = BorderedElimination()
        assert elimination.extend([[-3, 6]])
        assert (elimination.det, elimination.solution(0)) == (-3, [6])
        assert not BorderedElimination().extend([[3, 6]])
        assert pass_on_rationals([["-1/2"]], ["1/3"]) == (Fraction(-1, 2), (Fraction(-2, 3),))

    def test_a2(self):
        elimination = BorderedElimination()
        assert elimination.extend([[-2, 1, -1], [1, -2, -1]])
        assert (elimination.det, elimination.solution(0)) == (3, [3, 3])

    def test_without_rhs(self):
        elimination = BorderedElimination()
        assert elimination.extend([[-2, 1], [1, -2]]) and elimination.pivots == [-2, 3]

    def test_stops_at_zero_pivot(self):
        assert not BorderedElimination().extend([[0, 1], [1, 0]])  # leading minors 0, -1
        assert not BorderedElimination().extend([[-1, 1], [1, -1]])  # singular: last minor 0

    def test_indefinite(self):
        assert not BorderedElimination().extend([[-1, 2, 0], [2, -1, 0]])

    @settings(max_examples=200, deadline=None)
    @given(rational_symmetric(), st.data())
    def test_against_signature_solve_det(self, rows, data):
        n = len(rows)
        rhs = data.draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                                 min_size=n, max_size=n))
        outcome = pass_on_rationals(rows, rhs)
        assert (outcome is not None) == is_nd(rows) == is_negative_definite(rows)
        if outcome is not None:
            d, x = outcome
            assert d == det(rows)
            assert x == reference.solve(rows, rhs)
            assert RationalMatrix(rows).matvec(x) == tuple(rhs)

    @settings(max_examples=150, deadline=None)
    @given(square_int_matrices(max_size=5, lo=-4, hi=4))
    def test_negative_definite_integral(self, rows):
        # -(S S^T) - I is negative definite, with varied pivots
        n = len(rows)
        m = [[-sum(rows[i][k] * rows[j][k] for k in range(n)) - (i == j) for j in range(n)]
             for i in range(n)]
        rhs = [i - 2 for i in range(n)]
        elimination = BorderedElimination()
        assert elimination.extend([row + [b] for row, b in zip(m, rhs)])
        d, y = elimination.det, elimination.solution(0)
        assert d == det(m) and d != 0
        assert tuple(Fraction(v, d) for v in y) == reference.solve(m, rhs)

    @settings(max_examples=100, deadline=None)
    @given(rational_symmetric(max_size=4), st.data())
    def test_against_sympy(self, rows, data):
        sympy = pytest.importorskip("sympy")
        n = len(rows)
        rhs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
        ref = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator)
                                  for row in rows for x in row])
        outcome = pass_on_rationals(rows, rhs)
        assert (outcome is not None) == bool(n == 0 or ref.is_negative_definite)
        assert det(rows) == Fraction(str(ref.det()))
        if outcome is not None and n:
            d, x = outcome
            assert d == Fraction(str(ref.det()))
            assert x == tuple(Fraction(str(v)) for v in ref.LUsolve(sympy.Matrix(rhs)))


@st.composite
def bordered_systems(draw):
    """``(m, rhs, bounds)``: a symmetric integer matrix ``m`` with 0-2
    right-hand-side columns, and block bounds ``0 = b_0 < ... < b_k = n``
    cutting it into 1-4 blocks.  Half the matrices are ``-(L + diag(e))``
    for the Laplacian ``L`` of nonnegative weights: negative definite when
    every ``e_i > 0``, singular when ``e == 0``.  The others have free
    entries and are mostly indefinite."""
    n = draw(st.integers(1, 8))
    m = [[0] * n for _ in range(n)]
    if draw(st.booleans()):
        e = draw(st.one_of(st.just([0] * n),
                           st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = draw(st.integers(0, 5))
        for i in range(n):
            m[i][i] = -(sum(m[i]) + e[i])
    else:
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(st.integers(-9, 9))
    width = draw(st.integers(0, 2))
    rhs = [draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width)) for _ in range(n)]
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=3)) if n > 1 else set()
    return m, rhs, [0, *sorted(cuts), n]


class TestBorderedElimination:
    """Extending the elimination block by block gives what one fresh
    elimination over the concatenated rows gives, and both agree with the
    independent ``det``, ``signature`` and a product check."""

    @settings(max_examples=200, deadline=None)
    @given(bordered_systems())
    def test_extension_equals_fresh_pass(self, system):
        m, rhs, bounds = system
        elimination = BorderedElimination()
        for lo, hi in zip(bounds, bounds[1:]):
            extended = elimination.extend([m[i][:hi] + rhs[i] for i in range(lo, hi)])
            fresh = BorderedElimination()
            verdict = fresh.extend([m[i][:hi] + rhs[i] for i in range(hi)])
            prefix = [row[:hi] for row in m[:hi]]
            assert extended == verdict == is_nd(prefix)
            if not extended:
                break
            d = elimination.det
            solutions = [elimination.solution(c) for c in range(len(rhs[0]))]
            assert d == fresh.det
            assert solutions == [fresh.solution(c) for c in range(len(rhs[0]))]
            assert d == det(prefix)
            for c, y in enumerate(solutions):
                assert [sum(map(mul, row, y)) for row in prefix] == [d * r[c] for r in rhs[:hi]]

    def test_a_n_chain_grows_one_row_at_a_time(self):
        # -A_k, the negative Cartan matrix of a chain, has det (-1)^k (k + 1);
        # bordering it by one row at a time, each new component joining the end
        # of the chain.
        elimination = BorderedElimination()
        for k in range(1, 13):
            new_row = [1 if j == k - 2 else 0 for j in range(k - 1)] + [-2, -1]
            assert elimination.extend([new_row])
            assert elimination.det == (-1) ** k * (k + 1)
            # (-A_k) y / det == (-1, ..., -1): y / det is (-A_k)^-1 applied to it.
            y = elimination.solution(0)
            assert [Fraction(v, elimination.det) for v in y] == \
                [Fraction(i * (k + 1 - i), 2) for i in range(1, k + 1)]


def break_at(m, p, how):
    """Make the leading minors of a negative definite ``m`` first break the
    pattern ``-, +, -, ...`` at index ``p``: ``"zero"`` duplicates component
    ``p - 1`` into ``p`` (or zeroes ``m[0][0]``), so the minor of order
    ``p + 1`` vanishes; ``"sign"`` makes ``m[p][p]`` positive, so the Schur
    complement of the definite leading block is positive and that minor has
    the sign of the one before it."""
    if how == "sign":
        m[p][p] = 1 + abs(m[p][p])
    elif p == 0:
        m[0][0] = 0
    else:
        for j in range(len(m)):
            m[p][j] = m[j][p] = m[p - 1][j]
        m[p][p] = m[p][p - 1] = m[p - 1][p] = m[p - 1][p - 1]


@st.composite
def blocked_systems(draw):
    """``(m, rhs, bounds)`` as :func:`bordered_systems`, sizes 1-9: negative
    definite, singular and free (mostly indefinite) matrices, and definite
    ones broken at a drawn index, of either parity, by :func:`break_at`."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(("definite", "singular", "free", "zero", "sign")))
    m = [[0] * n for _ in range(n)]
    if kind == "free":
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(st.integers(-9, 9))
    else:
        # -(L + diag(e)) for the Laplacian L of nonnegative weights: negative
        # definite when every e_i > 0, singular when e == 0.
        e = [0] * n if kind == "singular" else \
            draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = draw(st.integers(0, 5))
        for i in range(n):
            m[i][i] = -(sum(m[i]) + e[i])
        if kind in ("zero", "sign"):
            break_at(m, draw(st.integers(0, n - 1)), kind)
    width = draw(st.integers(0, 2))
    rhs = [draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width)) for _ in range(n)]
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=3)) if n > 1 else set()
    return m, rhs, [0, *sorted(cuts), n]


def extend_like_single_steps(m, rhs, bounds):
    """Extend block by block, and after every block compare the verdict and
    the pivots with :func:`reference.single_step_extend`, and the rows from their
    diagonal on while the matrix is still negative definite.  Returns the
    elimination, after its first ``False`` if there is one."""
    elimination, expected = BorderedElimination(), BorderedElimination()
    for lo, hi in zip(bounds, bounds[1:]):
        block = [m[i][:hi] + rhs[i] for i in range(lo, hi)]
        extended = elimination.extend([row[:] for row in block])
        assert extended == reference.single_step_extend(expected, block)
        assert elimination.pivots == expected.pivots
        if not extended:
            break
        assert [row[t:] for t, row in enumerate(elimination.rows)] == \
            [row[t:] for t, row in enumerate(expected.rows)]
    return elimination


class TestTwoStepExtend:
    """The two-step :meth:`BorderedElimination.extend` leaves the state the
    single-step reference leaves, block by block."""

    @settings(max_examples=100, deadline=None)
    @given(blocked_systems())
    def test_against_single_steps(self, system):
        extend_like_single_steps(*system)

    @pytest.mark.parametrize("how", ["zero", "sign"])
    @pytest.mark.parametrize("p", range(6))
    @pytest.mark.parametrize("bounds", [[0, 6], [0, 1, 6], [0, 3, 4, 6]])
    def test_first_failing_pivot(self, p, how, bounds):
        # A negative definite weighted chain, broken at each index in turn:
        # the first failing pivot falls first or second in a pair, or alone,
        # in the trailing block of a fresh pass or of a bordering.
        m = [[0] * 6 for _ in range(6)]
        for i in range(5):
            m[i][i + 1] = m[i + 1][i] = i % 3 + 1
        for i in range(6):
            m[i][i] = -(sum(m[i]) + 1 + i % 2)
        assert is_nd(m)
        break_at(m, p, how)
        elimination = extend_like_single_steps(m, [[i, -1] for i in range(6)], bounds)
        assert len(elimination.pivots) == p


class TestLeadingMinors:
    def test_zero_minors_kept(self):
        # a zero minor does not cut the sequence short
        assert leading_principal_minors([[0, 1], [1, 0]]) == (0, -1)
        assert leading_principal_minors([[1, 0, 0], [0, 0, 1], [0, 1, 0]]) == (1, 0, -1)

    def test_rational(self):
        minors = leading_principal_minors([["1/2", 1], [1, "1/3"]])
        assert minors == (Fraction(1, 2), Fraction(-5, 6))

    @settings(max_examples=150, deadline=None)
    @given(square_int_matrices(max_size=5, lo=-2, hi=2))
    def test_match_submatrix_determinants(self, rows):
        n = len(rows)
        expected = tuple(reference.cofactor_det([r[: k + 1] for r in rows[: k + 1]]) for k in range(n))
        assert leading_principal_minors(rows) == expected


class TestShapeGuards:
    @pytest.mark.parametrize("call, message", [
        (lambda m: solve(m, [1]), "solve needs a square matrix, got 1x2"),
        (leading_principal_minors, "principal minors need a square matrix"),
        (smith_normal_form, "Smith normal form needs a square matrix, got 1x2"),
    ], ids=["solve", "leading_principal_minors", "smith_normal_form"])
    def test_square_only(self, call, message):
        with pytest.raises(ShapeError, match=message):
            call([[1, 2]])

    def test_definiteness_needs_symmetry(self):
        with pytest.raises(ShapeError, match="definiteness test needs a symmetric matrix"):
            is_negative_definite([[-2, 1], [0, -2]])


class TestExplicitGuards:
    """Invariant checks are raises, not asserts, so ``python -O`` keeps them."""

    def test_discriminant_cardinality(self, monkeypatch):
        from zarlat import lattice

        real = lattice.smith_normal_form

        def wrong(matrix):
            snf = real(matrix)
            return SmithNormalForm(snf.diagonal[:-1] + (snf.diagonal[-1] * 2,),
                                   snf.left, snf.right, snf.matrix)

        monkeypatch.setattr(lattice, "smith_normal_form", wrong)
        with pytest.raises(InconsistencyError):
            lattice.discriminant_group(rank_one(-2))

    def test_discriminant_order_against_determinant(self, monkeypatch):
        from zarlat import lattice

        monkeypatch.setattr(lattice, "det", lambda matrix: -4)
        with pytest.raises(InconsistencyError, match="has order 2, but \\|det\\| is 4"):
            lattice.discriminant_group(rank_one(-2))

    def test_discriminant_forged_transform(self, monkeypatch):
        from zarlat import lattice

        real = lattice.smith_normal_form

        def forged(matrix):
            snf = real(matrix)
            left = (tuple(2 * x for x in snf.left[0]),) + snf.left[1:]  # det 2: not unimodular
            return SmithNormalForm(snf.diagonal, left, snf.right, snf.matrix)

        monkeypatch.setattr(lattice, "smith_normal_form", forged)
        with pytest.raises(InconsistencyError, match="certificate"):
            lattice.discriminant_group(a2_minus())


def built(call):
    """``scaled_rows`` of the matrix ``call()`` builds, or the class and
    message of whatever it raises, a bare Python error included."""
    try:
        return call().scaled_rows
    except Exception as exc:
        return type(exc), str(exc)


# Spellings of the rational p/q, each read as that value, and entries the
# reader refuses.
ENTRY_SPELLINGS = (lambda p, q: p * q, lambda p, q: Fraction(p, q), lambda p, q: f"{p}/{q}",
                   lambda p, q: BigInt(p * q), lambda p, q: f"{2 * p}/{2 * q}")
REFUSED_ENTRIES = (True, False, 0.5, 2.0, None)
# Containers for a row or for the rows, and containers the reader refuses.
CONTAINERS = (list, tuple, lambda values: (x for x in values))
REFUSED_CONTAINERS = (lambda values: "12", lambda values: b"12",
                      lambda values: dict(enumerate(values)))


def generated_row_sets(count, seed):
    """``count`` makers of matrix rows, each giving a fresh value per call:
    shapes up to 4x4, square ones mostly symmetric, entries spelled in every
    way the reader takes; now and then a refused entry, row or container, a
    row given as a range, a ragged row, or the rows given as a range."""
    rng = SplitMix64(seed)
    makers = []
    for _ in range(count):
        n, k = rng.randint(0, 4), rng.randint(0, 4)
        if rng.randint(0, 1):
            k = n
        values = [[(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)] for _ in range(n)]
        if n == k and rng.randint(0, 3):
            for i in range(n):
                for j in range(i):
                    values[i][j] = values[j][i]
        rows = [[ENTRY_SPELLINGS[rng.randint(0, 4)](p, q) for p, q in row] for row in values]
        for row in rows:
            if row and rng.randint(0, 29) == 0:
                row[rng.randint(0, len(row) - 1)] = REFUSED_ENTRIES[rng.randint(0, 4)]
        if rows and rng.randint(0, 9) == 0:
            i = rng.randint(0, n - 1)
            rows[i] = rows[i][:-1] if rows[i] and rng.randint(0, 1) else rows[i] + [1]
        wraps = []
        for row in rows:
            pick = rng.randint(0, 39)
            if pick == 0:
                wraps.append(REFUSED_CONTAINERS[rng.randint(0, 2)])
            elif pick == 1:
                start = rng.randint(-3, 3)
                wraps.append(lambda values, start=start: range(start, start + len(values)))
            else:
                wraps.append(CONTAINERS[rng.randint(0, 2)])
        pick = rng.randint(0, 49)
        outer = (REFUSED_CONTAINERS[rng.randint(0, 2)] if pick == 0
                 else (lambda values: range(len(values))) if pick == 1
                 else CONTAINERS[rng.randint(0, 2)])
        makers.append(lambda rows=rows, wraps=wraps, outer=outer:
                      outer([wrap(row) for wrap, row in zip(wraps, rows)]))
    return makers


class TestConstructionReference:
    """``RationalMatrix`` and ``RationalMatrix.symmetric`` build what the
    reference that reads every row, then one entry at a time, then the
    shape builds, or raise the same error with the same message;
    ``is_symmetric`` holds exactly when the symmetric reference accepts the
    rows."""

    SHAPES = ([], (), range(0), [[]], [()], ((),), [[], []], [[1], [1, 2]], [[], [1]],
              [[1, 2], []], [(1, 2), [3]], [[1.5], [1, 2]], [["1/2", 2], (3, "4/6")],
              [range(2), range(1, 3)], [[1, 2], range(2)], [[1], "1"], [[1], b"1"],
              [[1], {0: 1}], [[1], 2], "12", b"12", {0: [1]}, {(1,)}, 5)

    def test_matches_reference_on_generated_rows(self):
        outcomes = Counter()
        for make in generated_row_sets(3000, 0xC0115):
            got = built(lambda: RationalMatrix(make()))
            expected = built(lambda: reference.matrix_in_reading_order(make()))
            assert got == expected
            got_sym = built(lambda: RationalMatrix.symmetric(make()))
            assert got_sym == built(lambda: reference.symmetric_in_reading_order(make()))
            if type(expected[0]) is type:
                outcomes[expected[0].__name__] += 1
                # Rows given as a range are ints, refused before any entry is read.
                outcomes["not iterable"] += expected[1] == "cannot interpret int as a matrix row"
                continue
            # A built matrix is symmetric exactly when the symmetric constructor accepts it.
            assert RationalMatrix(make()).is_symmetric() == (got_sym == expected)
            outcomes["symmetric" if got_sym == expected
                     else "asymmetric" if got_sym[1].startswith("asymmetric") else "not square"] += 1
        assert min(outcomes[key] for key in ("symmetric", "asymmetric", "not square",
                                             "DomainError", "ShapeError", "not iterable")) >= 20, outcomes
        assert "TypeError" not in outcomes, outcomes

    @pytest.mark.parametrize("rows", SHAPES, ids=repr)
    def test_matches_reference_on_shapes(self, rows):
        for build, spec in ((RationalMatrix, reference.matrix_in_reading_order),
                            (RationalMatrix.symmetric, reference.symmetric_in_reading_order)):
            for spelled in (lambda: rows, lambda: (x for x in rows) if type(rows) is list else rows):
                assert built(lambda: build(spelled())) == built(lambda: spec(spelled()))
        expected = built(lambda: reference.matrix_in_reading_order(rows))
        if isinstance(expected[0], tuple):
            assert RationalMatrix(rows).is_symmetric() == (
                built(lambda: reference.symmetric_in_reading_order(rows)) == expected)
