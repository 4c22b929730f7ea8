from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from zarlat.errors import DomainError, InconsistencyError, ShapeError, SingularMatrixError
from zarlat.lattice import a2_minus, direct_sum, e8_minus, hyperbolic_plane, rank_one
from zarlat.linalg import (
    Inertia,
    RationalMatrix,
    SmithNormalForm,
    as_rational,
    det,
    is_negative_definite,
    leading_principal_minors,
    scaled_int_rows,
    signature,
    smith_normal_form,
    solve,
    sylvester_pass,
)


def cofactor_det(rows):
    """Independent oracle: textbook recursive cofactor expansion."""
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


def symmetric_from(rows):
    n = len(rows)
    return [[rows[i][j] if i <= j else rows[j][i] for j in range(n)] for i in range(n)]


class TestMatrix:
    def test_symmetric_constructor_rejects_asymmetry(self):
        with pytest.raises(ShapeError):
            RationalMatrix.symmetric([[1, 2], [3, 4]])

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
        assert det(RationalMatrix.identity(2)) == 1

    def test_a2(self):
        assert det([[-2, 1], [1, -2]]) == 3

    def test_e8_against_cofactor_oracle(self):
        rows = e8_minus().gram.int_rows()
        assert cofactor_det(rows) == 1
        assert det(rows) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            det([[1, 2, 3], [4, 5, 6]])

    def test_rational_entries(self):
        assert det([["1/2", 1], [1, "1/2"]]) == Fraction(-3, 4)

    @settings(max_examples=150, deadline=None)
    @given(square_int_matrices())
    def test_matches_cofactor_expansion(self, rows):
        assert det(rows) == cofactor_det(rows)


class TestSolve:
    def test_identity(self):
        assert solve(RationalMatrix.identity(2), ["3/2", -1]) == (Fraction(3, 2), Fraction(-1))

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


def random_unimodular(ops, n):
    """Integer matrix with determinant +-1 built from elementary operations."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for kind, i, j, k in ops:
        i, j = i % n, j % n
        if i == j:
            continue
        if kind == 0:  # row i += k * row j
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        else:  # swap
            rows[i], rows[j] = rows[j], rows[i]
    return rows


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

    @settings(max_examples=100, deadline=None)
    @given(
        square_int_matrices(max_size=4),
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)),
            max_size=6,
        ),
    )
    def test_congruence_invariance(self, rows, ops):
        sym = symmetric_from(rows)
        n = len(sym)
        a = random_unimodular(ops, n)
        m = RationalMatrix(sym)
        transformed = [
            [
                sum(a[k][i] * int(m[k, l]) * a[l][j] for k in range(n) for l in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert signature(sym) == signature(transformed)


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


def rational_symmetric(max_size=5, lo=-9, hi=9, denominator_max=4):
    """Symmetric matrices of exact rationals, sizes 0..max_size."""
    entry = st.builds(Fraction, st.integers(lo, hi), st.integers(1, denominator_max))
    return st.integers(0, max_size).flatmap(
        lambda n: st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(symmetric_from)
    )


def is_nd(rows):
    return signature(rows) == Inertia(0, len(rows), 0)


def pass_on_rationals(rows, rhs):
    """Run :func:`sylvester_pass` on a rational system the way the engine
    does: scale ``A`` by the lcm ``c`` of its denominators and ``c * b`` by
    the lcm ``s`` of its own; return ``(det A, x)`` or ``None``."""
    n = len(rows)
    ints, c = scaled_int_rows([[Fraction(x) for x in row] for row in rows])
    cb = [c * Fraction(b) for b in rhs]
    s = lcm(*(x.denominator for x in cb))
    outcome = sylvester_pass([row + [int(x * s)] for row, x in zip(ints, cb)])
    if outcome is None:
        return None
    d, y = outcome
    return Fraction(d, c**n), tuple(Fraction(v, s * d) for v in y)


class TestSylvesterPass:
    """The single fraction-free pass against ``signature``, ``solve``,
    ``det`` and, where installed, sympy."""

    def test_empty(self):
        assert sylvester_pass([]) == (1, [])
        assert is_negative_definite([]) and det([]) == 1

    def test_scalar(self):
        assert sylvester_pass([[-3, 6]]) == (-3, [6])
        assert sylvester_pass([[3, 6]]) is None
        assert pass_on_rationals([["-1/2"]], ["1/3"]) == (Fraction(-1, 2), (Fraction(-2, 3),))

    def test_a2(self):
        assert sylvester_pass([[-2, 1, -1], [1, -2, -1]]) == (3, [3, 3])

    def test_without_rhs(self):
        assert sylvester_pass([[-2, 1], [1, -2]]) == (3, [])

    def test_stops_at_zero_pivot(self):
        assert sylvester_pass([[0, 1], [1, 0]]) is None  # leading minors 0, -1
        assert sylvester_pass([[-1, 1], [1, -1]]) is None  # singular: last minor 0

    def test_indefinite(self):
        assert sylvester_pass([[-1, 2, 0], [2, -1, 0]]) is None

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
            assert x == solve(rows, rhs)
            assert RationalMatrix(rows).matvec(x) == tuple(rhs)

    @settings(max_examples=150, deadline=None)
    @given(square_int_matrices(max_size=5, lo=-4, hi=4))
    def test_negative_definite_integral(self, rows):
        # -(S S^T) - I is negative definite, with varied pivots
        n = len(rows)
        m = [[-sum(rows[i][k] * rows[j][k] for k in range(n)) - (i == j) for j in range(n)]
             for i in range(n)]
        rhs = [i - 2 for i in range(n)]
        d, y = sylvester_pass([row + [b] for row, b in zip(m, rhs)])
        assert d == det(m) and d != 0
        assert tuple(Fraction(v, d) for v in y) == solve(m, rhs)

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
        expected = tuple(cofactor_det([r[: k + 1] for r in rows[: k + 1]]) for k in range(n))
        assert leading_principal_minors(rows) == expected


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
