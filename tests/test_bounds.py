import contextlib
import io
import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zarlat import bounds, cli, linalg, zariski
from zarlat.bounds import (
    BigFraction,
    BigInt,
    DeferredFactorial,
    DeferredPower,
    DeferredReverse,
    birationality_bound,
    chow_degree_bound,
    cramer_analysis,
    decimal_string,
    denominator_bound,
    det_trace_bound_holds,
    factorial_guard,
    full_report,
    instance_failures,
    reverse_negativity_bound,
)
from zarlat.errors import (
    DomainError,
    InconsistencyError,
    ShapeError,
    SingularMatrixError,
    ZarlatError,
)
from zarlat.lattice import (block, direct_sum, discriminant_group, dual_curve_integrality,
                            format_group, hyperbolic_plane, preset, rank_one)
from zarlat.linalg import BorderedElimination, RationalMatrix, as_integer, as_rational
from zarlat.zariski import (
    InstanceSpec,
    decompose,
    exceptional_certificate,
    is_exceptional,
    random_instance,
)

import reference
from conftest import DEFAULT_STR_DIGITS, build_corpus, form_of, int_str_limit, reader_callers


def pow_by_squaring(base, exponent):
    """Independent big-integer power oracle."""
    result = 1
    while exponent:
        if exponent & 1:
            result *= base
        base *= base
        exponent >>= 1
    return result


class TestCramer:
    def test_matches_determinant_reference(self):
        checked = 0
        for seed in range(3000):
            spec = InstanceSpec.standard(seed=seed, m=1 + seed % 8, denominator_max=1)
            form, divisor = random_instance(spec)
            support = decompose(form, divisor).negative_support
            if not support:
                continue
            got = cramer_analysis(form, divisor, support)
            expected = reference.cramer_analysis(form, divisor, support)
            assert got == expected, seed
            assert all(type(x) is Fraction for x in (*got.coefficients, *got.column_determinants,
                                                     got.gram_determinant)), seed
            assert type(got.common_denominator) is int, seed
            checked += 1
            if checked == 400:
                break
        assert checked == 400

    def test_worked_example(self):
        analysis = cramer_analysis(form_of([[2, 1], [1, -2]]), [1, 1], [1])
        assert analysis.coefficients == (Fraction(1, 2),)
        assert analysis.column_determinants == (Fraction(-1),)
        assert analysis.gram_determinant == Fraction(-2)
        assert analysis.common_denominator == 2

    def test_plain_list_builds_no_divisor(self, monkeypatch):
        # A plain list is read into integers once and cross-checked as
        # integers: no validated divisor, one Fraction per component, is
        # built, neither here nor for the fuzz check on s * a.
        form = form_of([[2, 1], [1, -2]])
        divisor = zariski.as_divisor([1, 1], form.size)

        def raising(*args):
            raise AssertionError("a validated divisor was built")

        monkeypatch.setattr(zariski._Divisor, "_from_scaled", raising)
        assert cramer_analysis(form, [1, 1], [1]).coefficients == (Fraction(1, 2),)
        assert instance_failures(form, divisor, 8, 0) == []

    def test_integral_coefficient(self):
        analysis = cramer_analysis(form_of([[-2]]), [1], [0])
        assert analysis.coefficients == (Fraction(1),)

    def test_a2_chain_denominators_divide_3(self):
        form = form_of([[-2, 1, 0], [1, -2, 0], [0, 0, 2]])
        divisor = [1, 2, 1]
        dec = decompose(form, divisor)
        analysis = cramer_analysis(form, divisor, dec.negative_support)
        assert abs(analysis.gram_determinant) == 3
        for c in analysis.coefficients:
            assert 3 % c.denominator == 0

    def test_singular_support_raises_as_the_certificate_does(self):
        form = form_of([[-1, 1], [1, -1]])
        with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
            exceptional_certificate(form, (0, 1))
        with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
            cramer_analysis(form, [1, 1], (0, 1))

    def test_rational_input_rejected(self):
        with pytest.raises(DomainError):
            cramer_analysis(form_of([[-2]]), ["1/2"], [0])
        with pytest.raises(DomainError):
            cramer_analysis(form_of([["-1/2"]]), [1], [0])

    def test_divisibility_over_integral_corpus(self):
        checked = 0
        for form, divisor in build_corpus(400, denominator_max=1, seed_base=50_000):
            dec = decompose(form, divisor)
            if not dec.negative_support:
                continue
            bound = cramer_analysis(form, divisor, dec.negative_support).common_denominator
            for j in dec.negative_support:
                assert bound % dec.negative[j].denominator == 0
            checked += 1
        assert checked > 100


class TestDetTraceBound:
    def test_single(self):
        assert det_trace_bound_holds(form_of([[-2]]), [0], 2)

    def test_a2(self):
        assert det_trace_bound_holds(form_of([[-2, 1], [1, -2]]), [0, 1], 2)  # 3 <= 4

    def test_tightness(self):
        form = form_of([[-2, 0, 0], [0, -2, 0], [0, 0, -2]])
        assert det_trace_bound_holds(form, [0, 1, 2], 2)  # 8 <= 8

    def test_compares_the_determinant(self, monkeypatch):
        # The bound is a theorem on admissible input, so only a planted
        # determinant can break it: |-9| against 2**3 = 8 reads False.
        monkeypatch.setattr(BorderedElimination, "det", property(lambda self: -9))
        assert not det_trace_bound_holds(form_of([[-2, 0, 0], [0, -2, 0], [0, 0, -2]]),
                                         [0, 1, 2], 2)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            det_trace_bound_holds(form_of([[2]]), [0], 2)  # not negative definite
        with pytest.raises(DomainError):
            det_trace_bound_holds(form_of([[-4]]), [0], 2)  # diagonal below -b

    def test_theorem_over_corpus(self):
        checked = 0
        for form, divisor in build_corpus(400, seed_base=60_000):
            dec = decompose(form, divisor)
            if not dec.negative_support:
                continue
            b = max(-int(form.gram[i, i]) for i in dec.negative_support)
            assert det_trace_bound_holds(form, dec.negative_support, b)
            checked += 1
        assert checked > 100


    def test_rational_gram(self):
        # c = 2 scales the rows: det(2 * Gram_S) = -1 against (b * c)**|S| = 2.
        assert det_trace_bound_holds(form_of([["-1/2"]]), [0], 1)
        with pytest.raises(DomainError):
            det_trace_bound_holds(form_of([["-3/2"]]), [0], 1)  # diagonal below -b

    def test_one_elimination(self, monkeypatch):
        passes = []
        real = BorderedElimination.extend

        def counted(self, rows):
            passes.append(len(rows))
            return real(self, rows)

        def forbidden(*args):
            raise AssertionError("det_trace_bound_holds recomputed an elimination")

        monkeypatch.setattr(BorderedElimination, "extend", counted)
        monkeypatch.setattr(bounds, "det", forbidden)
        assert det_trace_bound_holds(form_of([[-2, 1, 0], [1, -2, 1], [0, 1, -2]]), [0, 1, 2], 2)
        assert passes == [3]


SUPPORT_FUNCTIONS = {
    "is_exceptional": is_exceptional,
    "exceptional_certificate": exceptional_certificate,
    "cramer_analysis": lambda form, support: cramer_analysis(form, [1, 1], support),
    "det_trace_bound_holds": lambda form, support: det_trace_bound_holds(form, support, 2),
}


class TestSupportIndices:
    @pytest.mark.parametrize("support", [[-1], [2]], ids=["negative", "size"])
    @pytest.mark.parametrize("name", list(SUPPORT_FUNCTIONS))
    def test_out_of_range_raises_shape_error(self, name, support):
        with pytest.raises(ShapeError):
            SUPPORT_FUNCTIONS[name](form_of([[2, 1], [1, -2]]), support)

    @pytest.mark.parametrize("support", [[], [1, 1], [1, 0]], ids=["empty", "repeated", "unsorted"])
    @pytest.mark.parametrize("name", list(SUPPORT_FUNCTIONS))
    def test_empty_repeated_or_unsorted_raises_domain_error(self, name, support):
        with pytest.raises(DomainError):
            SUPPORT_FUNCTIONS[name](form_of([[-2, 1], [1, -2]]), support)

    @pytest.mark.parametrize("support, message", [
        ([True], "boolean True is not a rational number"),
        ([False, True], "boolean False is not a rational number"),
        ("01", "cannot interpret str as support indices"),
        (b"\x00\x01", "cannot interpret bytes as support indices"),
        ({0: 1}, "cannot interpret dict as support indices"),
        ({0, 1}, "cannot interpret set as support indices"),
        ([0.0], "float 0.0 rejected; use int, Fraction or 'p/q' string"),
        ([Fraction(1, 2)], "Fraction(1, 2) is not an integer"),
    ], ids=["true", "false-true", "str", "bytes", "dict", "set", "float", "fraction"])
    @pytest.mark.parametrize("name", list(SUPPORT_FUNCTIONS))
    def test_indices_read_as_integers(self, name, support, message):
        # Each index is read by as_integer from a sequence that _sequence
        # accepts: a boolean is not component 0 or 1.
        with pytest.raises(DomainError) as raised:
            SUPPORT_FUNCTIONS[name](form_of([[-2, 1], [1, -2]]), support)
        assert str(raised.value) == message

    @pytest.mark.parametrize("name", list(SUPPORT_FUNCTIONS))
    def test_integral_spellings_read(self, name):
        form = form_of([[-2, 1], [1, -2]])
        expected = SUPPORT_FUNCTIONS[name](form, [0, 1])
        for support in ((Fraction(0), "1"), range(2), (x for x in (0, 1))):
            assert SUPPORT_FUNCTIONS[name](form, support) == expected


def _whole_support(form, divisor):
    """An engine that calls the whole divisor negative."""
    a = zariski.as_divisor(divisor, form.size)
    return zariski.Decomposition(
        positive=tuple(Fraction(0) for _ in a), negative=a,
        negative_support=tuple(range(form.size)), rounds=1,
        negative_gram_det=Fraction(1),
    )


class TestInstanceFailures:
    def test_seeded_corpus_passes(self):
        for seed, (form, divisor) in enumerate(build_corpus(300)):
            assert instance_failures(form, divisor, 8, seed) == [], seed

    def test_divisor_read_once(self, negative_instances, monkeypatch):
        # The divisor is validated once and the validated divisor goes to
        # every check, so an iterator is read like the tuple it yields, and
        # no check reads it again; one validated by as_divisor is not read at
        # all.  The checks read P and N.  Cramer's rule, on a nonempty
        # negative support, gets the ints s * a, not a divisor, and reads
        # them twice: once itself and once in its decompose cross-check.
        for seed, form, divisor in negative_instances[:3]:
            assert instance_failures(form, iter(divisor), 8, seed) == []
        callers = reader_callers(monkeypatch)
        for seed in range(300):
            form, divisor = random_instance(InstanceSpec.standard(seed=seed, m=4))
            cramer = 2 if decompose(form, divisor).negative_support else 0
            for spelled, reads in ((list(divisor), 1), (divisor, 0)):
                callers.clear()
                assert instance_failures(form, spelled, 8, seed) == []
                assert callers.count("_scaled_divisor") == reads + cramer, seed
                assert callers.count("decomposition_checks") == 2
                assert len(callers) == reads + cramer + 2

    def test_cramer_divisibility_reads_the_engine(self, monkeypatch):
        # The property divides the engine's coefficients, not the analysis's
        # own: a planted analysis with integer coefficients and common
        # denominator 1 fails it, for N = (0, 1/2) has denominator 2.
        form = form_of([[2, 1], [1, -2]])
        real = bounds.cramer_analysis

        def planted(*args):
            analysis = real(*args)
            return analysis._replace(coefficients=(Fraction(1),) * len(analysis.coefficients),
                                     common_denominator=1)

        assert decompose(form, [1, 1]).negative == (0, Fraction(1, 2))
        assert instance_failures(form, [1, 1], 8, 0) == []
        monkeypatch.setattr(bounds, "cramer_analysis", planted)
        assert instance_failures(form, [1, 1], 8, 0) == ["cramer_divisibility"]

    def test_oracle_limit_skips_oracle(self, negative_instances, monkeypatch):
        def raising(*args, **kwargs):
            raise AssertionError("oracle called above its limit")

        monkeypatch.setattr(zariski, "decompose_bruteforce", raising)
        seed, form, divisor = negative_instances[0]
        assert instance_failures(form, divisor, 0, seed) == []

    @pytest.mark.parametrize(
        "module, attribute, error, name",
        [
            (bounds, "cramer_analysis", InconsistencyError, "cramer_divisibility"),
            (bounds, "cramer_analysis", SingularMatrixError, "cramer_divisibility"),
            (bounds, "det_trace_bound_holds", DomainError, "det_trace_bound"),
            (zariski, "exceptional_certificate", SingularMatrixError, "certificate_positive"),
            (zariski, "exceptional_certificate", InconsistencyError, "certificate_positive"),
            (zariski, "decompose_bruteforce", InconsistencyError, "oracle_match"),
            (zariski, "decomposition_checks", SingularMatrixError, "decomposition_checks"),
        ],
    )
    def test_raising_check_is_that_check_failing(self, negative_instances, monkeypatch, module,
                                                 attribute, error, name):
        def raising(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(module, attribute, raising)
        for seed, form, divisor in negative_instances:
            assert instance_failures(form, divisor, 8, seed) == [name]

    def test_raising_engine_is_decompose(self, monkeypatch):
        def raising(*args, **kwargs):
            raise InconsistencyError("injected")

        monkeypatch.setattr(zariski, "decompose", raising)
        form, divisor = random_instance(InstanceSpec.standard(seed=3, m=4))
        assert instance_failures(form, divisor, 8, 3) == ["decompose"]

    def test_whole_support_reported(self, monkeypatch):
        # An engine that calls the whole divisor negative fails the
        # exceptional-support invariant, the oracle and the support checks.
        monkeypatch.setattr(zariski, "decompose", _whole_support)
        form = form_of([[2, 1], [1, -2]])
        assert instance_failures(form, [1, 1], 8, 0) == [
            "negative_exceptional", "oracle_match", "cramer_divisibility",
            "det_trace_bound", "negative_square", "certificate_positive",
        ]

    def test_combination_properties_match_fraction_reference(self, monkeypatch):
        # With the whole support called negative, both properties fail on some
        # instances; the Gram matrices divided by 1..5 carry denominators.
        monkeypatch.setattr(zariski, "decompose", _whole_support)
        names = ("negative_pairing_exists", "negative_square")
        seen = set()
        for seed, (form, divisor) in enumerate(build_corpus(200, m_max=4)):
            q = 1 + seed % 5
            form = zariski.IntersectionForm.from_rows(
                form.labels, [[x / q for x in row] for row in form.gram.entries])
            rng = zariski.SplitMix64(seed ^ 0xD1F7)
            c = [Fraction(0)] * form.size
            while all(x == 0 for x in c):
                for i in range(form.size):
                    c[i] = Fraction(rng.randint(0, 5))
            gc = form.gram.matvec(c)
            expected = [name for name, holds in zip(names, (
                any(x < 0 for x in gc), sum((x * y for x, y in zip(c, gc)), Fraction(0)) < 0)) if not holds]
            got = [name for name in instance_failures(form, divisor, 0, seed) if name in names]
            assert got == expected, seed
            seen.update(expected)
        assert seen == set(names)

    def test_det_trace_bound_on_rational_diagonal(self):
        # b is the ceiling of -gram_ii: truncating -5/2 to 2 put the diagonal
        # below -b and failed the bound spuriously.  The Cramer property runs
        # on the integral form 2 * gram, so it holds here too.
        form = form_of([["-5/2", 1], [1, "-5/2"]])
        assert decompose(form, [1, 1]).negative_support == (0, 1)
        assert det_trace_bound_holds(form, (0, 1), 3)
        assert instance_failures(form, [1, 1], 8, 0) == []

    def test_cramer_divisibility_on_rational_gram(self, monkeypatch):
        # On c * gram and s * a: the same negative support, N scaled by s.
        calls = []
        real = bounds.cramer_analysis

        def recorded(form, divisor, support):
            calls.append((form, divisor))
            return real(form, divisor, support)

        monkeypatch.setattr(bounds, "cramer_analysis", recorded)
        checked = 0
        for seed, (form, divisor) in enumerate(build_corpus(200, m_max=5)):
            q = 2 + seed % 4
            form = form_of([[x / q for x in row] for row in form.gram.entries])
            calls.clear()
            assert instance_failures(form, divisor, 8, seed) == [], seed
            if not decompose(form, divisor).negative_support:
                continue
            rows, c = form.gram.scaled_rows
            s = math.lcm(*(x.denominator for x in divisor))
            ((scaled, numerators),) = calls
            assert scaled.gram.scaled_rows == (rows, 1) and scaled.labels == form.labels
            assert numerators == [int(x * s) for x in divisor]
            checked += 1
        assert checked > 50

    def test_non_zarlat_errors_propagate(self, negative_instances, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("a bug, not a property")

        monkeypatch.setattr(zariski, "exceptional_certificate", broken)
        seed, form, divisor = negative_instances[0]
        with pytest.raises(ZeroDivisionError):
            instance_failures(form, divisor, 8, seed)


class TestDeferredStrings:
    def test_factorial(self):
        assert str(DeferredFactorial(8**20)) == "(1152921504606846976)!"
        assert str(DeferredFactorial(8, 21)) == "21 * (8)!"

    def test_reverse(self):
        assert str(DeferredReverse(DeferredFactorial(200_001), 3)) == "d! * d * 3 with d = (200001)!"

    def test_power(self):
        value = DeferredPower(base=DeferredFactorial(8**20, 21), exponent=4, scale=Fraction(1, 2))
        assert str(value) == "1/2 * (21 * (1152921504606846976)!)**4"

    def test_plain_big_arguments(self):
        # Descriptors built from plain ints render without a lifted limit too.
        big = 10**5000
        digits = "1" + "0" * 5000
        with int_str_limit(DEFAULT_STR_DIGITS):
            factorial = DeferredFactorial(big, big)
            assert str(factorial) == f"{digits} * ({digits})!"
            assert factorial.to_json_dict() == {"factorial_of": digits, "times": digits}
            reverse = DeferredReverse(factorial, big)
            assert reverse.to_json_dict()["card"] == digits and str(reverse).startswith(f"d! * d * {digits} ")
            power = DeferredPower(factorial, big, Fraction(big, 3))
            assert power.to_json_dict()["exponent"] == digits and power.to_json_dict()["scale"] == f"{digits}/3"
            assert str(power) == f"{digits}/3 * ({digits} * ({digits})!)**{digits}"


def _near_powers_of_two():
    """Beside 128-bit leaves, their halvings and doublings, and the builtin threshold."""
    top = linalg._BUILTIN_STR_BITS
    widths = [1, 64, 127, 128, 129, 255, 256, 257, 511, 512, top - 1, top, top + 1, 3 * top]
    return st.builds(lambda w, d: max(0, (1 << w) + d), st.sampled_from(widths), st.integers(-2, 2))


def _render_cases():
    """0, 10**k +- 1, values beside powers of two, and random ones up to 40,000 bits."""
    magnitudes = st.one_of(
        st.just(0),
        st.builds(lambda k, d: 10**k + d, st.integers(0, 12_000), st.sampled_from([-1, 0, 1])),
        _near_powers_of_two(),
        st.binary(max_size=5000).map(lambda b: int.from_bytes(b, "big")),
    )
    return st.builds(lambda m, negative: -m if negative else m, magnitudes, st.booleans())


def _cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def _library_json(value):
    return value.to_json_dict() if hasattr(value, "to_json_dict") else str(value)


class TestDecimalString:
    @settings(max_examples=150, deadline=None)
    @given(_render_cases())
    def test_matches_builtin(self, n):
        with int_str_limit(0):
            expected = str(n)
        assert decimal_string(n) == expected

    @settings(max_examples=150, deadline=None)
    @given(_render_cases())
    def test_divide_and_conquer_matches_builtin_below_threshold(self, n):
        # With the threshold at 0 every value takes the decimal route, so
        # small ones exercise the 128-bit leaves and their neighbours.
        with int_str_limit(0):
            expected = str(n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_BUILTIN_STR_BITS", 0)
            assert decimal_string(n) == expected

    def test_no_lifted_limit_needed(self):
        n = -(10**20_000 + 1)
        with int_str_limit(DEFAULT_STR_DIGITS):
            text = decimal_string(n)
        assert text == "-1" + "0" * 19_999 + "1"

    def test_big_values_behave_as_numbers(self):
        value = BigInt(math.factorial(2000))
        assert isinstance(value, int) and value == math.factorial(2000)
        assert hash(value) == hash(math.factorial(2000)) and {value: 1}[math.factorial(2000)] == 1
        assert type(value + 1) is int and str(BigInt(-12)) == repr(BigInt(-12)) == "-12"
        q = BigFraction(Fraction(-10**5000, 3))
        assert q == Fraction(-10**5000, 3) and hash(q) == hash(Fraction(-10**5000, 3))
        assert str(BigFraction(7)) == "7"
        with int_str_limit(DEFAULT_STR_DIGITS):
            assert str(q) == "-1" + "0" * 5000 + "/3"
            assert repr(q) == "BigFraction(-1" + "0" * 5000 + ", 3)"


# 5000 digits, past the interpreter's default conversion limit, and their
# value built without str(); each reader of an integer grammar reading them
# (the factorial guard from the environment), with the value it must read.
LONG_DIGITS, LONG_VALUE = "1" * 5000, (10**5000 - 1) // 9
LONG_DIGIT_READERS = {
    "as_rational": (lambda: as_rational(LONG_DIGITS), Fraction(LONG_VALUE)),
    "as_integer": (lambda: as_integer(LONG_DIGITS), LONG_VALUE),
    "IntersectionForm.from_rows": (
        lambda: zariski.IntersectionForm.from_rows(["E"], [[LONG_DIGITS]]).gram[0, 0], LONG_VALUE),
    "factorial_guard": (factorial_guard, LONG_VALUE),
}


class TestDigitLimit:
    @pytest.mark.parametrize("name", sorted(LONG_DIGIT_READERS))
    def test_past_the_limit_is_a_domain_error(self, monkeypatch, name):
        # A string in the grammar that the interpreter refuses to convert is
        # refused as bad input, by its digit count; with the limit lifted, as
        # cli.main lifts it, the same string reads exactly.
        monkeypatch.setenv("BBF_FACTORIAL_GUARD", LONG_DIGITS)
        read, expected = LONG_DIGIT_READERS[name]
        with int_str_limit(DEFAULT_STR_DIGITS):
            with pytest.raises(DomainError, match=r"^(rational string|BBF_FACTORIAL_GUARD) has 5000 "
                                                  r"digits, more than the interpreter's limit of 4300 "
                                                  r"for integer string conversion$"):
                read()
        with int_str_limit(0):
            assert read() == expected


# Each call ends the same way given a small value and given one past the
# interpreter's int/str conversion limit: an error message shows the value
# through linalg._shown or linalg._fraction_string, at any size.
HUGE = 10**5000
_PAIR = form_of([[-2, 1], [1, -2]])
SIZED_CALLS = {
    "factorial_guard": factorial_guard,
    "full_report": lambda n: full_report(preset("K3n", 2), rho=n),
    "rank_one": lambda n: rank_one(2 * n),
    "preset": lambda n: preset("K3n", -n),
    "denominator_bound": lambda n: denominator_bound(-n, 2),
    "chow_degree_bound": lambda n: chow_degree_bound(1, 1, -n),
    "InstanceSpec": lambda n: InstanceSpec(seed=0, m=-n),
    "SplitMix64.randint": lambda n: zariski.SplitMix64(0).randint(n, 0),
    "as_divisor": lambda n: zariski.as_divisor([1], n),
    "decompose_bruteforce": lambda n: zariski.decompose_bruteforce(_PAIR, [1, 1], limit=-n),
    "block": lambda n: block("U", n),
    "RationalMatrix.submatrix": lambda n: RationalMatrix([[1]]).submatrix([n]),
    "exceptional_certificate": lambda n: exceptional_certificate(_PAIR, [n]),
    "decompose": lambda n: decompose(_PAIR, [-n, 0]),
    "as_integer": lambda n: as_integer(Fraction(2 * n + 1, 2)),
    "RationalMatrix.symmetric": lambda n: RationalMatrix.symmetric([[0, n], [0, 0]]),
}


class TestHugeValuesInMessages:
    @pytest.mark.parametrize("name", sorted(SIZED_CALLS))
    def test_same_outcome_as_a_small_value(self, name):
        def outcome(n):
            try:
                SIZED_CALLS[name](n)
            except ZarlatError as exc:
                return type(exc), str(exc)
            return None, ""

        with int_str_limit(DEFAULT_STR_DIGITS):
            small, _ = outcome(50)
            huge, message = outcome(HUGE)
        assert huge is small
        assert small is None or len(message) > 5000  # the value, every digit


# Text the library builds from a caller-sized value: the same under the
# default int/str conversion limit as under none.
TEXTS_OF_HUGE_VALUES = {
    "RationalMatrix.__repr__": lambda: repr(RationalMatrix([[HUGE, Fraction(1, HUGE)]])),
    "format_group": lambda: format_group((2, HUGE)),
    "format_group of DiscriminantGroup": lambda: format_group(
        discriminant_group(rank_one(-2 * HUGE)).elementary_divisors),
    "format_group of DeformationPreset": lambda: format_group(preset("K3n", HUGE).published_group),
    "DeformationPreset.display_name": lambda: preset("K3n", HUGE).display_name,
}


class TestHugeValuesInText:
    @pytest.mark.parametrize("name", sorted(TEXTS_OF_HUGE_VALUES))
    def test_same_text_as_without_a_limit(self, name):
        with int_str_limit(0):
            expected = TEXTS_OF_HUGE_VALUES[name]()
        with int_str_limit(DEFAULT_STR_DIGITS):
            assert TEXTS_OF_HUGE_VALUES[name]() == expected
        assert len(expected) > 5000  # the value, every digit


class TestLibraryStrings:
    """``str()`` of bound values needs no lifted conversion limit."""

    def test_reverse_bound_matches_cli(self):
        cli_value = _cli_json(["bounds", "K3n:2", "--rho", "2"])["rho_specific"]["reverse_negativity_bound"]
        with int_str_limit(DEFAULT_STR_DIGITS):
            value = full_report(preset("K3n", 2), 2).at_rho.reverse_negativity_bound
            assert str(value) == repr(value) == cli_value
        assert len(cli_value) == 168_192 and value == math.factorial(40320) * 40320 * 2

    def test_deferred_descriptors_render(self):
        expected = _cli_json(["bounds", "K3n:2", "--rho", "5"])
        with int_str_limit(DEFAULT_STR_DIGITS):
            report = full_report(preset("K3n", 2), 5)
            values = [getattr(s, name) for s in (report.at_rho, report.uniform)
                      for name in ("denominator_bound", "reverse_negativity_bound",
                                   "birationality_multiple", "chow_degree")]
            texts = [str(v) for v in values] + [repr(v) for v in values]
            rendered = [_library_json(v) for v in values[:4]]
        assert isinstance(report.at_rho.reverse_negativity_bound, DeferredFactorial)
        assert len(str(report.at_rho.reverse_negativity_bound)) > 26_000 and all(texts)
        assert rendered == [expected["rho_specific"][key] for key in (
            "denominator_bound", "reverse_negativity_bound", "birationality_m0", "chow_degree")]


class TestDenominatorBound:
    def test_k3_square_value(self):
        assert denominator_bound(8, 2) == 40320

    def test_rho_one(self):
        assert denominator_bound(8, 1) == 1
        assert denominator_bound(1, 1) == 1

    def test_guard(self):
        value = denominator_bound(8, 21)
        assert value == DeferredFactorial(factorial_of=8**20, times=1)
        assert value.factorial_of == 1152921504606846976
        assert value.to_json_dict() == {
            "factorial_of": "1152921504606846976",
            "times": "1",
        }

    def test_guard_override(self):
        assert denominator_bound(8, 2, guard=7) == DeferredFactorial(8)
        assert denominator_bound(8, 2, guard=8) == 40320

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("BBF_FACTORIAL_GUARD", "7")
        assert factorial_guard() == 7
        assert denominator_bound(8, 2) == DeferredFactorial(8)
        monkeypatch.delenv("BBF_FACTORIAL_GUARD")
        assert factorial_guard() == 100_000

    @pytest.mark.parametrize("value", ["abc", "-3", " ", " 1_0 ", "1_0", "+7", "\u0663"])
    def test_env_rejects_non_guards(self, monkeypatch, value):
        monkeypatch.setenv("BBF_FACTORIAL_GUARD", value)
        with pytest.raises(DomainError):
            factorial_guard()

    def test_negative_override_rejected(self):
        with pytest.raises(DomainError):
            denominator_bound(8, 2, guard=-1)
        assert factorial_guard(0) == 0

    @pytest.mark.parametrize("value", [1.5, True, "x"])
    def test_override_must_be_an_int(self, value):
        with pytest.raises(DomainError, match="is not a nonnegative integer"):
            factorial_guard(value)
        with pytest.raises(DomainError):
            denominator_bound(8, 2, guard=value)

    def test_rho_zero_rejected(self):
        with pytest.raises(DomainError):
            denominator_bound(8, 0)

    def test_monotone(self):
        previous = 0
        for b in range(1, 7):
            for rho in range(1, 5):
                value = denominator_bound(b, rho)
                assert denominator_bound(b + 1, rho) >= value
                assert denominator_bound(b, rho + 1) >= value
        assert denominator_bound(2, 3) >= denominator_bound(2, 2) >= previous


class TestReverseBound:
    def test_values(self):
        assert reverse_negativity_bound(2, 2) == 8
        assert reverse_negativity_bound(1, 7) == 7
        assert reverse_negativity_bound(3, 1) == 18

    def test_guard(self):
        value = reverse_negativity_bound(200_001, 3)
        assert value == DeferredFactorial(factorial_of=200_001, times=600_003)


class TestBirationalityBound:
    def test_k3_square(self):
        assert birationality_bound(2, 2, 2) == 21 * 40320 == 846720

    def test_minimal(self):
        assert birationality_bound(1, 1, 1) == 10

    def test_guard(self):
        value = birationality_bound(2, 2, 21)
        assert value == DeferredFactorial(factorial_of=8**20, times=21)


class TestChowDegree:
    def test_small(self):
        assert chow_degree_bound(1, 1, 10) == 100
        assert chow_degree_bound(1, Fraction(1, 2), 2) == 2

    def test_big_power_against_independent_oracle(self):
        value = chow_degree_bound(2, 1, 846720)
        assert value == pow_by_squaring(846720, 4)

    def test_deferred_base(self):
        m0 = DeferredFactorial(8**20, 21)
        value = chow_degree_bound(2, 1, m0)
        assert value == DeferredPower(base=m0, exponent=4, scale=Fraction(1))


class TestFullReport:
    def test_k3_square(self):
        report = full_report(preset("K3n", 2), rho=2, volume=1)
        assert report.group == discriminant_group(preset("K3n", 2).lattice)
        assert report.group.negativity_bound == 8
        assert report.at_rho.denominator_bound == 40320
        assert report.at_rho.birationality_multiple == 846720
        assert report.at_rho.chow_degree == 846720**4
        assert report.at_rho.reverse_negativity_bound == math.factorial(40320) * 40320 * 2
        assert report.uniform.rho == 21
        assert isinstance(report.uniform.denominator_bound, DeferredFactorial)
        assert isinstance(report.uniform.reverse_negativity_bound, DeferredReverse)
        assert isinstance(report.uniform.chow_degree, DeferredPower)

    def test_rho_one(self):
        report = full_report(preset("K3n", 2), rho=1)
        assert report.at_rho.denominator_bound == 1
        assert report.at_rho.birationality_multiple == 21

    def test_og10(self):
        report = full_report(preset("OG10"), rho=2)
        assert report.group.negativity_bound == 12
        assert report.at_rho.denominator_bound == math.factorial(12) == 479001600

    def test_rho_out_of_range(self):
        with pytest.raises(DomainError):
            full_report(preset("K3n", 2), rho=0)
        with pytest.raises(DomainError):
            full_report(preset("K3n", 2), rho=22)

    def test_volume_positive(self):
        with pytest.raises(DomainError):
            full_report(preset("K3n", 2), rho=2, volume=0)

    def test_guard_read_once(self, monkeypatch):
        reads = []

        class Environ(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

        monkeypatch.setenv(bounds.GUARD_ENV_VAR, "100000")
        monkeypatch.setattr(os, "environ", Environ(os.environ))
        full_report(preset("K3n", 2), 2)
        assert reads.count(bounds.GUARD_ENV_VAR) == 1


class TestBoundDomains:
    @pytest.mark.parametrize("call, message", [
        (lambda: denominator_bound(0, 2), "negativity bound must be positive, got 0"),
        (lambda: reverse_negativity_bound(0, 1), "reverse bound needs positive d and card"),
        (lambda: reverse_negativity_bound(1, -2), "reverse bound needs positive d and card"),
        *((lambda args=args: birationality_bound(*args),
           "birationality bound needs positive n, card and rho")
          for args in ((0, 1, 1), (1, 0, 1), (1, 1, 0))),
        (lambda: chow_degree_bound(0, 1, 10), "half-dimension must be positive, got 0"),
        (lambda: chow_degree_bound(1, "-1/2", 10), "volume must be positive, got -1/2"),
        (lambda: chow_degree_bound(1, 1, 0), "birationality multiple must be positive, got 0"),
    ])
    def test_nonpositive_arguments_rejected(self, call, message):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


# Every library entry point that takes an integer, called with the value 2
# spelled as its argument.
INTEGER_ENTRY_POINTS = {
    "rank_one": rank_one,
    "preset": lambda x: preset("K3n", x),
    "denominator_bound b": lambda x: denominator_bound(x, 3),
    "denominator_bound rho": lambda x: denominator_bound(3, x),
    "denominator_bound guard": lambda x: denominator_bound(3, 2, guard=x),
    "reverse_negativity_bound d": lambda x: reverse_negativity_bound(x, 3),
    "reverse_negativity_bound card": lambda x: reverse_negativity_bound(3, x),
    "birationality_bound n": lambda x: birationality_bound(x, 1, 2),
    "birationality_bound card": lambda x: birationality_bound(1, x, 2),
    "birationality_bound rho": lambda x: birationality_bound(1, 1, x),
    "chow_degree_bound n": lambda x: chow_degree_bound(x, 1, 3),
    "chow_degree_bound m0": lambda x: chow_degree_bound(1, 1, x),
    "full_report rho": lambda x: full_report(preset("OG6"), rho=x),
    "det_trace_bound_holds b": lambda x: det_trace_bound_holds(form_of([[-2]]), (0,), x),
    "dual_curve_integrality": lambda x: dual_curve_integrality(
        direct_sum([hyperbolic_plane(), rank_one(-2)]), [1, 0, x]),
    "IntegralLattice.pairing": lambda x: hyperbolic_plane().pairing([1, 3], [x, 1]),
    "IntegralLattice.square": lambda x: hyperbolic_plane().square([x, 3]),
    "decompose_bruteforce limit": lambda x: zariski.decompose_bruteforce(
        form_of([[-2, 1], [1, -2]]), [1, 0], limit=x),
    "instance_failures oracle_limit": lambda x: instance_failures(
        form_of([[-2, 1], [1, -2]]), [1, 1], x, 0),
    "instance_failures seed": lambda x: instance_failures(form_of([[-2, 1], [1, -2]]), [1, 1], 8, x),
    "as_divisor size": lambda x: zariski.as_divisor([1, 1], x),
    "InstanceSpec seed": lambda x: random_instance(InstanceSpec(seed=x, m=3)),
    "InstanceSpec m": lambda x: random_instance(InstanceSpec(seed=1, m=x)),
    "InstanceSpec denominator_max": lambda x: random_instance(
        InstanceSpec(seed=1, m=3, denominator_max=x)),
    "InstanceSpec range bound": lambda x: random_instance(
        InstanceSpec(seed=1, m=3, coefficient_range=(x, 5))),
    "SplitMix64 seed": lambda x: zariski.SplitMix64(x).next_u64(),
    "randint lo": lambda x: zariski.SplitMix64(1).randint(x, 5),
    "randint hi": lambda x: zariski.SplitMix64(1).randint(1, x),
}


class TestIntegerParameters:
    @pytest.mark.parametrize("value, accepted", [
        *(pytest.param(v, False, id=repr(v))
          for v in (2.0, 2.5, True, "2.5", "5/2", Fraction(5, 2), "2.0", " 2")),
        *(pytest.param(v, True, id=repr(v)) for v in ("2", "4/2", Fraction(4, 2), BigInt(2))),
    ])
    @pytest.mark.parametrize("name", sorted(INTEGER_ENTRY_POINTS))
    def test_integral_rationals_only(self, name, value, accepted):
        # One grammar: an integral rational means 2; anything else, a float
        # or bool included, is refused instead of truncated by int().
        call = INTEGER_ENTRY_POINTS[name]
        if accepted:
            assert call(value) == call(2)
        else:
            with pytest.raises(DomainError):
                call(value)
