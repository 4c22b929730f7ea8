import math
from fractions import Fraction

import pytest

from zarlat.bounds import (
    DeferredFactorial,
    DeferredPower,
    DeferredReverse,
    birationality_bound,
    chow_degree_bound,
    cramer_analysis,
    denominator_bound,
    det_trace_bound_holds,
    factorial_guard,
    full_report,
    reverse_negativity_bound,
)
from zarlat.errors import DomainError, InconsistencyError
from zarlat.lattice import preset
from zarlat.zariski import (
    InstanceSpec,
    IntersectionForm,
    decompose,
    random_instance,
    support_of,
)


def form_of(rows):
    return IntersectionForm.from_rows([f"E{i + 1}" for i in range(len(rows))], rows)


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
    def test_worked_example(self):
        analysis = cramer_analysis(form_of([[2, 1], [1, -2]]), [1, 1], [1])
        assert analysis.coefficients == (Fraction(1, 2),)
        assert analysis.column_determinants == (Fraction(-1),)
        assert analysis.gram_determinant == Fraction(-2)
        assert analysis.common_denominator == 2

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

    def test_rational_input_rejected(self):
        with pytest.raises(DomainError):
            cramer_analysis(form_of([[-2]]), ["1/2"], [0])
        with pytest.raises(DomainError):
            cramer_analysis(form_of([["-1/2"]]), [1], [0])

    def test_divisibility_over_integral_corpus(self):
        checked = 0
        for seed in range(400):
            spec = InstanceSpec.standard(seed=50_000 + seed, m=1 + seed % 6, denominator_max=1)
            form, divisor = random_instance(spec)
            dec = decompose(form, divisor)
            if not dec.negative_support:
                continue
            analysis = cramer_analysis(form, divisor, dec.negative_support)
            bound = analysis.common_denominator
            for c in analysis.coefficients:
                assert bound % c.denominator == 0
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

    def test_preconditions(self):
        with pytest.raises(DomainError):
            det_trace_bound_holds(form_of([[2]]), [0], 2)  # not negative definite
        with pytest.raises(DomainError):
            det_trace_bound_holds(form_of([[-4]]), [0], 2)  # diagonal below -b

    def test_theorem_over_corpus(self):
        checked = 0
        for seed in range(400):
            spec = InstanceSpec.standard(seed=60_000 + seed, m=1 + seed % 6)
            form, divisor = random_instance(spec)
            dec = decompose(form, divisor)
            if not dec.negative_support:
                continue
            b = max(-int(form.gram[i, i]) for i in dec.negative_support)
            assert det_trace_bound_holds(form, dec.negative_support, b)
            checked += 1
        assert checked > 100


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

    @pytest.mark.parametrize("value", ["abc", "-3", " "])
    def test_env_rejects_non_guards(self, monkeypatch, value):
        monkeypatch.setenv("BBF_FACTORIAL_GUARD", value)
        with pytest.raises(DomainError):
            factorial_guard()

    def test_negative_override_rejected(self):
        with pytest.raises(DomainError):
            denominator_bound(8, 2, guard=-1)
        assert factorial_guard(0) == 0

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

    def test_identity_with_denominator_bound(self):
        for n in range(1, 6):
            for card in range(1, 7):
                for rho in range(1, 5):
                    lhs = birationality_bound(n, card, rho)
                    base = denominator_bound(4 * card, rho)
                    prefactor = (n + 1) * (2 * n + 3)
                    if isinstance(base, int):
                        assert lhs == prefactor * base
                    else:
                        assert lhs == DeferredFactorial(base.factorial_of, prefactor)


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
        assert report.negativity_bound == 8
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
        assert report.negativity_bound == 12
        assert report.at_rho.denominator_bound == math.factorial(12) == 479001600

    def test_rho_out_of_range(self):
        with pytest.raises(DomainError):
            full_report(preset("K3n", 2), rho=0)
        with pytest.raises(DomainError):
            full_report(preset("K3n", 2), rho=22)

    def test_volume_positive(self):
        with pytest.raises(DomainError):
            full_report(preset("K3n", 2), rho=2, volume=0)
