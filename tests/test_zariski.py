from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zarlat import zariski
from zarlat.errors import (
    AxiomViolationError,
    DomainError,
    InconsistencyError,
    ShapeError,
)
from zarlat.linalg import Inertia, det, signature
from zarlat.zariski import (
    InstanceSpec,
    IntersectionForm,
    SplitMix64,
    decompose,
    decompose_bruteforce,
    decomposition_checks,
    exceptional_certificate,
    in_nef_region,
    intersection_axiom_violations,
    is_exceptional,
    random_instance,
    support_of,
)


def form_of(rows, labels=None):
    labels = labels or [f"E{i + 1}" for i in range(len(rows))]
    return IntersectionForm.from_rows(labels, rows)


def small_corpus(count=250, m_max=5, denominator_max=4, seed_base=1000):
    out = []
    for i in range(count):
        spec = InstanceSpec.standard(
            seed=seed_base + i, m=1 + i % m_max, denominator_max=denominator_max
        )
        out.append(random_instance(spec))
    return out


class TestAxiom:
    def test_ok(self):
        assert intersection_axiom_violations(form_of([[-2, 1], [1, -2]])) == ()

    def test_violation(self):
        assert intersection_axiom_violations(form_of([[2, -1], [-1, 2]])) == ((0, 1),)

    def test_diagonal_always_ok(self):
        assert intersection_axiom_violations(form_of([[-5, 0], [0, 7]])) == ()

    def test_asymmetric_rejected_at_construction(self):
        with pytest.raises(ShapeError):
            form_of([[1, 2], [3, 4]])

    def test_duplicate_labels_rejected_at_construction(self):
        with pytest.raises(DomainError, match="'E'"):
            form_of([[-2, 1, 0], [1, -2, 0], [0, 0, -2]], labels=["E", "F", "E"])


class TestExceptional:
    def test_single_negative(self):
        assert is_exceptional(form_of([[-2]]), [0])

    def test_a2_chain(self):
        assert is_exceptional(form_of([[-2, 1], [1, -2]]), [0, 1])

    def test_indefinite(self):
        assert not is_exceptional(form_of([[-1, 2], [2, -1]]), [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            is_exceptional(form_of([[-2]]), [])


class TestCertificate:
    def test_single(self):
        out = exceptional_certificate(form_of([[-2]]), [0])
        assert out.accepted and out.solution == (Fraction(1, 2),)

    def test_a2(self):
        out = exceptional_certificate(form_of([[-2, 1], [1, -2]]), [0, 1])
        assert out.accepted and out.solution == (Fraction(1), Fraction(1))

    def test_indefinite_refused(self):
        out = exceptional_certificate(form_of([[-1, 2], [2, -1]]), [0, 1])
        assert not out.accepted and out.failing_index == 0
        # the solver contract still holds: gram @ c == -1
        assert form_of([[-1, 2], [2, -1]]).gram.matvec(out.solution) == (
            Fraction(-1),
            Fraction(-1),
        )

    def test_duality_with_sylvester_and_inertia(self):
        # certificate positivity <=> negative definiteness <=> inertia (0, k, 0)
        rng = SplitMix64(7)
        agree = 0
        for _ in range(1000):
            k = rng.randint(1, 5)
            rows = [[0] * k for _ in range(k)]
            for i in range(k):
                rows[i][i] = rng.randint(-9, 9)
                for j in range(i + 1, k):
                    rows[i][j] = rows[j][i] = rng.randint(0, 9)
            form = form_of(rows)
            sylvester = is_exceptional(form, range(k))
            inertia = signature(form.gram) == Inertia(0, k, 0)
            try:
                positive = exceptional_certificate(form, range(k)).accepted
            except Exception:
                positive = False
            assert sylvester == inertia == positive, rows
            agree += 1
        assert agree == 1000


class TestMembership:
    def test_origin_always_member(self):
        assert in_nef_region(form_of([[-2]]), [1], [0])

    def test_positive_component(self):
        assert in_nef_region(form_of([[2]]), [1], [1])

    def test_negative_pairing_excluded(self):
        assert not in_nef_region(form_of([[-2]]), [1], ["1/2"])

    def test_bounds_respected(self):
        assert not in_nef_region(form_of([[2]]), [1], [2])
        assert not in_nef_region(form_of([[2]]), [1], [-1])


class TestDecompose:
    def test_nef_input(self):
        d = decompose(form_of([[2]]), [1])
        assert d.positive == (Fraction(1),) and d.negative == (Fraction(0),)
        assert d.rounds == 0 and d.negative_support == ()
        assert d.negative_gram_det == 1

    def test_fully_exceptional(self):
        d = decompose(form_of([[-2]]), [1])
        assert d.positive == (Fraction(0),) and d.negative == (Fraction(1),)

    def test_worked_example(self):
        form = form_of([[2, 1], [1, -2]])
        d = decompose(form, [1, 1])
        assert d.positive == (Fraction(1), Fraction(1, 2))
        assert d.negative == (Fraction(0), Fraction(1, 2))
        assert d.negative_gram_det == -2
        # q(P, D2) = 1*1 + 1/2*(-2) = 0 and q(P, N) = 0
        assert form.pairing(d.positive, [0, 1]) == 0
        assert form.pairing(d.positive, d.negative) == 0

    def test_axiom_rejected_up_front(self):
        with pytest.raises(AxiomViolationError):
            decompose(form_of([[2, -1], [-1, 2]]), [1, 1])

    def test_negative_divisor_rejected(self):
        with pytest.raises(DomainError):
            decompose(form_of([[2]]), [-1])

    def test_zero_components_pruned_and_restored(self):
        form = form_of([[-2, 0, 1], [0, 5, 0], [1, 0, -2]])
        d = decompose(form, [1, 0, 1])
        assert d.negative == (Fraction(1), Fraction(0), Fraction(1))
        assert d.positive == (Fraction(0), Fraction(0), Fraction(0))

    def test_isotropic_component_never_negative(self):
        # a component with zero self-pairing cannot enter the negative support
        form = form_of([[0, 1], [1, -2]])
        d = decompose(form, [1, 1])
        assert 0 not in d.negative_support


class TestOracle:
    def test_matches_single(self):
        form = form_of([[-2]])
        assert decompose_bruteforce(form, [1]).negative == decompose(form, [1]).negative

    def test_worked_example(self):
        d = decompose_bruteforce(form_of([[2, 1], [1, -2]]), [1, 1])
        assert d.positive == (Fraction(1), Fraction(1, 2))

    def test_exceptional_pair(self):
        d = decompose_bruteforce(form_of([[-2, 1], [1, -2]]), [1, 1])
        assert d.positive == (Fraction(0), Fraction(0))
        assert d.negative == (Fraction(1), Fraction(1))

    def test_limit(self):
        form = form_of([[2, 0], [0, 2]])
        with pytest.raises(DomainError):
            decompose_bruteforce(form, [1, 1], limit=1)


class TestGenerator:
    def test_determinism(self):
        spec = InstanceSpec.standard(seed=9, m=4)
        assert random_instance(spec) == random_instance(spec)

    def test_zero_offdiagonal_gives_diagonal_gram(self):
        spec = InstanceSpec(seed=3, m=4, offdiagonal_range=(0, 0))
        form, _ = random_instance(spec)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert form.gram[i, j] == 0

    def test_generated_instances_are_valid(self):
        form, divisor = random_instance(InstanceSpec.standard(seed=1, m=3))
        assert intersection_axiom_violations(form) == ()
        assert all(x >= 0 for x in divisor)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            InstanceSpec(seed=1, m=0)
        with pytest.raises(DomainError):
            InstanceSpec(seed=1, m=2, offdiagonal_range=(-1, 3))
        with pytest.raises(DomainError):
            InstanceSpec(seed=1, m=2, coefficient_range=(5, 2))


@pytest.fixture(scope="module")
def corpus():
    return small_corpus()


class TestEngineProperties:
    """Seeded-corpus properties; the full 1000-instance run lives in the
    acceptance suite."""

    def test_oracle_equivalence_and_invariants(self, corpus):
        for form, divisor in corpus:
            dec = decompose(form, divisor)
            oracle = decompose_bruteforce(form, divisor)
            assert (dec.positive, dec.negative) == (oracle.positive, oracle.negative)
            assert dec.negative_support == oracle.negative_support
            assert all(decomposition_checks(form, divisor, dec).values())
            assert dec.rounds <= len(support_of(divisor))

    def test_idempotence(self, corpus):
        for form, divisor in corpus[:120]:
            dec = decompose(form, divisor)
            again_p = decompose(form, dec.positive)
            assert again_p.positive == dec.positive
            assert all(x == 0 for x in again_p.negative)
            again_n = decompose(form, dec.negative)
            assert again_n.negative == dec.negative
            assert all(x == 0 for x in again_n.positive)

    def test_scaling_equivariance(self, corpus):
        factors = [Fraction(1, 3), Fraction(2), Fraction(7, 5)]
        for idx, (form, divisor) in enumerate(corpus[:120]):
            t = factors[idx % len(factors)]
            dec = decompose(form, divisor)
            scaled = decompose(form, [t * x for x in divisor])
            assert scaled.positive == tuple(t * x for x in dec.positive)
            assert scaled.negative == tuple(t * x for x in dec.negative)
            assert scaled.negative_support == dec.negative_support

    def test_maximality_and_lattice_closure(self, corpus):
        rng = SplitMix64(2024)
        for form, divisor in corpus[:120]:
            dec = decompose(form, divisor)
            members = [tuple(Fraction(0) for _ in divisor), dec.positive]
            # scaled-down copies of P are always members; random candidates
            # are kept only when they pass the membership test
            for _ in range(10):
                t = Fraction(rng.randint(0, 4), 4)
                members.append(tuple(t * x for x in dec.positive))
                candidate = tuple(
                    Fraction(rng.randint(0, 4 * x.numerator), 4 * x.denominator)
                    if x > 0
                    else Fraction(0)
                    for x in divisor
                )
                if in_nef_region(form, divisor, candidate):
                    members.append(candidate)
            for b in members:
                assert in_nef_region(form, divisor, b)
                assert all(p >= x for p, x in zip(dec.positive, b))
            for b1, b2 in zip(members, members[1:]):
                joined = tuple(max(x, y) for x, y in zip(b1, b2))
                assert in_nef_region(form, divisor, joined)

    def test_negative_combinations_pair_negatively(self, corpus):
        # on the negative support, every nonzero nonnegative combination has
        # negative square and pairs negatively with some component
        rng = SplitMix64(515)
        for form, divisor in corpus[:150]:
            dec = decompose(form, divisor)
            if not dec.negative_support:
                continue
            for _ in range(5):
                c = [Fraction(0)] * form.size
                while all(x == 0 for x in c):
                    for i in dec.negative_support:
                        c[i] = Fraction(rng.randint(0, 5))
                gc = form.gram.matvec(c)
                assert any(gc[j] < 0 for j in dec.negative_support)
                assert form.pairing(c, c) < 0

    def test_support_union(self, corpus):
        for form, divisor in corpus:
            dec = decompose(form, divisor)
            union = sorted(set(support_of(dec.positive)) | set(dec.negative_support))
            assert tuple(union) == support_of(divisor)

    def test_negative_support_size_in_hyperbolic_case(self):
        for seed in range(200):
            spec = InstanceSpec(seed=30_000 + seed, m=2 + seed % 4, denominator_max=3)
            form, divisor = random_instance(spec)
            if signature(form.gram) != Inertia(1, form.size - 1, 0):
                continue
            dec = decompose(form, divisor)
            assert len(dec.negative_support) <= form.size - 1


def laplace_det(rows):
    """Independent determinant by cofactor expansion over ``Fraction``."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * rows[0][j] * laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
        if rows[0][j] != 0
    )


def rational_gram_instance(seed, m):
    """A random instance whose Gram entries carry denominators up to 6:
    the engine then scales by their lcm before eliminating."""
    form, divisor = random_instance(InstanceSpec.standard(seed=seed, m=m))
    rng = SplitMix64(seed ^ 0x5CA1E)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = form.gram[i, j] / rng.randint(1, 6)
    return form_of(rows), divisor


class TestRationalGram:
    """Engine against oracle on non-integral Gram matrices."""

    def assert_agree(self, form, divisor):
        dec = decompose(form, divisor)
        oracle = decompose_bruteforce(form, divisor)
        assert (dec.positive, dec.negative) == (oracle.positive, oracle.negative)
        assert dec.negative_support == oracle.negative_support
        sub = [[form.gram[i, j] for j in dec.negative_support] for i in dec.negative_support]
        assert dec.negative_gram_det == oracle.negative_gram_det == laplace_det(sub)
        assert all(decomposition_checks(form, divisor, dec).values())

    def test_seeded_corpus(self):
        for seed in range(300):
            form, divisor = rational_gram_instance(seed, 1 + seed % 5)
            self.assert_agree(form, divisor)

    def test_half_integral_pair(self):
        form = form_of([["-1/2", "1/3"], ["1/3", "-1/2"]])
        dec = decompose(form, [1, 1])
        assert dec.negative == (Fraction(1), Fraction(1))
        assert dec.negative_gram_det == Fraction(5, 36)
        self.assert_agree(form, [1, 1])

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda m: st.tuples(
                st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
                         min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2),
                st.lists(st.builds(Fraction, st.integers(0, 9), st.integers(1, 4)),
                         min_size=m, max_size=m),
            )
        )
    )
    def test_hypothesis(self, drawn):
        upper, divisor = drawn
        m = len(divisor)
        values = iter(upper)
        rows = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                value = next(values)
                rows[i][j] = rows[j][i] = value if i == j else abs(value)
        self.assert_agree(form_of(rows), divisor)


def growth_instances():
    """Instances shaped like the benchmark's ``support-growth`` deck: large
    negative-heavy and mixed forms whose negative support grows over rounds."""
    for m in (12, 24, 36, 48):
        for seed in range(m * 100, m * 100 + 3):
            for diagonal, offdiagonal in (((-3 * m, -2 * m), (0, 2)), ((-30, 4), (0, 1))):
                yield random_instance(InstanceSpec(
                    seed=seed, m=m, diagonal_range=diagonal, offdiagonal_range=offdiagonal,
                    coefficient_range=(1, 9),
                ))


class TestSupportInvariant:
    """Every coefficient the engine solves for is strictly positive, so the
    last working support is the support of N and its determinant is det Gram_S."""

    def assert_invariant(self, form, divisor):
        dec = decompose(form, divisor)
        assert dec.negative_support == support_of(dec.negative)
        assert all(0 < dec.negative[j] <= divisor[j] for j in dec.negative_support)
        assert dec.negative_gram_det == det(form.gram.submatrix(dec.negative_support))
        return dec

    def test_corpus(self, corpus_1000):
        for form, divisor in corpus_1000:
            self.assert_invariant(form, divisor)

    def test_growth_shaped(self):
        rounds = [self.assert_invariant(form, divisor).rounds for form, divisor in growth_instances()]
        assert max(rounds) >= 2  # later rounds, which add to the support, are exercised

    def test_zero_solved_coefficient_raises(self, monkeypatch):
        real_pass = zariski.sylvester_pass

        def zeroing_pass(rows):
            d, y = real_pass(rows)
            return d, [0] + y[1:]

        monkeypatch.setattr(zariski, "sylvester_pass", zeroing_pass)
        with pytest.raises(InconsistencyError, match=r"falls outside \(0, 1\]"):
            decompose(form_of([[-2, 1], [1, -3]]), [1, 1])
