import copy
import hashlib
import pickle
import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from zarlat import linalg, zariski
from zarlat.errors import (
    AxiomViolationError,
    DomainError,
    InconsistencyError,
    OracleMismatchError,
    ShapeError,
    SingularMatrixError,
    ZarlatError,
)
from zarlat.bounds import BigInt, CramerAnalysis, cramer_analysis
from zarlat.lattice import dual_curve_integrality, hyperbolic_plane
from zarlat.linalg import Inertia, RationalMatrix, as_rational, det, signature, solve
from zarlat.zariski import (
    Decomposition,
    InstanceSpec,
    IntersectionForm,
    SplitMix64,
    as_divisor,
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

import reference
from conftest import (build_corpus, form_of, rational_gram_corpus, reader_callers, seeded_gram,
                      witness_verdict)


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

    def test_constructor_checks_symmetry_and_label_count(self):
        # A directly built form runs the checks that from_rows reaches only
        # after RationalMatrix.symmetric has refused an asymmetric matrix.
        with pytest.raises(ShapeError, match="^intersection form needs a symmetric Gram matrix$"):
            IntersectionForm(labels=("A", "B"), gram=RationalMatrix([[-2, 1], [0, -2]]))
        with pytest.raises(ShapeError, match="^3 labels for a 2x2 Gram matrix$"):
            IntersectionForm(labels=("A", "B", "C"),
                             gram=RationalMatrix.symmetric([[-2, 1], [1, -2]]))

    def test_duplicate_labels_rejected_at_construction(self):
        with pytest.raises(DomainError, match="'E'"):
            form_of([[-2, 1, 0], [1, -2, 0], [0, 0, -2]], labels=["E", "F", "E"])

    @pytest.mark.parametrize("labels", ["AB", b"AB", {"A": 0, "B": 1}, {"A", "B"}],
                             ids=lambda v: type(v).__name__)
    def test_labels_not_read_element_by_element(self, labels):
        # A label string is not split into labels by from_rows, nor kept as
        # the labels by the constructor.
        rows = [[-2, 1], [1, -2]]
        message = f"^cannot interpret {type(labels).__name__} as component labels$"
        with pytest.raises(DomainError, match=message):
            IntersectionForm.from_rows(labels, rows)
        with pytest.raises(DomainError, match=message):
            IntersectionForm(labels=labels, gram=RationalMatrix.symmetric(rows))
        assert IntersectionForm.from_rows(("A", "B"), rows).labels == ("A", "B")
        assert IntersectionForm.from_rows(iter(["A", "B"]), rows).labels == ("A", "B")

    def test_list_labels_stored_as_tuple(self):
        # The constructor stores the labels as a tuple, as from_rows does, so
        # the two forms on one Gram matrix compare and hash equal.
        rows = [[-2, 1], [1, -2]]
        built = IntersectionForm(labels=["A", "B"], gram=RationalMatrix.symmetric(rows))
        read = IntersectionForm.from_rows(["A", "B"], rows)
        assert built.labels == ("A", "B")
        assert built == read and hash(built) == hash(read)
        with pytest.raises(DomainError, match="^cannot interpret str as component labels$"):
            IntersectionForm(labels="AB", gram=RationalMatrix.symmetric(rows))

    def test_replace_runs_the_checks(self):
        # _replace builds through _make, which must not skip the constructor.
        form = IntersectionForm.from_rows(["A", "B"], [[-2, 1], [1, -2]])
        with pytest.raises(DomainError, match="^component label 'A' is repeated$"):
            form._replace(labels=("A", "A"))
        with pytest.raises(ShapeError, match="^1 labels for a 2x2 Gram matrix$"):
            IntersectionForm._make((("A",), form.gram))
        assert form._replace(labels=["C", "D"]).labels == ("C", "D")
        with pytest.raises(AttributeError):
            form.labels = ("C", "D")
        with pytest.raises(AttributeError):
            form.note = "records take no new attributes"


class TestPairing:
    @pytest.mark.parametrize("u, v", [([1, 1], [1]), ([1, 1], [1, 1, 1]), ([1], [1, 1]),
                                      ([1, 1, 1], [1, 1]), ([], [])])
    def test_lengths_must_match_the_form(self, u, v):
        # v used to be truncated or padded silently: (1, 1) . (1) read -1.
        with pytest.raises(ShapeError):
            form_of([[-2, 1], [1, -2]]).pairing(u, v)

    def test_matches_fraction_reference(self):
        for seed, (form, divisor) in enumerate(rational_gram_corpus(100, m_max=5)):
            m = form.size
            rng = SplitMix64(seed)
            other = [f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}" for _ in range(m)]
            expected = sum((as_divisor(divisor, m)[i] * form.gram[i, j] * reference.rationals(other)[j]
                            for i in range(m) for j in range(m)), Fraction(0))
            got = form.pairing(divisor, other)
            assert got == expected and type(got) is Fraction, seed
            assert form.pairing(other, divisor) == expected, seed


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
        assert not out.accepted
        # the solver contract still holds: gram @ c == -1
        assert form_of([[-1, 2], [2, -1]]).gram.matvec(out.solution) == (
            Fraction(-1),
            Fraction(-1),
        )

    def test_duality_with_sylvester_and_inertia(self):
        # certificate positivity <=> negative definiteness <=> inertia (0, k, 0)
        # <=> the witness check accepts the pass's (-1, ..., -1) column
        rng = SplitMix64(7)
        agree = 0
        for _ in range(1000):
            rows = seeded_gram(rng, (-9, 9), (0, 9))
            k = len(rows)
            form = form_of(rows)
            sylvester = is_exceptional(form, range(k))
            inertia = signature(form.gram) == Inertia(0, k, 0)
            try:
                positive = exceptional_certificate(form, range(k)).accepted
            except Exception:
                positive = False
            assert sylvester == inertia == positive == witness_verdict(form), rows
            agree += 1
        assert agree == 1000

    def test_sound_off_the_axiom(self):
        # With negative pairings allowed, a positive solution of Gram x = -1
        # proves nothing; acceptance must still imply negative definiteness,
        # and holds exactly when the matrix is negative definite with every
        # off-diagonal entry nonnegative (else no M-matrix certificate exists).
        rng = SplitMix64(0x5016D)
        positive_refused = 0
        for _ in range(2000):
            rows = seeded_gram(rng, (-9, 9), (-4, 9))
            k = len(rows)
            form = form_of(rows)
            definite = signature(form.gram) == Inertia(0, k, 0)
            try:
                out = exceptional_certificate(form, range(k))
            except SingularMatrixError:
                assert det(rows) == 0
                continue
            sign_pattern = all(rows[i][j] >= 0 for i in range(k) for j in range(k) if i != j)
            if out.accepted:
                assert definite, rows
            assert out.accepted == (definite and sign_pattern), rows
            positive_refused += all(x > 0 for x in out.solution) and not out.accepted
        assert positive_refused > 20

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda k: st.tuples(
                st.lists(st.integers(0, 3), min_size=k * (k - 1) // 2, max_size=k * (k - 1) // 2),
                st.lists(st.integers(-2, 2), min_size=k, max_size=k),
            )
        )
    )
    def test_four_way_on_laplacian_shifts(self, drawn):
        # Gram = -(L + diag(e)) for the Laplacian L of a weighted graph: singular
        # for e = 0, definite or indefinite as the shifts e vary.
        weights, shifts = drawn
        k = len(shifts)
        rows = [[0] * k for _ in range(k)]
        edges = iter(weights)
        for i in range(k):
            for j in range(i + 1, k):
                rows[i][j] = rows[j][i] = next(edges)
        for i in range(k):
            rows[i][i] = -sum(rows[i]) - shifts[i]
        form = form_of(rows)
        inertia = signature(form.gram) == Inertia(0, k, 0)
        try:
            positive = exceptional_certificate(form, range(k)).accepted
        except SingularMatrixError:
            positive = False
        assert is_exceptional(form, range(k)) == inertia == positive == witness_verdict(form)


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

    def test_nonzero_outside_support(self):
        form = form_of([[2, 0], [0, 2]])
        assert in_nef_region(form, [1, 0], [1, 0])
        assert not in_nef_region(form, [1, 0], [1, Fraction(1, 10**40)])

    def test_entry_equal_to_divisor_accepted(self):
        form = form_of([[2, 1], [1, -2]])  # P = (1, 1/2) of D = (1, 1)
        assert in_nef_region(form, [1, 1], [1, Fraction(1, 2)])
        assert in_nef_region(form_of([[2]]), [Fraction(3, 7)], [Fraction(3, 7)])

    def test_entry_just_above_divisor(self):
        big = 10**40 + 1
        form = form_of([[2]])
        assert not in_nef_region(form, [Fraction(3, 7)], [Fraction(3, 7) + Fraction(1, big)])
        assert in_nef_region(form, [Fraction(3, 7)], [Fraction(3, 7) - Fraction(1, big)])

    def test_negative_entry(self):
        # -b pairs positively with a (-2)-curve; the sign alone excludes it
        form = form_of([[-2]])
        assert not in_nef_region(form, [1], [Fraction(-1, 10**40)])
        assert not in_nef_region(form_of([[2, 0], [0, 2]]), [1, 1], [1, -1])

    def test_pairing_outside_support_not_asked(self):
        # Only j in supp(a) is tested.  Under the axiom no other j can pair
        # negatively with b; this form breaks it, so the restriction shows.
        form = form_of([[2, -1], [-1, 2]])
        assert in_nef_region(form, [1, 0], [1, 0])
        assert not in_nef_region(form, [1, 1], [1, 0])

    def test_zero_candidate(self):
        form = form_of([[-2, 1, 0], [1, -3, 2], [0, 2, -1]])
        assert in_nef_region(form, [1, "2/3", 0], [0, 0, 0])
        assert in_nef_region(form, [0, 0, 0], [0, 0, 0])

    def test_coprime_denominators(self):
        # a = (1/7, 2/9) and b with denominators 8, 11, 13 sharing no factor
        form = form_of([[3, 1], [1, -5]])
        a = [Fraction(1, 7), Fraction(2, 9)]
        assert in_nef_region(form, a, [Fraction(1, 8), Fraction(1, 55)])
        assert not in_nef_region(form, a, [Fraction(1, 8), Fraction(1, 11)])  # -5/11 + 1/8 < 0
        assert not in_nef_region(form, a, [Fraction(2, 13), 0])  # 2/13 > 1/7
        for b in ([Fraction(1, 8), Fraction(1, 55)], [Fraction(1, 8), Fraction(1, 11)],
                  [Fraction(2, 13), 0], [Fraction(1, 7), Fraction(1, 39)]):
            assert in_nef_region(form, a, b) == reference.in_nef_region(form, a, b)

    def test_messages(self):
        form = form_of([[2, 0], [0, 2]])
        with pytest.raises(ShapeError, match=r"^candidate has 1 coefficients, form has 2$"):
            in_nef_region(form, [1, 1], [0])
        with pytest.raises(DomainError, match=r"^float 0\.5 rejected; use int, Fraction or 'p/q' string$"):
            in_nef_region(form, [1, 1], [0.5, 0])
        with pytest.raises(DomainError, match=r"^boolean True is not a rational number$"):
            in_nef_region(form, [1, 1], [True, 0])
        with pytest.raises(DomainError, match=r"^'1\.5' is not an exact rational; expected an integer or a 'p/q' string$"):
            in_nef_region(form, [1, 1], ["1.5", 0])
        with pytest.raises(DomainError, match=r"^effective divisor needs nonnegative coefficients; entry 1 is -1/3$"):
            in_nef_region(form, [1, "-1/3"], [0, 0])


class TestDecompose:
    def test_nef_input(self):
        d = decompose(form_of([[2]]), [1])
        assert d.positive == (Fraction(1),) and d.negative == (Fraction(0),)
        assert d.rounds == 0 and d.negative_support == () and d.joined == ()
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

    def test_orthogonality_refuses_a_wrong_solution(self, monkeypatch):
        # With every solution doubled, N = (0, 1) on {E2} stays in range and
        # leaves P = (1, 0) nef, pairing (2, 1); only q(P, N) = 1 refuses it.
        real = zariski.back_substitute

        def doubled(rows, d, col):
            y = real(rows, d, col)
            return [2 * v for v in y] if col == len(rows) else y  # the r_S column

        monkeypatch.setattr(zariski, "back_substitute", doubled)
        with pytest.raises(OracleMismatchError, match="found 0 distinct"):
            decompose_bruteforce(form_of([[2, 1], [1, -2]]), [1, 1])

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

    def test_generator_reads_integers(self):
        # The seed and both randint bounds follow the one integer grammar: a
        # bool, a float or a fractional value is refused instead of seeding 1
        # or giving a float draw, and an integral spelling means its int.
        rng, spelled = SplitMix64(7), SplitMix64("7")
        assert [spelled.randint("-3", Fraction(6, 2)) for _ in range(5)] == [
            rng.randint(-3, 3) for _ in range(5)]
        assert type(SplitMix64(1).randint(BigInt(1), 3)) is int
        for call in (lambda: SplitMix64(True), lambda: SplitMix64(1.5), lambda: SplitMix64("7.0"),
                     lambda: SplitMix64(1).randint(1.5, 3), lambda: SplitMix64(1).randint(1, 3.0),
                     lambda: SplitMix64(1).randint(False, 3)):
            with pytest.raises(DomainError):
                call()
        with pytest.raises(DomainError, match=r"^empty range \[3, 1\]$"):
            SplitMix64(1).randint("3", 1)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            InstanceSpec(seed=1, m=0)
        with pytest.raises(DomainError):
            InstanceSpec(seed=1, m=2, offdiagonal_range=(-1, 3))
        with pytest.raises(DomainError):
            InstanceSpec(seed=1, m=2, coefficient_range=(5, 2))
        for bad in ((0,), (0, 1, 2), 9, "09"):
            with pytest.raises(DomainError, match=rf"^offdiagonal_range needs a pair of integers, "
                                                  rf"got {re.escape(repr(bad))}$"):
                InstanceSpec(seed=1, m=2, offdiagonal_range=bad)

    def test_spec_replace_runs_the_checks(self):
        spec = InstanceSpec.standard(seed=1, m=3)
        with pytest.raises(DomainError, match="^need at least one component, got m=0$"):
            spec._replace(m=0)
        with pytest.raises(DomainError, match="^denominator_max must be at least 1$"):
            InstanceSpec._make((1, 3, (0, 9), (-9, 9), (0, 9), 0))
        assert spec._replace(m=4) == InstanceSpec.standard(seed=1, m=4)
        with pytest.raises(AttributeError):
            spec.note = "records take no new attributes"

    @pytest.mark.parametrize("fields, message", [
        ({"coefficient_range": (-1, 3)},
         "coefficient numerators must be nonnegative (effective divisor)"),
        ({"denominator_max": 0}, "denominator_max must be at least 1"),
    ])
    def test_spec_keeps_divisors_effective(self, fields, message):
        with pytest.raises(DomainError) as info:
            InstanceSpec(seed=1, m=2, **fields)
        assert str(info.value) == message

    def test_empty_draw_range_rejected(self):
        with pytest.raises(DomainError, match=r"^empty range \[3, 2\]$"):
            SplitMix64(0).randint(3, 2)


class TestEngineProperties:
    """Seeded-corpus properties; the full 1000-instance run lives in the
    acceptance suite."""

    def test_oracle_equivalence_and_invariants(self, corpus_250):
        for form, divisor in corpus_250:
            dec = decompose(form, divisor)
            oracle = decompose_bruteforce(form, divisor)
            assert (dec.positive, dec.negative) == (oracle.positive, oracle.negative)
            assert dec.negative_support == oracle.negative_support
            assert all(decomposition_checks(form, divisor, dec).values())
            assert all(decomposition_checks(form, divisor, oracle).values())
            assert oracle.witness == dec.witness  # both primitive along (-Gram_S)^-1 (1, ..., 1)
            assert dec.rounds <= len(support_of(divisor))

    def test_idempotence(self, corpus_250):
        for form, divisor in corpus_250[:120]:
            dec = decompose(form, divisor)
            again_p = decompose(form, dec.positive)
            assert again_p.positive == dec.positive
            assert all(x == 0 for x in again_p.negative)
            again_n = decompose(form, dec.negative)
            assert again_n.negative == dec.negative
            assert all(x == 0 for x in again_n.positive)

    def test_scaling_equivariance(self, corpus_250):
        factors = [Fraction(1, 3), Fraction(2), Fraction(7, 5)]
        for idx, (form, divisor) in enumerate(corpus_250[:120]):
            t = factors[idx % len(factors)]
            dec = decompose(form, divisor)
            scaled = decompose(form, [t * x for x in divisor])
            assert scaled.positive == tuple(t * x for x in dec.positive)
            assert scaled.negative == tuple(t * x for x in dec.negative)
            assert scaled.negative_support == dec.negative_support

    def test_maximality_and_lattice_closure(self, corpus_250):
        rng = SplitMix64(2024)
        for form, divisor in corpus_250[:120]:
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

    def test_negative_combinations_pair_negatively(self, corpus_250):
        # on the negative support, every nonzero nonnegative combination has
        # negative square and pairs negatively with some component
        rng = SplitMix64(515)
        for form, divisor in corpus_250[:150]:
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

    def test_support_union(self, corpus_250):
        for form, divisor in corpus_250:
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


class TestWitnessCheck:
    """``negative_exceptional`` is decided by the witness alone, soundly."""

    def verdict(self, form, divisor, dec):
        return decomposition_checks(form, divisor, dec)["negative_exceptional"]

    def test_forged_witnesses_fail(self, corpus_250):
        forged = 0
        for form, divisor in corpus_250:
            dec = decompose(form, divisor)
            y = dec.witness
            if not y:
                assert dec.negative_support == ()
                continue
            assert self.verdict(form, divisor, dec)
            for bad in ((-y[0],) + y[1:], y[:-1] + (0,), y + (1,), y[1:], ()):
                assert not self.verdict(form, divisor, dec._replace(witness=bad))
            forged += 1
        assert forged > 50

    @pytest.mark.parametrize("rows", [
        [[-1, -2], [-2, -1]],  # indefinite, yet Gram y == (-3, -3) < 0: the sign pattern decides
        [[-1, 1], [1, -1]],  # singular: y spans the kernel, and Gram y == 0 is not < 0
    ])
    def test_all_ones_witness_refused(self, rows):
        ones = (Fraction(1),) * 2
        dec = Decomposition(positive=(Fraction(0),) * 2, negative=ones, negative_support=(0, 1),
                            rounds=1, negative_gram_det=det(rows), witness=(1, 1))
        assert not self.verdict(form_of(rows), ones, dec)
        # exceptional_certificate runs the same verifier on its own solution
        try:
            assert not exceptional_certificate(form_of(rows), [0, 1]).accepted
        except SingularMatrixError:
            assert det(rows) == 0

    def test_checks_run_no_elimination(self, corpus_250, monkeypatch):
        decs = [(form, divisor, decompose(form, divisor)) for form, divisor in corpus_250]

        def raising(*args, **kwargs):
            raise AssertionError("decomposition_checks ran an elimination")

        for module, name in ((linalg, "BorderedElimination"), (zariski, "BorderedElimination"),
                             (zariski, "is_exceptional")):
            monkeypatch.setattr(module, name, raising)
        for form, divisor, dec in decs:
            assert all(decomposition_checks(form, divisor, dec).values())


def certificate_witness(form, support):
    """The primitive integer vector along the certificate solution of
    ``Gram_S x = -1``, or ``None`` when the certificate refuses ``support``."""
    try:
        outcome = exceptional_certificate(form, support)
    except SingularMatrixError:
        return None
    if not outcome.accepted:
        return None
    scale = lcm(*(x.denominator for x in outcome.solution))
    w = [int(x * scale) for x in outcome.solution]
    g = gcd(*w)
    return tuple(v // g for v in w)


# Nonzero coefficients of the grid candidates, some negative.
_GRID = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
_NUDGES = (Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 3), Fraction(1, 2))


def candidate_splits(form, divisor, engine):
    """Splits ``D = P + N`` to put to :func:`decomposition_checks`, each with
    the certificate witness of its recorded support: the engine's result,
    ``N`` with coefficients from ``_GRID`` on every negative definite support
    (the empty one too), and the engine's ``N`` with one coefficient nudged,
    one component dropped from the support or one added to it."""
    m = form.size
    a = tuple(map(Fraction, divisor))

    def split(n, support, witness):
        return engine._replace(positive=tuple(x - z for x, z in zip(a, n)), negative=tuple(n),
                               negative_support=tuple(support), witness=witness)

    out = [engine]
    for size in range(m + 1):
        for support in combinations(range(m), size):
            witness = certificate_witness(form, support) if support else ()
            if witness is None:
                continue
            for values in product(_GRID, repeat=size):
                n = [Fraction(0)] * m
                for j, v in zip(support, values):
                    n[j] = v
                out.append(split(n, support, witness))
    n, support = list(engine.negative), engine.negative_support
    for j in support:
        for delta in _NUDGES:
            nudged = n[:]
            nudged[j] += delta
            out.append(split(nudged, support, engine.witness))
        dropped = tuple(i for i in support if i != j)
        out.append(split([Fraction(0) if i == j else x for i, x in enumerate(n)], dropped,
                         certificate_witness(form, dropped) if dropped else ()))
    for j in range(m):
        if j in support:
            continue
        grown = tuple(sorted(support + (j,)))
        witness = certificate_witness(form, grown)
        if witness is None:
            k = grown.index(j)
            witness = engine.witness[:k] + (1,) + engine.witness[k:]
        for value in sorted({Fraction(1, 2), a[j]} - {0}):
            out.append(split([value if i == j else x for i, x in enumerate(n)], grown, witness))
    return out


class TestChecksCompleteness:
    """With ``N > 0`` on the recorded support, the five checks characterize
    the decomposition: they accept exactly one split of ``D``."""

    def test_negative_coefficient_refused(self):
        form = IntersectionForm.from_rows(["A", "B", "C"], [[1, 1, 2], [1, 2, 1], [2, 1, -2]])
        dec = decompose(form, (1, 3, 2))
        assert dec.negative_support == ()  # D is nef
        bogus = dec._replace(positive=(1, 3, Fraction(5, 2)), negative=(0, 0, Fraction(-1, 2)),
                             negative_support=(2,), witness=(1,))
        expected = {"parts_sum": True, "positive_nef": True, "negative_exceptional": False,
                    "orthogonal": True, "support_union": True}
        assert decomposition_checks(form, (1, 3, 2), bogus) == expected
        assert reference.decomposition_checks(form, (1, 3, 2), bogus) == expected

    def test_only_the_engine_result_passes(self):
        # 300 forms, m = 1, 2, 3 in turn, with mostly negative diagonals:
        # 108 nef divisors, 192 not, and 13553 candidate splits.
        def key(dec):
            return dec.positive, dec.negative, dec.negative_support, dec.witness

        nef = candidates = 0
        for seed in range(300):
            spec = InstanceSpec(seed=70_000 + seed, m=1 + seed % 3, coefficient_range=(0, 4),
                                diagonal_range=(-6, 3), offdiagonal_range=(0, 2), denominator_max=2)
            form, divisor = random_instance(spec)
            engine = decompose(form, divisor)
            nef += not engine.negative_support
            splits = candidate_splits(form, divisor, engine)
            accepted = {key(dec) for dec in splits if all(decomposition_checks(form, divisor, dec).values())}
            assert accepted == {key(engine)}, seed
            candidates += len(splits)
        assert (nef, candidates) == (108, 13553)


class TestOracleIndependence:
    """The oracle's pruning rule, its independence from the engine's
    elimination, and the integer rows it shares with the engine: those the
    Gram matrix stores when it is built."""

    def test_pruning_rule(self, corpus_1000, monkeypatch):
        # A subset is negative definite exactly when every subset one element
        # smaller is and its determinant is nonzero with the sign of
        # (-1)^|S|; the reference verdicts are the engine's bordered
        # elimination, which the oracle does not run, and the inertia
        # (0, |S|, 0).  The oracle calls bareiss_det on exactly the subsets
        # passing the first half, and back-substitutes y for each definite
        # one and the witness once.
        checked = candidates = definite_count = 0
        for form, divisor in corpus_1000:
            support = support_of(divisor)
            definite = {(): True}
            for size in range(1, len(support) + 1):
                for subset in combinations(support, size):
                    sub = form.gram.submatrix(subset)
                    definite[subset] = linalg.is_negative_definite(sub)
                    hereditary = all(definite[subset[:i] + subset[i + 1 :]] for i in range(size))
                    d = det(sub)
                    rule = hereditary and d != 0 and (d < 0) == (size % 2 == 1)
                    inertia = signature(sub) == Inertia(0, size, 0)
                    assert definite[subset] == inertia == rule, (form.gram, subset)
                    checked += 1
                    candidates += hereditary
                    definite_count += rule
        assert checked > 10_000 and candidates < checked / 2
        calls, solves = [], []
        real_det, real_solve = zariski.bareiss_det, zariski.back_substitute
        monkeypatch.setattr(zariski, "bareiss_det", lambda rows: calls.append(rows) or real_det(rows))
        monkeypatch.setattr(zariski, "back_substitute",
                            lambda rows, d, col: solves.append(col) or real_solve(rows, d, col))
        for form, divisor in corpus_1000:
            decompose_bruteforce(form, divisor)
        assert len(calls) == candidates
        assert len(solves) == definite_count + len(corpus_1000)

    def test_runs_without_engine_pass(self, corpus_1000, monkeypatch):
        # Neither the engine's pass nor the submatrix, inertia, solve and det
        # routines the oracle once used: one bareiss_det per subset is all.
        expected = [(decompose(form, divisor), decompose_bruteforce(form, divisor))
                    for form, divisor in corpus_1000]

        def raising(*args, **kwargs):
            raise AssertionError("the oracle ran a routine it must not need")

        for module in (linalg, zariski):
            for name in ("BorderedElimination", "signature", "solve", "det", "bareiss_solve"):
                monkeypatch.setattr(module, name, raising, raising=False)
        monkeypatch.setattr(linalg.RationalMatrix, "submatrix", raising)
        for (form, divisor), (dec, before) in zip(corpus_1000, expected):
            oracle = decompose_bruteforce(form, divisor)
            assert oracle == before
            assert (oracle.positive, oracle.negative) == (dec.positive, dec.negative)
            assert oracle.joined == ()

    def test_one_split_per_call(self, corpus_1000, monkeypatch):
        # Each call builds P and N once: the oracle after its scan, from the
        # one support it kept, and the engine after its last round, from an
        # empty working support when D is nef.
        splits = []
        real_split = zariski._split
        monkeypatch.setattr(zariski, "_split", lambda *args: splits.append(args) or real_split(*args))
        for form, divisor in corpus_1000:
            for function in (decompose, decompose_bruteforce):
                splits.clear()
                function(form, divisor)
                assert len(splits) == 1, (function.__name__, form.gram, divisor)

    def test_stored_rows_not_aliased(self, corpus_250):
        for form, divisor in corpus_250[:100]:
            dec = decompose(form, divisor)
            gd = form.gram.matvec(divisor)
            rows, _ = form.gram.scaled_rows
            assert type(rows) is tuple and all(type(row) is tuple for row in rows)
            _, fresh, _ = zariski.support_rows(form, range(form.size))
            linalg.BorderedElimination().extend(fresh)
            _, fresh, _ = zariski.support_rows(form, range(form.size))
            for row in fresh:
                row[:] = [7] * len(row)
            assert decompose(form, divisor) == dec
            assert form.gram.matvec(divisor) == gd


def drawn_forms(*extra):
    """``(rows, divisor, ...)``: rational Gram rows on 1-5 components, drawn
    as the upper triangle row by row with the off-diagonal entries made
    nonnegative, a divisor, then one draw of each ``extra(m)``."""
    def symmetric(upper, m):
        values = iter(upper)
        rows = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                value = next(values)
                rows[i][j] = rows[j][i] = value if i == j else abs(value)
        return rows

    return st.integers(1, 5).flatmap(lambda m: st.tuples(
        st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
                 min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2),
        st.lists(st.builds(Fraction, st.integers(0, 9), st.integers(1, 4)), min_size=m, max_size=m),
        *(strategy(m) for strategy in extra),
    )).map(lambda drawn: (symmetric(drawn[0], len(drawn[1])), *drawn[1:]))


class TestRationalGram:
    """Engine against oracle on non-integral Gram matrices."""

    def assert_agree(self, form, divisor):
        dec = decompose(form, divisor)
        oracle = decompose_bruteforce(form, divisor)
        assert (dec.positive, dec.negative) == (oracle.positive, oracle.negative)
        assert dec.negative_support == oracle.negative_support
        assert dec.witness == oracle.witness  # primitive, whatever the denominators
        sub = [[form.gram[i, j] for j in dec.negative_support] for i in dec.negative_support]
        assert dec.negative_gram_det == oracle.negative_gram_det == reference.cofactor_det(sub)
        assert all(decomposition_checks(form, divisor, dec).values())

    def test_seeded_corpus(self):
        for form, divisor in rational_gram_corpus(300, m_max=5):
            self.assert_agree(form, divisor)

    def test_half_integral_pair(self):
        form = form_of([["-1/2", "1/3"], ["1/3", "-1/2"]])
        dec = decompose(form, [1, 1])
        assert dec.negative == (Fraction(1), Fraction(1))
        assert dec.negative_gram_det == Fraction(5, 36)
        self.assert_agree(form, [1, 1])

    @settings(max_examples=150, deadline=None)
    @given(drawn_forms())
    def test_hypothesis(self, drawn):
        rows, divisor = drawn
        self.assert_agree(form_of(rows), divisor)


class TestSupportInvariant:
    """Every coefficient the engine solves for is strictly positive, so the
    last working support is the support of N and its determinant is det Gram_S."""

    def assert_invariant(self, form, divisor):
        dec = decompose(form, divisor)
        assert dec.negative_support == support_of(dec.negative)
        # Each round's joined components are new, and together they are supp(N).
        assert dec.rounds == len(dec.joined)
        assert sorted(j for block in dec.joined for j in block) == list(dec.negative_support)
        assert all(0 < dec.negative[j] <= divisor[j] for j in dec.negative_support)
        assert dec.negative_gram_det == det(form.gram.submatrix(dec.negative_support))
        assert all(decomposition_checks(form, divisor, dec).values())
        return dec

    def test_corpus(self, corpus_1000):
        for form, divisor in corpus_1000:
            self.assert_invariant(form, divisor)

    def test_growth_shaped(self, growth_instances):
        rounds = [self.assert_invariant(form, divisor).rounds for form, divisor in growth_instances]
        assert max(rounds) >= 2  # later rounds, which add to the support, are exercised

    def test_zero_solved_coefficient_raises(self, monkeypatch):
        real_solution = zariski.BorderedElimination.solution

        def zeroing_solution(elimination, column):
            y = real_solution(elimination, column)
            return [0] + y[1:] if column == 0 else y

        monkeypatch.setattr(zariski.BorderedElimination, "solution", zeroing_solution)
        with pytest.raises(InconsistencyError, match=r"falls outside \(0, 1\]"):
            decompose(form_of([[-2, 1], [1, -3]]), [1, 1])


def relabelled(form, divisor, order):
    """The instance with its components in ``order``: component ``k`` of the
    result is component ``order[k]`` of ``form``."""
    gram = form.gram
    rows = [[gram[i, j] for j in order] for i in order]
    return (IntersectionForm.from_rows([form.labels[i] for i in order], rows),
            [divisor[i] for i in order])


def orthogonal_sum(first, second):
    """The two instances side by side: the Gram matrices block-diagonally,
    the divisors concatenated, the labels kept apart by a prefix."""
    (form_a, a), (form_b, b) = first, second
    m, k = form_a.size, form_b.size
    rows = ([list(row) + [0] * k for row in form_a.gram.entries]
            + [[0] * m + list(row) for row in form_b.gram.entries])
    labels = [f"a{label}" for label in form_a.labels] + [f"b{label}" for label in form_b.labels]
    return IntersectionForm.from_rows(labels, rows), list(a) + list(b)


class TestMetamorphic:
    """Relations between decompositions where the oracle does not reach:
    the benchmark's negative-heavy and mixed families at m up to 48."""

    def test_relabelling_permutes_the_result(self, growth_instances):
        rng = SplitMix64(0x5E1AB)
        for form, divisor in growth_instances:
            order = list(range(form.size))
            for i in range(len(order) - 1, 0, -1):  # Fisher-Yates
                j = rng.randint(0, i)
                order[i], order[j] = order[j], order[i]
            place = {old: new for new, old in enumerate(order)}
            dec = decompose(form, divisor)
            got = decompose(*relabelled(form, divisor, order))
            assert got.positive == tuple(dec.positive[i] for i in order)
            assert got.negative == tuple(dec.negative[i] for i in order)
            assert got.negative_support == tuple(sorted(place[i] for i in dec.negative_support))
            assert dict(zip(got.negative_support, got.witness)) == {
                place[i]: w for i, w in zip(dec.negative_support, dec.witness)}
            assert (got.negative_gram_det, got.rounds) == (dec.negative_gram_det, dec.rounds)
            assert got.joined == tuple(tuple(sorted(place[i] for i in block))
                                       for block in dec.joined)

    def test_orthogonal_sum_decomposes_blockwise(self, growth_instances):
        count = len(growth_instances)
        decs = [decompose(form, divisor) for form, divisor in growth_instances]
        for i in range(count):
            j = (7 * i + 3) % count  # pairs of sizes 12 to 48, one with 3 rounds against 2
            dec_a, dec_b, m = decs[i], decs[j], growth_instances[i][0].size
            got = decompose(*orthogonal_sum(growth_instances[i], growth_instances[j]))
            assert got.positive == dec_a.positive + dec_b.positive
            assert got.negative == dec_a.negative + dec_b.negative
            shifted = tuple(m + x for x in dec_b.negative_support)
            assert got.negative_support == dec_a.negative_support + shifted
            assert got.negative_gram_det == dec_a.negative_gram_det * dec_b.negative_gram_det
            assert got.rounds == max(dec_a.rounds, dec_b.rounds)
            assert got.joined == tuple(
                (dec_a.joined[r] if r < dec_a.rounds else ())
                + tuple(m + x for x in (dec_b.joined[r] if r < dec_b.rounds else ()))
                for r in range(got.rounds))
            # Each block of the witness is a positive multiple of that block's own.
            size_a = len(dec_a.negative_support)
            for part, own in ((got.witness[:size_a], dec_a.witness),
                              (got.witness[size_a:], dec_b.witness)):
                assert len(part) == len(own)
                assert not own or all(x * own[0] == part[0] * y > 0 for x, y in zip(part, own))


def decomposition_record(dec):
    """Every field of a decomposition the engine has always returned, as text."""
    return ";".join((",".join(map(str, dec.positive)), ",".join(map(str, dec.negative)),
                     ",".join(map(str, dec.negative_support)), str(dec.rounds),
                     str(dec.negative_gram_det), ",".join(map(str, dec.witness))))


def sign_flipped(form, seed):
    """``form`` with about a quarter of its off-diagonal entries negated, by
    draws seeded from ``seed``, which breaks the intersection-product axiom."""
    m = form.size
    rng = SplitMix64(seed ^ 0xBAD5)
    rows = [list(row) for row in form.gram.entries]
    for i in range(m):
        for j in range(i + 1, m):
            if rng.randint(0, 3) == 0:
                rows[i][j] = rows[j][i] = -rows[i][j]
    return IntersectionForm.from_rows(form.labels, rows)


class TestDecomposeDigest:
    """``decompose`` output pinned byte for byte, so a change to the
    elimination kernel that moves any field or error message shows here.
    Both digests were recorded from the engine that ran one fresh pass over
    the sorted working support per round."""

    def test_results(self, growth_instances):
        instances = growth_instances + build_corpus(2000, m_max=8)
        h = hashlib.sha256()
        rounds = []
        for form, divisor in instances:
            dec = decompose(form, divisor)
            assert decompose(form, tuple(divisor)) == dec  # validated and plain alike
            h.update(decomposition_record(dec).encode() + b"\n")
            rounds.append(dec.rounds)
        assert max(rounds) >= 3 and rounds.count(0) > 100
        assert h.hexdigest() == "9aa8a4b9cc3868e7d959a947392c269c86217959a33ed36889eefcaa7513109a"

    def test_error_messages(self, monkeypatch):
        # Valid input never raises InconsistencyError (see decompose), so the
        # errors come from inputs that break the axiom, with its check removed.
        monkeypatch.setattr(zariski, "require_intersection_product", lambda form: None)
        h = hashlib.sha256()
        messages = []
        late = 0
        for seed, (form, divisor) in enumerate(build_corpus(2000, m_max=8)):
            form = sign_flipped(form, seed)
            try:
                decompose(form, divisor)
            except InconsistencyError as exc:
                h.update(f"{type(exc).__name__}: {exc}\n".encode())
                messages.append(str(exc))
                named = re.match(r"Gram submatrix on \{(.*)\} is not", str(exc))
                if named:
                    # Round 1 works on the components pairing negatively with D;
                    # a later one also on a component sorting before some of them.
                    gd = form.gram.matvec(divisor)
                    first = [j for j in support_of(divisor) if gd[j] < 0]
                    later = {form.labels.index(x) for x in named[1].split(", ")} - set(first)
                    late += bool(later) and min(later) < max(first)
        assert late >= 3
        assert sum(m.startswith("solved coefficient") for m in messages) > 100
        assert sum(m.startswith("Gram submatrix") for m in messages) > 100
        assert h.hexdigest() == "a92bb0c5d4acf2ec4e38b8bb4445d03dc561bde4068206f23be5953d4bdd4ec1"


class TestOracleDigest:
    """``decompose_bruteforce`` output pinned byte for byte, every field in
    its ``repr``, witness and determinant included.  The digest was
    recorded from the oracle that decided definiteness by ``signature`` and
    solved each subset by Gaussian elimination over ``Fraction``."""

    def test_results(self, corpus_1000, rational_corpus_1000):
        instances = corpus_1000 + build_corpus(3000, m_max=8, seed_base=10_000) + rational_corpus_1000
        h = hashlib.sha256()
        for form, divisor in instances:
            oracle = decompose_bruteforce(form, divisor)
            assert decompose_bruteforce(form, tuple(divisor)) == oracle  # validated and plain alike
            h.update(repr(oracle).encode() + b"\n")
        assert h.hexdigest() == "23b65650055f74a68cd0ae099840072b18a154b626afb1ab273bff851e73b876"

    def test_error_messages(self, monkeypatch):
        # The deck of TestDecomposeDigest.test_error_messages: with the axiom
        # check removed, the oracle keeps no support or more than one on some
        # inputs that break the axiom, and each error text is pinned.
        monkeypatch.setattr(zariski, "require_intersection_product", lambda form: None)
        h = hashlib.sha256()
        found = []
        for seed, (form, divisor) in enumerate(build_corpus(2000, m_max=8)):
            form = sign_flipped(form, seed)
            try:
                h.update(repr(decompose_bruteforce(form, divisor)).encode() + b"\n")
            except OracleMismatchError as exc:
                h.update(f"{type(exc).__name__}: {exc}\n".encode())
                found.append(int(re.match(r"enumeration found (\d+) ", str(exc))[1]))
        assert found.count(0) > 500 and found.count(2) >= 1
        assert h.hexdigest() == "7b984edb67bc70a42252f9ce7a293b21b5dd668ba0e73cfba09d71c83263a961"


def nef_queries(form, divisor, rng):
    """Queries shaped like acceptance criterion 3 and its edges: the zero
    vector, the divisor, scaled positive parts, random sub-divisors, their
    joins, and the positive part nudged by ``1/big`` up, down and below zero
    in each coordinate."""
    p = decompose(form, divisor).positive
    zero = tuple(Fraction(0) for _ in divisor)
    queries = [zero, tuple(divisor), p]
    queries += [tuple(Fraction(rng.randint(0, 16), 16) * x for x in p) for _ in range(4)]
    queries += [tuple(Fraction(rng.randint(0, 8 * x.numerator), 8 * x.denominator) if x > 0
                      else Fraction(0) for x in divisor) for _ in range(4)]
    queries += [tuple(map(max, u, v)) for u, v in zip(queries[3:], queries[4:])]
    tiny = Fraction(1, 10**12 + 39)
    for j in range(len(divisor)):
        for delta in (tiny, -tiny):
            queries.append(p[:j] + (p[j] + delta,) + p[j + 1 :])
        queries.append(zero[:j] + (-tiny,) + zero[j + 1 :])
    return queries


class TestIntegerAcceptance:
    """``in_nef_region`` and the oracle's acceptance tests run on integers;
    their specifications in ``reference.py`` are the same decisions over
    ``Fraction``s."""

    def test_nef_region_matches_reference(self, corpus_1000):
        rng = SplitMix64(0xACCE55)
        verdicts = []
        for form, divisor in corpus_1000:
            for b in nef_queries(form, divisor, rng):
                verdict = in_nef_region(form, divisor, b)
                assert verdict == reference.in_nef_region(form, divisor, b), (form.gram, divisor, b)
                verdicts.append(verdict)
        assert len(verdicts) > 20_000 and 0.2 < sum(verdicts) / len(verdicts) < 0.8

    def test_oracle_matches_reference(self, corpus_1000, rational_corpus_1000):
        for form, divisor in corpus_1000 + rational_corpus_1000[:300]:
            assert decompose_bruteforce(form, divisor) == reference.decompose_bruteforce(form, divisor)

    @settings(max_examples=150, deadline=None)
    @given(drawn_forms(lambda m: st.lists(st.lists(st.builds(Fraction, st.integers(-2, 12),
                                                             st.integers(1, 6)),
                                                   min_size=m, max_size=m), max_size=6)),
           st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)))
    def test_gram_scaled_by_one_over_q(self, drawn, q):
        # random_instance draws integral Gram matrices only, so c = 1 there;
        # here both the drawn form and its 1/q multiple carry denominators.
        rows, divisor, candidates = drawn
        form, scaled = form_of(rows), form_of([[x / q for x in row] for row in rows])
        for engine in (decompose, decompose_bruteforce):
            dec, dec_q = engine(form, divisor), engine(scaled, divisor)
            assert (dec_q.positive, dec_q.negative, dec_q.negative_support, dec_q.witness) == \
                (dec.positive, dec.negative, dec.negative_support, dec.witness)
            assert dec_q.negative_gram_det == dec.negative_gram_det / q ** len(dec.negative_support)
        assert dec_q == reference.decompose_bruteforce(scaled, divisor)
        for b in candidates + [dec.positive]:
            verdict = in_nef_region(form, divisor, b)
            assert in_nef_region(scaled, divisor, b) == verdict
            assert reference.in_nef_region(scaled, divisor, b) == verdict


def mutated_decompositions(form, dec):
    """The decomposition and its mutations: a coefficient moved between
    ``P`` and ``N`` (both ways), a support index dropped or added, the
    witness negated."""
    out = [dec]
    p, n, support = list(dec.positive), list(dec.negative), dec.negative_support
    for j in range(form.size):
        if n[j]:
            moved_p, moved_n = p[:], n[:]
            moved_p[j] += n[j] / 2
            moved_n[j] -= n[j] / 2
            out.append(dec._replace(positive=tuple(moved_p), negative=tuple(moved_n)))
        if p[j]:
            moved_p, moved_n = p[:], n[:]
            moved_p[j] -= p[j]
            moved_n[j] += p[j]
            out.append(dec._replace(positive=tuple(moved_p), negative=tuple(moved_n)))
    if support:
        out.append(dec._replace(negative_support=support[1:], witness=dec.witness[1:]))
        out.append(dec._replace(witness=tuple(-v for v in dec.witness)))
    extra = next((j for j in range(form.size) if j not in support), None)
    if extra is not None:
        grown = tuple(sorted(support + (extra,)))
        k = grown.index(extra)
        out.append(dec._replace(negative_support=grown,
                                witness=dec.witness[:k] + (1,) + dec.witness[k:]))
    return out


def spellings(vector):
    """``vector`` of ``Fraction``s, the same with ``int`` entries where
    integral, and as unreduced ``"p/q"`` strings."""
    return (tuple(vector), tuple(x.numerator if x.denominator == 1 else x for x in vector),
            tuple(f"{2 * x.numerator}/{2 * x.denominator}" for x in vector))


def divisor_spellings(divisor):
    """Makers of one divisor's spellings, a fresh value on each call: the
    divisor validated by ``as_divisor``, a list, a generator and unreduced
    ``"p/q"`` strings."""
    validated = as_divisor(divisor, len(divisor))
    return (lambda: validated, lambda: list(divisor), lambda: (x for x in divisor),
            lambda: spellings(divisor)[2])


class TestInstanceReference:
    """``random_instance`` draws the instance the frozen stream draws in the
    frozen order, before it read the stream directly and checked symmetry
    once."""

    def test_standard_specs(self):
        seeds = SplitMix64(0x1257A)
        specs = [InstanceSpec.standard(seed=seeds.next_u64() if i % 4 else i - 1000, m=1 + i % 10)
                 for i in range(2000)]
        self.assert_same_instances(specs)

    def test_growth_families(self):
        # The benchmark's negative-heavy and mixed ranges, at m = 12..48.
        seeds = SplitMix64(0x96077)
        specs = []
        for m in range(12, 49):
            specs.append(InstanceSpec(seed=seeds.next_u64(), m=m, diagonal_range=(-3 * m, -2 * m),
                                      offdiagonal_range=(0, 2), coefficient_range=(1, 9)))
            specs.append(InstanceSpec(seed=seeds.next_u64(), m=m, diagonal_range=(-30, 4),
                                      offdiagonal_range=(0, 1), coefficient_range=(1, 9)))
        self.assert_same_instances(specs)

    @staticmethod
    def assert_same_instances(specs):
        for spec in specs:
            form, divisor = random_instance(spec)
            expected_form, expected_divisor = reference.frozen_random_instance(spec)
            assert (form, divisor, divisor._scaled) == (
                expected_form, expected_divisor, expected_divisor._scaled), spec
            assert repr(form) == repr(expected_form) and type(divisor) is type(expected_divisor)


def raised(call):
    """``(class, message)`` of the library error ``call()`` raises, or its result."""
    try:
        return call()
    except ZarlatError as exc:
        return type(exc), str(exc)


class TestIntegerPathReference:
    """``decomposition_checks`` and ``in_nef_region`` give what their
    ``Fraction`` specifications give, key for key, query for query and
    error for error."""

    def test_checks_match_on_corpus_and_mutations(self, corpus_1000):
        compared = failing = 0
        for form, divisor in corpus_1000:
            engine = decompose(form, divisor)
            oracle = decompose_bruteforce(form, divisor)
            for dec in mutated_decompositions(form, engine) + [oracle]:
                got = decomposition_checks(form, divisor, dec)
                assert list(got.items()) == list(reference.decomposition_checks(form, divisor, dec).items())
                compared += 1
                failing += not all(got.values())
        assert compared > 4000 and failing > 2000

    def test_checks_errors_match(self, corpus_1000):
        for form, divisor in corpus_1000[:200]:
            dec = decompose(form, divisor)
            p = dec.positive
            cases = [
                (divisor[:-1], dec), (tuple(divisor) + (0,), dec),
                (divisor, dec._replace(positive=p[:-1])),
                (divisor, dec._replace(positive=p + (Fraction(0),))),
                (divisor, dec._replace(positive=(0.5,) + p[1:])),
                (divisor, dec._replace(positive=p[:-1] + ("1.5",))),
                ((True,) + tuple(divisor[1:]), dec),
                ((Fraction(-1, 3),) + tuple(divisor[1:]), dec),
            ]
            for d, case in cases:
                expected = raised(lambda: reference.decomposition_checks(form, d, case))
                assert isinstance(expected, tuple), (d, case)
                assert raised(lambda: decomposition_checks(form, d, case)) == expected

    def test_nef_queries_match(self, corpus_1000):
        # Shaped like the fuzz-small queries: scaled positive parts, random
        # sub-divisors and joins, each also spelled with int entries where
        # integral and as "p/q" strings, and with an invalid entry.  Every
        # spelling of the divisor gives the same verdicts, and the same
        # results in the engine, the checks, the oracle and Cramer's rule;
        # a validated divisor of the wrong length is refused as a tuple is.
        rng = SplitMix64(0xF0221)
        verdicts = []
        cramer_results = []
        invalid = (0.5, True, "1.5", "3/0", None, -Fraction(1, 2))
        for form, divisor in corpus_1000[:400]:
            dec = decompose(form, divisor)
            expected = (dec, decomposition_checks(form, tuple(divisor), dec),
                        decompose_bruteforce(form, tuple(divisor)))
            for spelled in divisor_spellings(divisor):
                assert (decompose(form, spelled()), decomposition_checks(form, spelled(), dec),
                        decompose_bruteforce(form, spelled())) == expected
            scaled = tuple(x * lcm(*(y.denominator for y in divisor)) for x in divisor)
            support = decompose(form, scaled).negative_support
            cramer = raised(lambda: cramer_analysis(form, scaled, support))
            for spelled in divisor_spellings(scaled):
                assert raised(lambda: cramer_analysis(form, spelled(), support)) == cramer
            cramer_results.append(cramer)
            longer = divisor + (Fraction(1),)
            for call in (lambda a: decompose(form, a), lambda a: decompose_bruteforce(form, a),
                         lambda a: decomposition_checks(form, a, dec),
                         lambda a: cramer_analysis(form, a, support or (0,))):
                shape_error = raised(lambda: call(longer))
                assert shape_error[0] is ShapeError
                assert raised(lambda: call(as_divisor(longer, form.size + 1))) == shape_error
            p = dec.positive
            members = [tuple(Fraction(rng.randint(0, 16), 16) * x for x in p) for _ in range(4)]
            candidates = [tuple(Fraction(rng.randint(0, 8 * x.numerator), 8 * x.denominator)
                                if x > 0 else Fraction(0) for x in divisor) for _ in range(4)]
            pool = members + candidates
            joins = [tuple(map(max, u, v)) for u, v in zip(pool, pool[1:] + pool[:1])]
            for b in pool + joins:
                expected = reference.in_nef_region(form, divisor, b)
                for a, spelled in zip(spellings(divisor), spellings(b)):
                    verdict = in_nef_region(form, a, spelled)
                    assert verdict == expected
                    verdicts.append(verdict)
                assert {in_nef_region(form, a(), b) for a in divisor_spellings(divisor)} == {expected}
                j = rng.randint(0, form.size - 1)
                bad = invalid[rng.randint(0, len(invalid) - 1)]
                for args in ((divisor, b[:j] + (bad,) + b[j + 1 :]),
                             (divisor[:j] + (bad,) + divisor[j + 1 :], b),
                             (divisor, b[:-1]), (divisor, b + (0,)), (divisor + (1,), b),
                             (as_divisor(divisor + (1,), form.size + 1), b)):
                    expected = raised(lambda: reference.in_nef_region(form, *args))
                    assert raised(lambda: in_nef_region(form, *args)) == expected
        assert len(verdicts) > 5000 and 0.2 < sum(verdicts) / len(verdicts) < 0.9
        assert sum(isinstance(x, CramerAnalysis) for x in cramer_results) > 100


class TestChecksValidateNegative:
    """``dec.negative`` is validated as ``dec.positive`` is: one exact
    coefficient per component."""

    def test_wrong_length_refused(self):
        form = form_of([[-2, 1], [1, -2]])
        dec = decompose(form, [1, 0])
        assert all(decomposition_checks(form, [1, 0], dec).values())
        for negative in (dec.negative + (Fraction(0),), dec.negative + (0, 0), dec.negative[:1], ()):
            with pytest.raises(ShapeError, match=rf"^negative part has {len(negative)} "
                                                  r"coefficients, form has 2$"):
                decomposition_checks(form, [1, 0], dec._replace(negative=negative))

    def test_entries_read_by_as_rational(self):
        form = form_of([[-2, 1], [1, -2]])
        dec = decompose(form, [1, 1])
        with pytest.raises(DomainError, match=r"^float 1\.0 rejected"):
            decomposition_checks(form, [1, 1], dec._replace(negative=(1.0, 1.0)))
        with pytest.raises(DomainError, match=r"^boolean True is not a rational number$"):
            decomposition_checks(form, [1, 1], dec._replace(negative=(True, True)))
        spelled = dec._replace(negative=tuple(str(x) for x in dec.negative))
        assert decomposition_checks(form, [1, 1], spelled) == decomposition_checks(form, [1, 1], dec)


class TestIntegerPath:
    """At run time: the engine and the oracle subtract no ``Fraction``s, and
    on ``Fraction`` input the checks and the nef query build none and do no
    ``Fraction`` arithmetic."""

    ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__lt__", "__le__", "__gt__", "__ge__")

    @staticmethod
    def forbid(monkeypatch, names):
        def refused(*args, **kwargs):
            raise AssertionError("Fraction arithmetic on the integer path")

        for name in names:
            monkeypatch.setattr(Fraction, name, refused)

    def test_engine_and_oracle_subtract_no_fractions(self, corpus_1000, monkeypatch):
        expected = [(decompose(f, d), decompose_bruteforce(f, d)) for f, d in corpus_1000[:300]]
        self.forbid(monkeypatch, ("__sub__", "__rsub__"))
        got = [(decompose(f, d), decompose_bruteforce(f, d)) for f, d in corpus_1000[:300]]
        monkeypatch.undo()
        assert got == expected

    def test_checks_and_nef_query_build_no_fractions(self, corpus_1000, monkeypatch):
        cases = []
        for form, divisor in corpus_1000[:300]:
            dec = decompose(form, divisor)
            cases.append((form, divisor, dec, [tuple(x / 2 for x in dec.positive), dec.positive]))
        self.forbid(monkeypatch, self.ARITHMETIC + ("__new__",))
        results = [(decomposition_checks(form, divisor, dec),
                    [in_nef_region(form, divisor, b) for b in queries])
                   for form, divisor, dec, queries in cases]
        monkeypatch.undo()
        assert all(all(checks.values()) and all(verdicts) for checks, verdicts in results)


def reader_entry_points():
    """Every public entry point that reads a rational vector, each as a
    function of one vector ``v`` of two entries: a row of ``RationalMatrix``,
    ``matvec``, ``solve``, both sides of ``pairing``, ``as_divisor``, the
    candidate of ``in_nef_region``, and ``P`` and ``N`` in
    ``decomposition_checks``."""
    form = form_of([[-2, 1], [1, -2]])
    dec = decompose(form, [1, 1])
    return {
        "RationalMatrix": lambda v: RationalMatrix([v, [0, 1]]),
        "matvec": form.gram.matvec,
        "solve": lambda v: solve([[2, 0], [0, 2]], v),
        "pairing_u": lambda v: form.pairing(v, [1, 1]),
        "pairing_v": lambda v: form.pairing([1, 1], v),
        "as_divisor": lambda v: as_divisor(v, 2),
        "in_nef_region": lambda v: in_nef_region(form, [1, 1], v),
        "checks_positive": lambda v: decomposition_checks(form, [1, 1], dec._replace(positive=v)),
        "checks_negative": lambda v: decomposition_checks(form, [1, 1], dec._replace(negative=v)),
    }


READERS = sorted(reader_entry_points())


class TestOneReader:
    """The contract of the one reader, ``linalg.scaled_rationals``, at every
    entry point: a bad entry raises what ``as_rational`` raises, a string,
    bytes, a mapping or a set is refused by type instead of being read
    element by element, and lists, tuples, ranges and generators are read."""

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "1.5", "1e3", None, "3/0", " 3"])
    @pytest.mark.parametrize("reader", READERS)
    def test_bad_entry_raises_as_rational_error(self, reader, bad):
        expected = raised(lambda: as_rational(bad))
        assert raised(lambda: reader_entry_points()[reader]((1, bad))) == expected

    @pytest.mark.parametrize("values", ["12", b"12", bytearray(b"12"), {0: 5, 1: 7},
                                        {1, 2}, frozenset({1, 2}), {1: 0, 2: 0}.keys()],
                             ids=lambda v: type(v).__name__)
    @pytest.mark.parametrize("reader", READERS)
    def test_refused_by_type(self, reader, values):
        what = "a matrix row" if reader == "RationalMatrix" else "a vector of exact rationals"
        message = f"cannot interpret {type(values).__name__} as {what}"
        assert raised(lambda: reader_entry_points()[reader](values)) == (DomainError, message)

    @pytest.mark.parametrize("reader", READERS)
    def test_lists_tuples_ranges_and_generators_read(self, reader):
        call = reader_entry_points()[reader]
        expected = call([1, 2])
        for values in ((1, 2), range(1, 3), (x for x in (1, "2"))):
            assert call(values) == expected

    def test_validated_divisor_not_read_again(self, corpus_1000, monkeypatch):
        # The divisor as_divisor returns keeps its integers: the nef query
        # reads only the candidate, and the engine, the oracle and the
        # checks (which read P and N) read no divisor.
        callers = reader_callers(monkeypatch)
        for form, divisor in corpus_1000[:200]:
            a = as_divisor(list(divisor), form.size)
            p = decompose(form, divisor).positive
            callers.clear()
            assert in_nef_region(form, a, p)
            assert callers == ["in_nef_region"]
            callers.clear()
            dec = decompose(form, a)
            assert decompose_bruteforce(form, a) == dec._replace(rounds=0, joined=())
            assert all(decomposition_checks(form, a, dec).values())
            assert callers == ["decomposition_checks"] * 2

    def test_validated_divisor_copies(self, monkeypatch):
        # The validated divisor is the plain tuple of its Fractions to repr,
        # == and hash; copies and a pickle round trip keep its integers.
        a = as_divisor([Fraction(1, 2), 0, "3/4"], 3)
        plain = (Fraction(1, 2), Fraction(0), Fraction(3, 4))
        assert repr(a) == repr(plain) and a == plain and hash(a) == hash(plain)
        assert as_divisor(a, 3) == a
        form = form_of([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
        expected = decompose(form, plain)
        callers = reader_callers(monkeypatch)
        copies = [copy.copy(a), copy.deepcopy(a)]
        copies += [pickle.loads(pickle.dumps(a, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for b in copies:
            assert repr(b) == repr(plain) and b == plain and hash(b) == hash(plain)
            assert decompose(form, b) == expected
        assert callers == []

    def test_reported_repros(self):
        form = form_of([[-2, 1], [1, -2]])
        for call in (lambda: as_divisor("12", 2), lambda: as_divisor(b"12", 2),
                     lambda: as_divisor({0: 5, 1: 7}, 2), lambda: solve([[2, 0], [0, 2]], "12"),
                     lambda: in_nef_region(form, [1, 1], "00"), lambda: decompose(form, "12"),
                     lambda: RationalMatrix(["12", "34"]),
                     lambda: IntersectionForm.from_rows(["a", "b"], ["21", "12"])):
            with pytest.raises(DomainError, match=r"^cannot interpret (str|bytes|dict) as "):
                call()

    def test_matrix_reads_entries_before_shape(self):
        # A refused row raises before any entry is read, then the first bad
        # entry in reading order, and a ragged matrix with a bad entry
        # reports the entry.
        float_error = raised(lambda: as_rational(1.5))
        for rows in ([[1.5], [1, 2]], [[1, 2], [1.5]]):
            assert raised(lambda: RationalMatrix(rows)) == float_error
        assert raised(lambda: RationalMatrix([[1.5], "12"])) == (
            DomainError, "cannot interpret str as a matrix row")
        with pytest.raises(TypeError, match="^'int' object is not iterable$"):
            RationalMatrix([[1.5], 3])
        assert raised(lambda: RationalMatrix([[1], [1, 2]])) == (ShapeError,
                                                                "rows have inconsistent lengths")
        assert raised(lambda: RationalMatrix(["12", [1.5]])) == (DomainError,
                                                                "cannot interpret str as a matrix row")
        for rows in ("12", {(1, 2): 0, (3, 4): 0}, {(1, 2), (3, 4)}):
            assert raised(lambda: RationalMatrix(rows)) == (
                DomainError, f"cannot interpret {type(rows).__name__} as matrix rows")

    @pytest.mark.parametrize("values", ["10", b"10", {0: 1, 1: 0}, {1, 0}],
                             ids=lambda v: type(v).__name__)
    def test_lattice_coordinates_refused_by_type(self, values):
        lattice = hyperbolic_plane()
        message = f"cannot interpret {type(values).__name__} as lattice coordinates"
        for call in (lambda: lattice.pairing(values, [1, 0]), lambda: lattice.pairing([1, 0], values),
                     lambda: dual_curve_integrality(lattice, values)):
            assert raised(call) == (DomainError, message)
        assert lattice.pairing(range(1, 3), (x for x in (1, 1))) == lattice.pairing([1, 2], (1, 1))
