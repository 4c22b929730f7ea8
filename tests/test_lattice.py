from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zarlat.errors import DomainError, ShapeError, SingularMatrixError
from zarlat.lattice import (
    PRESET_TAGS,
    DiscriminantGroup,
    IntegralLattice,
    a2_minus,
    block,
    direct_sum,
    discriminant_group,
    dual_curve_integrality,
    e8_minus,
    format_group,
    hyperbolic_plane,
    normalize_tag,
    preset,
    presets,
    rank_one,
)
from zarlat.linalg import Inertia, RationalMatrix, signature, smith_normal_form
from zarlat.zariski import SplitMix64

import reference
from conftest import UNIMODULAR_OPS, congruent


class TestBlocks:
    def test_hyperbolic_plane(self):
        u = hyperbolic_plane()
        assert u.gram.entries == ((0, 1), (1, 0))
        assert u.determinant() == -1

    def test_gram_must_be_symmetric_and_integral(self):
        with pytest.raises(ShapeError, match="lattice 'skew': Gram matrix must be symmetric"):
            IntegralLattice("skew", RationalMatrix([[0, 1], [2, 0]]))
        with pytest.raises(DomainError, match="lattice 'half': Gram matrix must be integral"):
            IntegralLattice("half", RationalMatrix([["1/2"]]))

    def test_replace_checks_the_gram_matrix(self):
        # _replace builds through _make, which must run the constructor's checks.
        u = hyperbolic_plane()
        with pytest.raises(DomainError, match="lattice 'U': Gram matrix must be integral"):
            u._replace(gram=RationalMatrix([[0, "1/2"], ["1/2", 0]]))
        with pytest.raises(ShapeError, match="lattice 'U': Gram matrix must be symmetric"):
            IntegralLattice._make(("U", RationalMatrix([[0, 1], [2, 0]])))
        assert u._replace(name="H") == IntegralLattice("H", u.gram)
        with pytest.raises(AttributeError):
            u.note = "records take no new attributes"

    def test_rank_one(self):
        assert rank_one(-2).gram.entries == ((-2,),)
        with pytest.raises(DomainError):
            rank_one(0)
        with pytest.raises(DomainError):
            rank_one(3)

    def test_a2_is_negated_cartan(self):
        cartan = [[2, -1], [-1, 2]]
        assert a2_minus().gram.entries == tuple(
            tuple(-x for x in row) for row in cartan
        )
        assert a2_minus().determinant() == 3

    def test_e8_block(self):
        e8 = e8_minus()
        assert e8.rank == 8
        assert all(row[i] % 2 == 0 for i, row in enumerate(e8.gram.int_rows()))
        assert e8.determinant() == 1
        assert signature(e8.gram) == Inertia(0, 8, 0)

    @pytest.mark.parametrize("name, build, group", [
        ("E8_minus", e8_minus, "1"), ("A2_minus", a2_minus, "Z/3"),
    ])
    def test_negative_definite_blocks_by_name(self, name, build, group):
        lat = block(name)
        assert lat == build()
        assert format_group(discriminant_group(lat).elementary_divisors) == group

    def test_block_dispatch(self):
        assert block("U").name == "U"
        assert block("rank1", -6).gram.entries == ((-6,),)
        with pytest.raises(DomainError) as info:
            block("E7")
        assert str(info.value) == "unknown block 'E7'; expected one of U, E8_minus, A2_minus, rank1"
        with pytest.raises(DomainError):
            block("rank1")
        for name in ("U", "E8_minus", "A2_minus"):
            with pytest.raises(DomainError, match="takes no parameter"):
                block(name, 0)
        for name in (["U"], 5, None):
            with pytest.raises(DomainError, match="unknown block"):
                block(name)


class TestDirectSum:
    def test_singleton(self):
        u = hyperbolic_plane()
        assert direct_sum([u]) is u

    def test_block_diagonal(self):
        s = direct_sum([hyperbolic_plane(), rank_one(-2)])
        assert s.rank == 3
        assert s.gram.entries == ((0, 1, 0), (1, 0, 0), (0, 0, -2))

    def test_k3_square_lattice_det(self):
        lat = direct_sum([hyperbolic_plane()] * 3 + [e8_minus(), e8_minus(), rank_one(-2)])
        assert lat.rank == 23
        assert abs(lat.determinant()) == 2

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            direct_sum([])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([-8, -6, -4, -2, 2, 4]), min_size=1, max_size=4))
    def test_cardinality_multiplicative(self, squares):
        parts = [rank_one(k) for k in squares]
        total = discriminant_group(direct_sum(parts)).cardinality
        prod = 1
        for part in parts:
            prod *= discriminant_group(part).cardinality
        assert total == prod


class TestDiscriminantGroup:
    def test_unimodular(self):
        g = discriminant_group(hyperbolic_plane())
        assert g == DiscriminantGroup((), 1, 1)
        assert format_group(g.elementary_divisors) == "1"

    def test_a2(self):
        g = discriminant_group(a2_minus())
        assert g.elementary_divisors == (3,) and g.cardinality == 3 and g.exponent == 3

    def test_k3_cube(self):
        g = discriminant_group(preset("K3n", 3).lattice)
        assert g.elementary_divisors == (4,)
        assert format_group(g.elementary_divisors) == "Z/4"

    @pytest.mark.parametrize(
        "tag,n",
        [(t, n) for t in ("K3n", "Kummer") for n in (2, 3, 10, 1000, 10**6)]
        + [("OG6", None), ("OG10", None)],
    )
    def test_presets_match_published_group_with_certificate(self, tag, n):
        p = preset(tag, n)
        assert smith_normal_form(p.lattice.gram).verify()
        assert discriminant_group(p.lattice).elementary_divisors == p.published_group

    def test_singular_rejected(self):
        degenerate = IntegralLattice("bad", RationalMatrix.symmetric([[1, 1], [1, 1]]))
        with pytest.raises(SingularMatrixError):
            discriminant_group(degenerate)

    def test_format(self):
        assert format_group((2, 2)) == "Z/2 x Z/2"
        assert format_group(()) == "1"


PRESET_CASES = [
    ("K3n", 2, (2,), 2, 8),
    ("K3n", 3, (4,), 4, 16),
    ("K3n", 4, (6,), 6, 24),
    ("K3n", 5, (8,), 8, 32),
    ("Kummer", 2, (6,), 6, 24),
    ("Kummer", 3, (8,), 8, 32),
    ("Kummer", 4, (10,), 10, 40),
    ("Kummer", 5, (12,), 12, 48),
    ("OG6", None, (2, 2), 2, 8),
    ("OG10", None, (3,), 3, 6),
]


class TestPresets:
    @pytest.mark.parametrize("tag,n,group,exponent,square", PRESET_CASES)
    def test_published_data_matches_recomputation(self, tag, n, group, exponent, square):
        p = preset(tag, n)
        g = discriminant_group(p.lattice)
        assert p.published_group == group
        assert g.elementary_divisors == group
        assert g.exponent == exponent == p.published_group[-1]
        assert p.published_max_square == square
        assert p.b2 == p.lattice.rank and p.h11 == p.b2 - 2

    @pytest.mark.parametrize("tag,n,group,exponent,square", PRESET_CASES)
    def test_signature_is_3_b2_minus_3(self, tag, n, group, exponent, square):
        p = preset(tag, n)
        assert signature(p.lattice.gram) == Inertia(3, p.b2 - 3, 0)

    @pytest.mark.parametrize("tag, n, seed", [
        ("K3n", 2, 1), ("Kummer", 2, 2), ("OG6", None, 3), ("OG10", None, 4),
    ])
    def test_signature_survives_a_unimodular_congruence(self, tag, n, seed):
        # The preset's own Gram matrix, checked above, reaches its U^3 block
        # with a zero diagonal; a seeded change of basis keeps the inertia.
        p = preset(tag, n)
        rows = p.lattice.gram.int_rows()
        size = len(rows)
        rng = SplitMix64(seed)
        ops = [(rng.randint(0, 1), rng.randint(0, size - 1), rng.randint(0, size - 1),
                rng.randint(-2, 2)) for _ in range(2 * size)]
        a, _ = reference.unimodular(ops, size)
        assert signature(congruent(a, rows)) == Inertia(3, p.b2 - 3, 0)

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            preset("K3n", 1)
        with pytest.raises(DomainError):
            preset("Kummer")
        with pytest.raises(DomainError):
            preset("OG6", 2)

    def test_aliases(self):
        assert preset("kummern", 2).tag == "Kummer"
        assert preset("k3", 2).tag == "K3n"
        spellings = {"K3n": ("K3N", "k3-n", "K3_N", " k3 "), "Kummer": ("KUMMER_N", "kummer"),
                     "OG6": ("og6", "O-G-6"), "OG10": ("og_10",)}
        assert PRESET_TAGS == tuple(spellings)
        for tag, aliases in spellings.items():
            assert all(normalize_tag(alias) == tag for alias in (tag, *aliases))
        with pytest.raises(DomainError) as info:
            normalize_tag("OG8")
        assert str(info.value) == ("unknown deformation type 'OG8'; expected one of "
                                   "('K3n', 'Kummer', 'OG6', 'OG10')")
        for tag in (5, None, ["K3n"]):
            for lookup in (preset, normalize_tag):
                with pytest.raises(DomainError, match="unknown deformation type"):
                    lookup(tag)

    def test_presets_follow_the_catalog(self):
        # One preset per family, in catalog order; n reaches K3n and Kummer only.
        built = presets(5)
        assert [p.tag for p in built] == list(PRESET_TAGS)
        assert [p.display_name for p in built] == ["K3^[5]", "Kummer 5", "OG6", "OG10"]
        assert [(p.n, p.half_dim, p.b2) for p in built] == [(5, 5, 23), (5, 5, 7), (None, 3, 8),
                                                             (None, 5, 24)]
        assert built == [preset("K3n", 5), preset("Kummer", 5), preset("OG6"), preset("OG10")]
        with pytest.raises(DomainError, match="K3n needs an integer parameter n >= 2, got 1"):
            presets(1)

    def test_og10_general_vs_published(self):
        p = preset("OG10")
        assert discriminant_group(p.lattice).negativity_bound == 12
        assert p.published_max_square == 6  # stored data, not the general bound


class TestNegativityBounds:
    def test_k3_square(self):
        assert discriminant_group(preset("K3n", 2).lattice).negativity_bound == 8

    def test_unimodular(self):
        u3 = direct_sum([hyperbolic_plane()] * 3)
        group = discriminant_group(u3)
        assert group.negativity_bound == 4
        assert group.negativity_bound_refined == 4

    def test_og6_refined(self):
        lat = preset("OG6").lattice
        group = discriminant_group(lat)
        assert group.negativity_bound == 16
        assert group.negativity_bound_refined == 8

    @pytest.mark.parametrize("tag,n", [(t, n) for t, n, _, _, _ in PRESET_CASES])
    def test_refined_at_most_general_equality_iff_cyclic(self, tag, n):
        lat = preset(tag, n).lattice
        group = discriminant_group(lat)
        refined, general = group.negativity_bound_refined, group.negativity_bound
        assert refined <= general
        assert (refined == general) == (len(group.elementary_divisors) <= 1)


class TestDualCurveIntegrality:
    def test_k3_square_double_class(self):
        lat = preset("K3n", 2).lattice
        vec = [0] * 22 + [2]
        result = dual_curve_integrality(lat, vec)
        assert result.square == -8 and result.integral
        assert result.dual_class[-1] == Fraction(-1)

    def test_double_hyperbolic_counterexample(self):
        lat = direct_sum([hyperbolic_plane(), hyperbolic_plane()])
        result = dual_curve_integrality(lat, [1, -2, 0, 0])
        assert result.square == -4 and not result.integral
        assert result.failing_index == 1

    def test_square_minus_two_always_integral(self):
        lat = direct_sum([hyperbolic_plane(), rank_one(-2)])
        result = dual_curve_integrality(lat, [0, 0, 1])
        assert result.square == -2 and result.integral

    def test_isotropic_rejected(self):
        with pytest.raises(DomainError):
            dual_curve_integrality(hyperbolic_plane(), [1, 0])

    def test_wrong_length(self):
        with pytest.raises(ShapeError):
            dual_curve_integrality(hyperbolic_plane(), [1, 0, 0])

    @settings(max_examples=60, deadline=None)
    @given(UNIMODULAR_OPS, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_basis_change_invariance(self, ops, coords):
        lat = direct_sum([hyperbolic_plane(), rank_one(-2), rank_one(-4)])
        n = lat.rank
        a, a_inv = reference.unimodular(ops, n)
        new_gram = congruent(a, lat.gram.int_rows())
        new_lat = IntegralLattice("transformed", RationalMatrix.symmetric(new_gram))
        new_coords = [sum(a_inv[i][j] * coords[j] for j in range(n)) for i in range(n)]
        if lat.square(coords) == 0:
            return
        before = dual_curve_integrality(lat, coords)
        after = dual_curve_integrality(new_lat, new_coords)
        assert before.square == after.square
        assert before.integral == after.integral
