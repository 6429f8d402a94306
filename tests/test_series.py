"""The six Schur-function series, skew/multiply operators, dual linear
forms, group-likeness, and inverse pairs."""

import pytest

from oracles import INVERSE_PAIR, check_inverse_pair, mul_by_series_operator, skew_by_series_operator
from symchar.characters import BRANCH_SERIES, branch
from symchar.kronecker import counit_eps1
from symchar.partitions import partitions_up_to, weight
from symchar.schur import SymFunc, outer_mul, s, scalar, unit
from symchar.series import (
    SERIES_TAGS,
    is_group_like,
    mul_by_series,
    series_degree_term,
    skew_by_series,
)


def pair_with_l(f: SymFunc) -> int:
    """l(f) = <L(1)|f>, with L(1) truncated at the degree of f."""
    return scalar(mul_by_series(unit(), "L", f.max_degree()), f)


class TestSeriesTerms:
    def test_m_is_complete_homogeneous(self):
        for d in range(6):
            assert series_degree_term("M", d) == (s(d) if d else unit())

    def test_l_is_signed_elementary(self):
        assert series_degree_term("L", 2) == s(1, 1)
        assert series_degree_term("L", 3) == s(1, 1, 1).scale(-1)

    def test_d_degree_four(self):
        assert series_degree_term("D", 4) == s(4) + s(2, 2)
        assert mul_by_series(unit(), "D", 4) == unit() + s(2) + s(4) + s(2, 2)

    def test_l_sum(self):
        assert mul_by_series(unit(), "L", 2) == unit() - s(1) + s(1, 1)

    def test_c_degree_two(self):
        assert series_degree_term("C", 2) == s(2).scale(-1)

    def test_odd_degrees_vanish_for_classes(self):
        for tag in "ABCD":
            for d in (1, 3, 5):
                assert series_degree_term(tag, d) == SymFunc.zero()

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            series_degree_term("X", 1)

    def test_negative_degree_is_zero(self):
        for tag in SERIES_TAGS:
            assert series_degree_term(tag, -1) == SymFunc.zero()

    def test_terms_map(self):
        terms = {d: series_degree_term("M", d) for d in range(4)}
        assert set(terms) == {0, 1, 2, 3}
        assert terms[3] == s(3)


class TestSkewBySeries:
    def test_s21_by_m(self):
        assert skew_by_series(s(2, 1), "M") == s(2, 1) + s(2) + s(1, 1) + s(1)

    def test_s2_by_d(self):
        assert skew_by_series(s(2), "D") == s(2) + unit()

    def test_m_then_l_is_identity(self):
        for lam in partitions_up_to(8):
            f = SymFunc.basis(lam)
            assert skew_by_series(skew_by_series(f, "M"), "L") == f

    def test_all_inverse_pairs_of_skews(self):
        for a, b in INVERSE_PAIR.items():
            for lam in partitions_up_to(5):
                f = SymFunc.basis(lam)
                assert skew_by_series(skew_by_series(f, a), b) == f


class TestMulBySeries:
    def test_unit_times_m(self):
        assert mul_by_series(unit(), "M", 3) == unit() + s(1) + s(2) + s(3)

    def test_s1_times_l(self):
        assert mul_by_series(s(1), "L", 2) == s(1) - s(2) - s(1, 1)

    def test_mul_then_inverse(self):
        cap = 6
        for lam in partitions_up_to(3):
            f = SymFunc.basis(lam)
            round_trip = mul_by_series(mul_by_series(f, "M", cap), "L", cap)
            assert round_trip.truncate(cap - f.max_degree()) == f

    def test_matches_full_sum_then_truncate(self):
        # Mixed degrees 6, 3 and 2: the lowest, not the highest, bounds the
        # series terms that can land at degree <= cap.
        f = s(3, 2, 1) - s(2, 1).scale(2) + s(2)
        for tag in SERIES_TAGS:
            for cap in (6, 8):
                full = SymFunc.zero()
                for d in range(cap + 1):
                    full.add(outer_mul(f, series_degree_term(tag, d)))
                assert mul_by_series(f, tag, cap) == full.truncate(cap), (tag, cap)

    def test_zero_times_series_is_zero(self):
        for tag in SERIES_TAGS:
            assert mul_by_series(SymFunc.zero(), tag, 4) == SymFunc.zero()

    def test_cap_too_small(self):
        with pytest.raises(ValueError):
            mul_by_series(s(3), "M", 2)


class TestLinearForms:
    def test_m_on_one_row(self):
        assert counit_eps1(s(4)) == 1
        assert counit_eps1(s(2, 1)) == 0

    def test_l_values(self):
        assert pair_with_l(s(1, 1)) == 1
        assert pair_with_l(s(1)) == -1

    def test_l_against_m_series_vanishes(self):
        # <L(1)|M(1)> = 0: the degreewise contributions are 1, -1, 0, 0, ...
        contributions = [pair_with_l(series_degree_term("M", d)) for d in range(8)]
        assert contributions[:3] == [1, -1, 0]
        assert sum(contributions) == 0

    def test_m_multiplicative(self):
        for lam in partitions_up_to(4):
            for mu in partitions_up_to(4):
                prod = outer_mul(SymFunc.basis(lam), SymFunc.basis(mu))
                assert counit_eps1(prod) == counit_eps1(
                    SymFunc.basis(lam)
                ) * counit_eps1(SymFunc.basis(mu))


class TestGroupLike:
    def test_m_and_l(self):
        assert is_group_like("M", 5)
        assert is_group_like("L", 5)

    def test_d_is_not(self):
        assert not is_group_like("D", 4)

    def test_group_like_multiplicativity(self):
        # (f g)/M = (f/M)(g/M) on basis pairs of total weight <= 6.
        from symchar.partitions import weight

        basis = partitions_up_to(6)
        for lam in basis:
            for mu in basis:
                if weight(lam) + weight(mu) > 6:
                    continue
                f, g = SymFunc.basis(lam), SymFunc.basis(mu)
                assert skew_by_series(outer_mul(f, g), "M") == outer_mul(
                    skew_by_series(f, "M"), skew_by_series(g, "M")
                )


class TestInversePairs:
    def test_declared_pairs(self):
        for a in SERIES_TAGS:
            assert check_inverse_pair(a, INVERSE_PAIR[a], 6)

    def test_non_pairs_fail(self):
        assert not check_inverse_pair("M", "M", 4)
        assert not check_inverse_pair("A", "D", 4)


class TestDifferentialOperators:
    def test_branch_rules_and_series_terms_to_weight_eight(self):
        """Every branching rule against its series' operator on every label of weight <= 8
        (the oracle reads power sums only), and each series term's coefficient of s_lam,
        <series, s_lam>, as the constant term of that operator on s_lam."""
        for rule, tag in BRANCH_SERIES.items():
            for lam in partitions_up_to(8):
                f = SymFunc.basis(lam)
                g = skew_by_series_operator(f, tag)
                assert g == branch(f, rule), (rule, lam)
                assert g.terms.get((), 0) == series_degree_term(tag, weight(lam)).terms.get(lam, 0), (tag, lam)

    def test_products_by_every_series_to_cap_eight(self):
        """mul_by_series against exp of the series' logarithm on power sums (the oracle reads
        no LR or series code), for every tag, every label of weight <= 5 and every cap from
        the label's weight to 8."""
        for tag in SERIES_TAGS:
            for lam in partitions_up_to(5):
                f = SymFunc.basis(lam)
                for cap in range(weight(lam), 9):
                    assert mul_by_series(f, tag, cap) == mul_by_series_operator(f, tag, cap), (tag, lam, cap)
