"""Acceptance gate: the eleven exact-arithmetic criteria for this library.

Every check is exact integer/rational equality; the stated runtime budgets
are generous on commodity hardware.
"""

import math
from fractions import Fraction

import pytest

from oracles import (
    check_inverse_pair,
    cochains_equal,
    cummins_expand,
    eval_polynomial,
    murnaghan_littlewood_formula,
    newell_littlewood_formula,
    pairings_equal,
    poly_mul,
    rational_mul_hash,
    reduced_oracle,
    thibon_inner_formula,
)
from symchar.characters import (
    murnaghan_littlewood,
    newell_littlewood,
    rational_convert,
    rational_mul,
    thibon_inner,
    RationalChar,
)
from symchar.convolution import (
    Pairing,
    antipode_cochain,
    convolve1,
    identity_cochain,
    inner_pairing,
    is_cocycle2,
    is_frobenius,
    is_laplace,
    milnor_moore_inverse1,
    milnor_moore_inverse2,
    outer_pairing,
    unit_counit_cochain,
)
from symchar.fgl import (
    coproduct_from_fgl,
    fgl_log,
    loop_n,
    multiplicative,
    pscale,
    var,
)
from symchar.hash_products import build_hash, is_bialgebra, named_spec
from symchar.kronecker import character, inner_mul, kronecker_basis
from symchar.partitions import partitions_of, partitions_up_to, weight, z_and_n
from symchar.schur import (
    SymFunc,
    TensorSymFunc,
    antipode,
    coproduct,
    coproduct_basis,
    counit,
    outer_mul,
    s,
    scalar,
    tensor,
    unit,
)
from symchar.series import is_group_like, series_degree_term
from symchar.vertex import check_commutation, schur_via_bernstein


def basis_pairs(total_weight):
    basis = partitions_up_to(total_weight)
    for mu in basis:
        for nu in basis:
            if weight(mu) + weight(nu) <= total_weight:
                yield mu, nu


class TestCriterion01NewellLittlewood:
    def test_golden_case(self):
        assert newell_littlewood(s(1), s(1)) == s(2) + s(1, 1) + unit()

    def test_hash_equals_formula_weight_five(self):
        labels = partitions_up_to(5)
        for mu in labels:
            for nu in labels:
                f, g = SymFunc.basis(mu), SymFunc.basis(nu)
                assert newell_littlewood(f, g) == newell_littlewood_formula(f, g)


class TestCriterion02KroneckerOracle:
    def test_inner_mul_matches_character_triple_sum(self):
        for n in range(1, 7):
            fact = math.factorial(n)
            classes = partitions_of(n)
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    expected: dict = {}
                    for lam in partitions_of(n):
                        num = sum(
                            fact
                            // z_and_n(rho)[0]
                            * character(lam, rho)
                            * character(mu, rho)
                            * character(nu, rho)
                            for rho in classes
                        )
                        assert num % fact == 0
                        if num:
                            expected[lam] = num // fact
                    assert inner_mul(SymFunc.basis(mu), SymFunc.basis(nu)).terms == expected

    def test_column_orthogonality(self):
        for n in range(1, 8):
            fact = math.factorial(n)
            for rho in partitions_of(n):
                for sigma in partitions_of(n):
                    acc = sum(
                        character(lam, rho) * character(lam, sigma)
                        for lam in partitions_of(n)
                    )
                    expected = z_and_n(rho)[0] if rho == sigma else 0
                    assert acc == expected


class TestCriterion03LittlewoodRichardsonOracle:
    def test_outer_mul_matches_monomial_products(self):
        for mu, nu in basis_pairs(8):
            n = weight(mu) + weight(nu)
            product = outer_mul(SymFunc.basis(mu), SymFunc.basis(nu))
            lhs = eval_polynomial(product, n)
            rhs = poly_mul(
                eval_polynomial(SymFunc.basis(mu), n),
                eval_polynomial(SymFunc.basis(nu), n),
            )
            assert lhs == rhs


class TestCriterion04HopfAxioms:
    def test_associativity_and_unit(self):
        basis = partitions_up_to(6)
        for x in basis:
            sx = SymFunc.basis(x)
            assert outer_mul(unit(), sx) == sx == outer_mul(sx, unit())
            for y in basis:
                if weight(x) + weight(y) > 6:
                    continue
                for z in basis:
                    if weight(x) + weight(y) + weight(z) > 6:
                        continue
                    sy, sz = SymFunc.basis(y), SymFunc.basis(z)
                    assert outer_mul(outer_mul(sx, sy), sz) == outer_mul(
                        sx, outer_mul(sy, sz)
                    )

    def test_coassociativity_and_counit(self):
        from symchar.schur import iterated_coproduct_basis

        for lam in partitions_up_to(6):
            f = SymFunc.basis(lam)
            delta = coproduct(f)
            left = {}
            right = {}
            for (a, b), c in delta.terms.items():
                for (a1, a2), c2 in coproduct_basis(a).items():
                    left[(a1, a2, b)] = left.get((a1, a2, b), 0) + c * c2
                for (b1, b2), c2 in coproduct_basis(b).items():
                    right[(a, b1, b2)] = right.get((a, b1, b2), 0) + c * c2
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            assert left == right == iterated_coproduct_basis(lam, 3)
            # Counit laws.
            left_leg = sum(
                c for (a, b), c in delta.terms.items() if not a and b == lam
            )
            right_leg = sum(
                c for (a, b), c in delta.terms.items() if not b and a == lam
            )
            assert left_leg == right_leg == 1
            assert counit(f) == (1 if not lam else 0)

    def test_bialgebra_compatibility(self):
        for mu, nu in basis_pairs(6):
            lhs = coproduct(outer_mul(SymFunc.basis(mu), SymFunc.basis(nu)))
            rhs = coproduct(SymFunc.basis(mu)) * coproduct(SymFunc.basis(nu))
            assert lhs == rhs

    def test_antipode_law(self):
        e = unit_counit_cochain()
        assert cochains_equal(convolve1(antipode_cochain(), identity_cochain()), e, 6)
        assert cochains_equal(convolve1(identity_cochain(), antipode_cochain()), e, 6)

    def test_antipode_closed_form_equals_recursion(self):
        recursion = milnor_moore_inverse1(identity_cochain())
        assert cochains_equal(recursion, antipode_cochain(), 8)


class TestCriterion05PropertyClassification:
    def test_inner_passes_all(self):
        a = inner_pairing()
        assert is_laplace(a, 6)
        assert is_cocycle2(a, 6)
        assert is_frobenius(a, 6)

    def test_outer_fails_laplace_with_documented_witness(self):
        witness = []
        assert not is_laplace(outer_pairing(), 3, witness)
        assert witness
        # Documented witness (s1, s1, s1): m(x, yz) = s1^3 but the
        # straightened expansion doubles it.
        cube = s(1) * s(1) * s(1)
        assert outer_pairing()(s(1), s(1) * s(1)) == cube
        straightened = SymFunc.zero()
        for (x1, x2), c in coproduct_basis((1,)).items():
            straightened = straightened + outer_mul(
                outer_pairing().on_basis(x1, (1,)),
                outer_pairing().on_basis(x2, (1,)),
            ).scale(c)
        assert straightened == cube.scale(2)

    def test_convolutive_inverse_of_multiplication(self):
        inv = milnor_moore_inverse2(outer_pairing())
        mbar = Pairing(
            lambda mu, nu: outer_mul(
                antipode(SymFunc.basis(mu)), antipode(SymFunc.basis(nu))
            ).terms,
            "m.(SxS)",
        )
        assert pairings_equal(inv, mbar, 6)


class TestCriterion06Thibon:
    def test_golden(self):
        assert thibon_inner(s(1), s(1)) == s(2) + s(1, 1) + s(1)

    def test_hash_equals_formula(self):
        labels = partitions_up_to(4)
        for mu in labels:
            for nu in labels:
                f, g = SymFunc.basis(mu), SymFunc.basis(nu)
                assert thibon_inner(f, g) == thibon_inner_formula(f, g)

    def test_is_hopf(self):
        assert is_bialgebra(named_spec("thibon"), 4)

    def test_cummins_identity_total_weight_eight(self):
        basis = partitions_up_to(8)
        for a in basis:
            wa = weight(a)
            for b in basis:
                wb = wa + weight(b)
                if wb > 8:
                    continue
                for c in basis:
                    wc = wb + weight(c)
                    if wc > 8:
                        continue
                    for d in basis:
                        if wc + weight(d) > 8:
                            continue
                        sa, sb = SymFunc.basis(a), SymFunc.basis(b)
                        sc, sd = SymFunc.basis(c), SymFunc.basis(d)
                        assert cummins_expand(sa, sb, sc, sd) == inner_mul(
                            outer_mul(sa, sb), outer_mul(sc, sd)
                        )


class TestCriterion07MurnaghanLittlewood:
    def test_golden(self):
        assert murnaghan_littlewood(s(1), s(1)) == s(2) + s(1, 1) + s(1) + unit()

    def test_triple_agreement(self):
        for mu, nu in basis_pairs(6):
            f, g = SymFunc.basis(mu), SymFunc.basis(nu)
            via_hash = murnaghan_littlewood(f, g)
            assert via_hash == murnaghan_littlewood_formula(f, g)
            assert via_hash == reduced_oracle(f, g, 12)


class TestCriterion08RationalGL:
    def test_golden(self):
        result = rational_mul(RationalChar.basis((1,), (1,)), RationalChar.basis((1,), ()))
        expected = (
            TensorSymFunc.basis((2,), (1,))
            + TensorSymFunc.basis((1, 1), (1,))
            + TensorSymFunc.basis((1,), ())
        )
        assert result.element == expected

    def test_hash_equals_direct_biweight_three(self):
        labels = [
            (k, l) for k in partitions_up_to(3) for l in partitions_up_to(3)
        ]
        for a in labels:
            for b in labels:
                x, y = RationalChar.basis(*a), RationalChar.basis(*b)
                assert rational_mul(x, y) == rational_mul_hash(x, y)

    def test_conversion_round_trip_biweight_four(self):
        for k in partitions_up_to(4):
            for l in partitions_up_to(4):
                x = RationalChar.basis(k, l)
                there = rational_convert(x)
                assert rational_convert(there) == x
                y = RationalChar(TensorSymFunc.basis(k, l), irreducible=False)
                back = rational_convert(y)
                assert rational_convert(back) == y


class TestCriterion09Vertex:
    def test_bernstein_chain_weight_six(self):
        for lam in partitions_up_to(6):
            assert schur_via_bernstein(lam) == SymFunc.basis(lam)

    def test_commutation_cap_four(self):
        assert check_commutation(4)


class TestCriterion10FormalGroupLaws:
    def test_loop_closed_forms(self):
        ga = multiplicative(0, cap=6)
        gm = multiplicative(1, cap=6)
        x = var(1, 0)
        for n in range(-4, 5):
            assert loop_n(ga, n) == (pscale(x, n) if n else {})
            # [n](X) = (1+X)^n - 1 truncated at degree 6.
            expected = {}
            for d in range(1, 7):
                c = Fraction(math.comb(n, d)) if n >= 0 else Fraction(
                    math.comb(d - n - 1, d) * (-1) ** d
                )
                if c:
                    expected[(d,)] = c
            assert loop_n(gm, n) == expected

    def test_log_of_multiplicative(self):
        expected = {(d,): Fraction((-1) ** (d + 1), d) for d in range(1, 7)}
        assert fgl_log(multiplicative(1, cap=6)) == expected

    def test_multiplicative_coproduct_dual_to_thibon_hash(self):
        thibon = build_hash(named_spec("thibon"))
        labels = partitions_up_to(4)
        for lam in labels:
            dm = coproduct_from_fgl("multiplicative", SymFunc.basis(lam))
            for mu in labels:
                for nu in labels:
                    lhs = scalar(dm, tensor(SymFunc.basis(mu), SymFunc.basis(nu)))
                    rhs = scalar(
                        SymFunc.basis(lam), thibon(SymFunc.basis(mu), SymFunc.basis(nu))
                    )
                    assert lhs == rhs

    def test_polynomial_alphabet_oracle(self):
        from test_fgl import _alphabet_check

        # s(3,2,1) holds the first Littlewood-Richardson coefficient above 1 in a
        # twofold coproduct, c^{321}_{21,21} = 2; in a sum, Delta f adds the legs
        # of every term before Delta_m groups them by the middle one.
        cases = [*map(SymFunc.basis, partitions_up_to(4)), s(3, 2, 1), s(3, 1) - 2 * s(2, 2) + s(1) + 3 * s()]
        for f in cases:
            assert _alphabet_check(f, 2, 2)


class TestCriterion11Series:
    def test_inverse_pairs_to_degree_eight(self):
        assert check_inverse_pair("M", "L", 8)
        assert check_inverse_pair("A", "B", 8)
        assert check_inverse_pair("C", "D", 8)

    def test_m_and_l_group_like(self):
        assert is_group_like("M", 8)
        assert is_group_like("L", 8)

    def test_d_not_group_like_with_witness(self):
        assert not is_group_like("D", 4)
        # Witness at degree 2: Delta(D_2) has the middle term s1 (x) s1 that
        # the group-like expansion lacks.
        lhs = coproduct(series_degree_term("D", 2))
        rhs = (
            tensor(series_degree_term("D", 0), series_degree_term("D", 2))
            + tensor(series_degree_term("D", 2), series_degree_term("D", 0))
        )
        assert lhs - rhs == tensor(s(1), s(1))
