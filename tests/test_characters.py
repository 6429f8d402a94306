"""Classical character decompositions: branchings, Newell-Littlewood,
rational GL characters, Thibon characters, reduced characters, Cummins."""

import random

import pytest

from oracles import (
    cummins_expand,
    default_oracle_n,
    murnaghan_littlewood_formula,
    newell_littlewood_formula,
    rational_convert_join,
    rational_dimension,
    rational_mul_hash,
    reduced_dimension_failures,
    reduced_oracle,
    thibon_dimension_failures,
    thibon_inner_formula,
)
from symchar.characters import (
    RationalChar,
    branch,
    murnaghan_littlewood,
    newell_littlewood,
    rational_convert,
    rational_mul,
    thibon_inner,
)
from symchar.kronecker import inner_mul
from symchar.partitions import partitions_up_to, standardize, weight
from symchar.schur import SymFunc, TensorSymFunc, dimension_gl, outer_mul, s, tensor, unit
from symchar.series import mul_by_series


class TestBranch:
    def test_gl_to_o(self):
        assert branch(s(2), "gl_to_o") == s(2) + unit()

    def test_o_to_gl(self):
        assert branch(s(2), "o_to_gl") == s(2) - unit()

    def test_round_trips(self):
        for down, up in (
            ("gl_to_o", "o_to_gl"),
            ("gl_to_sp", "sp_to_gl"),
            ("gl_to_glm1", "glm1_to_gl"),
        ):
            for lam in partitions_up_to(5):
                f = SymFunc.basis(lam)
                assert branch(branch(f, down), up) == f

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            branch(s(1), "gl_to_nowhere")


class TestNewellLittlewood:
    def test_golden(self):
        assert newell_littlewood(s(1), s(1)) == s(2) + s(1, 1) + unit()

    def test_unit(self):
        assert newell_littlewood(s(2, 1), unit()) == s(2, 1)

    def test_symplectic_example(self):
        assert newell_littlewood(s(1, 1), s(1)) == s(2, 1) + s(1, 1, 1) + s(1)

    def test_hash_equals_formula_small(self):
        for mu in partitions_up_to(3):
            for nu in partitions_up_to(3):
                f, g = SymFunc.basis(mu), SymFunc.basis(nu)
                assert newell_littlewood(f, g) == newell_littlewood_formula(f, g)

    @pytest.mark.parametrize("to_gl, from_gl", [("o_to_gl", "gl_to_o"), ("sp_to_gl", "gl_to_sp")])
    def test_kings_series_route(self, to_gl, from_gl):
        """[mu][nu] = ((s_mu/C)(s_nu/C))/D for O, and with A and B for Sp (Newell, Proc.
        Roy. Irish Acad. 54A (1951) 153; King, J. Math. Phys. 12 (1971) 1588): the series
        route shares the LR and skew code with the hash, so it checks the hash by
        schur-hall and the series, on every pair of weight <= 5 each and <= 8 in total."""
        pairs = 0
        for mu in partitions_up_to(5):
            for nu in partitions_up_to(min(5, 8 - weight(mu))):
                x, y = SymFunc.basis(mu), SymFunc.basis(nu)
                route = branch(outer_mul(branch(x, to_gl), branch(y, to_gl)), from_gl)
                assert route == newell_littlewood(x, y), (mu, nu)
                pairs += 1
        assert pairs == 242


class TestRationalGL:
    def test_vector_times_covector(self):
        result = rational_mul(RationalChar.basis((1,), ()), RationalChar.basis((), (1,)))
        assert result.element == TensorSymFunc.basis((1,), (1,)) + TensorSymFunc.basis((), ())

    def test_repr_names_the_interpretation(self):
        assert repr(RationalChar.basis((1,), (1,))) == "RationalChar[irr](s[1](x)s[1])"
        assert repr(RationalChar.basis((1,), (1,), False)) == "RationalChar[red](s[1](x)s[1])"

    def test_golden(self):
        result = rational_mul(RationalChar.basis((1,), (1,)), RationalChar.basis((1,), ()))
        expected = (
            TensorSymFunc.basis((2,), (1,))
            + TensorSymFunc.basis((1, 1), (1,))
            + TensorSymFunc.basis((1,), ())
        )
        assert result.element == expected

    def test_polynomial_characters_reduce_to_lr(self):
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3):
                result = rational_mul(
                    RationalChar.basis(lam, ()), RationalChar.basis(mu, ())
                )
                expected = tensor(
                    outer_mul(SymFunc.basis(lam), SymFunc.basis(mu)), unit()
                )
                assert result.element == expected

    def test_hash_path_small(self):
        labels = [(k, l) for k in partitions_up_to(2) for l in partitions_up_to(2)]
        for a in labels:
            for b in labels:
                x, y = RationalChar.basis(*a), RationalChar.basis(*b)
                assert rational_mul(x, y) == rational_mul_hash(x, y)

    def test_convert_examples(self):
        red = RationalChar(TensorSymFunc.basis((1,), (1,)), irreducible=False)
        irr = rational_convert(red)
        assert irr.element == TensorSymFunc.basis((1,), (1,)) + TensorSymFunc.basis((), ())
        back = rational_convert(RationalChar.basis((1,), (1,)))
        assert back.element == TensorSymFunc.basis((1,), (1,)) - TensorSymFunc.basis((), ())

    def test_convert_round_trip(self):
        for k in partitions_up_to(3):
            for l in partitions_up_to(3):
                x = RationalChar.basis(k, l)
                assert rational_convert(rational_convert(x)) == x

    def test_stable_dimensions(self):
        """Independent of LR, skews and coproducts: at GL(n) with n above the
        total length, the product and both conversions keep dimensions."""
        labels = [(k, l) for k in partitions_up_to(3) for l in partitions_up_to(3) if weight(k) + weight(l) <= 4]
        for kappa, lam in labels:
            n = len(kappa) + len(lam) + 1
            irr = rational_convert(RationalChar.basis(kappa, lam, False))
            assert dimension_gl(kappa, n) * dimension_gl(lam, n) == rational_dimension(irr, n)
            red = rational_convert(RationalChar.basis(kappa, lam))
            assert rational_dimension(RationalChar.basis(kappa, lam), n) == sum(
                c * dimension_gl(a, n) * dimension_gl(b, n) for (a, b), c in red.element.terms.items()
            )
            for mu, nu in labels:
                n = len(kappa) + len(lam) + len(mu) + len(nu) + 1
                x, y = RationalChar.basis(kappa, lam), RationalChar.basis(mu, nu)
                assert rational_dimension(x, n) * rational_dimension(y, n) == rational_dimension(
                    rational_mul(x, y), n
                ), (kappa, lam, mu, nu)

    def test_sums_are_linear(self):
        """On two-term sums with coefficients other than +-1, the product and
        the conversions are the sums of their basis results."""
        rng = random.Random(32)
        labels = [(k, l) for k in partitions_up_to(3) for l in partitions_up_to(3) if weight(k) + weight(l) <= 3]
        for _ in range(12):
            x, y = (dict(zip(rng.sample(labels, 2), rng.sample((-3, -2, 2, 3, 5), 2))) for _ in range(2))
            both = RationalChar(TensorSymFunc(x)), RationalChar(TensorSymFunc(y))
            expected = TensorSymFunc()
            for a, cx in x.items():
                for b, cy in y.items():
                    expected.add(rational_mul(RationalChar.basis(*a), RationalChar.basis(*b)).element, cx * cy)
            assert rational_mul(*both).element == expected
            assert rational_mul(*both) == rational_mul_hash(*both)
            for irreducible in (False, True):
                expected = TensorSymFunc()
                for a, c in x.items():
                    expected.add(rational_convert(RationalChar.basis(*a, irreducible)).element, c)
                got = rational_convert(RationalChar(TensorSymFunc(x), irreducible))
                assert got.element == expected and got.irreducible != irreducible

    def test_convert_equals_the_join(self):
        """Both conversions equal the direct join on every basis label of biweight <= 7
        and on seeded two-term sums, and T-bar o T is the identity on them."""
        rng = random.Random(40)
        labels = [(k, l) for k in partitions_up_to(7) for l in partitions_up_to(7 - weight(k))]
        sums = [dict(zip(rng.sample(labels, 2), rng.sample((-3, -2, 2, 3, 5), 2))) for _ in range(40)]
        for terms in [{label: 1} for label in labels] + sums:
            for irreducible in (False, True):
                x = RationalChar(TensorSymFunc(terms), irreducible)
                there = rational_convert(x)
                assert there == rational_convert_join(x), (terms, irreducible)
                assert rational_convert(there) == x, (terms, irreducible)

    def test_repeated_conversion_runs_no_kernel_pass(self, monkeypatch):
        """Each T(a, b) and T-bar(a, b) is computed once per process: a second
        conversion of the same input reads every term from the stages' memo."""
        import symchar.characters as characters
        import symchar.convolution as convolution

        calls: list = []

        def counted(a, b, f, g, _kernel=convolution._convolve):
            calls.append((f, g))
            return _kernel(a, b, f, g)

        monkeypatch.setattr(convolution, "_convolve", counted)
        if hasattr(characters, "_convolve"):  # a name imported into characters bypasses the patch above
            monkeypatch.setattr(characters, "_convolve", counted)
        for irreducible in (False, True):  # labels no other test converts, so the first reads run the kernel
            x = RationalChar(TensorSymFunc({((5, 3, 1), (2, 1)): 2, ((4, 1), (3,)): -1}), irreducible)
            calls.clear()
            first = rational_convert(x)
            assert calls, irreducible
            calls.clear()
            assert rational_convert(x) == first
            assert calls == [], irreducible

    def test_mul_requires_irreducible(self):
        red = RationalChar(TensorSymFunc.basis((1,), ()), irreducible=False)
        with pytest.raises(ValueError):
            rational_mul(red, red)


class TestThibon:
    def test_convert_cap_three(self):
        # {lam} -> <<lam>> = {lam M}, truncated at the cap.
        assert mul_by_series(s(1), "M", 3) == s(1) + s(2) + s(1, 1) + s(3) + s(2, 1)

    def test_convert_round_trip(self):
        # <<lam>> -> {lam} = <<lam L>> undoes it below the cap.
        cap = 6
        for lam in partitions_up_to(3):
            f = SymFunc.basis(lam)
            back = mul_by_series(mul_by_series(f, "M", cap), "L", cap)
            assert back.truncate(cap - f.max_degree()) == f

    def test_golden(self):
        assert thibon_inner(s(1), s(1)) == s(2) + s(1, 1) + s(1)

    def test_unit(self):
        assert thibon_inner(unit(), s(2, 1)) == s(2, 1)

    def test_hash_equals_formula_small(self):
        for mu in partitions_up_to(3):
            for nu in partitions_up_to(3):
                f, g = SymFunc.basis(mu), SymFunc.basis(nu)
                assert thibon_inner(f, g) == thibon_inner_formula(f, g)

    def test_dimensions_multiply(self):
        # s_mu # s_nu is the S_n character product in the basis h_{n-|lam|} s_lam (Scharf-Thibon).
        pairs = [(mu, nu) for mu in partitions_up_to(4) for nu in partitions_up_to(4)]
        for mu, nu in [*pairs, ((5, 4, 2, 1), (5, 4, 2, 1))]:
            x, y = SymFunc.basis(mu), SymFunc.basis(nu)
            assert thibon_dimension_failures(x, y, thibon_inner(x, y)) == [], (mu, nu)

    def test_direction_error(self):
        # The conversion is chosen by its series tag; an unknown one is refused.
        with pytest.raises(ValueError, match="unknown series"):
            mul_by_series(s(1), "upwards", 3)


class TestMurnaghanLittlewood:
    def test_golden(self):
        assert murnaghan_littlewood(s(1), s(1)) == s(2) + s(1, 1) + s(1) + unit()

    def test_unit(self):
        assert murnaghan_littlewood(unit(), s(2)) == s(2)

    def test_formula_agrees_small(self):
        for mu in partitions_up_to(3):
            for nu in partitions_up_to(3):
                f, g = SymFunc.basis(mu), SymFunc.basis(nu)
                assert murnaghan_littlewood(f, g) == murnaghan_littlewood_formula(f, g)

    def test_dimensions_multiply(self):
        # <mu> * <nu> is the S_n character product on the labels {n - |lam|, lam} (Murnaghan).
        pairs = [(mu, nu) for mu in partitions_up_to(4) for nu in partitions_up_to(4)]
        for mu, nu in [*pairs, ((3, 2, 1), (2, 2, 1))]:
            x, y = SymFunc.basis(mu), SymFunc.basis(nu)
            assert reduced_dimension_failures(x, y, murnaghan_littlewood(x, y)) == [], (mu, nu)


class TestReducedLabels:
    def test_reduce_unreduce(self):
        # The oracle unreduces mu to {n-|mu|, mu} and reduces by dropping the first row.
        assert standardize((8 - 3, 2, 1)) == (1, (5, 2, 1))
        assert reduced_oracle(s(2, 1), unit(), 8) == s(2, 1)

    def test_unreduce_with_standardization(self):
        # n - |mu| smaller than mu_1 forces a raising-operator rewrite.
        assert standardize((3 - 3, 2, 1)) == (-1, (1, 1, 1))
        assert standardize((2 - 3, 2, 1)) == (0, ())

    def test_oracle_golden(self):
        assert reduced_oracle(s(1), s(1), 6) == s(2) + s(1, 1) + s(1) + unit()

    def test_oracle_unit(self):
        assert reduced_oracle(unit(), s(2, 1), 10) == s(2, 1)

    def test_oracle_rejects_small_n(self):
        with pytest.raises(ValueError, match="too small"):
            reduced_oracle(s(2), s(1), 3)

    def test_default_n(self):
        assert default_oracle_n(s(2), s(1)) == 8

    def test_oracle_matches_hash(self):
        for mu in partitions_up_to(3):
            for nu in partitions_up_to(3):
                f, g = SymFunc.basis(mu), SymFunc.basis(nu)
                n = default_oracle_n(f, g)
                assert reduced_oracle(f, g, n) == murnaghan_littlewood(f, g)


class TestCummins:
    def test_golden(self):
        lhs = cummins_expand(s(1), s(1), s(1), s(1))
        assert lhs == inner_mul(s(1) * s(1), s(1) * s(1))
        assert lhs == (s(2) + s(1, 1)).scale(2)

    def test_unit_slot(self):
        assert cummins_expand(unit(), s(1), s(1), unit()) == inner_mul(s(1), s(1))

    def test_identity_small(self):
        for a in partitions_up_to(2):
            for b in partitions_up_to(2):
                for c in partitions_up_to(2):
                    for d in partitions_up_to(2):
                        sa, sb = SymFunc.basis(a), SymFunc.basis(b)
                        sc, sd = SymFunc.basis(c), SymFunc.basis(d)
                        assert cummins_expand(sa, sb, sc, sd) == inner_mul(
                            outer_mul(sa, sb), outer_mul(sc, sd)
                        )
