"""Convolution monoids of cochains and pairings, Milnor-Moore inverses,
coboundaries, and the Laplace/cocycle/Frobenius property checkers."""

from functools import cache
from itertools import combinations, permutations

import pytest

from oracles import cochains_equal, pairings_equal, power_sum_hash
from symchar.convolution import (
    COCHAINS,
    PAIRINGS,
    antipode_cochain,
    coboundary1,
    convolve1,
    convolve2,
    derived_pairing,
    eps1_cochain,
    frobenius_inverse,
    identity_cochain,
    inner_pairing,
    is_algebra_hom,
    is_cocycle2,
    is_frobenius,
    is_laplace,
    milnor_moore_inverse1,
    milnor_moore_inverse2,
    outer_pairing,
    schur_hall_pairing,
    unit_counit_cochain,
    unit_pairing,
    Cochain1,
    Pairing,
    _basis_pairs,
    _composed,
    _transposed,
)
from symchar.hash_products import HashSpec, build_hash, composite_pairing, named_product, named_spec
from symchar.kronecker import inner_mul, kronecker_basis
from symchar.partitions import conjugate, partitions_of, partitions_up_to, weight
from symchar.schur import (
    SymFunc,
    TensorSymFunc,
    antipode,
    coproduct_basis,
    h,
    iterated_coproduct_basis,
    outer_mul,
    product_basis,
    s,
    tensor,
    unit,
)
from test_hash import p2_plethysm_pairing


class TestConvolutionMonoid:
    def test_unit_of_cochain_convolution(self):
        e = unit_counit_cochain()
        assert cochains_equal(convolve1(e, identity_cochain()), identity_cochain(), 5)
        assert cochains_equal(convolve1(identity_cochain(), e), identity_cochain(), 5)

    def test_antipode_law(self):
        # S * Id = e = Id * S
        e = unit_counit_cochain()
        assert cochains_equal(convolve1(antipode_cochain(), identity_cochain()), e, 6)
        assert cochains_equal(convolve1(identity_cochain(), antipode_cochain()), e, 6)

    def test_unit_of_pairing_convolution(self):
        e2 = unit_pairing()
        assert pairings_equal(convolve2(e2, inner_pairing()), inner_pairing(), 5)
        assert pairings_equal(convolve2(inner_pairing(), e2), inner_pairing(), 5)


def reference_convolve2(a: Pairing, b: Pairing) -> Pairing:
    """The plain double loop over both coproducts, one outer product per term pair."""

    def fn(mu, nu):
        out = SymFunc.zero()
        for (x1, x2), cx in coproduct_basis(mu).items():
            for (y1, y2), cy in coproduct_basis(nu).items():
                out.add(outer_mul(a.on_basis(x1, y1), b.on_basis(x2, y2)), cx * cy)
        return out.terms

    return Pairing(fn, f"ref({a.name})*({b.name})")


def omega_difference_pairing(grade_preserving: bool = True) -> Pairing:
    """a(x, y) = s_x * s_y - s_x' * s_y, signed: for self-conjugate mu and x2,
    sum_x1 c^mu_{x1 x2} a(x1, y1) = (1 - omega)(s_{mu/x2}) * s_y1 cancels."""

    def fn(mu, nu):
        return (SymFunc(kronecker_basis(mu, nu)) - SymFunc(kronecker_basis(conjugate(mu), nu))).terms

    return Pairing(fn, "(1-omega).inner", grade_preserving)


class TestConvolutionKernel:
    """convolve2 groups the coproduct terms by first-leg weight only when the
    first factor declares its grading; it must agree with the double loop,
    also on signed first factors whose summed heads cancel and at weight 6,
    where c^(3,2,1)_{(2,1),(2,1)} = 2."""

    CASES = {
        "inner*inner": (inner_pairing, inner_pairing),
        "e2*inner": (unit_pairing, inner_pairing),
        "inner*outer": (inner_pairing, outer_pairing),
        "(inner*inner)*outer": (lambda: convolve2(inner_pairing(), inner_pairing()), outer_pairing),
        "outer*inner": (outer_pairing, inner_pairing),
        "p2-plethysm*inner": (p2_plethysm_pairing, inner_pairing),
        "antipode.inner*outer": (
            lambda: derived_pairing(inner_pairing(), antipode_cochain()),
            outer_pairing,
        ),
        "inv(inner)*outer": (lambda: milnor_moore_inverse2(inner_pairing()), outer_pairing),
        "(1-omega).inner*outer": (omega_difference_pairing, outer_pairing),
        "(1-omega).inner*inner": (omega_difference_pairing, inner_pairing),
    }
    WEIGHT_SIX = [((3, 2, 1), (3, 2, 1)), ((3, 2, 1), (2, 2, 1, 1)), ((4, 2), (3, 2, 1))]

    @pytest.mark.parametrize("name", CASES)
    def test_matches_double_loop(self, name):
        make_a, make_b = self.CASES[name]
        a, b = make_a(), make_b()
        fast, reference = convolve2(a, b), reference_convolve2(a, b)
        for x in partitions_up_to(5):
            for y in partitions_up_to(5):
                assert fast.on_basis(x, y) == reference.on_basis(x, y), (x, y)
        sums = [s(2, 1) + s(1), s(3) - s(1, 1).scale(2), s(2) + s(1, 1) + unit()]
        for x in sums:
            for y in sums:
                assert fast(x, y) == reference(x, y)
        for x, y in self.WEIGHT_SIX:
            assert fast.on_basis(x, y) == reference.on_basis(x, y), (x, y)


class Counted(Pairing):
    """A pairing that records every basis pair it is asked for."""

    def __init__(self, base: Pairing):
        super().__init__(base.on_basis, base.name, base.grade_preserving)
        self.calls: list = []

    def on_basis(self, mu, nu):
        self.calls.append((mu, nu))
        return super().on_basis(mu, nu)


class TestConvolutionCallCounts:
    """convolve2 reads a once per leg-matched first-leg pair (x1, y1) and b once
    per second-leg pair (x2, y2) whose summed head is nonzero."""

    @pytest.mark.parametrize("declared", [True, False])
    @pytest.mark.parametrize("mu, nu", [((3, 2, 1), (3, 2, 1)), ((2, 1), (3, 1))])
    def test_one_read_per_leg_pair(self, mu, nu, declared):
        base = omega_difference_pairing(declared)
        a, b = Counted(base), Counted(outer_pairing())
        value = convolve2(a, b).on_basis(mu, nu)

        def matched(x1, y1):
            return weight(x1) == weight(y1) or not declared

        firsts = {x1 for x1, _ in coproduct_basis(mu)}, {y1 for y1, _ in coproduct_basis(nu)}
        assert sorted(a.calls) == sorted(
            (x1, y1) for x1 in firsts[0] for y1 in firsts[1] if matched(x1, y1)
        )
        heads: dict = {}
        for (x1, x2), cx in coproduct_basis(mu).items():
            for (y1, y2), cy in coproduct_basis(nu).items():
                if matched(x1, y1) and base.on_basis(x1, y1):
                    heads.setdefault((x2, y2), SymFunc.zero()).add(SymFunc(base.on_basis(x1, y1)), cx * cy)
        nonzero = sorted(pair for pair, head in heads.items() if head)
        assert sorted(b.calls) == nonzero
        assert len(nonzero) < len(heads)  # some summed heads cancel, and their b is never read
        assert value == reference_convolve2(base, outer_pairing()).on_basis(mu, nu)

    @pytest.mark.parametrize("declared", [True, False])
    def test_hash_product_is_one_pass_over_sums(self, monkeypatch, declared):
        """x # y on a two-term x reads the composite once per leg-matched (x1, y1)
        of the whole query, and psi o m once per (x2, y2) whose head, summed
        over every term pair, is nonzero."""
        from symchar import hash_products

        base = omega_difference_pairing(declared)
        a, tail = Counted(base), Counted(outer_pairing())
        monkeypatch.setattr(hash_products, "outer_pairing", lambda: tail)
        x, y = s(3, 2, 1) + s(2, 1).scale(2), s(2, 1)
        value = hash_products._product(hash_products.HashSpec(()), a)(x, y)

        def legs(f):
            return [(term, c * cf) for lam, cf in f.terms.items() for term, c in coproduct_basis(lam).items()]

        def matched(x1, y1):
            return weight(x1) == weight(y1) or not declared

        firsts = {x1 for (x1, _), _ in legs(x)}, {y1 for (y1, _), _ in legs(y)}
        assert sorted(a.calls) == sorted(
            (x1, y1) for x1 in firsts[0] for y1 in firsts[1] if matched(x1, y1)
        )
        heads: dict = {}
        for (x1, x2), cx in legs(x):
            for (y1, y2), cy in legs(y):
                if matched(x1, y1):
                    heads.setdefault((x2, y2), SymFunc.zero()).add(SymFunc(base.on_basis(x1, y1)), cx * cy)
        assert sorted(tail.calls) == sorted(pair for pair, head in heads.items() if head)
        assert value == reference_convolve2(base, outer_pairing())(x, y)

    @pytest.mark.parametrize("declared", [True, False])
    def test_cancelled_first_leg_is_not_read(self, declared):
        """s(2) and s(1,1) share the leg s1 (x) s1, so it cancels in x = s(2) - s(1,1):
        x # y reads no a(s1, y1)."""
        from symchar import hash_products

        base = omega_difference_pairing(declared)
        a = Counted(base)
        x, y = s(2) - s(1, 1), s(2, 1)
        value = hash_products._product(hash_products.HashSpec(()), a)(x, y)
        assert ((1,), (1,)) not in a.calls
        assert all(x1 != (1,) for x1, _ in a.calls)
        assert value == reference_convolve2(base, outer_pairing())(x, y)


class TestMilnorMooreInverse:
    def test_inverse_of_identity_is_antipode(self):
        inv = milnor_moore_inverse1(identity_cochain())
        assert cochains_equal(inv, antipode_cochain(), 8)

    def test_inverse_of_antipode_is_identity(self):
        inv = milnor_moore_inverse1(antipode_cochain())
        assert cochains_equal(inv, identity_cochain(), 6)

    def test_inverse_of_outer_is_antipode_twisted(self):
        inv = milnor_moore_inverse2(outer_pairing())
        mbar = Pairing(
            lambda mu, nu: outer_mul(
                antipode(SymFunc.basis(mu)), antipode(SymFunc.basis(nu))
            ).terms,
            "m.(SxS)",
        )
        assert pairings_equal(inv, mbar, 6)

    def test_rejects_non_normalized_cochain(self):
        bad = Cochain1(lambda lam: {}, "zero")
        with pytest.raises(ValueError, match="normalized"):
            milnor_moore_inverse1(bad)

    def test_rejects_non_unital_pairing(self):
        bad = Pairing(lambda mu, nu: {}, "zero2")
        with pytest.raises(ValueError, match="unital"):
            milnor_moore_inverse2(bad)

    def test_non_normalized_but_unital_pairing_is_invertible(self):
        # a(1,1) = 1 is the only invertibility requirement over a connected
        # coalgebra; the outer product itself is the canonical example.
        lopsided = Pairing(
            lambda mu, nu: {mu: 1} if not nu else {}, "lopsided"
        )
        inv = milnor_moore_inverse2(lopsided)
        assert pairings_equal(convolve2(inv, lopsided), unit_pairing(), 4)
        assert pairings_equal(convolve2(lopsided, inv), unit_pairing(), 4)


class TestLaplaceGroup:
    """The group laws of the pairing inverse on the named pairings, and the one
    convolution kernel behind the cochain product and both inverses."""

    GROUP = ("inner", "schur-hall", "e2")

    def test_closed_form_of_a_scalar_inverse(self):
        """schur-hall takes values in degree 0, so its inverse is (-1)^|mu| s_() at
        nu = mu' and 0 elsewhere, on every pair of total weight <= 10."""
        inv = milnor_moore_inverse2(schur_hall_pairing())
        pairs = list(_basis_pairs(10))
        assert len(pairs) == 1215
        for mu, nu in pairs:
            assert inv.on_basis(mu, nu) == ({(): (-1) ** weight(mu)} if nu == conjugate(mu) else {}), (mu, nu)

    @pytest.mark.parametrize("name", GROUP)
    def test_two_sided_inverse(self, name):
        a = PAIRINGS[name]()
        inv = milnor_moore_inverse2(a)
        assert pairings_equal(convolve2(a, inv), unit_pairing(), 5)
        assert pairings_equal(convolve2(inv, a), unit_pairing(), 5)

    @pytest.mark.parametrize("name", GROUP)
    def test_inverse_is_laplace(self, name):
        assert is_laplace(milnor_moore_inverse2(PAIRINGS[name]()), 4)

    @pytest.mark.parametrize("name", ["schur-hall", "inner"])
    def test_stage_and_its_inverse_hash_to_the_outer_product(self, name):
        a, ident = PAIRINGS[name](), identity_cochain()
        product = build_hash(HashSpec(((a, ident), (milnor_moore_inverse2(a), ident))))
        pairs = [(x, y) for x in partitions_up_to(4) for y in partitions_up_to(4)]
        assert len(pairs) == 144
        for x, y in pairs:
            assert product(SymFunc.basis(x), SymFunc.basis(y)) == SymFunc(product_basis(x, y)), (x, y)

    def test_inverse_declares_the_grading(self):
        assert milnor_moore_inverse2(inner_pairing()).grade_preserving
        assert milnor_moore_inverse2(schur_hall_pairing()).grade_preserving
        assert not milnor_moore_inverse2(outer_pairing()).grade_preserving

    def test_inverse_of_inner_is_zero_off_equal_weights(self):
        inv = milnor_moore_inverse2(inner_pairing())
        pairs = [(x, y) for x, y in _basis_pairs(8) if weight(x) != weight(y)]
        assert len(pairs) == 394
        for x, y in pairs:
            assert not inv.on_basis(x, y), (x, y)

    def test_declared_inverse_stage_hashes_as_undeclared(self):
        """With its grading declared, the inverse as a stage matches only equal-weight
        first legs; the products are those of the same inverse without the flag."""
        a, ident = inner_pairing(), identity_cochain()
        undeclared = milnor_moore_inverse2(inner_pairing())
        undeclared.grade_preserving = False
        declared = build_hash(HashSpec(((a, ident), (milnor_moore_inverse2(a), ident))))
        reference = build_hash(HashSpec(((a, ident), (undeclared, ident))))
        basis = [SymFunc.basis(x) for x in partitions_up_to(5)]
        for x in basis:
            for y in basis:
                assert declared(x, y) == reference(x, y), (x, y)

    def test_cochain_product_and_inverses_run_on_the_kernel(self, monkeypatch):
        import symchar.convolution as convolution

        calls: list = []

        def counted(a, b, f, g, _kernel=convolution._convolve):
            calls.append((f, g))
            return _kernel(a, b, f, g)

        monkeypatch.setattr(convolution, "_convolve", counted)
        reads = [
            lambda: convolve1(identity_cochain(), antipode_cochain()).on_basis((2, 1)),
            lambda: milnor_moore_inverse1(identity_cochain()).on_basis((2, 1)),
            lambda: milnor_moore_inverse2(inner_pairing()).on_basis((2, 1), (2, 1)),
        ]
        for read in reads:
            calls.clear()
            read()
            assert calls


def reference_coboundary1(f: Cochain1) -> Pairing:
    """The plain 3-fold loop: eps kills x1 and y3, leaving f(y1) fbar(x2 y2) f(x3)."""
    fbar = milnor_moore_inverse1(f)

    def fn(mu, nu):
        out = SymFunc.zero()
        for (x1, x2, x3), cx in iterated_coproduct_basis(mu, 3).items():
            if x1:
                continue
            for (y1, y2, y3), cy in iterated_coproduct_basis(nu, 3).items():
                if y3:
                    continue
                mid = fbar(outer_mul(SymFunc.basis(x2), SymFunc.basis(y2)))
                out.add(outer_mul(outer_mul(f.on_basis(y1), mid), f.on_basis(x3)), cx * cy)
        return out.terms

    return Pairing(fn, f"ref-d({f.name})")


class TestCoboundary:
    CASES = {
        "id": identity_cochain,
        "antipode": antipode_cochain,
        "eps1": eps1_cochain,
        "e": unit_counit_cochain,
        "id*id": lambda: convolve1(identity_cochain(), identity_cochain()),
        "eps1*antipode": lambda: convolve1(eps1_cochain(), antipode_cochain()),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_three_fold_loop(self, name):
        f = self.CASES[name]()
        fast, reference = coboundary1(f), reference_coboundary1(f)
        for x in partitions_up_to(6):
            for y in partitions_up_to(6 - weight(x)):
                assert fast.on_basis(x, y) == reference.on_basis(x, y), (x, y)

    def test_coboundary_of_unit_is_e2(self):
        assert pairings_equal(coboundary1(unit_counit_cochain()), unit_pairing(), 4)

    def test_coboundary_is_cocycle(self):
        # d(f) is a 2-cocycle for any invertible f; take f = eta o eps1.
        assert is_cocycle2(coboundary1(eps1_cochain()), 4)


class TestCheckers:
    def test_cocycle_examples(self):
        assert is_cocycle2(inner_pairing(), 5)
        assert is_cocycle2(unit_pairing(), 5)

    def test_outer_is_not_a_cocycle(self):
        # c = outer fails the multiplicativity constraint: at (1, 1, s1) the
        # left side is s1 but the right side is [2](s1) = 2 s1.  Consistently,
        # the product deformed by c would not be associative.
        witness = []
        assert not is_cocycle2(outer_pairing(), 3, witness)
        assert witness[0][:3] == ((), (), (1,))
        assert witness[0][3] == s(1)
        assert witness[0][4] == s(1).scale(2)

    def test_algebra_hom_examples(self):
        assert is_algebra_hom(antipode_cochain(), 5)
        assert is_algebra_hom(eps1_cochain(), 6)
        bad = Cochain1(
            lambda lam: (SymFunc.basis(lam) + outer_mul(SymFunc.basis(lam), s(1))).terms,
            "id+shift",
        )
        witness = []
        assert not is_algebra_hom(bad, 4, witness)
        assert witness

    def test_laplace_examples(self):
        assert is_laplace(inner_pairing(), 6)
        assert is_laplace(schur_hall_pairing(), 6)

    def test_outer_fails_laplace_with_witness(self):
        witness = []
        assert not is_laplace(outer_pairing(), 3, witness)
        assert witness
        # The documented counterexample: m(s1, s1 s1) = s1^3 while the
        # straightened sum gives 2 s1^3.
        cube = s(1) * s(1) * s(1)
        direct = outer_pairing()(s(1), s(1) * s(1))
        assert direct == cube
        straightened = SymFunc.zero()
        from symchar.schur import coproduct_basis

        for (x1, x2), c in coproduct_basis((1,)).items():
            straightened = straightened + outer_mul(
                outer_pairing().on_basis(x1, (1,)), outer_pairing().on_basis(x2, (1,))
            ).scale(c)
        assert straightened == cube.scale(2)

    def test_frobenius_examples(self):
        assert is_frobenius(inner_pairing(), 5)
        assert not is_frobenius(outer_pairing(), 4)

    def test_degree_check_demands_more_than_the_grading_flag(self):
        # schur-hall vanishes off |x| = |y|, as declared, but its values lie in degree 0.
        assert schur_hall_pairing().grade_preserving
        witness: list = []
        assert not is_frobenius(schur_hall_pairing(), 3, witness=witness)
        assert witness == [("not grade-preserving",)]
        assert is_frobenius(inner_pairing(), 4)

    def test_derived_antipode_inner_laplace_not_frobenius(self):
        a = derived_pairing(inner_pairing(), antipode_cochain())
        assert is_laplace(a, 4)
        assert not is_frobenius(a, 4)


def eps_right_pairing() -> Pairing:
    """a(x, y) = eps(y) x: a(s1, s_() s_()) = s1, but both legs of s1 straighten to s1."""
    return Pairing(lambda mu, nu: {} if nu else {mu: 1}, "eps-right")


def bumped_inner(key, extra: SymFunc) -> Pairing:
    """inner with extra added to its value at the basis pair key."""
    inner = inner_pairing()

    def fn(mu, nu):
        return (SymFunc(inner.on_basis(mu, nu)) + (extra if (mu, nu) == key else SymFunc.zero())).terms

    return Pairing(fn, "bumped-inner", grade_preserving=True)


def h_diagonal_pairing() -> Pairing:
    """The pairing dual to delta(h_alpha) = h_alpha (x) h_alpha, which is
    a(m_beta, m_gamma) = [beta = gamma] m_beta in the monomial basis.  s_(n) is its
    unit on grade n and delta_a is multiplicative, but the Hall form is not
    invariant under it: it fails only the Frobenius law, first at (s2, s11)."""

    @cache
    def delta(lam):  # Jacobi-Trudi: s_lam = det(h_{lam_i - i + j})
        out = TensorSymFunc()
        for perm in permutations(range(len(lam))):
            parts = [lam[i] - i + j for i, j in enumerate(perm)]
            if min(parts, default=0) >= 0:
                h_alpha = SymFunc.one()
                for k in parts:
                    h_alpha = outer_mul(h_alpha, h(k))
                out.add(tensor(h_alpha, h_alpha), (-1) ** sum(i > j for i, j in combinations(perm, 2)))
        return out

    def fn(mu, nu):
        if weight(mu) != weight(nu):
            return {}
        return SymFunc({lam: delta(lam).terms.get((mu, nu), 0) for lam in partitions_of(weight(mu))}).terms

    return Pairing(fn, "h-diagonal", grade_preserving=True)


class TestWitnesses:
    """The first counterexample of every checker branch that a pairing or cochain
    reaches, as its repr."""

    CASES = {
        "right": (is_laplace, eps_right_pairing, 2, "('right', (1,), (), (), s[1], 2*s[1])"),
        "left": (is_laplace, outer_pairing, 3, "('left', (), (), (1,), s[1], 2*s[1])"),
        "cocycle": (is_cocycle2, outer_pairing, 3, "((), (), (1,), s[1], 2*s[1])"),
        "alghom": (
            is_algebra_hom,
            lambda: Cochain1(lambda lam: (SymFunc.basis(lam) + outer_mul(SymFunc.basis(lam), s(1))).terms),
            4,
            "((), (), s[0] + s[1], s[0] + 2*s[1] + s[2] + s[1,1])",
        ),
        "not grade-preserving": (is_frobenius, schur_hall_pairing, 3, "('not grade-preserving',)"),
        "unit": (is_frobenius, schur_hall_pairing, 1, "('unit', 1, (1,), s[0])"),
        "mixed-bialgebra": (
            is_frobenius,
            lambda: bumped_inner(((), ()), unit()),
            2,
            "('mixed-bialgebra', (), (), 2*s[0](x)s[0], 4*s[0](x)s[0])",
        ),
        "frobenius-law": (
            is_frobenius,
            h_diagonal_pairing,
            4,
            "('frobenius-law', (2,), (1, 1), s[1,1](x)s[1,1] + s[1,1](x)s[2] + s[2](x)s[1,1],"
            " s[1,1](x)s[1,1] + s[1,1](x)s[2] + s[2](x)s[1,1], s[2](x)s[1,1])",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_first_counterexample(self, case):
        check, make, degree, expected = self.CASES[case]
        witness: list = []
        assert not check(make(), degree, witness)
        assert [repr(found) for found in witness] == [expected]

    def test_h_diagonal_keeps_every_law_but_frobenius(self):
        assert is_frobenius(h_diagonal_pairing(), 3)
        assert is_laplace(h_diagonal_pairing(), 3)

    def test_unit_law_comes_before_the_counit(self):
        """With a(s2, s11) = s11 + s2, eps1 is no counit of delta_a on grade 2, but the
        unit law fails there first; once it holds on a grade, so does the counit law."""
        witness: list = []
        assert not is_frobenius(bumped_inner(((2,), (1, 1)), s(2)), 3, witness)
        assert repr(witness) == "[('unit', 2, (1, 1), s[2] + s[1,1])]"

    def test_a_value_off_its_grade_is_filed_under_no_lower_grade(self):
        """inner with s1 added to a(s21, s21), declared graded: that pair has weight 6, past
        every pair a check to degree 4 samples, so only a check to degree 6 sees the bad
        grading.  delta_a reads each grade n as a's transpose to degree n, so the s1 read on
        grade 3 is no term of delta_a(s1), and a is Frobenius to degree 4, as inner is."""
        a = bumped_inner(((2, 1), (2, 1)), s(1))
        assert is_frobenius(a, 4)
        witness: list = []
        assert not is_frobenius(a, 6, witness)
        assert witness == [("not grade-preserving",)]


def law_sides(a: Pairing, side: str, x, y, z) -> tuple[SymFunc, SymFunc]:
    """Both sides of a's right law a(x, yz) = a(x1,y) a(x2,z) or left law
    a(xy, z) = a(x,z1) a(y,z2) at (x, y, z), read from a alone."""
    rhs = SymFunc.zero()
    if side == "right":
        for (x1, x2), c in coproduct_basis(x).items():
            rhs.add(outer_mul(a.on_basis(x1, y), a.on_basis(x2, z)), c)
        return a(s(*x), outer_mul(s(*y), s(*z))), rhs
    for (z1, z2), c in coproduct_basis(z).items():
        rhs.add(outer_mul(a.on_basis(x, z1), a.on_basis(y, z2)), c)
    return a(outer_mul(s(*x), s(*y)), s(*z)), rhs


class TestTransposed:
    """a^T(x, y) = a(y, x), the stage through which `is_laplace` reads a's left law
    and `coboundary1` reads eps (x) f."""

    MAKERS = {
        "outer": outer_pairing,
        "inner": inner_pairing,
        "eps-right": eps_right_pairing,
        "bumped-inner": lambda: bumped_inner(((2,), (1, 1)), s(2)),
    }

    @pytest.mark.parametrize("name", MAKERS)
    def test_swaps_and_transposing_twice_gives_back_a(self, name):
        a = self.MAKERS[name]()
        once, twice = _transposed(a), _transposed(_transposed(a))
        for x, y in _basis_pairs(5):
            assert once.on_basis(x, y) == a.on_basis(y, x), (x, y)
            assert twice.on_basis(x, y) == a.on_basis(x, y), (x, y)

    @pytest.mark.parametrize("name", MAKERS)
    def test_keeps_the_grading_and_holds_no_memo(self, name):
        a = self.MAKERS[name]()
        t = _transposed(a)
        assert t.grade_preserving == a.grade_preserving and t.lookup
        for x, y in _basis_pairs(4):
            t.on_basis(x, y)
        assert t._memo == {}

    # outer is symmetric, so outer^T has outer's first witness; eps-right is not.
    WITNESSES = {
        "outer": (outer_pairing, ("left", (), (), (1,)), ("left", (), (), (1,))),
        "eps-right": (eps_right_pairing, ("right", (1,), (), ()), ("left", (), (), (1,))),
    }

    @pytest.mark.parametrize("name", WITNESSES)
    def test_witness_moves_to_the_other_side_with_the_triple_rotated(self, name):
        """a's left law at (x, y, z) is a^T's right law at (z, x, y), and a's right law
        at (x, y, z) is a^T's left law at (y, z, x), with the same two sides."""
        make, first, first_transposed = self.WITNESSES[name]
        a = make()
        for p, q, expected in ((a, _transposed(a), first), (_transposed(a), a, first_transposed)):
            witness: list = []
            assert not is_laplace(p, 3, witness)
            side, x, y, z, lhs, rhs = witness[0]
            assert (side, x, y, z) == expected
            assert law_sides(p, side, x, y, z) == (lhs, rhs)
            moved = ("left", y, z, x) if side == "right" else ("right", z, x, y)
            assert law_sides(q, *moved) == (lhs, rhs)


class TestDeclaredIdentity:
    """Only identity_cochain() declares `identity`; it holds no memo, and
    deriving a pairing by it returns the pairing itself."""

    def test_only_the_identity_cochain_declares_it(self):
        assert identity_cochain().identity
        for name, make in COCHAINS.items():
            assert make().identity == (name == "id"), name
        assert not convolve1(identity_cochain(), identity_cochain()).identity
        assert not Cochain1(lambda lam: {lam: 1}, "id").identity

    def test_identity_holds_no_memo_and_copies(self):
        ident = identity_cochain()
        f = s(2, 1) - s(3).scale(2)
        image = ident(f)
        assert image == f and image is not f and image.terms is not f.terms
        for lam in partitions_up_to(4):
            assert ident.on_basis(lam) == {lam: 1}
        assert not ident._memo

    def test_stage_repr_is_its_class_and_name(self):
        assert repr(inner_pairing()) == "Pairing(inner)"
        assert repr(identity_cochain()) == "Cochain1(id)"

    def test_derived_by_identity_is_the_pairing(self):
        for make in (inner_pairing, outer_pairing, schur_hall_pairing):
            p = make()
            assert derived_pairing(p, identity_cochain()) is p


class TestOneReadPath:
    """A stage is one thing: every Cochain1 and Pairing answers a basis read through
    the one class-level `on_basis`, with a dict; only a computed value is memoized."""

    LOOKED_UP = ("outer", "schur-hall", "e2", "id")
    NAMED = ("trivial", "newell-littlewood", "thibon", "murnaghan-littlewood")

    def library_stages(self):
        for make in (*PAIRINGS.values(), *COCHAINS.values()):
            yield make()
        for name in self.NAMED:
            spec = named_spec(name)
            yield from (stage for pair in spec.stages for stage in pair)
            yield spec.final_cocycle
            yield composite_pairing(spec)
        yield convolve1(identity_cochain(), antipode_cochain())
        yield convolve2(inner_pairing(), outer_pairing())
        yield _composed(antipode_cochain(), inner_pairing())
        yield milnor_moore_inverse1(antipode_cochain())
        yield milnor_moore_inverse2(outer_pairing())
        yield coboundary1(antipode_cochain())
        yield frobenius_inverse(inner_pairing())

    def test_no_stage_overrides_the_shared_read(self):
        assert Cochain1.on_basis is Pairing.on_basis
        for stage in self.library_stages():
            assert "on_basis" not in vars(stage), stage
            key = ((2, 1), (2, 1)) if isinstance(stage, Pairing) else ((2, 1),)
            assert type(stage.on_basis(*key)) is dict, stage
            assert stage.lookup == (stage.name in self.LOOKED_UP), stage

    @staticmethod
    def record_reads(monkeypatch) -> list:
        """Patch the class-level read of both stage kinds to record each reader."""
        readers: list = []
        for cls in (Pairing, Cochain1):
            def counted(self, *key, _read=cls.on_basis):
                readers.append(self)
                return _read(self, *key)

            monkeypatch.setattr(cls, "on_basis", counted)
        return readers

    def test_a_product_reads_every_stage_through_the_class(self, monkeypatch):
        product = build_hash(named_spec("murnaghan-littlewood"))
        readers = self.record_reads(monkeypatch)
        x, y = s(3, 2, 1) + s(2, 1), s(2, 2) - s(3, 1).scale(2)
        assert product(x, y) == power_sum_hash("murnaghan-littlewood", x, y)
        assert {"schur-hall", "inner", "outer"} <= {stage.name for stage in readers}

    def test_looked_up_stages_hold_no_memo(self, monkeypatch):
        """After products of every named spec and their cochains' reads, each
        looked-up stage read has an empty memo."""
        readers = self.record_reads(monkeypatch)
        x, y = s(3, 2, 1) + s(2, 1), s(2, 2) - s(3, 1).scale(2)
        for name in self.NAMED:
            spec = named_spec(name)
            value = build_hash(spec)(x, y)
            for stage in (*(phi for _, phi in spec.stages), spec.final_cocycle):
                assert stage(value) == value
        looked_up = [stage for stage in readers if stage.name in self.LOOKED_UP]
        assert {stage.name for stage in looked_up} == set(self.LOOKED_UP)
        for stage in looked_up:
            assert stage.lookup and not stage._memo, stage


class TestInnerMemo:
    """The `inner` stage keeps the Kronecker products it reads, one memo per stage;
    `kronecker_basis` keeps none, so a caller's `inner_mul` leaves nothing behind."""

    def test_each_pair_is_computed_once_per_stage(self):
        inner = inner_pairing()
        calls: list = []

        def counted(mu, nu, _fn=inner._fn):
            calls.append((mu, nu))
            return _fn(mu, nu)

        inner._fn = counted
        product = build_hash(HashSpec(((inner, identity_cochain()),), name="thibon"))
        x, y = s(3, 2, 1) + s(2, 1), s(2, 2) - s(3, 1).scale(2)
        value = product(x, y)
        assert value == named_product("thibon")(x, y)
        assert calls and len(calls) == len(set(calls)) == len(inner._memo)
        assert set(calls) == set(inner._memo)
        for mu, nu in calls:
            assert inner._memo[mu, nu] == kronecker_basis(mu, nu)
        read = len(calls)
        assert product(x, y) == value
        assert len(calls) == read

    def test_inner_mul_leaves_every_stage_memo_unchanged(self):
        thibon, reduced = named_spec("thibon"), named_spec("murnaghan-littlewood")
        shared = thibon.stages[0][0]
        assert shared.name == "inner" and reduced.stages[1][0] is shared
        named_product("thibon")(s(2, 1), s(2, 1))
        fresh = inner_pairing()
        fresh(s(2, 1), s(3))
        stages = [shared, fresh, *(stage for pair in reduced.stages for stage in pair)]
        before = [dict(stage._memo) for stage in stages]
        assert before[0] and before[1]
        pair = (7, 4, 2, 1), (5, 5, 3, 1)
        assert pair not in shared._memo
        assert inner_mul(s(*pair[0]), s(*pair[1])) == SymFunc(kronecker_basis(*pair))
        assert [stage._memo for stage in stages] == before


class TestDerivedAndInverse:
    def test_derived_identity_is_same_pairing(self):
        assert pairings_equal(
            derived_pairing(inner_pairing(), identity_cochain()), inner_pairing(), 4
        )

    def test_derived_eps1_inner_is_schur_hall(self):
        """(eta o eps^1) o inner = <x|y> s_(), the stage Newell-Littlewood and
        Murnaghan-Littlewood use as `schur-hall`: s_() on the diagonal and zero
        off it, on every same-weight pair up to weight 10."""
        derived, schur_hall = derived_pairing(inner_pairing(), eps1_cochain()), schur_hall_pairing()
        for n in range(11):
            for x in partitions_of(n):
                for y in partitions_of(n):
                    expected = {(): 1} if x == y else {}
                    assert derived.on_basis(x, y) == schur_hall.on_basis(x, y) == expected, (x, y)

    def test_derived_rejects_non_hom(self):
        bad = Cochain1(lambda lam: {lam: 2}, "doubling")
        with pytest.raises(ValueError, match="not an algebra homomorphism"):
            derived_pairing(inner_pairing(), bad)

    def test_frobenius_inverse_of_inner(self):
        inv = frobenius_inverse(inner_pairing())
        assert pairings_equal(convolve2(inv, inner_pairing()), unit_pairing(), 5)
        assert pairings_equal(inv, milnor_moore_inverse2(inner_pairing()), 4)

    def test_frobenius_inverse_inherits_the_declared_grading(self):
        assert frobenius_inverse(inner_pairing()).grade_preserving
        assert frobenius_inverse(unit_pairing()).grade_preserving
        undeclared = Pairing(inner_pairing().on_basis, "inner")
        assert not frobenius_inverse(undeclared).grade_preserving

    def test_frobenius_inverse_of_e2(self):
        assert pairings_equal(frobenius_inverse(unit_pairing()), unit_pairing(), 3)

    def test_frobenius_inverse_rejects_non_frobenius(self):
        with pytest.raises(ValueError, match="not Frobenius"):
            frobenius_inverse(outer_pairing())
