"""Hash (deformed) products, their Hopf classification, and the basis
change between group and subgroup characters by a series pair."""

from fractions import Fraction

import pytest

import oracles
from oracles import pairings_equal, power_sum_hash
from symchar.convolution import schur_hall_pairing, unit_pairing
from symchar.hash_products import (
    HashSpec,
    _product,
    build_hash,
    composite_pairing,
    is_bialgebra,
    named_product,
    named_spec,
    validate_spec,
)
from symchar.convolution import (
    Cochain1,
    Pairing,
    antipode_cochain,
    convolve2,
    derived_pairing,
    eps1_cochain,
    identity_cochain,
    inner_pairing,
    is_algebra_hom,
    is_frobenius,
    outer_pairing,
)
from symchar.kronecker import character, kronecker_basis
from symchar.partitions import partitions_of, partitions_up_to, weight, z_and_n
from symchar.schur import (
    SymFunc,
    TensorSymFunc,
    antipode,
    iterated_coproduct_basis,
    outer_mul,
    s,
    tensor,
    unit,
)
from symchar.series import skew_by_series

NAMES = ("trivial", "thibon", "newell-littlewood", "murnaghan-littlewood")


def reference_hash(spec: HashSpec):
    """Independent evaluator: sum over every pair of (k+1)-fold coproduct
    terms of the product of the stage factors and the final cochain."""
    k = len(spec.stages)

    def product(f: SymFunc, g: SymFunc) -> SymFunc:
        out = SymFunc.zero()
        for mu, cf in f.terms.items():
            xsplits = iterated_coproduct_basis(mu, k + 1)
            for nu, cg in g.terms.items():
                ysplits = iterated_coproduct_basis(nu, k + 1)
                for xlegs, cx in xsplits.items():
                    for ylegs, cy in ysplits.items():
                        term = SymFunc.one()
                        for i, (pairing, cocycle) in enumerate(spec.stages):
                            factor = cocycle(pairing.on_basis(xlegs[i], ylegs[i]))
                            if not factor:
                                term = SymFunc.zero()
                                break
                            term = outer_mul(term, factor)
                        if not term:
                            continue
                        tail = spec.final_cocycle(
                            outer_mul(SymFunc.basis(xlegs[k]), SymFunc.basis(ylegs[k]))
                        )
                        out = out + outer_mul(term, tail).scale(cf * cg * cx * cy)
        return out

    return product


def agrees_with_reference(spec: HashSpec, reference=None, max_weight: int = 4) -> None:
    """On basis pairs of weight <= max_weight each and on two-term sums; the
    reference is `reference_hash(spec)` unless one is given."""
    staged, reference = build_hash(spec), reference or reference_hash(spec)
    basis = [SymFunc.basis(lam) for lam in partitions_up_to(max_weight)]
    for x in basis:
        for y in basis:
            assert staged(x, y) == reference(x, y)
    sums = [s(2, 1) + s(1), s(3) - s(1, 1).scale(2)]
    for x in sums:
        for y in sums + basis[:4]:
            assert staged(x, y) == reference(x, y)
            assert staged(y, x) == reference(y, x)


def three_stage_antipode_spec() -> HashSpec:
    stages = (
        (inner_pairing(), identity_cochain()),
        (inner_pairing(), eps1_cochain()),
        (inner_pairing(), identity_cochain()),
    )
    return HashSpec(stages, antipode_cochain(), "custom")


class TestStagedEvaluator:
    @pytest.mark.parametrize("name", NAMES)
    def test_named_spec_matches_reference(self, name):
        agrees_with_reference(named_spec(name))

    def test_three_stage_custom_spec_matches_reference(self):
        agrees_with_reference(three_stage_antipode_spec())

    @pytest.mark.parametrize(
        "spec", (named_spec("murnaghan-littlewood"), three_stage_antipode_spec()), ids=("ml", "three-stage")
    )
    def test_left_fold_equals_right_fold(self, spec):
        """build_hash folds the stages from the left into A and evaluates
        A * psi o m; by associativity of the convolution this is the right fold
        phi_1 o a_1 * (phi_2 o a_2 * (... * psi o m))."""
        final = spec.final_cocycle
        right = Pairing(lambda mu, nu: final(outer_mul(SymFunc.basis(mu), SymFunc.basis(nu))).terms, "psi.m")
        for pairing, cocycle in reversed(spec.stages):
            right = convolve2(derived_pairing(pairing, cocycle), right)
        agrees_with_reference(spec, right, max_weight=5)

    def test_antipode_final_has_no_unit(self):
        """A final psi != id keeps none of the hash laws: x # s_() = S(x)."""
        product = build_hash(three_stage_antipode_spec())
        for lam in partitions_up_to(4):
            x = SymFunc.basis(lam)
            assert product(x, unit()) == antipode(x)
        assert product(s(1), unit()) == -s(1)

    def test_named_product_is_built_once(self):
        assert named_product("thibon") is named_product("thibon")
        assert named_product("thibon")(s(1), s(1)) == s(2) + s(1, 1) + s(1)


def p2_plethysm_pairing() -> Pairing:
    """a(x, y) = <x | y[p_2]> s_(): Laplace, since y -> y[p_2] is a bialgebra
    map, but nonzero only where |x| = 2|y|, so it declares no grading."""

    def fn(lam, mu):
        if weight(lam) != 2 * weight(mu):
            return {}
        # s_mu[p_2] = sum_rho chi^mu(rho) p_{2 rho} / z_rho
        total = sum(
            Fraction(character(mu, rho) * character(lam, tuple(2 * r for r in rho)), z_and_n(rho)[0])
            for rho in partitions_of(weight(mu))
        )
        assert total.denominator == 1
        return SymFunc.one().scale(int(total)).terms

    return Pairing(fn, "p2-plethysm")


def undeclared_inner_pairing() -> Pairing:
    """The inner pairing, graded but without the declaration."""
    return Pairing(lambda mu, nu: kronecker_basis(mu, nu), "inner-undeclared")


class TestDeclaredGrading:
    # pairing -> degree of a(x, y) for |x| = |y| = n
    DECLARED = {
        "inner": (inner_pairing, lambda n: n),
        "schur-hall": (schur_hall_pairing, lambda n: 0),
        "e2": (unit_pairing, lambda n: 0),
        "id.inner": (lambda: derived_pairing(inner_pairing(), identity_cochain()), lambda n: n),
        "antipode.inner": (lambda: derived_pairing(inner_pairing(), antipode_cochain()), lambda n: n),
        "eta.eps1.inner": (lambda: derived_pairing(inner_pairing(), eps1_cochain()), lambda n: 0),
    }

    @pytest.mark.parametrize("name", DECLARED)
    def test_declared_pairing_is_zero_off_degree_and_homogeneous(self, name):
        make, degree = self.DECLARED[name]
        pairing = make()
        assert pairing.grade_preserving
        basis = partitions_up_to(6)
        for x in basis:
            for y in basis:
                value = pairing.on_basis(x, y)
                if weight(x) != weight(y):
                    assert not value, (x, y)
                else:
                    assert SymFunc(value).degrees() <= {degree(weight(x))}, (x, y)

    def test_undeclared_pairings(self):
        for pairing in (outer_pairing(), p2_plethysm_pairing(), undeclared_inner_pairing()):
            assert not pairing.grade_preserving
            assert not derived_pairing(pairing, identity_cochain()).grade_preserving
            assert not convolve2(inner_pairing(), pairing).grade_preserving
            assert not convolve2(pairing, inner_pairing()).grade_preserving
        stages = ((inner_pairing(), eps1_cochain()), (undeclared_inner_pairing(), identity_cochain()))
        assert not composite_pairing(HashSpec(stages)).grade_preserving

    @pytest.mark.parametrize(
        "spec", [*map(named_spec, NAMES), three_stage_antipode_spec()], ids=(*NAMES, "three-stage")
    )
    def test_composite_inherits_the_declaration(self, spec):
        """A is declared exactly when every stage pairing is, and then it is zero
        off |x| = |y| (checked on values computed without A's own flag).  A need
        not be homogeneous: the Newell-Littlewood A is schur-hall, of degree 0."""
        composite = composite_pairing(spec)
        assert composite.grade_preserving == all(a.grade_preserving for a, _ in spec.stages)
        basis = partitions_up_to(5)
        for x in basis:
            for y in basis:
                if weight(x) != weight(y):
                    assert not composite.on_basis(x, y), (x, y)

    def test_undeclared_graded_pairing_matches_reference(self):
        stages = ((undeclared_inner_pairing(), identity_cochain()), (inner_pairing(), eps1_cochain()))
        agrees_with_reference(HashSpec(stages, identity_cochain(), "undeclared"))

    def test_off_degree_pairing_matches_reference(self):
        pairing = p2_plethysm_pairing()
        assert pairing.on_basis((2,), (1,)) == {(): 1}
        agrees_with_reference(HashSpec(((pairing, identity_cochain()),), identity_cochain(), "p2"))


class TestNamedSpecs:
    def test_trivial_is_outer_product(self):
        product = build_hash(named_spec("trivial"))
        for mu in partitions_up_to(4):
            for nu in partitions_up_to(4):
                assert product(SymFunc.basis(mu), SymFunc.basis(nu)) == outer_mul(
                    SymFunc.basis(mu), SymFunc.basis(nu)
                )

    def test_thibon_golden(self):
        product = build_hash(named_spec("thibon"))
        assert product(s(1), s(1)) == s(2) + s(1, 1) + s(1)

    def test_newell_littlewood_golden(self):
        product = build_hash(named_spec("newell-littlewood"))
        assert product(s(1), s(1)) == s(2) + s(1, 1) + unit()

    def test_murnaghan_littlewood_golden(self):
        product = build_hash(named_spec("murnaghan-littlewood"))
        assert product(s(1), s(1)) == s(2) + s(1, 1) + s(1) + unit()

    def test_unit_of_every_named_hash(self):
        for name in NAMES:
            product = build_hash(named_spec(name))
            for lam in partitions_up_to(3):
                assert product(unit(), SymFunc.basis(lam)) == SymFunc.basis(lam)
                assert product(SymFunc.basis(lam), unit()) == SymFunc.basis(lam)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_spec("nope")

    def test_named_specs_share_stage_objects(self):
        """One inner pairing, one schur-hall pairing and one id cochain serve
        every named spec: Newell-Littlewood's composite is the shared schur-hall
        pairing, which is also Murnaghan-Littlewood's first stage."""
        (thibon_inner, thibon_id), = named_spec("thibon").stages
        (ml_schur_hall, ml_id0), (ml_inner, ml_id1) = named_spec("murnaghan-littlewood").stages
        nl = composite_pairing(named_spec("newell-littlewood"))
        assert nl is ml_schur_hall and nl.name == "schur-hall"
        assert thibon_inner is ml_inner
        assert thibon_id is ml_id0 is ml_id1 is named_spec("trivial").final_cocycle
        assert len({id(named_spec(name).final_cocycle) for name in NAMES}) == 1


class TestDeclaredIdentity:
    """Only identity_cochain() declares `identity`: id o a is a itself, and the
    psi = id tail reads product_basis's cache.  A plain Cochain1 that computes
    the identity takes the memoized paths, and the two agree."""

    def test_thibon_composite_is_the_shared_inner(self):
        spec = named_spec("thibon")
        (inner, _), = spec.stages
        assert composite_pairing(spec) is inner

    @pytest.mark.parametrize(
        "spec", [named_spec("thibon"), named_spec("murnaghan-littlewood"), three_stage_antipode_spec()],
        ids=("thibon", "murnaghan-littlewood", "three-stage"),
    )
    def test_undeclared_identity_gives_the_same_product(self, spec):
        def undeclared(cochain):
            return Cochain1(lambda lam: {lam: 1}, "id") if cochain.identity else cochain

        plain = HashSpec(
            tuple((a, undeclared(phi)) for a, phi in spec.stages), undeclared(spec.final_cocycle), "plain"
        )
        assert any(phi.identity for _, phi in spec.stages)
        assert not any(phi.identity for _, phi in plain.stages) and not plain.final_cocycle.identity
        agrees_with_reference(spec, build_hash(plain), max_weight=5)


class TestValidation:
    def test_rejects_non_laplace_stage(self):
        bad = HashSpec(((outer_pairing(), Cochain1(lambda lam: {lam: 1}, "id")),))
        with pytest.raises(ValueError, match="Laplace"):
            validate_spec(bad)

    def test_rejects_non_hom_cochain(self):
        from symchar.convolution import inner_pairing

        doubling = Cochain1(lambda lam: {lam: 2}, "doubling")
        with pytest.raises(ValueError, match="algebra homomorphism"):
            validate_spec(HashSpec(((inner_pairing(), doubling),)))

    def test_rejects_non_hom_final_cochain(self):
        doubling = Cochain1(lambda lam: {lam: 2}, "doubling")
        with pytest.raises(ValueError, match="^final cochain 'doubling' is not an algebra homomorphism$"):
            validate_spec(HashSpec((), doubling))

    def test_cochains_are_checked_to_degree_four(self):
        """id below weight 4 and zero from weight 4 on is an algebra map to degree 3 and
        not to degree 4 (cut(s1 s3) = 0, cut(s1) cut(s3) = s1 s3), so both checked
        constructions refuse it."""
        cut = Cochain1(lambda lam: {lam: 1} if weight(lam) < 4 else {}, "cut")
        assert is_algebra_hom(cut, 3) and not is_algebra_hom(cut, 4)
        with pytest.raises(ValueError, match="^cochain 'cut' is not an algebra homomorphism$"):
            derived_pairing(inner_pairing(), cut)
        with pytest.raises(ValueError, match="^stage 0 cochain 'cut' is not an algebra homomorphism$"):
            validate_spec(HashSpec(((inner_pairing(), cut),)))
        with pytest.raises(ValueError, match="^final cochain 'cut' is not an algebra homomorphism$"):
            validate_spec(HashSpec((), cut))


class TestValidatedOnce:
    """Every path that builds a spec's derived pairings checks each of its
    cochains exactly once."""

    @pytest.fixture
    def checked(self, monkeypatch):
        from symchar import convolution, hash_products

        real, seen = convolution.is_algebra_hom, []

        def counted(cochain, *args):
            seen.append(cochain)
            return real(cochain, *args)

        for module in (convolution, hash_products):
            monkeypatch.setattr(module, "is_algebra_hom", counted)
        return seen

    @staticmethod
    def cochains(spec: HashSpec) -> list:
        return sorted(map(id, [phi for _, phi in spec.stages] + [spec.final_cocycle]))

    def test_named_product(self, checked):
        named_product.__wrapped__("thibon")
        assert len(checked) == 2

    @pytest.mark.parametrize(
        "build",
        (build_hash, composite_pairing, lambda spec: is_bialgebra(spec, 3)),
        ids=("build_hash", "composite_pairing", "is_bialgebra"),
    )
    @pytest.mark.parametrize("name", ("thibon", "murnaghan-littlewood"))
    def test_each_cochain_once(self, checked, build, name):
        spec = named_spec(name)
        build(spec)
        assert sorted(map(id, checked)) == self.cochains(spec)


class TestCompositePairing:
    def test_empty_spec_gives_unit_pairing(self):
        assert pairings_equal(composite_pairing(named_spec("trivial")), unit_pairing(), 4)

    def test_unit_pairing_keeps_no_memo(self):
        """e2 answers each pair with a fresh {(): 1} or {}, declared `lookup`, so the
        trivial composite stores nothing however many products it serves."""
        spec = named_spec("trivial")
        composite = composite_pairing(spec)
        product = _product(spec, composite)
        for mu in partitions_up_to(3):
            for nu in partitions_up_to(3):
                x, y = SymFunc.basis(mu), SymFunc.basis(nu)
                assert product(x, y) == outer_mul(x, y)
                expected = {(): 1} if mu == nu == () else {}
                assert composite.on_basis(mu, nu) == expected
        assert product(s(2, 1) + s(1), s(2) - s(1, 1)) == outer_mul(s(2, 1) + s(1), s(2) - s(1, 1))
        assert not composite._memo

    def test_newell_littlewood_pairing_is_schur_hall(self):
        assert pairings_equal(
            composite_pairing(named_spec("newell-littlewood")), schur_hall_pairing(), 4
        )


class TestPowerSumOracle:
    """Every named hash product against the power-sum oracle, which reaches the
    Schur basis through border-strip characters only: every basis pair of
    weight <= 4 per factor, and two-term sums, whose coproduct legs merge."""

    SUMS = [s(2, 1) + s(1), s(3) - s(1, 1).scale(2), s(2, 2) + s(3, 1), s(1) + unit()]

    @pytest.mark.parametrize("name", NAMES)
    def test_named_product(self, name):
        product = named_product(name)
        factors = [SymFunc.basis(lam) for lam in partitions_up_to(4)] + self.SUMS
        for x in factors:
            for y in factors:
                assert product(x, y) == power_sum_hash(name, x, y), (name, x, y)

    def test_oracle_reads_no_lr_skew_coproduct_or_kronecker_code(self):
        """Everything power_sum_hash reaches through the oracle module's names,
        closures and tables is stdlib, `symchar.partitions` or the SymFunc type."""
        seen, todo = set(), [oracles.power_sum_hash]
        while todo:
            obj = todo.pop()
            obj = getattr(obj, "__wrapped__", obj)
            module = getattr(obj, "__module__", None) or ""
            if isinstance(obj, dict):
                todo += obj.values()
            elif module.startswith("symchar"):
                assert module == "symchar.partitions" or obj is SymFunc, obj
            elif module == oracles.__name__ and hasattr(obj, "__code__"):
                todo += [cell.cell_contents for cell in obj.__closure__ or ()]
                codes = [obj.__code__]
                while codes:
                    code = codes.pop()
                    codes += [c for c in code.co_consts if hasattr(c, "co_names")]
                    todo += [vars(oracles).get(n) for n in set(code.co_names) - seen]
                    seen |= set(code.co_names)
        assert {"reference_character", "_power_coproduct", "z_and_n", "POWER_SUM_PAIRINGS"} <= seen


class TestHopfClassification:
    def test_both_checks_share_one_composite(self, monkeypatch):
        from symchar import hash_products

        seen = []
        real_frobenius, real_product = hash_products.is_frobenius, hash_products._product

        def frobenius(composite, *args):
            seen.append(composite)
            return real_frobenius(composite, *args)

        def product(spec, composite):
            seen.append(composite)
            return real_product(spec, composite)

        monkeypatch.setattr(hash_products, "is_frobenius", frobenius)
        monkeypatch.setattr(hash_products, "_product", product)
        assert not is_bialgebra(named_spec("murnaghan-littlewood"), 3)
        assert len(seen) == 2 and seen[0] is seen[1]

    def test_trivial_is_hopf(self):
        assert is_bialgebra(named_spec("trivial"), 4)

    def test_frobenius_composite_whose_law_fails_raises(self, monkeypatch):
        """The theorem guard: e2, the trivial spec's composite, is Frobenius, so a
        failing bialgebra law there is an error in the library, not a verdict.  The
        law is made to fail by doubling the product, so Delta(x # y) = 2 Delta(xy)
        against 4 Delta(x) Delta(y)."""
        from symchar import hash_products

        monkeypatch.setattr(
            hash_products, "_product", lambda spec, composite: lambda f, g: outer_mul(f, g).scale(2)
        )
        assert is_frobenius(composite_pairing(named_spec("trivial")), 4)
        with pytest.raises(AssertionError, match="'trivial': the composite pairing is Frobenius"):
            is_bialgebra(named_spec("trivial"), 4)

    @pytest.mark.parametrize("pairing", ("inner", "schur-hall", "e2"))
    def test_one_stage_verdicts(self, pairing):
        """Every one-stage spec over the pairing, each cochain as the stage's and id
        or antipode as the final one, at degree 3: the law holds for e2 and for
        inner unless the stage is m, and never for schur-hall."""
        from symchar.convolution import COCHAINS, PAIRINGS

        for stage in COCHAINS:
            for final in ("id", "antipode"):
                spec = HashSpec(((PAIRINGS[pairing](), COCHAINS[stage]()),), COCHAINS[final]())
                expected = pairing == "e2" or (pairing == "inner" and stage != "m")
                assert is_bialgebra(spec, 3) is expected, (stage, final)

    def test_final_antipode_keeps_the_law_without_a_unit(self):
        """(inner, id) with a final antipode keeps the bialgebra law, yet s_() is no
        unit of it: x # s_() = S(x).  So the check is the law's, not Hopf's."""
        spec = HashSpec(((inner_pairing(), identity_cochain()),), antipode_cochain())
        assert is_bialgebra(spec, 3)
        assert build_hash(spec)(s(2), SymFunc.one()) == antipode(s(2))
        assert antipode(s(2)) != s(2)

    def test_thibon_is_hopf(self):
        assert is_bialgebra(named_spec("thibon"), 4)

    def test_newell_littlewood_is_not(self):
        witness: list = []
        assert not is_bialgebra(named_spec("newell-littlewood"), 4, witness)
        assert witness[0][:2] == ((1,), (1,))

    @pytest.mark.parametrize(
        "stages",
        (
            ((inner_pairing, identity_cochain),) * 2,
            ((inner_pairing, identity_cochain),) * 3,
            ((inner_pairing, antipode_cochain),),
        ),
        ids=("inner*inner", "inner*inner*inner", "antipode.inner"),
    )
    def test_law_without_frobenius(self, stages):
        """A composite that is not Frobenius (s_(1) is no unit of it) but whose
        hash keeps the bialgebra law: the verdict is the law's, not an error."""
        spec = HashSpec(tuple((a(), phi()) for a, phi in stages))
        assert not is_frobenius(composite_pairing(spec), 4)
        assert is_bialgebra(spec, 4) is True


class TestBasisChange:
    """f / M_pi goes to the subgroup basis and f / L_pi back: mutually inverse skews."""

    def test_to_subgroup(self):
        assert skew_by_series(s(2), "D") == s(2) + unit()

    def test_to_group(self):
        assert skew_by_series(s(2) + unit(), "C") == s(2)

    def test_round_trip(self):
        for pair in (("M", "L"), ("A", "B"), ("C", "D")):
            for lam in partitions_up_to(6):
                f = SymFunc.basis(lam)
                assert skew_by_series(skew_by_series(f, pair[0]), pair[1]) == f

    def test_rejects_unknown_direction(self):
        # The direction is chosen by its series tag; an unknown one is refused.
        with pytest.raises(ValueError, match="unknown series"):
            skew_by_series(s(1), "sideways")
