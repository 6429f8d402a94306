"""HashSpec and FGL1 are immutable values."""

from fractions import Fraction

import pytest

from symchar.convolution import eps1_cochain, identity_cochain, inner_pairing
from symchar.fgl import FGL1, multiplicative
from symchar.hash_products import HashSpec
from symchar.schur import SymFunc


class TestHashSpec:
    def test_defaults(self):
        stages = ((inner_pairing(), eps1_cochain()),)
        spec = HashSpec(stages)
        assert spec.stages is stages and spec.name == "hash"
        final = spec.final_cocycle
        assert final.name == "id"
        for lam in [(), (1,), (2, 1), (3, 1, 1)]:
            assert final(SymFunc.basis(lam)) == SymFunc.basis(lam)
        assert HashSpec(stages).final_cocycle is not final  # a new identity per spec

    def test_value_equality(self):
        stages = ((inner_pairing(), eps1_cochain()),)
        final = identity_cochain()
        assert HashSpec(stages, final, "x") == HashSpec(stages, final, "x")
        assert HashSpec(stages, final, "x") != HashSpec(stages, final, "y")
        assert HashSpec(stages, final, "x") != HashSpec(stages, identity_cochain(), "x")
        assert hash(HashSpec(stages, final)) == hash(HashSpec(stages, final))

    @pytest.mark.parametrize("attr", ["stages", "final_cocycle", "name", "other"])
    def test_immutable(self, attr):
        spec = HashSpec(())
        with pytest.raises(AttributeError):
            setattr(spec, attr, None)


class TestFGL1:
    def test_fields_and_equality(self):
        F = multiplicative(2, cap=5)
        assert F.coeffs == ((1, 1, Fraction(2)),) and F.cap == 5
        assert F == FGL1.make({(1, 1): 2}, 5)
        assert F != multiplicative(2, cap=6)
        assert F != multiplicative(0, cap=5)
        assert hash(F) == hash(FGL1.make({(1, 1): 2}, 5))

    def test_rebuild_from_own_type(self):
        F = multiplicative(3, cap=8)
        G = type(F)(F.coeffs, 4)
        assert type(G) is FGL1 and G.coeffs == F.coeffs and G.cap == 4

    @pytest.mark.parametrize("attr", ["coeffs", "cap", "other"])
    def test_immutable(self, attr):
        with pytest.raises(AttributeError):
            setattr(multiplicative(0), attr, 3)
