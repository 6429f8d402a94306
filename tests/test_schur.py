"""Schur-basis ring and Hopf structure: products, coproducts, antipode,
scalar product, skews, and the monomial-expansion oracle."""

import functools
import gc
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import eval_polynomial, hook_dimension, poly_mul
from symchar.characters import branch
from symchar.hash_products import build_hash, named_product, named_spec
from symchar.kronecker import inner_coproduct_basis, inner_mul, kronecker_basis
from symchar.partitions import (
    CANONICAL,
    conjugate,
    contains,
    partitions_of,
    partitions_up_to,
    weight,
)
from symchar.schur import (
    SymFunc,
    TensorSymFunc,
    _bilinear,
    _product,
    _skew,
    antipode,
    coproduct,
    coproduct_basis,
    counit,
    cut_coproduct,
    dimension_gl,
    e,
    eval_monomials,
    h,
    linear,
    loop,
    lr_coefficient,
    outer_mul,
    product_basis,
    s,
    scalar,
    signed_sum,
    skew,
    skew_basis,
    tensor,
    unit,
)
from symchar.series import mul_by_series
from symchar.vertex import bernstein, check_commutation

small_partitions = st.sampled_from(partitions_up_to(5))
sym_elements = st.lists(
    st.tuples(small_partitions, st.integers(-3, 3)), max_size=4
).map(lambda terms: sum((SymFunc.basis(lam).scale(c) for lam, c in terms), SymFunc.zero()))


def monomial_oracle(f: SymFunc, g: SymFunc, n_vars: int):
    return poly_mul(eval_polynomial(f, n_vars), eval_polynomial(g, n_vars))


def reference_lr_coefficient(lam, mu, nu) -> int:
    """c^lam_{mu,nu} by backtracking over the cells of lam/mu.

    Cells are filled in reverse reading order (rows top to bottom, each row
    right to left) so semistandardness and the lattice-word condition are
    both checkable incrementally.
    """
    if weight(lam) != weight(mu) + weight(nu):
        return 0
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        return 0
    if not nu:
        return 1
    cells = []
    for i in range(len(lam)):
        lo = mu[i] if i < len(mu) else 0
        for j in range(lam[i] - 1, lo - 1, -1):
            cells.append((i, j))
    k = len(nu)
    counts = [0] * (k + 1)
    grid = {}
    total = 0

    def fill(pos: int) -> None:
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        i, j = cells[pos]
        hi = k
        right = grid.get((i, j + 1))
        if right is not None:
            hi = min(hi, right)
        above = grid.get((i - 1, j))
        lo = above + 1 if above is not None else 1
        for v in range(lo, hi + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            counts[v] += 1
            grid[(i, j)] = v
            fill(pos + 1)
            del grid[(i, j)]
            counts[v] -= 1

    fill(0)
    return total


REFERENCE_WEIGHT = 9


@functools.cache
def reference_table() -> dict:
    """lam -> {(mu, nu): c^lam_{mu,nu} != 0} for every |lam| <= REFERENCE_WEIGHT."""
    table = {}
    for lam in partitions_up_to(REFERENCE_WEIGHT):
        table[lam] = {
            (mu, nu): c
            for mu in partitions_up_to(weight(lam))
            for nu in partitions_of(weight(lam) - weight(mu))
            if (c := reference_lr_coefficient(lam, mu, nu))
        }
    return table


class TestBasisLabels:
    """`SymFunc.basis`, `s` and `TensorSymFunc.basis` store a label as a partition:
    trailing zeros are dropped, and a label that is not a partition raises."""

    def test_trailing_zeros_are_dropped(self):
        from symchar.characters import newell_littlewood

        assert s(2, 0) == s(2) and SymFunc.basis([2, 1, 0, 0]) == s(2, 1) and s(0) == unit()
        assert TensorSymFunc.basis((1, 0), (0,)) == TensorSymFunc.basis((1,), ())
        assert outer_mul(s(2, 0), s(1)) == s(3) + s(2, 1)
        assert inner_mul(s(2, 0), s(2)) == s(2)
        assert newell_littlewood(s(1, 0), s(1)) == newell_littlewood(s(1), s(1))

    @pytest.mark.parametrize("label", [(1, 2), (2, 0, 1), (0, 1), (2, -1), (-1,), (1.5,), ("2",)])
    def test_non_partitions_raise(self, label):
        for make in (
            lambda: s(*label),
            lambda: SymFunc.basis(label),
            lambda: TensorSymFunc.basis(label, (1,)),
            lambda: TensorSymFunc.basis((1,), label),
        ):
            with pytest.raises(ValueError, match="not a partition"):
                make()


class TestCombinationCore:
    def test_add_is_in_place_and_returns_self(self):
        acc = s(2) + s(1, 1).scale(3)
        other = s(1, 1) + s(3)
        assert acc.add(other, -3) is acc
        assert acc.terms == {(2,): 1, (3,): -3}
        assert other == s(1, 1) + s(3)

    def test_add_drops_cancelled_terms(self):
        acc = s(1).scale(2)
        acc.add(s(1), -2)
        assert acc.terms == {} and acc.is_zero()
        acc.add(s(1), 0)
        assert acc.terms == {}

    def test_add_on_tensors(self):
        acc = TensorSymFunc.basis((1,), ())
        acc.add(TensorSymFunc.basis((1,), ()) - TensorSymFunc.basis((), (1,)), -1)
        assert acc == TensorSymFunc.basis((), (1,))

    def test_integer_scaling_on_either_side(self):
        assert 2 * s(1) == s(1) * 2 == s(1).scale(2)
        assert TensorSymFunc.basis((1,), ()) * 3 == TensorSymFunc.basis((1,), ()).scale(3)

    @pytest.mark.parametrize(
        "multiply",
        [
            lambda: s(1) * 1.5,
            lambda: 1.5 * s(1),
            lambda: TensorSymFunc.basis((1,), ()) * 1.5,
            lambda: 1.5 * TensorSymFunc.basis((1,), ()),
            lambda: TensorSymFunc.basis((1,), ()) * s(1),
        ],
    )
    def test_unsupported_operands_raise(self, multiply):
        with pytest.raises(TypeError):
            multiply()

    def test_symfunc_is_unhashable(self):
        # `add` changes a SymFunc in place, so a hash would go stale under a dict key.
        with pytest.raises(TypeError):
            hash(s(1))

    def test_operators_copy(self):
        f, g = s(2) + s(1), s(1)
        total, diff = f + g, f - g
        assert f == s(2) + s(1) and g == s(1)
        assert total.terms == {(2,): 1, (1,): 2} and diff == s(2)

    @given(sym_elements, sym_elements, st.integers(-3, 3))
    @settings(max_examples=60)
    def test_add_matches_operators(self, f, g, c):
        acc = SymFunc(f.terms)
        assert acc.add(g, c) == f + g.scale(c)

    def test_linear_extension(self):
        f = s(2).scale(2) - s(1, 1)
        assert linear(f, lambda lam: {lam[:1]: 1, (): 1}, SymFunc) == s(2).scale(2) - s(1) + unit()
        assert linear(f, coproduct_basis, TensorSymFunc) == coproduct(f)

    @given(sym_elements, sym_elements)
    @settings(max_examples=40)
    def test_term_dicts_extend_as_their_combinations(self, f, g):
        """linear, _bilinear, outer_mul and tensor read a {key: coefficient} dict,
        such as a stage's value, as the combination that holds it."""
        first = lambda lam: {lam[:1]: 1, (): 1}
        assert linear(f.terms, first, SymFunc) == linear(f, first, SymFunc)
        assert linear(f.terms, coproduct_basis, TensorSymFunc) == coproduct(f)
        assert _bilinear(f.terms, g.terms, skew_basis) == _bilinear(f, g, skew_basis) == skew(f, g)
        assert outer_mul(f.terms, g.terms) == outer_mul(f.terms, g) == outer_mul(f, g)
        assert tensor(f.terms, g.terms) == tensor(f, g)

    def test_single_term_product_is_a_scaled_copy(self):
        """On two single terms, _bilinear copies the cached image: a zero
        coefficient gives zero, and the copy never aliases the cache."""
        assert _bilinear({(1,): 0}, {(1,): 1}, product_basis) == SymFunc.zero()
        assert _bilinear({(1,): -2}, {(1,): 1}, product_basis) == (s(2) + s(1, 1)).scale(-2)
        one = _bilinear(s(2, 1), s(1), product_basis)
        assert one == SymFunc(product_basis((2, 1), (1,))) and one.terms is not product_basis((2, 1), (1,))

    def test_tensor_product_on_sums(self):
        """TensorSymFunc * is the componentwise product term by term,
        sum c1 c2 (s_a s_u) (x) (s_b s_v), and holds no cancelled term."""
        def per_term(x, y):
            out = TensorSymFunc()
            for (a, b), c1 in x.terms.items():
                for (u, v), c2 in y.terms.items():
                    out.add(tensor(outer_mul(s(*a), s(*u)), outer_mul(s(*b), s(*v))), c1 * c2)
            return out

        rng = random.Random(32)
        legs = partitions_up_to(3)
        for _ in range(40):
            x, y = (
                TensorSymFunc({(rng.choice(legs), rng.choice(legs)): rng.choice((-3, -2, -1, 1, 2, 3))
                               for _ in range(rng.randint(1, 4))})
                for _ in range(2)
            )
            product = x * y
            assert product == per_term(x, y) and 0 not in product.terms.values()
        one, box = TensorSymFunc.basis((1,), ()), TensorSymFunc.basis((), (1,))
        product = (one - box) * (one + box)
        assert product.terms == {((2,), ()): 1, ((1, 1), ()): 1, ((), (2,)): -1, ((), (1, 1)): -1}

    def test_signed_sum(self):
        assert signed_sum([]) == "0"
        assert signed_sum([(1, "a"), (-1, "b"), (3, "c"), (-2, "")]) == "a - b + 3*c - 2"
        assert signed_sum([(-1, ""), (1, "X")]) == "-1 + X"
        assert signed_sum([(-5, "y")]) == "-5*y"

    def test_repr_goldens(self):
        assert repr(SymFunc.zero()) == "0"
        assert repr(-s(1)) == "-s[1]"
        assert repr(s(2, 1).scale(2) - s(3) + unit()) == "s[0] - s[3] + 2*s[2,1]"
        assert repr(TensorSymFunc.basis((1,), ()).scale(-2)) == "-2*s[1](x)s[0]"
        assert repr(TensorSymFunc()) == "0"


class TestOuterProduct:
    def test_pieri_square(self):
        assert s(1) * s(1) == s(2) + s(1, 1)

    def test_unit(self):
        f = s(2, 1) + s(3).scale(2)
        assert unit() * f == f

    def test_hook_times_box(self):
        assert s(2, 1) * s(1) == s(3, 1) + s(2, 2) + s(2, 1, 1)

    def test_commutative_associative(self):
        a, b, c = s(2), s(1, 1), s(2, 1)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    @given(st.sampled_from(partitions_up_to(4)), st.sampled_from(partitions_up_to(4)))
    @settings(max_examples=40, deadline=None)
    def test_against_monomial_oracle(self, mu, nu):
        n = weight(mu) + weight(nu)
        lhs = eval_polynomial(outer_mul(SymFunc.basis(mu), SymFunc.basis(nu)), n)
        rhs = monomial_oracle(SymFunc.basis(mu), SymFunc.basis(nu), n)
        assert lhs == rhs

    def test_lr_coefficient_symmetry(self):
        for lam in partitions_of(5):
            for mu in partitions_up_to(3):
                for nu in partitions_of(5 - weight(mu)):
                    assert lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu)


class TestLittlewoodRichardsonGenerators:
    """The row-filling generator, seeded as a product and as a skew, against
    the backtracking reference."""

    def test_product_basis(self):
        expected = {}
        for lam, row in reference_table().items():
            for (mu, nu), c in row.items():
                expected.setdefault((mu, nu), {})[lam] = c
        for mu in partitions_up_to(REFERENCE_WEIGHT):
            for nu in partitions_up_to(REFERENCE_WEIGHT - weight(mu)):
                assert product_basis(mu, nu) == expected[(mu, nu)], (mu, nu)

    def test_skew_basis(self):
        for lam, row in reference_table().items():
            for mu in partitions_up_to(REFERENCE_WEIGHT):
                expected = {nu: c for (m, nu), c in row.items() if m == mu}
                assert skew_basis(lam, mu) == expected, (lam, mu)

    def test_coproduct_basis(self):
        for lam, row in reference_table().items():
            expected = {(nu, eta): c for (eta, nu), c in row.items()}
            assert coproduct_basis(lam) == expected, lam

    def test_lr_coefficient(self):
        for lam in partitions_up_to(6):
            row = reference_table()[lam]
            for mu in partitions_up_to(6):
                for nu in partitions_up_to(6):
                    assert lr_coefficient(lam, mu, nu) == row.get((mu, nu), 0)

    @pytest.mark.parametrize(
        "mu, nu, flip, filled",
        [
            ((4,), (2, 2, 1), False, "nu"),  # one row
            ((3,), (3, 3), False, "mu"),  # one row times a rectangle
            ((2, 2), (3, 1, 1), False, "mu"),  # a rectangle
            ((2, 1, 1), (2, 2, 1), True, "nu"),
            ((1, 1, 1), (1, 1, 1, 1, 1, 1), True, "nu"),  # one row, conjugated
            ((1, 1, 1), (2, 2, 2), True, "mu"),  # tall rectangles
        ],
        ids=("row", "row-rectangle", "rectangle", "flip", "flip-row", "flip-rectangles"),
    )
    def test_product_branches(self, mu, nu, flip, filled):
        """Hand-picked pairs covering both conjugation choices, each with either
        factor filled, against the backtracking reference in both orders.  The
        branch is read off `product_basis`'s rule: order the pair, conjugate when
        min(mu_1, nu_1) < min(l(mu), l(nu)), fill the factor with fewer rows."""
        a, b = min((mu, nu), (nu, mu))
        assert (min(a[0], b[0]) < min(len(a), len(b))) == flip
        if flip:
            a, b = conjugate(a), conjugate(b)
        assert ("nu" if len(b) <= len(a) else "mu") == filled
        n = weight(mu) + weight(nu)
        expected = {
            lam: c for lam in partitions_of(n) if (c := reference_lr_coefficient(lam, mu, nu))
        }
        assert product_basis(mu, nu) == product_basis(nu, mu) == expected


def identity_sample(count: int = 120, seed: int = 12) -> list:
    """A fixed seeded sample of ordered factor pairs (mu, nu), total weight 12..16."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rng.randint(12, 16)
        a = rng.randint(3, n - 3)
        pairs.append((rng.choice(partitions_of(a)), rng.choice(partitions_of(n - a))))
    return pairs


class TestLittlewoodRichardsonIdentities:
    """Identities beyond the reference's weight: no LR code on the right-hand side."""

    def test_product_skew_duality(self):
        """Products against skews.  Both sides run the one row-filling kernel
        (seeded with a factor's content, or with none), so this checks the two
        seedings against each other, not the kernel itself: the reference table,
        the sum of dimensions and the GL dimensions below do that."""
        for mu, nu in identity_sample():
            prod_terms = product_basis(mu, nu)
            n = weight(mu) + weight(nu)
            for lam in partitions_of(n):
                if contains(lam, mu) and contains(lam, nu):
                    c = prod_terms.get(lam, 0)
                    assert skew_basis(lam, mu).get(nu, 0) == c, (lam, mu, nu)
                    assert skew_basis(lam, nu).get(mu, 0) == c, (lam, nu, mu)
                else:
                    assert lam not in prod_terms, (lam, mu, nu)

    def test_conjugation_symmetry_runs_both_branches(self):
        generate = product_basis.__wrapped__
        flipped = set()
        for mu, nu in identity_sample():
            mu, nu = min((mu, nu), (nu, mu))
            flipped.add(min(mu[0], nu[0]) < min(len(mu), len(nu)))
            conj = min((conjugate(mu), conjugate(nu)), (conjugate(nu), conjugate(mu)))
            assert generate(*conj) == {conjugate(lam): c for lam, c in generate(mu, nu).items()}
        assert flipped == {False, True}

    def test_sum_of_dimensions(self):
        for mu, nu in identity_sample():
            total = sum(c * hook_dimension(lam) for lam, c in product_basis(mu, nu).items())
            expected = math.comb(weight(mu) + weight(nu), weight(mu))
            assert total == expected * hook_dimension(mu) * hook_dimension(nu), (mu, nu)

    def test_gl_dimensions(self):
        for mu, nu in identity_sample():
            terms = product_basis(mu, nu)
            for d in (2, 3, 5, 8):
                rhs = sum(c * dimension_gl(lam, d) for lam, c in terms.items())
                assert dimension_gl(mu, d) * dimension_gl(nu, d) == rhs, (mu, nu, d)


class TestCoproduct:
    def test_primitive_degree_one(self):
        assert coproduct(s(1)) == tensor(unit(), s(1)) + tensor(s(1), unit())

    def test_h2(self):
        assert coproduct(s(2)) == (
            tensor(unit(), s(2)) + tensor(s(1), s(1)) + tensor(s(2), unit())
        )

    def test_counit(self):
        assert counit(unit()) == 1
        assert counit(s(2, 1)) == 0

    def test_coassociative(self):
        from symchar.schur import iterated_coproduct_basis

        for lam in partitions_up_to(5):
            three = iterated_coproduct_basis(lam, 3)
            rebuilt = {}
            for (a, b), c in coproduct(SymFunc.basis(lam)).terms.items():
                for (b1, b2), c2 in coproduct(SymFunc.basis(b)).terms.items():
                    key = (a, b1, b2)
                    rebuilt[key] = rebuilt.get(key, 0) + c * c2
            assert {k: v for k, v in rebuilt.items() if v} == three

    @given(st.sampled_from(partitions_up_to(4)), st.sampled_from(partitions_up_to(4)))
    @settings(max_examples=25, deadline=None)
    def test_bialgebra_compatibility(self, mu, nu):
        lhs = coproduct(outer_mul(SymFunc.basis(mu), SymFunc.basis(nu)))
        rhs = coproduct(SymFunc.basis(mu)) * coproduct(SymFunc.basis(nu))
        assert lhs == rhs

    def test_cut_coproduct(self):
        assert cut_coproduct(s(1)) == TensorSymFunc()
        assert cut_coproduct(s(2)) == tensor(s(1), s(1))
        assert cut_coproduct(unit()) == TensorSymFunc()


class TestAntipode:
    def test_unit_fixed(self):
        assert antipode(unit()) == unit()

    def test_self_conjugate(self):
        assert antipode(s(2, 1)) == s(2, 1).scale(-1)

    @given(small_partitions)
    def test_involution(self, lam):
        assert antipode(antipode(SymFunc.basis(lam))) == SymFunc.basis(lam)

    def test_convolution_inverse_of_identity(self):
        # sum s_lam(1) S(s_lam(2)) = eps(s_lam) s_()
        for lam in partitions_up_to(6):
            acc = SymFunc.zero()
            for (a, b), c in coproduct(SymFunc.basis(lam)).terms.items():
                acc = acc + outer_mul(SymFunc.basis(a), antipode(SymFunc.basis(b))).scale(c)
            assert acc == (unit() if not lam else SymFunc.zero())


class TestScalarProduct:
    def test_orthonormal(self):
        assert scalar(s(2, 1), s(2, 1)) == 1
        assert scalar(s(2), s(1, 1)) == 0

    @given(sym_elements, sym_elements, small_partitions)
    @settings(max_examples=30, deadline=None)
    def test_skew_adjoint_to_product(self, f, g, lam):
        # <f/g | h> = <f | g h>
        hh = SymFunc.basis(lam)
        assert scalar(skew(f, g), hh) == scalar(f, outer_mul(g, hh))


class TestSkew:
    def test_example(self):
        assert skew(s(2, 1), s(1)) == s(2) + s(1, 1)

    def test_unit_and_degree(self):
        f = s(3, 1) + s(2)
        assert skew(f, unit()) == f
        assert skew(s(1), s(2)) == SymFunc.zero()


class TestLoop:
    def test_primitive(self):
        assert loop(2, s(1)) == s(1).scale(2)

    def test_h2(self):
        assert loop(2, s(2)) == s(2).scale(3) + s(1, 1)

    def test_identity(self):
        f = s(2, 1) - s(3)
        assert loop(1, f) == f

    def test_order_below_one(self):
        with pytest.raises(ValueError, match="loop order"):
            loop(0, s(1))

    def test_loop_additivity(self):
        # [2] then multiply counts as Delta^(3) grouping: [3] = m o ([2] x Id) o Delta
        for lam in partitions_up_to(4):
            f = SymFunc.basis(lam)
            direct = loop(3, f)
            via = SymFunc.zero()
            for (a, b), c in coproduct(f).terms.items():
                via = via + outer_mul(loop(2, SymFunc.basis(a)), SymFunc.basis(b)).scale(c)
            assert direct == via


class TestMonomialExpansion:
    def test_e2(self):
        assert eval_monomials((1, 1), 2) == {(1, 1): 1}

    def test_h2(self):
        assert eval_monomials((2,), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_s21(self):
        assert eval_monomials((2, 1), 2) == {(2, 1): 1, (1, 2): 1}

    def test_too_few_variables(self):
        assert eval_monomials((1, 1, 1), 2) == {}

    def test_negative_variable_counts(self):
        with pytest.raises(ValueError, match="n_vars"):
            eval_monomials((1,), -1)
        with pytest.raises(ValueError, match="d must"):
            dimension_gl((1,), -1)

    def test_dimension_gl(self):
        assert dimension_gl((1,), 3) == 3
        assert dimension_gl((2, 1), 2) == 2
        assert dimension_gl((1, 1, 1), 2) == 0

    def test_dimension_gl_counts_monomials(self):
        for lam in partitions_up_to(8):
            for d in range(9):
                assert dimension_gl(lam, d) == sum(eval_monomials(lam, d).values()), (lam, d)

    def test_poly_mul_carries_no_digit(self):
        # Exponents reach the total degree in one variable and 0 in another.
        p = {(3, 0, 0): 2, (1, 1, 1): -1}
        q = {(0, 0, 2): 1, (2, 0, 0): 5}
        assert poly_mul(p, q) == {(3, 0, 2): 2, (5, 0, 0): 10, (1, 1, 3): -1, (3, 1, 1): -5}
        assert poly_mul(p, {}) == {}

    def test_h_e_constructors(self):
        assert h(2) == s(2)
        assert e(2) == s(1, 1)
        assert h(0) == unit()
        assert h(-1) == SymFunc.zero()  # h_n = e_n = 0 for n < 0
        assert e(-2) == SymFunc.zero()


class TestStoredOnce:
    """Every partition the LR, Kronecker and partition caches hold is the one
    tuple `CANONICAL` keeps for it, and only final results go into the table."""

    def test_cached_partitions_are_the_tables_own(self):
        # Labels built at run time, so no cache has seen these objects.
        a, b, c = tuple([4, 2, 1]), tuple([2, 2, 2, 1, 1]), tuple([3, 1, 1, 1])
        held = [*product_basis(a, b), *product_basis(b, c), *product_basis(a, ())]
        held += [*skew_basis(tuple([5, 4, 2, 1]), tuple([2, 1])), *skew_basis(a, a)]
        held += [leg for legs in coproduct_basis(tuple([4, 3, 1])) for leg in legs]
        held += [*kronecker_basis(tuple([3, 2, 1]), tuple([4, 1, 1]))]
        held += [leg for legs in inner_coproduct_basis(tuple([3, 3])) for leg in legs]
        held += [conjugate(lam) for lam in (a, b, c, tuple([6, 1]))]
        held += [lam for n in range(9) for lam in partitions_of(n)]
        assert () in held
        assert [lam for lam in held if CANONICAL.get(lam) is not lam] == []

    @pytest.mark.parametrize(
        "call, conjugated",
        [
            ("product_basis((4, 2, 1, 1), (3, 3, 2))", ()),
            ("product_basis((2, 2, 2, 1, 1), (2, 2, 1, 1, 1, 1))", ((2, 2, 2, 1, 1), (2, 2, 1, 1, 1, 1))),
            ("skew_basis((6, 5, 3, 2), (3, 1))", ()),
        ],
        ids=("product", "product-on-conjugates", "skew"),
    )
    def test_table_holds_only_cached_partitions(self, call, conjugated):
        """In a fresh interpreter, one product of weight-8 labels (or one skew)
        leaves exactly its result shapes and () in the table.  A product computed
        on conjugates also leaves what `conjugate`'s cache holds: the labels'
        conjugates and the shapes conjugated into the result.  No strip or row
        state, and no shape below the final weight, gets in."""
        script = (
            "import json\n"
            "from symchar.partitions import CANONICAL\n"
            "from symchar.schur import product_basis, skew_basis\n"
            f"out = {call}\n"
            "print(json.dumps([list(out), list(CANONICAL)]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        out, table = (set(map(tuple, part)) for part in json.loads(proc.stdout))
        expected = out | {()}
        if conjugated:
            expected |= {conjugate(lam) for lam in (*out, *conjugated)}
        assert len(out) > 10
        assert table == expected


class TestTablesHoldRereads:
    """`product_basis` and `skew_basis` store the products and skews the library's
    loops re-read (hash products, `TensorSymFunc` products, `check_commutation`);
    a caller's one-off `outer_mul`, `skew`, `lr_coefficient` or `branch`, and
    `mul_by_series` and `bernstein` through them, computes and stores nothing.
    Each test empties both tables first, so no pair it reads was read before."""

    @staticmethod
    def sizes() -> tuple[int, int]:
        return product_basis.cache_info().currsize, skew_basis.cache_info().currsize

    def empty(self) -> None:
        product_basis.cache_clear()
        skew_basis.cache_clear()
        assert self.sizes() == (0, 0)

    def test_one_off_calls_store_nothing(self):
        self.empty()
        f = s(4, 2, 1) + s(3, 3).scale(2)
        assert outer_mul(f, s(3, 1, 1) - s(2)) and outer_mul(s(2, 2), s(3, 1))
        assert skew(f, s(2, 1)) and lr_coefficient((4, 3, 1), (2, 1), (3, 2)) == 2
        assert branch(f, "gl_to_o") and mul_by_series(f, "D", 9) and bernstein(2, f)
        assert self.sizes() == (0, 0)

    def test_library_loops_fill_the_tables(self):
        self.empty()
        named_product("thibon")(s(3, 1), s(2, 2))
        assert self.sizes()[0] > 0
        self.empty()
        assert TensorSymFunc.basis((2, 1), (1,)) * TensorSymFunc.basis((3,), (2,))
        assert self.sizes()[0] > 0
        self.empty()
        assert check_commutation(3)
        assert min(self.sizes()) > 0

    def test_a_swapped_pair_shares_one_dict(self):
        for mu, nu in [((3, 1), (2, 2)), ((5,), (1, 1, 1)), ((2, 1), ())]:
            assert product_basis(mu, nu) is product_basis(nu, mu)
            assert product_basis(mu, nu) == _product(mu, nu) == _product(nu, mu)


class TestNoReferenceCycles:
    """The LR kernel and the monomial oracle leave no cyclic garbage, so
    reference counting frees all they allocate and the cyclic collector has
    nothing to sweep up after them."""

    def test_kernels_leave_no_cycles(self):
        # Arguments no cache has seen, so every call does its work.
        thibon, ml = build_hash(named_spec("thibon")), build_hash(named_spec("murnaghan-littlewood"))
        calls = {
            "product on the conjugates": lambda: product_basis.__wrapped__((1, 1, 1, 1), (2, 2, 1, 1, 1)),
            "product": lambda: product_basis.__wrapped__((3, 2, 2), (4, 3)),
            "skew": lambda: _skew((6, 4, 3, 1), (3, 2)),
            "coproduct": lambda: coproduct_basis.__wrapped__((4, 3, 2, 1)),
            "monomials": lambda: eval_monomials.__wrapped__((3, 2, 1), 4),
            "thibon": lambda: thibon(s(4, 3, 1), s(3, 3, 2)),
            "murnaghan-littlewood": lambda: ml(s(5, 2, 1), s(4, 2, 2)),
        }
        gc.collect()
        gc.disable()
        try:
            freed = {}
            for name, call in calls.items():
                assert call(), name
                freed[name] = gc.collect(0)  # all they allocated is young
        finally:
            gc.enable()
        assert freed == dict.fromkeys(calls, 0)

    def test_outer_stream_frees_nothing(self):
        """One 784-query `outer` benchmark stream in a fresh interpreter: the
        collector's passes find nothing to free.  A kernel closure that
        outlives its call makes this about 240 passes freeing about 300,000
        objects."""
        root = Path(__file__).resolve().parent.parent
        script = (
            "import gc, json\n"
            "from streams import make_stream\n"
            "from worker import make_ops\n"
            "queries, ops = make_stream('outer', 1, 784), make_ops()\n"
            "passes = freed = 0\n"
            "def count(phase, info):\n"
            "    global passes, freed\n"
            "    if phase == 'stop':\n"
            "        passes, freed = passes + 1, freed + info['collected']\n"
            "gc.collect()\n"
            "gc.callbacks.append(count)\n"
            "for q in queries:\n"
            "    ops[q['op']](*q['args'])\n"
            "gc.callbacks.remove(count)\n"
            "print(json.dumps([passes, freed]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        passes, freed = json.loads(proc.stdout)
        assert freed == 0
        assert passes < 120
