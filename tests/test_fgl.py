"""Truncated one-dimensional formal group laws and their coproducts on
symmetric functions."""

from fractions import Fraction

import pytest

from oracles import eval_polynomial
from symchar.fgl import (
    FGL1,
    Poly,
    additive,
    antipode_series,
    coproduct_from_fgl,
    fgl_log,
    loop_n,
    multiplicative,
    padd,
    ppow,
    pscale,
    var,
)
from symchar.partitions import partitions_up_to
from symchar.schur import (
    SymFunc,
    coproduct,
    s,
    tensor,
    unit,
)

X = var(1, 0)


def poly(coeffs):
    """{degree: coefficient} -> sparse univariate polynomial."""
    return {(d,): Fraction(c) for d, c in coeffs.items() if c}


def compose(p: Poly, q: Poly, cap: int) -> Poly:
    """p(q(X..)) for univariate p; q may be multivariate."""
    one = {(0,) * (len(next(iter(q))) if q else 1): Fraction(1)}
    out: Poly = {}
    for (deg,), c in p.items():
        out = padd(out, pscale(ppow(q, deg, cap) if deg else one, c))
    return out


def check_axioms(F: FGL1) -> bool:
    """Associativity, two-sided identity, commutativity, inverse existence,
    all as identities truncated at F.cap."""
    x3, y3, z3 = var(3, 0), var(3, 1), var(3, 2)
    if F.apply(F.apply(x3, y3), z3) != F.apply(x3, F.apply(y3, z3)):
        return False
    x1 = var(1, 0)
    zero = {}
    if F.apply(x1, zero) != x1 or F.apply(zero, x1) != x1:
        return False
    table = {(i, j): c for i, j, c in F.coeffs}
    if any(table.get((i, j)) != table.get((j, i)) for i, j, _ in F.coeffs):
        return False
    lam = antipode_series(F)
    return F.apply(x1, lam) == {}


def compositional_inverse(p: Poly, cap: int) -> Poly:
    """Inverse under composition of a univariate series X + O(X^2)."""
    x = var(1, 0)
    inv = dict(x)
    for _ in range(cap):
        # Newton-style fixed point: inv <- inv - (p(inv) - X).
        err = padd(compose(p, inv, cap), pscale(x, -1))
        correction = {e: c for e, c in err.items() if e[0] >= 2}
        if not correction:
            break
        inv = padd(inv, pscale(correction, -1))
    return inv


class TestAxioms:
    def test_additive(self):
        assert check_axioms(additive(cap=6))

    def test_multiplicative(self):
        assert check_axioms(multiplicative(1, cap=6))
        assert check_axioms(multiplicative(3, cap=5))

    def test_non_commutative_counterexample(self):
        F = FGL1.make({(2, 1): 1}, cap=5)
        assert not check_axioms(F)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            FGL1.make({(0, 1): 1}, cap=4)

    def test_make_truncates_the_law(self):
        # c_{2,2} X^2 Y^2 lies above cap 3: at P = 1, Q = X it would add X^2.
        F = FGL1.make({(2, 2): 1}, cap=3)
        assert F.coeffs == ()
        assert F.apply({(0,): Fraction(1)}, X) == padd({(0,): Fraction(1)}, X)

    def test_apply_truncates_however_the_law_is_built(self):
        # Only `make` drops c_{2,2} above cap 3; `apply` ignores it on every other path too.
        one, raw = {(0,): Fraction(1)}, ((2, 2, Fraction(1)),)
        F = FGL1.make({(2, 2): 1}, cap=5)
        for law in (FGL1.make({(2, 2): 1}, cap=3), FGL1(raw, 3), type(F)(raw, 3), F._replace(cap=3)):
            assert law.apply(one, X) == padd(one, X), law

    def test_rejects_a_cap_below_degree_one(self):
        for cap in (0, -1):
            with pytest.raises(ValueError, match="cap must be >= 1"):
                FGL1.make({(1, 1): 1}, cap)


class TestAntipode:
    def test_additive(self):
        assert antipode_series(additive(cap=6)) == pscale(X, -1)

    def test_multiplicative(self):
        # -X/(1+X) = -X + X^2 - X^3 + ...
        expected = poly({d: (-1) ** d for d in range(1, 7)})
        assert antipode_series(multiplicative(1, cap=6)) == expected

    def test_multiplicative_b(self):
        # -X/(1+bX) with b=2: coefficients -(-2)^{d-1}... i.e. -X+2X^2-4X^3...
        expected = poly({d: -((-2) ** (d - 1)) for d in range(1, 6)})
        assert antipode_series(multiplicative(2, cap=5)) == expected

    def test_is_inverse(self):
        for F in (additive(cap=6), multiplicative(1, cap=6), multiplicative(2, cap=6)):
            lam = antipode_series(F)
            assert F.apply(X, lam) == {}


class TestLoops:
    def test_additive(self):
        assert loop_n(additive(cap=6), 5) == pscale(X, 5)

    def test_multiplicative(self):
        # [n](X) = ((1+X)^n - 1) for b = 1.
        assert loop_n(multiplicative(1, cap=6), 3) == poly({1: 3, 2: 3, 3: 1})

    def test_zero_and_negative_one(self):
        for F in (additive(cap=6), multiplicative(1, cap=6)):
            assert loop_n(F, 0) == {}
            assert loop_n(F, -1) == antipode_series(F)

    def test_negative_loops_substitute_the_antipode(self):
        for cap in range(1, 11):
            for F in (additive(cap), *(multiplicative(b, cap) for b in (1, 2, 7))):
                lam = antipode_series(F)
                for n in range(1, 9):
                    assert loop_n(F, -n) == compose(loop_n(F, n), lam, cap), (F, n)

    def test_loop_additivity(self):
        for F in (additive(cap=6), multiplicative(1, cap=6)):
            for m in range(-3, 4):
                for n in range(-3, 4):
                    lhs = F.apply(loop_n(F, m), loop_n(F, n))
                    assert lhs == loop_n(F, m + n)


class TestLogarithm:
    def test_additive(self):
        assert fgl_log(additive(cap=6)) == X

    def test_multiplicative_is_log_one_plus_x(self):
        expected = poly({d: Fraction((-1) ** (d + 1), d) for d in range(1, 7)})
        assert fgl_log(multiplicative(1, cap=6)) == expected

    def test_functional_equation(self):
        for F in (multiplicative(1, cap=5), multiplicative(2, cap=5)):
            ell = fgl_log(F)
            x2, y2 = var(2, 0), var(2, 1)
            lhs = compose(ell, F.apply(x2, y2), F.cap)
            rhs = padd(compose(ell, x2, F.cap), compose(ell, y2, F.cap))
            assert lhs == rhs

    def test_linearizes_loops(self):
        F = multiplicative(1, cap=6)
        ell = fgl_log(F)
        for n in (2, 3, -2):
            assert compose(ell, loop_n(F, n), F.cap) == pscale(ell, n)

    def test_round_trip_reconstructs_law(self):
        F = multiplicative(1, cap=5)
        ell = fgl_log(F)
        ell_bar = compositional_inverse(ell, F.cap)
        assert compose(ell_bar, ell, F.cap) == X
        x2, y2 = var(2, 0), var(2, 1)
        assert compose(ell_bar, padd(compose(ell, x2, F.cap), compose(ell, y2, F.cap)), F.cap) == F.apply(x2, y2)


class TestCoproductBridge:
    def test_additive_is_outer_coproduct(self):
        for lam in partitions_up_to(4):
            f = SymFunc.basis(lam)
            assert coproduct_from_fgl("additive", f) == coproduct(f)

    def test_multiplicative_degree_one(self):
        expected = tensor(s(1), unit()) + tensor(unit(), s(1)) + tensor(s(1), s(1))
        assert coproduct_from_fgl("multiplicative", s(1)) == expected

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            coproduct_from_fgl("elliptic", s(1))

    def test_polynomial_alphabet_oracle_e2(self):
        # s_(1,1) on the 8-letter alphabet {x_i, y_j, x_i y_j} (2+2 variables)
        # equals the leg-wise evaluation of its multiplicative coproduct.
        assert _alphabet_check(s(1, 1), 2, 2)

    def test_coassociative_small(self):
        for lam in partitions_up_to(3):
            dm = coproduct_from_fgl("multiplicative", SymFunc.basis(lam))
            left = {}
            right = {}
            for (a, b), c in dm.terms.items():
                for (a1, a2), c2 in coproduct_from_fgl(
                    "multiplicative", SymFunc.basis(a)
                ).terms.items():
                    key = (a1, a2, b)
                    left[key] = left.get(key, 0) + c * c2
                for (b1, b2), c2 in coproduct_from_fgl(
                    "multiplicative", SymFunc.basis(b)
                ).terms.items():
                    key = (a, b1, b2)
                    right[key] = right.get(key, 0) + c * c2
            assert {k: v for k, v in left.items() if v} == {
                k: v for k, v in right.items() if v
            }


def _alphabet_check(f, nx, ny) -> bool:
    """Compare f on {x_i, y_j, x_i y_j} with the Delta_m expansion."""
    from symchar.schur import eval_monomials

    letters = []
    for i in range(nx):
        expo = [0] * (nx + ny)
        expo[i] = 1
        letters.append(tuple(expo))
    for j in range(ny):
        expo = [0] * (nx + ny)
        expo[nx + j] = 1
        letters.append(tuple(expo))
    for i in range(nx):
        for j in range(ny):
            expo = [0] * (nx + ny)
            expo[i] = 1
            expo[nx + j] = 1
            letters.append(tuple(expo))
    direct = {}
    for lam, cf in f.terms.items():
        for expo, c in eval_monomials(lam, len(letters)).items():
            key = tuple(
                sum(e * letter[v] for e, letter in zip(expo, letters))
                for v in range(nx + ny)
            )
            direct[key] = direct.get(key, 0) + cf * c
    direct = {k: v for k, v in direct.items() if v}

    legwise = {}
    for (mu, nu), c in coproduct_from_fgl("multiplicative", f).terms.items():
        px = eval_monomials(mu, nx)
        py = eval_monomials(nu, ny)
        for ex, cx in px.items():
            for ey, cy in py.items():
                key = ex + ey
                legwise[key] = legwise.get(key, 0) + c * cx * cy
    legwise = {k: v for k, v in legwise.items() if v}
    return direct == legwise
