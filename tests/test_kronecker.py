"""Symmetric-group characters (column-wise power sums) and the Kronecker
(inner) product, coproduct, and one-row counit, against an independent
border-strip recursion and character-table triple sum."""

import math
import random
from functools import cache

import pytest

from oracles import hook_dimension, kronecker_character_failures, reference_character
from symchar import kronecker
from symchar.kronecker import (
    character,
    character_table,
    counit_eps1,
    inner_coproduct,
    inner_coproduct_basis,
    inner_mul,
    kronecker_basis,
)
from symchar.partitions import conjugate, partitions_of, partitions_up_to, weight, z_and_n
from symchar.schur import SymFunc, outer_mul, s, scalar, tensor, unit


@cache
def _reference_table(n: int) -> dict:
    labels = partitions_of(n)
    return {(lam, rho): reference_character(lam, rho) for lam in labels for rho in labels}


def reference_kronecker(mu, nu) -> dict:
    """The character triple sum over a dict-keyed table."""
    n = weight(mu)
    if n != weight(nu):
        return {}
    table = _reference_table(n)
    classes = [(rho, z_and_n(rho)[0]) for rho in partitions_of(n)]
    weights = [(rho, z, table[(mu, rho)] * table[(nu, rho)]) for rho, z in classes]
    den = math.lcm(*(z for _, z in classes))
    out = {}
    for lam in partitions_of(n):
        acc = sum(w * table[(lam, rho)] * (den // z) for rho, z, w in weights)
        assert acc % den == 0
        if acc:
            out[lam] = acc // den
    return out


class TestAgainstReference:
    def test_character_table(self):
        for n in range(11):
            assert character_table(n) == _reference_table(n)

    def test_single_character(self):
        for n in range(8):
            for (lam, rho), value in _reference_table(n).items():
                assert character(lam, rho) == value

    def test_kronecker_basis(self):
        for n in range(10):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    assert kronecker_basis(mu, nu) == reference_kronecker(mu, nu)

    def test_kronecker_basis_keeps_partitions_of_order(self):
        """Representatives and conjugates are decoded from two halves of the
        slots; the terms still come in partitions_of(n) order."""
        pairs = [(mu, nu) for n in range(9) for mu in partitions_of(n) for nu in partitions_of(n)]
        rng = random.Random(1416)
        for _ in range(40):
            labels = partitions_of(rng.randint(14, 16))
            pairs.append((rng.choice(labels), rng.choice(labels)))
        for mu, nu in pairs:
            order = partitions_of(weight(mu)).index
            positions = [order(lam) for lam in kronecker_basis(mu, nu)]
            assert positions == sorted(positions), (mu, nu)

    def test_column_orthogonality_n14(self):
        labels = partitions_of(14)
        table = character_table(14)
        columns = [[table[(lam, rho)] for lam in labels] for rho in labels]
        for i, rho in enumerate(labels):
            for j in range(i, len(labels)):
                acc = sum(a * b for a, b in zip(columns[i], columns[j]))
                assert acc == (z_and_n(rho)[0] if i == j else 0)

    def test_single_class_degrees(self):
        assert character_table(0) == {((), ()): 1}
        assert character_table(1) == {((1,), (1,)): 1}
        assert character((), ()) == 1
        assert kronecker_basis((), ()) == {(): 1}
        assert kronecker_basis((1,), (1,)) == {(1,): 1}
        assert inner_mul(s(), s()) == s()

    def test_negative_degree_table_is_empty(self):
        built = kronecker._table.cache_info()
        for n in (-1, -2, -7):
            assert character_table(n) == {}
        assert kronecker._table.cache_info() == built


def assert_kronecker_identities(mu, nu):
    """sum_lam g^lam_{mu,nu} f^lam = f^mu f^nu and g^{lam'}_{mu,nu} = g^lam_{mu,nu'}."""
    g = kronecker_basis(mu, nu)
    assert sum(c * hook_dimension(lam) for lam, c in g.items()) == (
        hook_dimension(mu) * hook_dimension(nu)
    ), (mu, nu)
    assert kronecker_basis(mu, conjugate(nu)) == {conjugate(lam): c for lam, c in g.items()}, (mu, nu)


class TestPackedIdentities:
    """Identities with no oracle, where the packed slots are widest."""

    def test_all_pairs_n12(self):
        for mu in partitions_of(12):
            for nu in partitions_of(12):
                assert_kronecker_identities(mu, nu)

    def test_extreme_pairs_n16(self):
        # (4, 4, 4, 4) is self-conjugate; g = 72973 at lam = mu = nu =
        # (6, 4, 3, 2, 1) is the largest Kronecker coefficient of S_16.
        for mu in ((16,), (1,) * 16, (4, 4, 4, 4), (6, 4, 3, 2, 1)):
            assert_kronecker_identities(mu, mu)
        assert conjugate((4, 4, 4, 4)) == (4, 4, 4, 4)
        assert max(kronecker_basis((6, 4, 3, 2, 1), (6, 4, 3, 2, 1)).values()) == 72973


class TestTableIdentities:
    """Identities with no oracle, at the sizes the benchmark and the CLI serve."""

    @pytest.mark.parametrize("n", [16, 20])
    def test_identity_class_is_hook_dimension(self, n):
        table = character_table(n)
        ones = (1,) * n
        for lam in partitions_of(n):
            assert table[(lam, ones)] == hook_dimension(lam), lam

    def test_conjugate_row_is_sign_twist_n16(self):
        n = 16
        table = character_table(n)
        for lam in partitions_of(n):
            lam_c = conjugate(lam)
            for rho in partitions_of(n):
                assert table[(lam_c, rho)] == (-1) ** (n - len(rho)) * table[(lam, rho)]

    def test_row_orthogonality_sample_n16(self):
        # sum_rho |class of rho| chi^lam(rho) chi^mu(rho) = n! [lam = mu].
        n = 16
        table = character_table(n)
        labels = partitions_of(n)
        sizes = [math.factorial(n) // z_and_n(rho)[0] for rho in labels]
        rng = random.Random(16)
        pairs = [(lam, lam) for lam in rng.sample(labels, 40)]
        pairs += [tuple(rng.sample(labels, 2)) for _ in range(160)]
        for lam, mu in pairs:
            acc = sum(c * table[(lam, rho)] * table[(mu, rho)] for c, rho in zip(sizes, labels))
            assert acc == (math.factorial(n) if lam == mu else 0), (lam, mu)

    def test_single_character_matches_reference_sample_n14(self):
        labels = partitions_of(14)
        rng = random.Random(14)
        for _ in range(200):
            lam, rho = rng.choice(labels), rng.choice(labels)
            assert character(lam, rho) == reference_character(lam, rho), (lam, rho)

    def test_largest_default_product(self):
        assert kronecker_basis((20,), (10, 10)) == {(10, 10): 1}


class TestSharedColumns:
    """Class columns, move gathers and slot values are cached per process and
    shared between levels; nothing may depend on the order they are built in."""

    @pytest.mark.parametrize("order", [(16, 12), (12, 16)])
    def test_tables_and_products_do_not_depend_on_build_order(self, order):
        for memo in (kronecker._reps, kronecker._moves, kronecker._column, kronecker._table):
            memo.cache_clear()
        tables = {n: character_table(n) for n in order}
        rng = random.Random(1612)
        for n in (12, 16):
            assert tables[n] == _reference_table(n), n
            labels = partitions_of(n)
            for _ in range(12):
                mu, nu = rng.choice(labels), rng.choice(labels)
                assert kronecker_basis(mu, nu) == reference_kronecker(mu, nu), (mu, nu)

    def test_second_read_of_a_class_builds_nothing(self):
        rho = (5, 3, 3, 1)
        assert character((4, 4, 4), rho) == reference_character((4, 4, 4), rho)
        columns, moves = kronecker._column.cache_info(), kronecker._moves.cache_info()
        assert character((6, 6), rho) == reference_character((6, 6), rho)
        after = kronecker._column.cache_info()
        assert (after.hits, after.misses) == (columns.hits + 1, columns.misses)
        assert kronecker._moves.cache_info() == moves

    def test_corrupt_slot_raises_with_warm_decode_cache(self, monkeypatch):
        n, mu, nu = 12, (5, 4, 2, 1), (4, 4, 3, 1)
        assert kronecker_basis(mu, nu) == reference_kronecker(mu, nu)
        table = kronecker._table(n)
        sides, _, _, cuts, _, slots = table
        assert slots  # warm: every slot value of that sum is decoded
        labels = partitions_of(n)
        # Add 1 to the slot of lam = (n) in the stored (pre-scaled) column of
        # rho = (1^n), an even class, and then of rho = (2, 1^(n-2)), an odd one:
        # each one's weight chi^mu chi^nu in the sum is not a multiple of den.
        for rho, parity in (((1,) * n, 0), ((2,) + (1,) * (n - 2), 1)):
            columns, scaled = sides[parity]
            j = [r for r in labels if (n - len(r)) % 2 == parity].index(rho)
            assert columns[j] is kronecker._column(rho)
            ab = character(mu, rho) * character(nu, rho)
            assert ab % slots.den
            corrupt = scaled[j] + (1 << (8 * cuts[labels.index((n,))].start))
            bad = list(sides)
            bad[parity] = (columns, scaled[:j] + [corrupt] + scaled[j + 1:])
            monkeypatch.setattr(kronecker, "_table", lambda m: (tuple(bad), *table[1:]))
            with pytest.raises(ArithmeticError):
                kronecker_basis(mu, nu)


class TestConjugatePairs:
    """chi^lam'(rho) = sgn(rho) chi^lam(rho), with no oracle, on pairs that mix
    representatives lam >= lam' and their conjugates."""

    def test_kronecker_basis_of_conjugates(self):
        pairs = [(mu, nu) for n in range(9) for mu in partitions_of(n) for nu in partitions_of(n)]
        rng = random.Random(1614)
        for _ in range(40):
            labels = partitions_of(rng.randint(14, 16))
            pairs.append((rng.choice(labels), rng.choice(labels)))
        for mu, nu in pairs:
            g = kronecker_basis(mu, nu)
            assert kronecker_basis(conjugate(mu), nu) == {conjugate(lam): c for lam, c in g.items()}, (mu, nu)
            assert kronecker_basis(conjugate(mu), conjugate(nu)) == g, (mu, nu)

    def test_character_of_conjugate_sample_n16(self):
        n = 16
        labels = partitions_of(n)
        rng = random.Random(16)
        for _ in range(200):
            lam, rho = rng.choice(labels), rng.choice(labels)
            assert character(conjugate(lam), rho) == (-1) ** (n - len(rho)) * character(lam, rho), (lam, rho)


class TestCharacter:
    def test_sign_character(self):
        assert character((1, 1), (2,)) == -1

    def test_trivial_character(self):
        for n in range(1, 7):
            for rho in partitions_of(n):
                assert character((n,), rho) == 1

    def test_standard_dimension(self):
        assert character((2, 1), (1, 1, 1)) == 2

    def test_padded_and_unsorted_labels(self):
        assert character([2, 1, 0], [1, 0, 1, 1]) == 2
        assert character((3, 1), (1, 2, 1)) == character((3, 1), (2, 1, 1)) == 1
        with pytest.raises(ValueError):
            character((1, 2), (3,))

    def test_sign_representation(self):
        # chi^{1^n}(rho) = (-1)^{n - len(rho)}
        for n in range(1, 7):
            for rho in partitions_of(n):
                assert character((1,) * n, rho) == (-1) ** (n - len(rho))

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            character((2,), (1,))

    def test_row_orthogonality(self):
        for n in range(1, 7):
            fact = math.factorial(n)
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    acc = sum(
                        fact // z_and_n(rho)[0] * character(lam, rho) * character(mu, rho)
                        for rho in partitions_of(n)
                    )
                    assert acc == (fact if lam == mu else 0)

    def test_table_shape(self):
        table = character_table(5)
        labels = partitions_of(5)
        assert set(table) == {(lam, rho) for lam in labels for rho in labels}


class TestInnerProduct:
    def test_unit_law(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                assert inner_mul(s(n), SymFunc.basis(mu)) == SymFunc.basis(mu)

    def test_sign_squared(self):
        assert inner_mul(s(1, 1), s(1, 1)) == s(2)

    def test_standard_squared(self):
        assert inner_mul(s(2, 1), s(2, 1)) == s(3) + s(2, 1) + s(1, 1, 1)

    def test_degree_mismatch_vanishes(self):
        assert inner_mul(s(2), s(1)) == SymFunc.zero()

    def test_commutative_associative(self):
        for mu in partitions_of(4):
            for nu in partitions_of(4):
                assert inner_mul(SymFunc.basis(mu), SymFunc.basis(nu)) == inner_mul(
                    SymFunc.basis(nu), SymFunc.basis(mu)
                )
        a, b, c = s(3, 1), s(2, 2), s(2, 1, 1)
        assert inner_mul(inner_mul(a, b), c) == inner_mul(a, inner_mul(b, c))

    def test_characters_multiply(self):
        """sum g_lam chi^lam(rho) = chi^mu(rho) chi^nu(rho) at every class rho of S_n, n <= 5;
        raising one coefficient breaks it at rho = 1^n."""
        for n in range(6):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    x, y = SymFunc.basis(mu), SymFunc.basis(nu)
                    product = inner_mul(x, y)
                    assert kronecker_character_failures(x, y, product, partitions_of(n)) == [], (mu, nu)
                    raised = product + SymFunc.basis(min(product.terms))
                    assert (1,) * n in kronecker_character_failures(x, y, raised, partitions_of(n)), (mu, nu)

    def test_sign_twist(self):
        # s_{1^n} * s_mu = s_{mu'}
        from symchar.partitions import conjugate

        for n in range(1, 6):
            for mu in partitions_of(n):
                assert inner_mul(s(*((1,) * n)), SymFunc.basis(mu)) == SymFunc.basis(
                    conjugate(mu)
                )


class TestInnerCoproduct:
    def test_degree_one(self):
        assert inner_coproduct(s(1)) == tensor(s(1), s(1))

    def test_e2(self):
        assert inner_coproduct(s(1, 1)) == tensor(s(2), s(1, 1)) + tensor(s(1, 1), s(2))

    def test_adjoint_to_product(self):
        for lam in partitions_of(4):
            delta = inner_coproduct_basis(lam)
            for mu in partitions_of(4):
                for nu in partitions_of(4):
                    lhs = delta.get((mu, nu), 0)
                    rhs = scalar(
                        SymFunc.basis(lam), inner_mul(SymFunc.basis(mu), SymFunc.basis(nu))
                    )
                    assert lhs == rhs


class TestCounitEps1:
    def test_one_row(self):
        assert counit_eps1(s(3)) == 1
        assert counit_eps1(s(1)) == 1
        assert counit_eps1(unit()) == 1

    def test_multirow(self):
        assert counit_eps1(s(2, 1)) == 0

    def test_multiplicative(self):
        f = s(1) * s(1)
        assert counit_eps1(f) == 1 == counit_eps1(s(1)) * counit_eps1(s(1))
        for mu in partitions_up_to(4):
            for nu in partitions_up_to(4):
                prod = outer_mul(SymFunc.basis(mu), SymFunc.basis(nu))
                assert counit_eps1(prod) == counit_eps1(SymFunc.basis(mu)) * counit_eps1(
                    SymFunc.basis(nu)
                )
