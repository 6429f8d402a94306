"""Partition arithmetic: conjugation, Frobenius form, classes, standardization."""

import math

import pytest
from hypothesis import given, strategies as st

from oracles import raising_standardize
from symchar.partitions import (
    CANONICAL,
    ResourceError,
    bounded,
    canonical,
    conjugate,
    contains,
    format_partition,
    frobenius,
    from_frobenius,
    hooks_and_contents,
    in_class,
    integer,
    make_partition,
    parse_partition,
    partitions_of,
    partitions_up_to,
    standardize,
    weight,
    z_and_n,
)

partitions = st.lists(st.integers(1, 8), max_size=6).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


class TestConjugate:
    def test_running_example(self):
        assert conjugate((4, 2, 2, 1)) == (4, 3, 1, 1)

    def test_empty(self):
        assert conjugate(()) == ()

    def test_row_column(self):
        assert conjugate((3,)) == (1, 1, 1)

    @given(partitions)
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    @given(partitions)
    def test_preserves_weight(self, lam):
        assert weight(conjugate(lam)) == weight(lam)

    def test_counting_definition_up_to_20(self):
        # lam'_j = #{i : lam_i >= j}, for every partition of n <= 20.
        for lam in partitions_up_to(20):
            counted = tuple(sum(1 for p in lam if p >= j) for j in range(1, max(lam, default=0) + 1))
            assert conjugate(lam) == counted, lam


class TestZandN:
    def test_running_example(self):
        assert z_and_n((4, 2, 2, 1)) == (32, 9)

    def test_empty(self):
        assert z_and_n(()) == (1, 0)

    def test_two_ones(self):
        assert z_and_n((1, 1)) == (2, 1)

    @given(partitions)
    def test_z_positive_multiple_of_parts(self, lam):
        z, n = z_and_n(lam)
        assert z >= 1 and n >= 0
        for p in lam:
            assert z % p == 0

    def test_z_sums_to_factorial(self):
        # sum over lambda |- n of n!/z_lambda = p-class sizes summing to n!
        for n in range(1, 7):
            total = sum(math.factorial(n) // z_and_n(lam)[0] for lam in partitions_of(n))
            assert total == math.factorial(n)


class TestFrobenius:
    def test_running_example(self):
        assert frobenius((4, 2, 2, 1)) == ((3, 0), (3, 1))

    def test_empty(self):
        assert frobenius(()) == ((), ())

    def test_single_row(self):
        assert frobenius((2,)) == ((1,), (0,))

    @given(partitions)
    def test_round_trip(self, lam):
        arms, legs = frobenius(lam)
        assert from_frobenius(arms, legs) == lam
        # The rank is the side of the Durfee square.
        assert len(arms) == max((k for k, part in enumerate(lam, 1) if part >= k), default=0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            from_frobenius((1,), (1, 0))
        with pytest.raises(ValueError):
            from_frobenius((1, 1), (1, 0))


class TestClasses:
    def test_examples(self):
        assert in_class((2, 2), "D")
        assert in_class((2,), "C")
        assert in_class((2, 1), "E")

    @given(partitions)
    def test_everything_in_p(self, lam):
        assert in_class(lam, "P")

    @given(partitions)
    def test_b_is_conjugate_d(self, lam):
        assert in_class(lam, "B") == in_class(conjugate(lam), "D")

    @given(partitions)
    def test_a_c_conjugate(self, lam):
        assert in_class(lam, "A") == in_class(conjugate(lam), "C")

    @given(partitions)
    def test_e_is_self_conjugate(self, lam):
        assert in_class(lam, "E") == (conjugate(lam) == lam)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            in_class((1,), "Q")


class TestStandardize:
    def test_already_sorted(self):
        assert standardize((3, 1)) == (1, (3, 1))
        assert standardize(()) == (1, ())

    def test_one_swap(self):
        assert standardize((0, 2, 1)) == (-1, (1, 1, 1))

    def test_annihilated(self):
        assert standardize((-1, 2, 1)) == (0, ())
        # Adjacent (t, t+1) is a fixed point of the raising operator, so the
        # determinant has two equal rows and the element vanishes.
        assert standardize((1, 2, 1)) == (0, ())
        assert standardize((1, 2)) == (0, ())

    def test_trailing_zeros_stripped(self):
        assert standardize((2, 1, 0, 0)) == (1, (2, 1))

    def test_negative_survivor(self):
        assert standardize((-1,)) == (0, ())

    @given(st.lists(st.integers(-3, 6), max_size=6))
    def test_sign_and_idempotence(self, comp):
        sign, lam = standardize(tuple(comp))
        assert (sign, lam) == raising_standardize(comp)
        assert sign in (-1, 0, 1)
        if sign == 0:
            assert lam == ()
        else:
            assert standardize(lam) == (1, lam)
            assert weight(lam) == sum(comp)


class TestHooksAndContents:
    def test_running_example(self):
        data = {cell: (content, hook) for cell, content, hook in hooks_and_contents((4, 2, 2, 1))}
        assert data[(1, 1)] == (0, 7)
        assert data[(1, 4)] == (3, 1)

    def test_single_box(self):
        assert hooks_and_contents((1,)) == [((1, 1), 0, 1)]

    @given(partitions)
    def test_cell_count_and_hook_product(self, lam):
        cells = hooks_and_contents(lam)
        assert len(cells) == weight(lam)
        assert all(hook >= 1 for _, _, hook in cells)


class TestEnumeration:
    def test_counts(self):
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        for n, p_n in enumerate(expected):
            assert len(partitions_of(n)) == p_n

    def test_reverse_lex(self):
        assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))

    def test_up_to(self):
        assert len(partitions_up_to(4)) == 1 + 1 + 2 + 3 + 5

    @given(partitions)
    def test_contains_reflexive(self, lam):
        assert contains(lam, lam)
        assert contains(lam, ())


class TestParseFormat:
    def test_plain(self):
        assert parse_partition("4,2,2,1") == (4, 2, 2, 1)

    def test_empty_forms(self):
        for text in ("", "0", "()", "[]"):
            assert parse_partition(text) == ()

    def test_exponent_form(self):
        assert parse_partition("[1,2^2,4]") == (4, 2, 2, 1)

    def test_exponent_form_skips_empty_tokens(self):
        assert parse_partition("[2,,1]") == (2, 1)

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            parse_partition("1,2")

    @given(partitions)
    def test_round_trip(self, lam):
        assert parse_partition(format_partition(lam)) == lam

    def test_make_partition_strips_zeros(self):
        assert make_partition((3, 2, 0)) == (3, 2)

    @pytest.mark.parametrize("lam", [(2, 1), (53, 2)])
    def test_make_partition_gives_int_parts(self, lam):
        """A label equal to a partition gives that partition as ints, whether the
        tuple is the one `canonical` holds, (2, 1), or one it holds nowhere, (53, 2)."""
        if lam == (2, 1):
            held = canonical(lam)
            assert make_partition(list(lam)) is held
        assert (lam in CANONICAL) == (lam == (2, 1))
        part = type("Part", (int,), {})
        for label, want in [
            ((float(lam[0]), lam[1], 0.0), lam),
            (tuple(map(part, lam)), lam),
            ([*lam, False], lam),
            (lam + (True,), lam + (1,)),
        ]:
            out = make_partition(label)
            assert out == want and {type(p) for p in out} == {int}
        with pytest.raises(ValueError, match="not a partition"):
            make_partition((lam[0] + 0.5, lam[1]))

    @pytest.mark.parametrize("text", ["1,0,1", "0,1"])
    def test_rejects_a_zero_before_a_part(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)
        assert parse_partition("3,2,0,0") == parse_partition("[2,0,3]") == (3, 2)

    @pytest.mark.parametrize("text", ["[1^-1]", "[1^-2,3]", "[1^100000000000000000000]"])
    def test_rejects_an_exponent_that_drops_parts_or_cannot_index(self, text):
        with pytest.raises(ValueError, match="exponent out of range"):
            parse_partition(text)
        assert parse_partition("[2^0,1]") == (1,)

    def test_rejects_a_negative_part_before_the_weight_bound(self):
        """A negative run would lower the weight, so [-1^n,1^n] could pass any bound and
        expand 2n parts; it is refused by its text, before the bound is read."""
        with pytest.raises(ValueError, match=r"^not a partition: '\[-1\^3,5\]'$"):
            parse_partition("[-1^3,5]", 20)

    def test_bounds_a_plain_label_by_its_weight(self):
        with pytest.raises(ResourceError, match=r"^input weight 21 exceeds the configured maximum 20$"):
            parse_partition("21", 20)
        assert parse_partition("20", 20) == (20,)
        assert parse_partition("21") == (21,)

    def test_spaces_around_commas_and_carets_are_read(self):
        assert parse_partition("3, 2") == (3, 2)
        assert parse_partition("[2 ^ 2, 1]") == (2, 2, 1)


class TestIntegerAndBound:
    """One grammar for every integer the CLI reads, and one bound for every number."""

    @pytest.mark.parametrize("text, value", [("-0", 0), ("007", 7), ("-12", -12), ("3", 3)])
    def test_integer_reads_a_minus_and_ascii_digits(self, text, value):
        assert integer(text) == value

    @pytest.mark.parametrize("text", ["", "-", "--3", "\u00b3", "+3", "1_0", " 3", "3 ", "\uff13", "\u0663", "0x1"])
    def test_integer_refuses_everything_else(self, text):
        with pytest.raises(ValueError, match=r"^invalid integer "):
            integer(text)

    def test_bounded_messages(self):
        with pytest.raises(ValueError) as info:
            bounded(-1, 20, "cap")
        assert str(info.value) == "cap must be >= 0, got -1"
        with pytest.raises(ResourceError) as info:
            bounded(21, 20)
        assert str(info.value) == "input weight 21 exceeds the configured maximum 20"
        assert bounded(20, 20) == 20 and bounded(10**30, None) == 10**30 and bounded(0, 0) == 0
