"""Text and JSON serialization of symmetric functions and labels."""

import pytest
from hypothesis import assume, given, strategies as st

from symchar.formats import (
    format_rational,
    format_symfunc,
    parse_rational_label,
    parse_symfunc,
    rational_json,
    symfunc_json,
    term_order,
)
from symchar.partitions import ResourceError, partitions_up_to
from symchar.schur import SymFunc, TensorSymFunc, s, unit

small_partitions = st.sampled_from(partitions_up_to(5))
sym_elements = st.dictionaries(small_partitions, st.integers(-9, 9).filter(bool), max_size=5).map(
    SymFunc
)


class TestParse:
    def test_bare_partition(self):
        assert parse_symfunc("2,1") == s(2, 1)
        assert parse_symfunc("0") == unit()

    def test_sum(self):
        assert parse_symfunc("s[2] + s[1,1] - 3*s[3]") == s(2) + s(1, 1) - s(3).scale(3)

    def test_coefficient_without_star(self):
        assert parse_symfunc("2s[1]") == s(1).scale(2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_symfunc("   ")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_symfunc("s[1] + banana")

    def test_leading_sign(self):
        assert parse_symfunc("+s[1]") == s(1)
        assert parse_symfunc("-2*s[1] + s[2]") == s(2) - s(1).scale(2)

    @pytest.mark.parametrize("text", ["s[2] s[1]", "s[2]s[1]", "s[2] + s[1] 3*s[3]", "s[1] 2s[1]"])
    def test_unsigned_later_term_rejected(self, text):
        """Juxtaposed terms are not a sum: every term after the first needs a sign."""
        with pytest.raises(ValueError, match="cannot parse symmetric function at"):
            parse_symfunc(text)

    def test_every_term_is_bounded(self):
        with pytest.raises(ResourceError, match="input weight 21"):
            parse_symfunc("s[3]+s[21]", 20)


class TestFormat:
    def test_zero(self):
        assert format_symfunc(SymFunc.zero()) == "0"

    def test_bracket_kinds(self):
        f = s(2) + unit()
        assert format_symfunc(f, "gl") == "{0} + {2}"
        assert format_symfunc(f, "o") == "[0] + [2]"
        assert format_symfunc(f, "sp") == "<0> + <2>"
        assert format_symfunc(f, "thibon") == "<<0>> + <<2>>"

    def test_sorted_by_weight_then_reverse_lex(self):
        f = s(1, 1) + s(2) + s(1)
        assert format_symfunc(f, "gl") == "{1} + {2} + {1,1}"

    def test_leading_negative(self):
        assert format_symfunc(s(1).scale(-1), "gl") == "-{1}"

    @given(sym_elements)
    def test_round_trip_through_default_format(self, f):
        # The zero element formats as "0", which parses back as the bare
        # partition label 0 (the unit), so round-tripping applies to f != 0.
        assume(f != SymFunc.zero())
        assert parse_symfunc(format_symfunc(f, "schur")) == f


class TestJson:
    def test_schema(self):
        payload = symfunc_json(s(2) + s(1, 1).scale(-2), "gl")
        assert payload["meta"] == {"cap": None}
        assert payload["terms"] == [
            {"label": {"kind": "gl", "partition": [2]}, "coeff": 1},
            {"label": {"kind": "gl", "partition": [1, 1]}, "coeff": -2},
        ]

    def test_rational_schema(self):
        x = TensorSymFunc.basis((1,), (1,)) + TensorSymFunc.basis((), ())
        payload = rational_json(x)
        kinds = {t["label"]["kind"] for t in payload["terms"]}
        assert kinds == {"rational"}
        assert {"partition", "contra", "kind"} <= set(payload["terms"][0]["label"])


class TestRationalLabels:
    def test_parse(self):
        assert parse_rational_label("2,1;1") == ((2, 1), (1,))
        assert parse_rational_label("1;0") == ((1,), ())

    def test_bounds_each_leg_then_the_pair(self):
        """A leg over the bound is reported first; a pair of legs within it, by its total."""
        with pytest.raises(ResourceError, match="input weight 21 "):
            parse_rational_label("15;6", 20)
        with pytest.raises(ResourceError, match="input weight 25 "):
            parse_rational_label("25;30", 20)
        assert parse_rational_label("15;5", 20) == ((15,), (5,))

    def test_missing_separator(self):
        with pytest.raises(ValueError):
            parse_rational_label("2,1")

    def test_format(self):
        x = TensorSymFunc.basis((1,), (1,)) + TensorSymFunc.basis((), ())
        assert format_rational(x) == "{0;0~} + {1;1~}"
        assert format_rational(TensorSymFunc()) == "0"


class TestTermOrder:
    def test_ordering(self):
        labels = [(1, 1), (2,), (1,), ()]
        assert sorted(labels, key=term_order) == [(), (1,), (2,), (1, 1)]
