"""Bernstein vertex operators and the series commutation relation."""

import pytest

from symchar.partitions import partitions_up_to
from symchar.schur import SymFunc, s, scalar, unit
from symchar.series import mul_by_series, series_degree_term, skew_by_series
from symchar.vertex import bernstein, check_commutation, schur_via_bernstein


class TestBernstein:
    def test_vacuum(self):
        assert bernstein(3, unit()) == s(3)

    def test_adds_a_part(self):
        assert bernstein(2, bernstein(1, unit())) == s(2, 1)

    def test_annihilation(self):
        # B_1(s_(2,1)) = 0: the raised label (1,2,1) standardizes to zero.
        assert bernstein(1, s(2, 1)) == SymFunc.zero()

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernstein(-1, unit())


class TestSchurChain:
    def test_examples(self):
        assert schur_via_bernstein((2, 1)) == s(2, 1)
        assert schur_via_bernstein(()) == unit()

    def test_all_small(self):
        for lam in partitions_up_to(5):
            assert schur_via_bernstein(lam) == SymFunc.basis(lam)


class TestReducedEmbedding:
    """M(1) L-perp(1) s_mu truncated at a cap: the reduced-character series view."""

    @staticmethod
    def embed(mu, cap):
        return mul_by_series(skew_by_series(SymFunc.basis(mu), "L"), "M", cap)

    def test_vacuum_is_m_series(self):
        assert self.embed((), 3) == mul_by_series(unit(), "M", 3)

    def test_one_box(self):
        expected = mul_by_series(s(1) - unit(), "M", 3)
        assert self.embed((1,), 3) == expected

    def test_cap_too_small(self):
        with pytest.raises(ValueError):
            self.embed((2, 1), 2)


class TestCommutation:
    def test_cap_three(self):
        assert check_commutation(3)

    def test_degenerate(self):
        assert check_commutation(0)

    def test_fails_with_e_replaced_by_h(self, monkeypatch, capsys):
        """The check can fail: with e_i replaced by h_i the relation breaks, and
        the CLI prints FAIL and exits 1."""
        import symchar.vertex
        from symchar.cli import main
        from symchar.schur import h

        monkeypatch.setattr(symchar.vertex, "e", h)
        assert not check_commutation(3)
        assert main(["vertex", "check-commutation", "--cap", "3"]) == 1
        assert capsys.readouterr().out == "FAIL\n"


def series_pairing_coefficients(cap: int) -> dict[tuple[int, int], int]:
    """<L(z)|M(w)> degreewise: coefficient of z^i w^j, expected (1 - zw)."""
    out: dict[tuple[int, int], int] = {}
    for i in range(cap + 1):
        for j in range(cap + 1):
            c = scalar(series_degree_term("L", i), series_degree_term("M", j))
            if c:
                out[(i, j)] = c
    return out


class TestSeriesPairing:
    def test_one_minus_zw(self):
        assert series_pairing_coefficients(4) == {(0, 0): 1, (1, 1): -1}
