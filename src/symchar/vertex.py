"""Bernstein vertex operators on symmetric functions.

V(z) = M(z) L-perp(z-bar); its z^m coefficient is the Bernstein operator
B_m(f) = sum_i (-1)^i h_{m+i} (e_i-perp f), which adds a part m.  The relation
L-perp(z) M(w) = (1 - z w) M(w) L-perp(z), L-perp(z) = sum_i (-z)^i e_i-perp and
M(w) = sum_j w^j h_j, is checked by its z^i w^j coefficient
e_i-perp(h_j f) = h_j (e_i-perp f) + h_{j-1} (e_{i-1}-perp f), with h_n = e_n = 0
for n < 0.
"""

from __future__ import annotations

from functools import partial

from .partitions import Partition, partitions_up_to
from .schur import SymFunc, _bilinear, e, h, outer_mul, product_basis, skew, skew_basis


def bernstein(m: int, f: SymFunc) -> SymFunc:
    if m < 0:
        raise ValueError("negative Bernstein indices are not supported")
    out = SymFunc.zero()
    for i in range(f.max_degree() + 1):
        out.add(outer_mul(h(m + i), skew(f, e(i))), (-1) ** i)
    return out


def schur_via_bernstein(lam: Partition) -> SymFunc:
    """s_lam = B_{lam_1} o ... o B_{lam_l} applied to the vacuum s_()."""
    out = SymFunc.one()
    for part in reversed(tuple(lam)):
        out = bernstein(part, out)
    return out


def check_commutation(cap: int) -> bool:
    """L-perp(z) M(w) = (1 - z w) M(w) L-perp(z) applied to every Schur basis
    element f of weight <= cap, compared on the z^i w^j coefficients with
    i, j < cap; exact equality, reading the stored tables, as pairs recur."""
    times, perp = (partial(_bilinear, on_basis=table) for table in (product_basis, skew_basis))
    for lam in partitions_up_to(cap):
        f = SymFunc.basis(lam)
        for i in range(cap):
            lowered, below = perp(f, e(i)), perp(f, e(i - 1))
            for j in range(cap):
                lhs = perp(times(h(j), f), e(i))
                rhs = times(h(j), lowered) + times(h(j - 1), below)
                if lhs != rhs:
                    return False
    return True
