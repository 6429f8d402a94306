"""Bernstein vertex operators on symmetric functions.

V(z) = M(z) L-perp(z-bar); its z^m coefficient is the Bernstein operator
B_m(f) = sum_i (-1)^i h_{m+i} (f / e_i), which adds a part m.  One L-perp(z)
and one M(w) operator act on (z, w)-parameter polynomials: `check_commutation`
composes both ways round, and `bernstein` multiplies the L-perp terms by h_{m+i}.
"""

from __future__ import annotations

from .partitions import Partition, partitions_up_to
from .schur import SymFunc, e, h, outer_mul, skew

ParamPolySym = dict[tuple[int, int], SymFunc]  # (z-exponent, w-exponent) -> SymFunc


def bernstein(m: int, f: SymFunc) -> SymFunc:
    if m < 0:
        raise ValueError("negative Bernstein indices are not supported")
    out = SymFunc.zero()
    for (i, _), val in _apply_l_perp({(0, 0): f}, f.max_degree()).items():
        out.add(outer_mul(h(m + i), val))
    return out


def schur_via_bernstein(lam: Partition) -> SymFunc:
    """s_lam = B_{lam_1} o ... o B_{lam_l} applied to the vacuum s_()."""
    out = SymFunc.one()
    for part in reversed(tuple(lam)):
        out = bernstein(part, out)
    return out


def _apply_l_perp(poly: ParamPolySym, cap: int) -> ParamPolySym:
    """L-perp(z) applied to every coefficient: (-1)^i (f / e_i), shifting z-exponent."""
    out: ParamPolySym = {}
    for (zi, wi), val in poly.items():
        for i in range(min(cap - zi, val.max_degree()) + 1):
            term = skew(val, e(i)).scale((-1) ** i)
            if term:
                out.setdefault((zi + i, wi), SymFunc.zero()).add(term)
    return {k: v for k, v in out.items() if v}


def _apply_m(poly: ParamPolySym, cap: int) -> ParamPolySym:
    """M(w) applied to every coefficient: multiply by h_j, shifting w-exponent."""
    out: ParamPolySym = {}
    for (zi, wi), val in poly.items():
        for j in range(cap - wi + 1):
            out.setdefault((zi, wi + j), SymFunc.zero()).add(outer_mul(h(j), val))
    return {k: v for k, v in out.items() if v}


def check_commutation(cap: int) -> bool:
    """L-perp(z) M(w) = (1 - z w) M(w) L-perp(z) applied to every Schur basis
    element of weight <= cap, compared on z, w exponents < cap; exact equality."""

    def window(poly: ParamPolySym) -> ParamPolySym:
        # Beyond the window the (1 - zw) shift leaves the truncations incomparable.
        return {k: v for k, v in poly.items() if v and max(k) < cap}

    for lam in partitions_up_to(cap):
        f = {(0, 0): SymFunc.basis(lam)}
        lhs = _apply_l_perp(_apply_m(f, cap), cap)
        rhs = _apply_m(_apply_l_perp(f, cap), cap)
        for (zi, wi), val in list(rhs.items()):  # times (1 - z w)
            rhs[zi + 1, wi + 1] = rhs.get((zi + 1, wi + 1), SymFunc.zero()) - val
        if window(lhs) != window(rhs):
            return False
    return True
