"""Schur-function series M, L, A, B, C, D at t = 1, degree-graded.

M: h_d per degree; L: (-1)^d e_d; A, B, C, D sum the partition classes
A, B, C, D with signs (-1)^{d/2} on A and C.  M/L, A/B, C/D are mutually
inverse degreewise.
"""

from __future__ import annotations

from functools import cache

from .partitions import in_class, partitions_of
from .schur import SymFunc, TensorSymFunc, coproduct, outer_mul, skew, tensor

SERIES_TAGS = ("M", "L", "A", "B", "C", "D")


@cache
def series_degree_term(tag: str, d: int) -> SymFunc:
    """The homogeneous degree-d component of the series at t = 1."""
    if tag not in SERIES_TAGS:
        raise ValueError(f"unknown series {tag!r}")
    if d < 0:
        return SymFunc.zero()
    if d == 0:
        return SymFunc.one()
    if tag == "M":
        return SymFunc.basis((d,))
    if tag == "L":
        return SymFunc.basis((1,) * d).scale((-1) ** d)
    if d % 2 == 1:
        return SymFunc.zero()
    cls = tag
    sign = (-1) ** (d // 2) if tag in ("A", "C") else 1
    terms = {lam: sign for lam in partitions_of(d) if in_class(lam, cls)}
    return SymFunc(terms)


def skew_by_series(f: SymFunc, tag: str) -> SymFunc:
    """f / series: sum of skews by every series term (finite: skews vanish above |f|)."""
    out = SymFunc.zero()
    for d in range(f.max_degree() + 1):
        term = series_degree_term(tag, d)
        if term:
            out.add(skew(f, term))
    return out


def mul_by_series(f: SymFunc, tag: str, cap: int) -> SymFunc:
    """f * series truncated to total degree <= cap: the series terms of degree
    above cap - (lowest degree of f) cannot reach it, and f = 0 gives 0."""
    if cap < f.max_degree():
        raise ValueError("cap must be at least the degree of f")
    out = SymFunc.zero()
    for d in range(cap - min(f.degrees(), default=cap) + 1):
        term = series_degree_term(tag, d)
        if term:
            out.add(outer_mul(f, term))
    return out.truncate(cap)


def is_group_like(tag: str, cap: int) -> bool:
    """Check Delta(series) = series (x) series degree-by-degree up to cap."""
    for d in range(cap + 1):
        rhs = TensorSymFunc()
        for i in range(d + 1):
            rhs.add(tensor(series_degree_term(tag, i), series_degree_term(tag, d - i)))
        if coproduct(series_degree_term(tag, d)) != rhs:
            return False
    return True
