"""Schur-function series M, L, A, B, C, D at t = 1, degree-graded.

M: h_d per degree; L: (-1)^d e_d; A, B, C, D sum the partition classes
A, B, C, D with signs (-1)^{d/2} on A and C.  M/L, A/B, C/D are mutually
inverse degreewise.
"""

from __future__ import annotations

from functools import cache

from .partitions import in_class, partitions_of
from .schur import SymFunc, TensorSymFunc, coproduct, outer_mul, scalar, skew, tensor

SERIES_TAGS = ("M", "L", "A", "B", "C", "D")

# The inverse partner of each series tag.
INVERSE_PAIR = {"M": "L", "L": "M", "A": "B", "B": "A", "C": "D", "D": "C"}


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


def series_terms(tag: str, cap: int) -> dict[int, SymFunc]:
    """Degree -> homogeneous term, for all degrees up to cap."""
    return {d: series_degree_term(tag, d) for d in range(cap + 1)}


def series_sum(tag: str, cap: int) -> SymFunc:
    out = SymFunc.zero()
    for d in range(cap + 1):
        out.add(series_degree_term(tag, d))
    return out


def skew_by_series(f: SymFunc, tag: str) -> SymFunc:
    """f / series: sum of skews by every series term (finite: skews vanish above |f|)."""
    out = SymFunc.zero()
    for d in range(f.max_degree() + 1):
        term = series_degree_term(tag, d)
        if term:
            out.add(skew(f, term))
    return out


def mul_by_series(f: SymFunc, tag: str, cap: int) -> SymFunc:
    """f * series truncated to total degree <= cap."""
    if cap < f.max_degree():
        raise ValueError("cap must be at least the degree of f")
    out = SymFunc.zero()
    for d in range(cap + 1):
        term = series_degree_term(tag, d)
        if term:
            out.add(outer_mul(f, term))
    return out.truncate(cap)


def linear_form_m(f: SymFunc) -> int:
    """m(f) = <M(1) | f>, the coefficient sum over one-row partitions."""
    return sum(scalar(series_degree_term("M", d), f.homogeneous(d)) for d in f.degrees())


def linear_form_l(f: SymFunc) -> int:
    """l(f) = <L(1) | f>, taken degreewise."""
    return sum(scalar(series_degree_term("L", d), f.homogeneous(d)) for d in f.degrees())


def is_group_like(tag: str, cap: int) -> bool:
    """Check Delta(series) = series (x) series degree-by-degree up to cap."""
    for d in range(cap + 1):
        rhs = TensorSymFunc()
        for i in range(d + 1):
            rhs.add(tensor(series_degree_term(tag, i), series_degree_term(tag, d - i)))
        if coproduct(series_degree_term(tag, d)) != rhs:
            return False
    return True


def check_inverse_pair(tag_a: str, tag_b: str, cap: int) -> bool:
    """Degreewise product of the two series equals 1 (delta_{d,0} s_()) up to cap."""
    for d in range(cap + 1):
        acc = SymFunc.zero()
        for i in range(d + 1):
            acc.add(outer_mul(series_degree_term(tag_a, i), series_degree_term(tag_b, d - i)))
        expected = SymFunc.one() if d == 0 else SymFunc.zero()
        if acc != expected:
            return False
    return True
