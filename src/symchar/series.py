"""Schur-function series M, L, A, B, C, D at t = 1, degree-graded.

M: h_d per degree; L: (-1)^d e_d; A, B, C, D sum the partition classes
A, B, C, D with signs (-1)^{d/2} on A and C.  M/L, A/B, C/D are mutually
inverse degreewise.  An operator reads a series only up to the degree it can
reach, so each is one skew, product or coproduct of that truncation, one SymFunc.
"""

from __future__ import annotations

from functools import cache

from .partitions import in_class, partitions_of, weight
from .schur import SymFunc, coproduct, e, h, outer_mul, skew, tensor

SERIES_TAGS = ("M", "L", "A", "B", "C", "D")


@cache
def series_degree_term(tag: str, d: int) -> SymFunc:
    """The homogeneous degree-d component of the series at t = 1: 0 below degree 0
    and 1 at degree 0, as h, e and the classes (all of even weight) give it."""
    if tag not in SERIES_TAGS:
        raise ValueError(f"unknown series {tag!r}")
    if tag == "M":
        return h(d)
    if tag == "L":
        return e(d).scale((-1) ** d)
    sign = (-1) ** (d // 2) if tag in ("A", "C") else 1
    return SymFunc({lam: sign for lam in partitions_of(d) if in_class(lam, tag)})


def _truncated(tag: str, d: int) -> SymFunc:
    """The series up to degree d: a dict merge, since the degree terms share no key."""
    return SymFunc({lam: c for n in range(d + 1) for lam, c in series_degree_term(tag, n).terms.items()})


def skew_by_series(f: SymFunc, tag: str) -> SymFunc:
    """f / series: skews by series terms above |f| vanish."""
    return skew(f, _truncated(tag, f.max_degree()))


def mul_by_series(f: SymFunc, tag: str, cap: int) -> SymFunc:
    """f * series truncated to total degree <= cap: the series terms of degree
    above cap - (lowest degree of f) cannot reach it, and f = 0 gives 0."""
    if cap < f.max_degree():
        raise ValueError("cap must be at least the degree of f")
    return outer_mul(f, _truncated(tag, cap - min(f.degrees(), default=cap))).truncate(cap)


def is_group_like(tag: str, cap: int) -> bool:
    """Check Delta(series) = series (x) series up to total degree cap."""
    t = _truncated(tag, cap)
    rhs = {(a, b): c for (a, b), c in tensor(t, t).terms.items() if weight(a) + weight(b) <= cap}
    return coproduct(t).terms == rhs
