"""Partition combinatorics the benchmark checks outputs with.

Pure Python and independent of symchar: partitions are tuples of weakly
decreasing positive integers, as in symchar.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, prod


@cache
def partitions(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts at most max_part, reverse-lex order."""
    if n == 0:
        return ((),)
    if max_part is None:
        max_part = n
    return tuple(
        (first,) + rest
        for first in range(min(n, max_part), 0, -1)
        for rest in partitions(n - first, first)
    )


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) if lam else ()


def _hooks_contents(lam):
    conj = conjugate(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            yield row - j + conj[j] - i - 1, j - i


@cache
def syt_count(lam: tuple[int, ...]) -> int:
    """f^lam, the number of standard Young tableaux (hook-length formula)."""
    return factorial(sum(lam)) // prod(h for h, _ in _hooks_contents(lam))


@cache
def gl_dimension(lam: tuple[int, ...], d: int) -> int:
    """s_lam(1^d), the GL(d) dimension (hook-content formula)."""
    if len(lam) > d:
        return 0
    num = prod(d + c for _, c in _hooks_contents(lam))
    return num // prod(h for h, _ in _hooks_contents(lam))


def cycle_character(lam: tuple[int, ...]) -> int:
    """chi^lam at an n-cycle: (-1)^k on the hook (n-k, 1^k), zero otherwise."""
    if not lam:
        return 1
    if all(p == 1 for p in lam[1:]):
        return (-1) ** (len(lam) - 1)
    return 0


def z_lambda(rho: tuple[int, ...]) -> int:
    z = 1
    for p in set(rho):
        m = rho.count(p)
        z *= p**m * factorial(m)
    return z


def in_series_class(lam: tuple[int, ...], tag: str) -> bool:
    """Membership in the classes summed by the series A, B, C, D."""
    if tag == "D":
        return all(p % 2 == 0 for p in lam)
    if tag == "B":
        return all(p % 2 == 0 for p in conjugate(lam))
    conj = conjugate(lam)
    rank = sum(1 for i, p in enumerate(lam) if p > i)
    diff = {"A": -1, "C": 1}[tag]
    return all((lam[i] - i) - (conj[i] - i) == diff for i in range(rank))


def series_term(tag: str, d: int) -> dict[tuple[int, ...], int]:
    """Degree-d term of the series M, L, A, B, C, D at t = 1."""
    if d == 0:
        return {(): 1}
    if tag == "M":
        return {(d,): 1}
    if tag == "L":
        return {(1,) * d: (-1) ** d}
    if d % 2:
        return {}
    sign = (-1) ** (d // 2) if tag in ("A", "C") else 1
    return {lam: sign for lam in partitions(d) if in_series_class(lam, tag)}


def fgl_loop(b: int, n: int, cap: int) -> dict[int, Fraction]:
    """[n](X) for F(X, Y) = X + Y + b X Y: ((1 + bX)^n - 1) / b, or n X when b = 0."""
    if b == 0:
        return {1: Fraction(n)} if n and cap >= 1 else {}
    return {k: Fraction(comb(n, k) * b ** (k - 1)) for k in range(1, min(n, cap) + 1)}


def fgl_log(b: int, cap: int) -> dict[int, Fraction]:
    """log(1 + bX) / b truncated at cap."""
    if b == 0:
        return {1: Fraction(1)} if cap >= 1 else {}
    return {k: Fraction((-1) ** (k + 1) * b ** (k - 1), k) for k in range(1, cap + 1)}
