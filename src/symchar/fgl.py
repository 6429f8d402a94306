"""Truncated one-dimensional formal group laws over the rationals.

F(X, Y) = X + Y + sum c_{i,j} X^i Y^j with i, j >= 1 and i + j <= cap.
Polynomial arithmetic is exact (fractions.Fraction) and truncated by
total degree.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .kronecker import inner_coproduct_basis
from .schur import SymFunc, TensorSymFunc, coproduct

# Sparse polynomial in `nvars` variables: exponent tuple -> Fraction.
Poly = dict[tuple[int, ...], Fraction]


def var(nvars: int, i: int) -> Poly:
    expo = [0] * nvars
    expo[i] = 1
    return {tuple(expo): Fraction(1)}


def padd(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def pscale(p: Poly, c) -> Poly:
    c = Fraction(c)
    return {e: v * c for e, v in p.items() if v * c}


def pmul(p: Poly, q: Poly, cap: int) -> Poly:
    out: Poly = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            if sum(e) > cap:
                continue
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def ppow(p: Poly, n: int, cap: int) -> Poly:
    """p^n for n >= 1."""
    out = dict(p)
    for _ in range(n - 1):
        out = pmul(out, p, cap)
    return out


class FGL1(namedtuple("FGL1", "coeffs cap")):
    """One-dimensional formal group law given by its mixed coefficients
    coeffs = ((i, j, c_{i,j}), ...), i, j >= 1, truncated at total degree cap:
    `make` keeps only the coefficients with i + j <= cap, and `apply` reads no
    other, however the law was built (directly, by `type(F)(...)` or `_replace`)."""

    __slots__ = ()

    @staticmethod
    def make(coeffs: dict[tuple[int, int], object], cap: int) -> "FGL1":
        if cap < 1:  # truncating below degree 1 would drop X itself
            raise ValueError(f"cap must be >= 1, got {cap}")
        if any(i < 1 or j < 1 for i, j in coeffs):
            raise ValueError("mixed coefficients require i, j >= 1")
        items = tuple(
            sorted((i, j, Fraction(c)) for (i, j), c in coeffs.items() if i + j <= cap and Fraction(c))
        )
        return FGL1(items, cap)

    def apply(self, p: Poly, q: Poly) -> Poly:
        """F(P, Q) truncated at the law's total degree cap."""
        cap = self.cap
        out = padd(p, q)
        for i, j, c in self.coeffs:
            if i + j <= cap:
                out = padd(out, pscale(pmul(ppow(p, i, cap), ppow(q, j, cap), cap), c))
        return out


def multiplicative(b=1, cap: int = 8) -> FGL1:
    """G_m^b: F(X,Y) = X + Y + b X Y; b = 0 is G_a, F(X,Y) = X + Y."""
    return FGL1.make({(1, 1): b}, cap)


def antipode_series(F: FGL1) -> Poly:
    """The unique lambda(X) = -X + ... with F(X, lambda(X)) = 0, by fixed-point
    iteration lambda <- lambda - F(X, lambda) (gains a degree per pass)."""
    x = var(1, 0)
    lam = pscale(x, -1)
    for _ in range(F.cap):
        step = F.apply(x, lam)
        if not step:
            break
        lam = padd(lam, pscale(step, -1))
    return lam


def loop_n(F: FGL1, n: int) -> Poly:
    """[n](X): [0] = 0, [m](Y) = F([m-1](Y), Y) at Y = X for n = m > 0 and at
    Y = lambda(X) for n = -m; substituting lambda commutes with the truncation,
    since neither series has a constant term."""
    if n == 0:
        return {}
    x = out = var(1, 0) if n > 0 else antipode_series(F)
    for _ in range(abs(n) - 1):
        out = F.apply(out, x)
    return out


def fgl_log(F: FGL1) -> Poly:
    """The logarithm: ell(X) = X + ..., ell(F(X,Y)) = ell(X) + ell(Y).

    In characteristic 0, ell'(X) = 1 / (dF/dY)(X, 0) = 1 / (1 + r), r = sum_i c_{i,1} X^i: the
    fixed point of q <- 1 - r q, which gains a degree per pass below the cap; integrate formally.
    """
    r = {(i,): c for i, j, c in F.coeffs if j == 1}
    q: Poly = {}
    for _ in range(F.cap):
        q = padd({(0,): Fraction(1)}, pscale(pmul(r, q, F.cap - 1), -1))
    return {(e + 1,): c / (e + 1) for (e,), c in q.items()}


def coproduct_from_fgl(which: str, f: SymFunc) -> TensorSymFunc:
    """additive -> the outer coproduct (alphabet X + Y); multiplicative ->
    Delta_m (alphabet X + Y + XY), Delta then delta_inner on the middle leg:
    sum_mu Delta(f/s_mu) delta_inner(s_mu), f/s_mu read off Delta f's terms (nu, mu)."""
    if which == "additive":
        return coproduct(f)
    if which != "multiplicative":
        raise ValueError(f"unknown formal group tag {which!r}")
    skews: dict = {}
    for (nu, mu), c in coproduct(f).terms.items():
        skews.setdefault(mu, {})[nu] = c
    out = TensorSymFunc()
    for mu, rest in skews.items():
        out.add(coproduct(SymFunc(rest)) * TensorSymFunc(inner_coproduct_basis(mu)))
    return out
