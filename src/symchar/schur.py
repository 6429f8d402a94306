"""The Hopf algebra of symmetric functions in the Schur basis.

Elements are sparse integer combinations of Schur functions.  LR coefficients
are generated directly by one kernel, a fused step per row that adds every
state's successors straight into the next state dict: products fill the rows
of one factor seeded with the other's content, skews fill lam/mu once with
free content, and the coproduct skews by each eta inside lam.
Monomial expansion by the branching rule is the independent oracle."""

from __future__ import annotations

from functools import cache, reduce
from itertools import product
from math import prod

from .partitions import (
    Partition,
    canonical,
    conjugate,
    contains,
    format_partition,
    hooks_and_contents,
    make_partition,
    term_order,
    weight,
)

Monomial = tuple[int, ...]


class _Combination:
    """A finite integer-linear combination of basis keys, without zero terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    def add(self, other, c: int = 1):
        """self += c * other in place, dropping the terms that cancel; returns
        self.  Only for an accumulator the caller created, never a cached value."""
        terms = self.terms
        for k, v in other.terms.items():
            v = terms.get(k, 0) + c * v
            if v:
                terms[k] = v
            else:
                terms.pop(k, None)
        return self

    def __add__(self, other):
        return type(self)(self.terms).add(other)

    def __sub__(self, other):
        return type(self)(self.terms).add(other, -1)

    def __neg__(self):
        return type(self)({k: -v for k, v in self.terms.items()})

    def scale(self, c: int):
        return type(self)({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)


class SymFunc(_Combination):
    """A finite integer-linear combination of Schur functions."""

    __slots__ = ()

    # -- constructors -------------------------------------------------
    @staticmethod
    def basis(lam) -> "SymFunc":
        return SymFunc({make_partition(lam): 1})

    @staticmethod
    def zero() -> "SymFunc":
        return SymFunc()

    @staticmethod
    def one() -> "SymFunc":
        return SymFunc({(): 1})

    # -- ring structure ----------------------------------------------
    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, SymFunc):
            return outer_mul(self, other)
        return NotImplemented

    # -- structure queries -------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {weight(k) for k in self.terms}

    def max_degree(self) -> int:
        return max((weight(k) for k in self.terms), default=0)

    def truncate(self, cap: int) -> "SymFunc":
        return SymFunc({k: v for k, v in self.terms.items() if weight(k) <= cap})

    def __repr__(self) -> str:
        return signed_sum(
            (self.terms[lam], f"s[{format_partition(lam)}]")
            for lam in sorted(self.terms, key=term_order)
        )


def s(*parts) -> SymFunc:
    """Schur basis element s(2,1) etc.; s() is the unit."""
    return SymFunc.basis(parts)


def h(n: int) -> SymFunc:
    """Complete symmetric function h_n = s_(n); h_0 = 1 and h_n = 0 for n < 0."""
    return SymFunc({(n,) if n else (): 1} if n >= 0 else {})


def e(n: int) -> SymFunc:
    """Elementary symmetric function e_n = s_(1^n); e_0 = 1 and e_n = 0 for n < 0."""
    return SymFunc({(1,) * n: 1} if n >= 0 else {})


class TensorSymFunc(_Combination):
    """A finite integer-linear combination of pairs s_mu (x) s_nu."""

    __slots__ = ()

    @staticmethod
    def basis(mu, nu) -> "TensorSymFunc":
        return TensorSymFunc({(make_partition(mu), make_partition(nu)): 1})

    def __mul__(self, other):
        """Componentwise product s_a s_u (x) s_b s_v, one left sum per right pair (b, v)."""
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, TensorSymFunc):
            mine, theirs, result = {}, {}, TensorSymFunc()
            for f, groups in ((self, mine), (other, theirs)):
                for (a, b), c in f.terms.items():
                    groups.setdefault(b, []).append((a, c))
            out = result.terms
            for b, xs in mine.items():
                for v, ys in theirs.items():
                    left: dict = {}
                    for a, c1 in xs:
                        for u, c2 in ys:
                            for p, cp in product_basis(a, u).items():
                                left[p] = left.get(p, 0) + c1 * c2 * cp
                    right = product_basis(b, v).items()
                    for p, cp in left.items():  # p outer: keys arrive nearer sorted order
                        for q, cq in right:
                            out[p, q] = out.get((p, q), 0) + cp * cq
            for key in [key for key, c in out.items() if not c]:
                del out[key]  # in place: a filtered copy would double the peak
            return result
        return NotImplemented

    def __repr__(self) -> str:
        return signed_sum(
            (c, f"s[{format_partition(a)}](x)s[{format_partition(b)}]")
            for (a, b), c in sorted(self.terms.items())
        )


def tensor(f, g) -> TensorSymFunc:
    """f (x) g, each a SymFunc or a {partition: coefficient} dict."""
    f, g = getattr(f, "terms", f), getattr(g, "terms", g)
    return TensorSymFunc({(a, b): cf * cg for a, cf in f.items() for b, cg in g.items()})


def signed_sum(pairs) -> str:
    """Join (coefficient, label) pairs as "a - 2*b + 3": "0" when there are none,
    no unit coefficient before a label, and a constant (empty label) bare."""
    bits = []
    for c, label in pairs:
        mag = abs(c)
        coeff = str(mag) if not label else "" if mag == 1 else f"{mag}*"
        bits.append(f"{'-' if c < 0 else '+'} {coeff}{label}")
    text = " ".join(bits)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


# ---------------------------------------------------------------------------
# Littlewood-Richardson rule
# ---------------------------------------------------------------------------

def _row_step(states: dict, lo: int, hi: int, off: int, final: bool) -> dict:
    """One row of a skew shape on every state (above, content), `above` holding
    the row before's entries from column off on: each lattice filling of the
    cells lo..hi-1, right to left, weakly decreasing and larger than the entry
    above, goes straight into the next dict, keyed (entries, content) or, when
    final, by the content alone.  Skews start from the empty content, products
    from the content of the factor that is not filled."""
    out, row = {}, [0] * (hi - lo)

    def fill(j: int, top: int) -> None:
        if j < lo:
            key = tuple(counts) if counts[-1] else tuple(counts[:-1])
            key = canonical(key) if final else (tuple(row), key)
            out[key] = out.get(key, 0) + c
            return
        for v in range(above[j - off] + 1 if j >= off else 1, top + 1):
            if v == 1 or counts[v - 1] < counts[v - 2]:
                counts[v - 1] += 1
                row[j - lo] = v
                fill(j - 1, v)
                counts[v - 1] -= 1

    for (above, content), c in states.items():
        counts = [*content, 0]
        fill(hi - 1, len(content) + 1)
    del fill  # a recursive closure must not outlive its call: only gc frees its cycle
    return out


def _product(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """Expansion of s_mu s_nu in the Schur basis, stored nowhere.  It is the skew
    Schur function of the two shapes placed corner to corner (Macdonald I.5), and
    every LR filling of that shape puts i in each cell of the upper factor's
    row i.  So the factor with fewer rows (of the conjugates, if they need
    fewer: c^lam_{mu,nu} = c^lam'_{mu',nu'}) goes below and is the only one
    filled, one `_row_step` per row, seeded with the upper factor's content;
    its first row lies under no cell, and the last row keys the fillings by
    their contents lam."""
    if (mu, nu) > (nu, mu):
        mu, nu = nu, mu
    flip = bool(mu) and min(mu[0], nu[0]) < min(len(mu), len(nu))
    if flip:
        mu, nu = conjugate(mu), conjugate(nu)
    rows, other = (nu, mu) if len(nu) <= len(mu) else (mu, nu)
    if not rows:
        return {canonical(other): 1}
    states, off = {((), other): 1}, rows[0]
    for i, k in enumerate(rows):
        states, off = _row_step(states, 0, k, off, i == len(rows) - 1), 0
    return {conjugate(lam): c for lam, c in states.items()} if flip else states


@cache
def product_basis(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """`_product` stored, one dict for (mu, nu) and (nu, mu), for the loops that re-read it."""
    return product_basis(nu, mu) if (mu, nu) > (nu, mu) else _product(mu, nu)


def linear(f, on_basis, cls):
    """The linear extension of on_basis at f, as a cls.  f and each image of a
    basis key under on_basis are combinations or {key: coefficient} dicts."""
    out: dict = {}
    for key, c in getattr(f, "terms", f).items():
        image = on_basis(key)
        for k, v in getattr(image, "terms", image).items():
            out[k] = out.get(k, 0) + c * v
    return cls(out)


def _bilinear(f, g, on_basis) -> SymFunc:
    """The bilinear extension of on_basis (as in `linear`) at (f, g); on two single
    terms, one scaled copy of the image, which holds no zero terms to filter."""
    f, g = getattr(f, "terms", f), getattr(g, "terms", g)
    if len(f) == len(g) == 1:
        ((mu, cf),), ((nu, cg),) = f.items(), g.items()
        image, c, out = on_basis(mu, nu), cf * cg, SymFunc.__new__(SymFunc)
        image = getattr(image, "terms", image)
        out.terms = dict(image) if c == 1 else {lam: c * v for lam, v in image.items()} if c else {}
        return out
    out: dict[Partition, int] = {}
    for mu, cf in f.items():
        for nu, cg in g.items():
            image = on_basis(mu, nu)
            for lam, c in getattr(image, "terms", image).items():
                out[lam] = out.get(lam, 0) + cf * cg * c
    return SymFunc(out)


def outer_mul(f: SymFunc, g: SymFunc) -> SymFunc:
    return _bilinear(f, g, _product)


def _skew(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Schur expansion of s_{lam/mu}: lam/mu is filled once, content free, by
    one fused `_row_step` per row from the first row holding a cell, straight
    into the next state dict; the last row keys the fillings by their contents
    nu, which carry c^lam_{mu,nu}."""
    if not contains(lam, mu):
        return {}
    first = next((i for i, lo in enumerate(mu) if lo < lam[i]), len(mu))
    if first == len(lam):
        return {(): 1}  # lam = mu
    states, off = {((), ()): 1}, lam[0]
    for i in range(first, len(lam)):
        lo = mu[i] if i < len(mu) else 0
        states, off = _row_step(states, lo, lam[i], off, i == len(lam) - 1), lo
    return states


skew_basis = cache(_skew)  # the skews that loops re-read; coproduct_basis stores its own


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c^lam_{mu,nu}: LR skew tableaux of shape lam/mu and content nu."""
    if weight(lam) != weight(mu) + weight(nu) or not contains(lam, mu):
        return 0
    return _skew(lam, mu).get(nu, 0)


def skew(f: SymFunc, g: SymFunc) -> SymFunc:
    """s_nu-perp applied to f, bilinear in both slots: adjoint of multiplication."""
    return _bilinear(f, g, _skew)


# ---------------------------------------------------------------------------
# Hopf structure
# ---------------------------------------------------------------------------

def unit() -> SymFunc:
    return SymFunc.one()


def counit(f: SymFunc) -> int:
    return f.terms.get((), 0)


@cache
def coproduct_basis(lam: Partition) -> dict[tuple[Partition, Partition], int]:
    """Delta(s_lam) = sum_eta s_{lam/eta} (x) s_eta, filling only the skews with the
    fewest cells, 2|eta| >= |lam|: Delta is cocommutative (c^lam_{eta,nu} =
    c^lam_{nu,eta}), so if 2|eta| > |lam| each term (nu, eta) also gives (eta, nu)."""
    out: dict[tuple[Partition, Partition], int] = {}
    for eta in map(canonical, _inside(lam)):
        half = 2 * weight(eta) - weight(lam)
        for nu, c in _skew(lam, eta).items() if half >= 0 else ():
            out[(nu, eta)] = c
            if half:
                out[(eta, nu)] = c
    return out


def _inside(lam: Partition) -> list[Partition]:
    """Every partition contained in lam."""
    if not lam:
        return [()]
    rest = _inside(lam[1:])
    return [()] + [(p,) + eta for p in range(1, lam[0] + 1) for eta in rest if eta[:1] <= (p,)]


def coproduct(f: SymFunc) -> TensorSymFunc:
    return linear(f, coproduct_basis, TensorSymFunc)


def cut_coproduct(f: SymFunc) -> TensorSymFunc:
    """Delta' : coproduct terms with both legs of positive degree; zero in degree 0."""
    full = coproduct(f)
    return TensorSymFunc({(a, b): c for (a, b), c in full.terms.items() if a and b})


def antipode(f: SymFunc) -> SymFunc:
    """S(s_lam) = (-1)^{|lam|} s_{lam'}."""
    return linear(f, lambda lam: {conjugate(lam): (-1) ** weight(lam)}, SymFunc)


def scalar(f: _Combination, g: _Combination) -> int:
    """Schur-Hall scalar product on Sym or Sym (x) Sym; basis elements are orthonormal."""
    if len(f.terms) > len(g.terms):
        f, g = g, f
    return sum(c * g.terms.get(key, 0) for key, c in f.terms.items())


@cache
def iterated_coproduct_basis(lam: Partition, k: int) -> dict[tuple[Partition, ...], int]:
    """Delta^{(k)} on a basis element: map k-tuples of partitions -> coefficient (k >= 1)."""
    if k == 1:
        return {(lam,): 1}
    out: dict[tuple[Partition, ...], int] = {}
    for legs, c in iterated_coproduct_basis(lam, k - 1).items():
        for (a, b), c2 in coproduct_basis(legs[-1]).items():
            key = legs[:-1] + (a, b)
            out[key] = out.get(key, 0) + c * c2
    return out


def loop(r: int, f: SymFunc) -> SymFunc:
    """[r] = m^{(r-1)} o Delta^{(r-1)}, the convolution power id^{*r}, by `convolve1`; [1] = Id."""
    if r < 1:
        raise ValueError("loop order must be >= 1")
    if r == 1:
        return f
    from .convolution import convolve1, identity_cochain  # not loaded by `import symchar.cli`

    return reduce(convolve1, [identity_cochain()] * r)(f)


# ---------------------------------------------------------------------------
# Monomial-expansion oracle
# ---------------------------------------------------------------------------

@cache
def eval_monomials(lam: Partition, n_vars: int) -> dict[Monomial, int]:
    """s_lam(x_1..x_N) as {exponent tuple of length n_vars: coefficient}, by the
    branching rule (Macdonald I.5): the cells of a semistandard tableau holding N
    form a horizontal strip lam/mu, so s_lam is the sum of s_mu(x_1..x_{N-1})
    x_N^{|lam/mu|} over the mu interlacing lam, lam_{i+1} <= mu_i <= lam_i."""
    if n_vars < 0:
        raise ValueError("n_vars must be >= 0")
    if len(lam) > n_vars:
        return {}
    if not lam:
        return {(0,) * n_vars: 1}
    poly: dict[Monomial, int] = {}
    for mu in product(*map(range, lam[1:] + (0,), [p + 1 for p in lam])):
        strip = (weight(lam) - sum(mu),)
        for expo, c in eval_monomials(tuple(p for p in mu if p), n_vars - 1).items():
            poly[expo + strip] = poly.get(expo + strip, 0) + c
    return poly


def dimension_gl(lam: Partition, d: int) -> int:
    """s_lam(1^d), the dimension of the GL(d) irreducible with highest weight
    lam, by the hook-content formula prod (d + content) / prod hook."""
    if d < 0:
        raise ValueError("d must be >= 0")
    cells = hooks_and_contents(lam)
    return prod(d + c for _, c, _ in cells) // prod(h for _, _, h in cells)
