"""Convolution monoids of 1-cochains and pairings over symmetric functions.

A stage, `Cochain1` or `Pairing`, answers every basis read through one class-level
`on_basis` with a read-only {partition: coefficient} dict; its call is the linear
extension.  It memoizes what it computes (`inner` Kronecker products, `convolve2`
folds, inverses, phi o a with phi != id) and declares `lookup` where the value is
looked up instead (`outer`, `schur-hall`, `e2` and id hold no memo).  `_convolve`
is the one pairing convolution, (a * b)(f, g) on term dicts with its heads
a(x1, y1) summed per second-leg pair: a hash product is one pass of it over (x, y)
that ends in psi o m = `_composed(psi, outer_pairing())`, and `convolve2`, its memo
on basis pairs, folds the stages and the coboundary.  It runs the cochain monoid too, a
cochain f being the pairing f (x) eps read at (lam, ()), and both inverses, by the
recursion abar = e2 - (a - e2) * abar through the memo of abar.  Each checker is
`_law` over a generator of the law's counterexamples on the Schur basis, whose
sides read the cached LR kernels; the first is the witness.
"""

from __future__ import annotations

from .partitions import Partition, partitions_of, partitions_up_to, weight
from .schur import (
    SymFunc,
    TensorSymFunc,
    _bilinear,
    antipode,
    coproduct_basis,
    linear,
    product_basis,
    tensor,
)


class _Stage:
    """A cochain or pairing on the Schur basis.  `on_basis(*key)` is its value on the
    basis key(s), a read-only {partition: coefficient} dict without zero terms, the
    shape `product_basis` and `kronecker_basis` return.  It is memoized in `_memo`
    (keyed by lam for a cochain, (mu, nu) for a pairing) unless the constructor
    declares `lookup`: the value is looked up, not computed."""

    def __init__(self, fn, name: str = "stage", grade_preserving: bool = False, lookup: bool = False):
        self._fn = fn
        self.name = name
        self.grade_preserving = grade_preserving  # declared: a(x, y) = 0 unless |x| = |y|
        self.lookup = lookup
        self._memo: dict = {}

    def on_basis(self, *key) -> dict[Partition, int]:
        if self.lookup:
            return self._fn(*key)
        memo_key = key if len(key) > 1 else key[0]
        hit = self._memo.get(memo_key)
        if hit is None:
            hit = self._memo[memo_key] = self._fn(*key)
        return hit

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class Cochain1(_Stage):
    """A linear map on Sym, s_lam -> on_basis(lam)."""

    identity = False  # declared: f(x) = x; only identity_cochain() sets it

    def __call__(self, f) -> SymFunc:
        return linear(f, self.on_basis, SymFunc)


class Pairing(_Stage):
    """A 2-cochain: the bilinear map Sym x Sym -> Sym with (s_mu, s_nu) -> on_basis(mu, nu)."""

    def __call__(self, f, g) -> SymFunc:
        return _bilinear(f, g, self.on_basis)


# -- standard cochains and pairings -----------------------------------------

def identity_cochain() -> Cochain1:
    """id, declared `identity`: s_lam -> s_lam, looked up; a call copies its argument."""
    ident = Cochain1(lambda lam: {lam: 1}, "id", lookup=True)
    ident.identity = True
    return ident


def antipode_cochain() -> Cochain1:
    return Cochain1(lambda lam: antipode({lam: 1}).terms, "antipode")


def unit_counit_cochain() -> Cochain1:
    """e = eta o eps, the convolution unit."""
    return Cochain1(lambda lam: {} if lam else {(): 1}, "e")


def eps1_cochain() -> Cochain1:
    """eta o eps^1: x -> <M(1)|x> s_(). An algebra homomorphism (evaluation at one variable = 1)."""
    return Cochain1(lambda lam: {(): 1} if len(lam) <= 1 else {}, "eta.eps1")


def unit_pairing() -> Pairing:
    """e2(x, y) = eps(x) eps(y) s_(), the unit of the pairing convolution monoid."""
    return Pairing(lambda mu, nu: {(): 1} if mu == nu == () else {}, "e2", grade_preserving=True, lookup=True)


def outer_pairing() -> Pairing:
    """m: a(mu, nu) = s_mu s_nu, read from `product_basis`, which stores it: hash products,
    convolutions and law checks re-read their LR products, unlike a one-off `outer_mul`."""
    return Pairing(product_basis, "outer", lookup=True)


def inner_pairing() -> Pairing:
    """a(mu, nu) = s_mu * s_nu, computed by `kronecker_basis` (which keeps no table)
    and memoized in this stage."""
    from .kronecker import kronecker_basis

    return Pairing(kronecker_basis, "inner", grade_preserving=True)


def schur_hall_pairing() -> Pairing:
    """a(x, y) = <x|y> s_(): the derived pairing (eta o eps^1) o inner."""
    return Pairing(lambda mu, nu: {(): 1} if mu == nu else {}, "schur-hall", grade_preserving=True, lookup=True)


# Constructors by the names `symchar check` and inline hash specs accept.
PAIRINGS = {"inner": inner_pairing, "outer": outer_pairing, "schur-hall": schur_hall_pairing, "e2": unit_pairing}
COCHAINS = {"id": identity_cochain, "antipode": antipode_cochain, "e": unit_counit_cochain, "m": eps1_cochain}


# -- convolution -------------------------------------------------------------

def _first_leg(f: Cochain1) -> Pairing:
    """f (x) eps: (s_mu, s_nu) -> f(s_mu) [nu = ()], looked up in f.  id (x) eps is a
    coalgebra map, so this embeds the 1-cochain monoid in the pairing monoid; a
    cochain is read back at (lam, ())."""
    return Pairing(lambda mu, nu: {} if nu else f.on_basis(mu), f"{f.name}(x)eps", lookup=True)


def _transposed(a: Pairing) -> Pairing:
    """a^T(mu, nu) = a(nu, mu), looked up in a with a's grading: a's left laws are a^T's right laws."""
    return Pairing(lambda mu, nu: a.on_basis(nu, mu), f"{a.name}^T", a.grade_preserving, lookup=True)


def convolve1(f: Cochain1, g: Cochain1) -> Cochain1:
    """(f * g)(lam) = `_convolve(f (x) eps, g (x) eps, {lam: 1}, {(): 1})`, memoized."""
    a, b = _first_leg(f), _first_leg(g)
    return Cochain1(lambda lam: _convolve(a, b, {lam: 1}, {(): 1}).terms, f"({f.name})*({g.name})")


def _convolve(a: Pairing, b: Pairing, f: dict, g: dict) -> SymFunc:
    """(a * b)(f, g) = sum_{x2,y2} [sum_{x1,y1} f_{x1 x2} g_{y1 y2} a(x1, y1)] b(x2, y2) on
    term dicts, f_{x1 x2} the coefficient of s_x1 (x) s_x2 in Delta f: legs merged over the
    terms, one a per leg-matched (x1, y1) whose tails do not all cancel, only |x1| = |y1|
    when a declares its grading; one b per (x2, y2) whose summed head is nonzero; head term
    p times tail term q into row p, then one LR product per nonzero entry (row () is s_q)."""
    leg = weight if a.grade_preserving else lambda x1: None  # which y1 meet x1
    xs, ys = {}, {}  # {leg(x1): {x1: {x2: coefficient}}}
    for legs, terms in ((xs, f), (ys, g)):
        for lam, cf in terms.items():
            for (x1, x2), c in coproduct_basis(lam).items():
                tails = legs.setdefault(leg(x1), {}).setdefault(x1, {})
                tails[x2] = tails.get(x2, 0) + cf * c
    heads: dict[tuple[Partition, Partition], dict[Partition, int]] = {}
    for key, x_legs in xs.items():
        y_legs = [(y1, tails) for y1, tails in ys.get(key, {}).items() if any(tails.values())]
        for x1, x_tails in x_legs.items():
            for y1, y_tails in y_legs if any(x_tails.values()) else ():
                head = a.on_basis(x1, y1)
                for x2, cx in x_tails.items() if head else ():
                    for y2, cy in y_tails.items():
                        h, c = heads.setdefault((x2, y2), {}), cx * cy
                        for p, cp in head.items():
                            h[p] = h.get(p, 0) + c * cp
    out: dict[Partition, int] = {}
    rows = {(): out}  # rows[p][q]: coefficient of s_p s_q; s_() s_q = s_q
    for (x2, y2), h in heads.items():
        tail = b.on_basis(x2, y2) if any(h.values()) else {}
        for p, hp in h.items():
            row = rows.setdefault(p, {})
            for q, cq in tail.items():
                row[q] = row.get(q, 0) + hp * cq
    for p, row in rows.items():
        for q, c in row.items() if p else ():
            for lam, cl in (product_basis(p, q) if c else {}).items():
                out[lam] = out.get(lam, 0) + c * cl
    return SymFunc(out)


def convolve2(a: Pairing, b: Pairing) -> Pairing:
    """(a * b)(mu, nu) = `_convolve(a, b, {mu: 1}, {nu: 1})`, memoized.  a * b
    declares its grading when a and b do (then |x2| = |y2| too)."""
    name, graded = f"({a.name})*({b.name})", a.grade_preserving and b.grade_preserving
    return Pairing(lambda mu, nu: _convolve(a, b, {mu: 1}, {nu: 1}).terms, name, graded)


def milnor_moore_inverse1(f: Cochain1) -> Cochain1:
    """Convolutive inverse of a normalized 1-cochain: `milnor_moore_inverse2(f (x) eps)`
    read at (lam, ())."""
    if f.on_basis(()) != {(): 1}:
        raise ValueError(f"cochain {f.name!r} violates the normalized flag (f(1) != 1)")
    inv = milnor_moore_inverse2(_first_leg(f))
    return Cochain1(lambda lam: inv.on_basis(lam, ()), f"inv({f.name})")


def milnor_moore_inverse2(a: Pairing) -> Pairing:
    """Convolutive inverse of a unital pairing (a(1,1) = 1 suffices: Sym (x) Sym is
    connected, so invertibility only constrains degree 0), by the recursion
    abar = e2 - (a - e2) * abar, one `_convolve` per basis pair.  Every head of a - e2
    has positive total degree, and `_convolve` reads a tail only under a nonzero head,
    so abar is read on pairs of smaller total degree.  abar declares a's grading, as
    every (a - e2)(x1, y1) abar(x2, y2) does.  Convolution from the cocommutative
    Sym (x) Sym into the commutative Sym is commutative, so this right inverse is the left one."""
    if a.on_basis((), ()) != {(): 1}:
        raise ValueError(f"pairing {a.name!r} violates the unital flag (a(1,1) != 1)")
    rest = Pairing(
        lambda mu, nu: a.on_basis(mu, nu) if mu or nu else {}, f"{a.name}-e2", a.grade_preserving, lookup=True
    )
    inv = Pairing(
        lambda mu, nu: (-_convolve(rest, inv, {mu: 1}, {nu: 1})).terms, f"inv({a.name})", a.grade_preserving
    )
    inv._memo[(), ()] = {(): 1}
    return inv


def coboundary1(f: Cochain1) -> Pairing:
    """Sweedler coboundary of an invertible 1-cochain, the convolve2 fold
    (eps (x) f) * (fbar o m) * (f (x) eps), where eps (x) f = (f (x) eps)^T."""
    fbar, right = milnor_moore_inverse1(f), _first_leg(f)
    d = convolve2(_transposed(right), convolve2(_composed(fbar, outer_pairing()), right))
    d.name = f"d({f.name})"
    return d


# -- property checkers -------------------------------------------------------

CHECK_DEGREE = 4  # derived_pairing, frobenius_inverse and validate_spec check their arguments to it


def _law(counterexamples):
    """is_<law>(obj, max_degree, witness=None) from a generator of the law's
    counterexamples up to max_degree: True when it yields none, else False with
    the first one appended to witness."""

    def check(obj, max_degree: int, witness: list | None = None) -> bool:
        found = next(counterexamples(obj, max_degree), None)
        if found is not None and witness is not None:
            witness.append(found)
        return found is None

    check.__name__ = check.__qualname__ = counterexamples.__name__
    check.__doc__ = counterexamples.__doc__
    return check


def _basis_pairs(max_degree: int):
    """Basis pairs (x, y) with |x| + |y| <= max_degree."""
    for x in partitions_up_to(max_degree):
        for y in partitions_up_to(max_degree - weight(x)):
            yield x, y


def _basis_triples(max_degree: int):
    for x, y in _basis_pairs(max_degree):
        for z in partitions_up_to(max_degree - weight(x) - weight(y)):
            yield x, y, z


@_law
def is_cocycle2(c: Pairing, max_degree: int):
    """Inverse-free 2-cocycle identity (c o m1) * (c (x) eps) = (eps (x) c) * (c o m2)
    on basis triples of total weight <= max_degree, each side one `_convolve` pass (which
    trusts c's declared grading); counterexamples (x, y, z, lhs, rhs)."""
    for x, y, z in _basis_triples(max_degree):
        head = Pairing(lambda p, q: c(product_basis(p, q), {z: 1}).terms)  # c(x1 y1, z)
        tail = Pairing(lambda p, q: c({x: 1}, product_basis(p, q)).terms)  # c(x, y2 z2)
        lhs, rhs = _convolve(head, c, {x: 1}, {y: 1}), _convolve(c, tail, {y: 1}, {z: 1})
        if lhs != rhs:
            yield x, y, z, lhs, rhs


@_law
def is_algebra_hom(f: Cochain1, max_degree: int):
    """1-cocycle test: f(x y) = f(x) f(y) on basis pairs up to the bound;
    counterexamples (x, y, lhs, rhs)."""
    for x, y in _basis_pairs(max_degree):
        lhs = f(product_basis(x, y))
        rhs = _bilinear(f.on_basis(x), f.on_basis(y), product_basis)
        if lhs != rhs:
            yield x, y, lhs, rhs


@_law
def is_laplace(a: Pairing, max_degree: int):
    """Right straightening a(x, yz) = a(x1,y) a(x2,z), and left a(xy, z) = a(x,z1) a(y,z2), the
    right law of a^T at (z, x, y); counterexamples ("right" or "left", x, y, z, lhs, rhs)."""
    at = _transposed(a)
    for x, y, z in _basis_triples(max_degree):
        for side, b, (u, v, w) in (("right", a, (x, y, z)), ("left", at, (z, x, y))):
            term = lambda us: _bilinear(b.on_basis(us[0], v), b.on_basis(us[1], w), product_basis)
            lhs, rhs = b({u: 1}, product_basis(v, w)), linear(coproduct_basis(u), term, SymFunc)
            if lhs != rhs:
                yield side, x, y, z, lhs, rhs


@_law
def is_frobenius(a: Pairing, max_degree: int):
    """Frobenius Laplace test, counterexamples in this order: ("not grade-preserving",) unless
    each a(x, y) lies in degree |x| = |y| (schur-hall is declared graded, yet valued in degree 0);
    ("unit", n, x, a(s_(n), s_x)) per grade where a is not identically zero (a zero grade
    has no algebra to test, so e2 is Frobenius); on basis pairs, the Frobenius law
    x1 (x) a(x2, y) = delta_a(a(x,y)) = a(x, y1) (x) y2, delta_a the dual comultiplication
    <delta_a(x)|mu (x) nu> = <x|a(mu, nu)>, built once as a's transpose on each grade
    ("frobenius-law", x, y, lhs, middle, rhs), and the mixed bialgebra law delta_a o m =
    (m (x) m) o (1 (x) sw (x) 1) o (delta_a (x) delta_a) ("mixed-bialgebra", x, y, lhs, rhs).
    The unit law on a whole grade n makes eps1 the counit there, so that law is not
    checked: s_(n) (x) s_nu has the coefficient of s_x in a(s_(n), s_nu) = s_nu in
    delta_a(s_x), so the restored sum_nu <x|a(s_(n), s_nu)> s_nu is s_x."""
    for x, y in _basis_pairs(max_degree):
        if not all(weight(lam) == weight(x) == weight(y) for lam in a.on_basis(x, y)):
            yield ("not grade-preserving",)
    delta_a = {lam: TensorSymFunc() for lam in partitions_up_to(max_degree)}  # a's transpose
    for n in range(max_degree + 1):
        grade = partitions_of(n)
        for mu in grade:
            for nu in grade:
                for lam, c in a.on_basis(mu, nu).items():
                    if weight(lam) == n:  # 2n may pass max_degree: (mu, nu) was not sampled
                        delta_a[lam].terms[mu, nu] = c
        if n and any(a.on_basis(u, v) for u in grade for v in grade):
            for x in grade:
                if a.on_basis((n,), x) != {x: 1}:
                    yield "unit", n, x, SymFunc(a.on_basis((n,), x))
    for x, y in _basis_pairs(max_degree):
        if weight(x) == weight(y):  # the Frobenius law; a vanishes off equal degrees
            middle = linear(a.on_basis(x, y), delta_a.__getitem__, TensorSymFunc)
            lhs = linear(delta_a[y], lambda ys: tensor(a.on_basis(x, ys[0]), {ys[1]: 1}), TensorSymFunc)
            rhs = linear(delta_a[x], lambda xs: tensor({xs[0]: 1}, a.on_basis(xs[1], y)), TensorSymFunc)
            if not (lhs == middle == rhs):
                yield "frobenius-law", x, y, lhs, middle, rhs
        lhs = linear(product_basis(x, y), delta_a.__getitem__, TensorSymFunc)
        rhs = delta_a[x] * delta_a[y]
        if lhs != rhs:
            yield "mixed-bialgebra", x, y, lhs, rhs


def derived_pairing(a: Pairing, phi: Cochain1) -> Pairing:
    """a_phi = phi o a; phi must be an algebra homomorphism (1-cocycle) to CHECK_DEGREE."""
    if not is_algebra_hom(phi, CHECK_DEGREE):
        raise ValueError(f"cochain {phi.name!r} is not an algebra homomorphism")
    return _composed(phi, a)


def _composed(phi: Cochain1, a: Pairing) -> Pairing:
    """phi o a, unchecked (a itself if phi is id); `derived_pairing` checks phi."""
    if phi.identity:
        return a
    name = f"{phi.name}.{a.name}"
    return Pairing(lambda mu, nu: phi(a.on_basis(mu, nu)).terms, name, a.grade_preserving)


def frobenius_inverse(a: Pairing) -> Pairing:
    """abar = S o a for a pairing Frobenius to CHECK_DEGREE, declared grade preserving when a is."""
    if not is_frobenius(a, CHECK_DEGREE):
        raise ValueError(f"pairing {a.name!r} is not Frobenius up to degree {CHECK_DEGREE}")
    return _composed(antipode_cochain(), a)
