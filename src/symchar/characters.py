"""Character decompositions: branchings, Newell-Littlewood, rational GL
characters, Thibon characters, and reduced symmetric-group characters."""

from __future__ import annotations

from .convolution import Pairing, convolve2, milnor_moore_inverse2, schur_hall_pairing
from .schur import SymFunc, TensorSymFunc, linear
from .series import skew_by_series
from .hash_products import named_product

# Branch rule -> series to skew by.
BRANCH_SERIES = {
    "gl_to_o": "D",
    "o_to_gl": "C",
    "gl_to_sp": "B",
    "sp_to_gl": "A",
    "gl_to_glm1": "M",
    "glm1_to_gl": "L",
}


def branch(f: SymFunc, rule: str) -> SymFunc:
    try:
        tag = BRANCH_SERIES[rule]
    except KeyError:
        raise ValueError(f"unknown branching rule {rule!r}") from None
    return skew_by_series(f, tag)


# -- Newell-Littlewood -------------------------------------------------------

def newell_littlewood(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product of orthogonal (or symplectic) characters on their labels:
    [mu][nu] = sum_zeta [(mu/zeta)(nu/zeta)], realized as a derived hash."""
    return named_product("newell-littlewood")(f, g)


# -- rational GL characters --------------------------------------------------

class RationalChar:
    """Element of Sym (x) Sym carrying mixed-tensor GL characters.

    The second (contravariant) leg is stored unbarred; `irreducible` marks
    the {lam;mu-bar} interpretation, otherwise {lam} (x) {mu-bar}.
    """

    __slots__ = ("element", "irreducible")

    def __init__(self, element: TensorSymFunc, irreducible: bool = True):
        self.element = element
        self.irreducible = irreducible

    @staticmethod
    def basis(lam, mu, irreducible: bool = True) -> "RationalChar":
        return RationalChar(TensorSymFunc.basis(lam, mu), irreducible)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalChar)
            and self.irreducible == other.irreducible
            and self.element == other.element
        )

    def __repr__(self) -> str:
        kind = "irr" if self.irreducible else "red"
        return f"RationalChar[{kind}]({self.element!r})"


def rational_mul(x: RationalChar, y: RationalChar) -> RationalChar:
    """{kappa;lam-bar} {mu;nu-bar} = T(kappa, nu) T(mu, lam) in Sym (x) Sym = sum_{sigma,tau}
    {(kappa/sigma)(mu/tau); ((lam/tau)(nu/sigma))-bar}; the first product accumulates."""
    if not (x.irreducible and y.irreducible):
        raise ValueError("rational_mul expects irreducible-interpretation characters")

    def cross(a, b) -> TensorSymFunc:
        return rational_convert(RationalChar.basis(a, b, False)).element

    out = None
    for (kappa, lam), cx in x.element.terms.items():
        for (mu, nu), cy in y.element.terms.items():
            term = cross(kappa, nu).scale(cx * cy) * cross(mu, lam)
            out = term if out is None else out.add(term)
    return RationalChar(out or TensorSymFunc(), irreducible=True)


_TENSOR = Pairing(lambda x2, y2: {(x2, y2): 1}, "(x)", lookup=True)
_CROSS = {False: convolve2(schur_hall_pairing(), _TENSOR),  # by x.irreducible
          True: convolve2(milnor_moore_inverse2(schur_hall_pairing()), _TENSOR)}


def rational_convert(x: RationalChar) -> RationalChar:
    """x in the other interpretation, each term read from a memoized stage a * (x), (x)(x2, y2) =
    s_x2 (x) s_y2: reducible -> irreducible is the cross pairing T, a = schur-hall:
    {lam}(x){mu-bar} = sum_zeta {lam/zeta;(mu/zeta)-bar}.  For scalar heads T_a o T_b = T_{a*b},
    so irreducible -> reducible is T-bar = T^-1, a the Milnor-Moore inverse of schur-hall.  A
    scalar head's terms are all p = (), so `_convolve` multiplies nothing and keeps the pair keys."""
    cross = _CROSS[x.irreducible].on_basis
    return RationalChar(linear(x.element, lambda pair: cross(*pair), TensorSymFunc), not x.irreducible)


# -- Thibon characters -------------------------------------------------------

def thibon_inner(x: SymFunc, y: SymFunc) -> SymFunc:
    """Inner product of Thibon characters on labels: <<mu>>*<<nu>> = <<mu #_{1,1} nu>>."""
    return named_product("thibon")(x, y)


# -- reduced symmetric-group characters --------------------------------------

def murnaghan_littlewood(x: SymFunc, y: SymFunc) -> SymFunc:
    """Inner product of reduced characters on labels:
    <mu>*<nu> = <mu #_{m,1,1} nu>."""
    return named_product("murnaghan-littlewood")(x, y)
