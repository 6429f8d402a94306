"""Deformed (hash) products on symmetric functions.

A hash spec lists stages (pairing a_j, algebra-hom cochain phi_j), j < k,
and a final cochain psi on the ambient multiplication m.  The hash product is
the convolution (phi_1 o a_1) * ... * (phi_k o a_k) * (psi o m): `build_hash`
folds `convolution.convolve2` from the right, so each stage H_j(mu, nu) =
sum phi_j(a_j(mu1, nu1)) H_{j+1}(mu2, nu2) is a `Pairing` with its own memo,
and s_mu # s_nu = H_0(mu, nu).  `composite_pairing` is the same fold onto the
unit e2.  Each entry point (`build_hash`, `composite_pairing`, `hash_is_hopf`)
validates the spec once, and the fold does not check its cochains again.
`named_product` builds (and validates) each named spec once per process.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .convolution import (
    Cochain1,
    Pairing,
    _basis_pairs,
    _bialgebra_sides,
    _composed,
    convolve2,
    eps1_cochain,
    identity_cochain,
    inner_pairing,
    is_algebra_hom,
    is_frobenius,
    is_laplace,
    unit_pairing,
)
from .partitions import Partition, weight
from .schur import (
    SymFunc,
    TensorSymFunc,
    _bilinear,
    coproduct_basis,
    iterated_coproduct_basis,
    product_basis,
    scalar,
)
from .series import INVERSE_PAIR, check_inverse_pair, series_degree_term, skew_by_series

CHECK_DEGREE = 4  # working bound for validating spec components


class HashSpec(namedtuple("HashSpec", "stages final_cocycle name")):
    """Stages ((pairing, cochain), ...), a final cochain (a new identity if omitted), a name.

    With final id (the paper's case) x # y is associative with unit s_(), and
    commutative for symmetric stage pairings.  A final psi != id is this library's
    extension, promised none of these laws: psi = S gives x # s_() = S(x)."""

    __slots__ = ()

    def __new__(cls, stages, final_cocycle: Cochain1 | None = None, name: str = "hash"):
        return super().__new__(cls, stages, final_cocycle or identity_cochain(), name)


NAMED_STAGES = {  # (pairing, cochain) constructors per stage; the final cochain is id
    "trivial": (),
    "thibon": ((inner_pairing, identity_cochain),),
    "newell-littlewood": ((inner_pairing, eps1_cochain),),
    "murnaghan-littlewood": ((inner_pairing, eps1_cochain), (inner_pairing, identity_cochain)),
}


def named_spec(name: str) -> HashSpec:
    if name not in NAMED_STAGES:
        raise ValueError(f"unknown hash spec {name!r}")
    return HashSpec(tuple((a(), phi()) for a, phi in NAMED_STAGES[name]), identity_cochain(), name)


def validate_spec(spec: HashSpec, max_degree: int = CHECK_DEGREE) -> None:
    for i, (pairing, cocycle) in enumerate(spec.stages):
        if not is_laplace(pairing, max_degree):
            raise ValueError(
                f"stage {i} pairing {pairing.name!r} fails the Laplace check"
            )
        if not is_algebra_hom(cocycle, max_degree):
            raise ValueError(
                f"stage {i} cochain {cocycle.name!r} is not an algebra homomorphism"
            )
    if not is_algebra_hom(spec.final_cocycle, max_degree):
        raise ValueError(
            f"final cochain {spec.final_cocycle.name!r} is not an algebra homomorphism"
        )


def build_hash(spec: HashSpec):
    """Validate the spec and return x # y on SymFunc, the bilinear extension of
    the unmemoized top stage H_0; see HashSpec for the laws it keeps."""
    validate_spec(spec)
    return _product(spec)


def _product(spec: HashSpec):
    """x # y for a validated spec.  The final psi o m stage answers (mu, nu) with
    mu > nu from its (nu, mu) entry, since s_mu s_nu = s_nu s_mu."""
    final = spec.final_cocycle

    def last_fn(mu: Partition, nu: Partition) -> SymFunc:
        if mu > nu:
            return last.on_basis(nu, mu)
        return final(SymFunc(product_basis(mu, nu)))

    last = Pairing(last_fn, f"{final.name}.m")
    top = _fold(spec, last)

    def product(f: SymFunc, g: SymFunc) -> SymFunc:
        return _bilinear(f, g, top._fn)

    return product


def _fold(spec: HashSpec, tail: Pairing) -> Pairing:
    """phi_1 o a_1 * ... * phi_k o a_k * tail, folded from the right, for a
    validated spec (validate_spec has checked every phi_j)."""
    for pairing, cocycle in reversed(spec.stages):
        tail = convolve2(_composed(cocycle, pairing), tail)
    return tail


@cache
def named_product(name: str):
    """The hash product of a named spec, built and validated once per process."""
    return build_hash(named_spec(name))


def composite_pairing(spec: HashSpec) -> Pairing:
    """The convolution product of the spec's derived pairings (e2 when empty)."""
    validate_spec(spec)
    return _fold(spec, unit_pairing())


def hash_is_hopf(spec: HashSpec, max_degree: int = CHECK_DEGREE) -> bool:
    """True iff the composite derived pairing is Frobenius; cross-validated
    against the bialgebra law Delta(x # y) = Delta(x) #(x)# Delta(y)."""
    validate_spec(spec)
    frob = is_frobenius(_fold(spec, unit_pairing()), max_degree)
    bialg = _bialgebra_law_holds(_product(spec), max_degree)
    if frob != bialg:
        raise AssertionError(
            f"hash spec {spec.name!r}: Frobenius check ({frob}) disagrees with "
            f"bialgebra-law check ({bialg})"
        )
    return frob


def _bialgebra_law_holds(product, max_degree: int) -> bool:
    for x, y in _basis_pairs(max_degree):
        lhs, rhs = _bialgebra_sides(x, y, product, lambda lam: TensorSymFunc(coproduct_basis(lam)))
        if lhs != rhs:
            return False
    return True


# -- series-deformed coproduct and basis change ------------------------------

def _validated_pair(pair: tuple[str, str], cap: int) -> tuple[str, str]:
    m_tag, l_tag = pair
    if INVERSE_PAIR.get(m_tag) != l_tag or not check_inverse_pair(m_tag, l_tag, cap):
        raise ValueError(f"series pair {pair!r} is not mutually inverse up to degree {cap}")
    return m_tag, l_tag


def deformed_coproduct(f: SymFunc, pair: tuple[str, str]) -> TensorSymFunc:
    """Delta_pi(x) = x1 (x) x2 <M_pi(1)|x3>, the series-twisted coproduct."""
    cap = f.max_degree()
    m_tag, _ = _validated_pair(pair, cap)
    out = TensorSymFunc()
    for lam, c in f.terms.items():
        for (x1, x2, x3), cc in iterated_coproduct_basis(lam, 3).items():
            w = scalar(series_degree_term(m_tag, weight(x3)), SymFunc.basis(x3))
            if w:
                out.add(TensorSymFunc.basis(x1, x2), c * cc * w)
    return out


def basis_change(f: SymFunc, direction: str, pair: tuple[str, str]) -> SymFunc:
    """to_subgroup: f / M_pi; to_group: f / L_pi (mutually inverse skews)."""
    m_tag, l_tag = _validated_pair(pair, f.max_degree())
    if direction == "to_subgroup":
        return skew_by_series(f, m_tag)
    if direction == "to_group":
        return skew_by_series(f, l_tag)
    raise ValueError(f"unknown direction {direction!r}")
