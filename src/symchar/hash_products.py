"""Deformed (hash) products on symmetric functions.

A hash spec lists stages (pairing a_j, algebra-hom cochain phi_j), j < k,
and a final cochain psi on the ambient multiplication m.  `composite_pairing`
folds `convolution.convolve2` from the left into the composite derived pairing
A = (phi_1 o a_1) * ... * (phi_k o a_k), whose memo computes each A(x1, y1) once
for all (mu, nu), and x # y = (A * psi o m)(x, y) is one `convolution._convolve`
pass over the terms of x and y.
Each entry point (`build_hash`, `composite_pairing`, `is_bialgebra`) validates
the spec once, and the fold does not check its cochains again.
`named_product` builds (and validates) each named spec once per process.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, reduce

from .convolution import (
    CHECK_DEGREE,
    Cochain1,
    Pairing,
    _basis_pairs,
    _composed,
    _convolve,
    _law,
    convolve2,
    identity_cochain,
    inner_pairing,
    is_algebra_hom,
    is_frobenius,
    is_laplace,
    outer_pairing,
    schur_hall_pairing,
    unit_pairing,
)
from .schur import SymFunc, TensorSymFunc, coproduct_basis, linear, tensor


class HashSpec(namedtuple("HashSpec", "stages final_cocycle name")):
    """Stages ((pairing, cochain), ...), a final cochain (a new identity if omitted), a name.

    With final id (the paper's case) x # y is associative with unit s_(), and
    commutative for symmetric stage pairings.  A final psi != id is this library's
    extension, promised none of these laws: psi = S gives x # s_() = S(x)."""

    __slots__ = ()

    def __new__(cls, stages, final_cocycle: Cochain1 | None = None, name: str = "hash"):
        return super().__new__(cls, stages, final_cocycle or identity_cochain(), name)


_inner, _schur_hall, _id = map(cache, (inner_pairing, schur_hall_pairing, identity_cochain))  # one each
NAMED_STAGES = {  # (pairing, cochain) constructors per stage; the final cochain is id
    "trivial": (),
    "thibon": ((_inner, _id),),
    "newell-littlewood": ((_schur_hall, _id),),  # (eta o eps^1) o inner = <x|y> s_()
    "murnaghan-littlewood": ((_schur_hall, _id), (_inner, _id)),
}


def named_spec(name: str) -> HashSpec:
    if name not in NAMED_STAGES:
        raise ValueError(f"unknown hash spec {name!r}")
    return HashSpec(tuple((a(), phi()) for a, phi in NAMED_STAGES[name]), _id(), name)


def validate_spec(spec: HashSpec) -> None:
    for i, (pairing, cocycle) in enumerate(spec.stages):
        if not is_laplace(pairing, CHECK_DEGREE):
            raise ValueError(
                f"stage {i} pairing {pairing.name!r} fails the Laplace check"
            )
        if not is_algebra_hom(cocycle, CHECK_DEGREE):
            raise ValueError(
                f"stage {i} cochain {cocycle.name!r} is not an algebra homomorphism"
            )
    if not is_algebra_hom(spec.final_cocycle, CHECK_DEGREE):
        raise ValueError(
            f"final cochain {spec.final_cocycle.name!r} is not an algebra homomorphism"
        )


def build_hash(spec: HashSpec):
    """Validate the spec and return x # y = (A * psi o m)(x, y) on SymFunc,
    A = composite_pairing(spec); see HashSpec for the laws it keeps."""
    return _product(spec, composite_pairing(spec))


def _product(spec: HashSpec, composite: Pairing):
    """x # y = `_convolve(composite, psi o m, x, y)`, one pass over both factors'
    terms; psi o m is `outer` itself when psi declares `identity`.  Every LR product
    of the pass is read from `product_basis`, which stores it for the next query."""
    tail = _composed(spec.final_cocycle, outer_pairing())
    return lambda f, g: _convolve(composite, tail, f.terms, g.terms)


@cache
def named_product(name: str):
    """The hash product of a named spec, built and validated once per process."""
    return build_hash(named_spec(name))


def composite_pairing(spec: HashSpec) -> Pairing:
    """Validate the spec and fold its derived pairings from the left into
    A = phi_1 o a_1 * ... * phi_k o a_k (e2 when k = 0), declared grade
    preserving when every a_j is."""
    validate_spec(spec)
    derived = [_composed(cocycle, pairing) for pairing, cocycle in spec.stages]
    return reduce(convolve2, derived) if derived else unit_pairing()


@_law
def is_bialgebra(spec: HashSpec, max_degree: int):
    """Counterexamples (x, y, lhs, rhs) to Delta(x # y) = Delta(x) #(x)# Delta(y) on basis
    pairs, each x1 # y1 computed once per check.  The law, not Hopf: with psi = id, # has unit
    s_() on Sym's graded connected coalgebra, so the law makes it Hopf, but psi = S can keep
    the law with no unit (x # s_() = S(x)).  A Frobenius composite A gives the law, so a
    Frobenius A whose law fails raises AssertionError; a law-keeping A need not be Frobenius
    (A = inner * inner has A(s_1, s_1) = 2 s_1, so s_(1) is no unit)."""
    composite = composite_pairing(spec)
    product = _product(spec, composite)
    hashed = cache(lambda p, q: product(SymFunc.basis(p), SymFunc.basis(q)))
    for x, y in _basis_pairs(max_degree):
        lhs = linear(hashed(x, y), coproduct_basis, TensorSymFunc)
        rhs = TensorSymFunc()
        for (x1, x2), cx in coproduct_basis(x).items():
            for (y1, y2), cy in coproduct_basis(y).items():
                rhs.add(tensor(hashed(x1, y1), hashed(x2, y2)), cx * cy)
        if lhs != rhs:
            if is_frobenius(composite, max_degree):
                raise AssertionError(f"hash spec {spec.name!r}: the composite pairing is "
                                     "Frobenius but the bialgebra law fails")
            yield x, y, lhs, rhs
