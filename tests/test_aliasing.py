"""In-place accumulation never writes into a cached value: after the library
paths that accumulate with `add` have run, every cache they read still holds
what a fresh recomputation gives."""

from oracles import INVERSE_PAIR, check_inverse_pair
from symchar.characters import BRANCH_SERIES, branch
from symchar.convolution import (
    Pairing,
    antipode_cochain,
    coboundary1,
    convolve1,
    convolve2,
    identity_cochain,
    inner_pairing,
    milnor_moore_inverse1,
    milnor_moore_inverse2,
    outer_pairing,
    schur_hall_pairing,
)
from symchar.hash_products import build_hash, named_spec
from symchar.kronecker import inner_mul, kronecker_basis
from symchar.partitions import partitions_up_to, weight
from symchar.schur import SymFunc, coproduct_basis, loop, outer_mul, product_basis, s, skew_basis
from symchar.series import SERIES_TAGS, mul_by_series, series_degree_term
from symchar.vertex import bernstein

CAP = 4
BASIS = partitions_up_to(CAP)
PAIRS = [(x, y) for x in BASIS for y in BASIS if weight(x) + weight(y) <= CAP]


def assert_memo_fresh(owner, fresh) -> None:
    """Every memo entry of a Cochain1 or Pairing equals the same entry of an
    equivalent object built from scratch.  An owner declared `lookup` (the
    identity cochain, `outer`) holds no memo, so its values on the
    basis are checked instead."""
    if owner.lookup:
        assert not owner._memo
        for args in PAIRS if isinstance(owner, Pairing) else zip(BASIS):
            assert owner.on_basis(*args) == fresh.on_basis(*args), (owner, args)
        return
    assert owner._memo
    for key, value in owner._memo.items():
        args = key if isinstance(owner, Pairing) else (key,)
        assert value == fresh.on_basis(*args), (owner, key)


def test_accumulators_leave_caches_intact():
    f = s(2, 1) + s(3).scale(-2) + s(1)
    for rule in BRANCH_SERIES:
        branch(f, rule)
    for tag in SERIES_TAGS:
        mul_by_series(f, tag, CAP + 1)
        mul_by_series(SymFunc.one(), tag, CAP)
    for tag_a, tag_b in INVERSE_PAIR.items():
        assert check_inverse_pair(tag_a, tag_b, CAP)
    for m in range(3):
        bernstein(m, f)
    loop(3, f)

    ident, anti = identity_cochain(), antipode_cochain()
    inner, outer = inner_pairing(), outer_pairing()
    conv1, inv1 = convolve1(ident, anti), milnor_moore_inverse1(anti)
    conv2, inv2 = convolve2(inner, outer), milnor_moore_inverse2(outer)
    cobound = coboundary1(antipode_cochain())
    for lam in BASIS:
        conv1(SymFunc.basis(lam))
        inv1(SymFunc.basis(lam))
    for mu, nu in PAIRS:
        conv2(SymFunc.basis(mu), SymFunc.basis(nu))
        inv2(SymFunc.basis(mu), SymFunc.basis(nu))
        cobound(SymFunc.basis(mu), SymFunc.basis(nu))
    # The psi = id tail hands out product_basis's cached dicts themselves, and the
    # inner stage the named specs share hands out its memo's.
    for name in ("newell-littlewood", "thibon", "murnaghan-littlewood"):
        product = build_hash(named_spec(name))
        product(f, s(2) + s(1, 1))
        product(s(2, 2), s(3, 1) - s(2, 1, 1))
    spec = named_spec("murnaghan-littlewood")

    for tag in SERIES_TAGS:
        for d in range(CAP + 2):
            assert series_degree_term(tag, d) == series_degree_term.__wrapped__(tag, d)
    fresh_stages = [(schur_hall_pairing(), identity_cochain()), (inner_pairing(), identity_cochain())]
    for owner, fresh in [
        (ident, identity_cochain()),
        (anti, antipode_cochain()),
        (conv1, convolve1(identity_cochain(), antipode_cochain())),
        (inv1, milnor_moore_inverse1(antipode_cochain())),
        (inner, inner_pairing()),
        (outer, outer_pairing()),
        (conv2, convolve2(inner_pairing(), outer_pairing())),
        (inv2, milnor_moore_inverse2(outer_pairing())),
        (cobound, coboundary1(antipode_cochain())),
        *zip(sum(spec.stages, ()), sum(fresh_stages, ())),
    ]:
        assert_memo_fresh(owner, fresh)
    for mu in partitions_up_to(2 * CAP):
        assert coproduct_basis(mu) == coproduct_basis.__wrapped__(mu)
        for nu in BASIS:
            assert product_basis(mu, nu) == product_basis.__wrapped__(mu, nu)
            assert skew_basis(mu, nu) == skew_basis.__wrapped__(mu, nu)
    shared_inner = spec.stages[1][0]
    for mu in BASIS:
        for nu in BASIS:
            assert shared_inner.on_basis(mu, nu) == kronecker_basis(mu, nu)


def test_single_pair_products_are_fresh():
    """A product of two basis elements is a copy of the cached expansion: adding
    into it, over its own terms and new ones, leaves the LR kernel's cache and
    the inner stage's memo as a fresh recomputation gives them."""
    outer = outer_mul(s(3, 1), s(2))
    outer.add(s(5, 1) + s(4, 2).scale(3) + s(6), -1)
    stage = inner_pairing()
    for inner in (inner_mul(s(3, 1), s(2, 2)), stage(s(3, 1), s(2, 2))):
        inner.add(s(3, 1) + s(2, 1, 1).scale(2) + s(4), -1)
        assert (3, 1) not in inner.terms
    assert (5, 1) not in outer.terms
    assert product_basis((2,), (3, 1)) == product_basis.__wrapped__((2,), (3, 1))
    assert product_basis((3, 1), (2,)) == product_basis.__wrapped__((2,), (3, 1))
    assert stage.on_basis((3, 1), (2, 2)) == kronecker_basis((3, 1), (2, 2))
    assert outer_mul(s(3, 1), s(2)) == SymFunc(product_basis.__wrapped__((2,), (3, 1)))
    assert inner_mul(s(3, 1), s(2, 2)) == SymFunc(kronecker_basis((3, 1), (2, 2)))
