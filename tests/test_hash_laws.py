"""Structural laws of hash products, checked without an oracle: a Laplace
deformation of the outer product is associative, commutative when its stage
pairings are symmetric, and keeps s_() as its unit."""

import pytest
from hypothesis import given, settings, strategies as st

from symchar.convolution import identity_cochain, inner_pairing
from symchar.hash_products import HashSpec, build_hash, named_product
from symchar.partitions import partitions_up_to
from symchar.schur import SymFunc, unit

MAX_WEIGHT = 6  # total over the factors of each law


def combinations(max_weight: int):
    """Sparse integer combinations of 1-3 Schur functions of weight <= max_weight."""
    return st.dictionaries(
        st.sampled_from(partitions_up_to(max_weight)),
        st.integers(-3, 3).filter(bool),
        min_size=1,
        max_size=3,
    ).map(SymFunc)


@st.composite
def triples(draw):
    weights = draw(
        st.tuples(*[st.integers(0, MAX_WEIGHT)] * 3).filter(lambda w: sum(w) <= MAX_WEIGHT)
    )
    return tuple(draw(combinations(w)) for w in weights)


def products():
    """The named deformed products and a custom two-stage spec with final id."""
    custom = HashSpec(
        ((inner_pairing(), identity_cochain()), (inner_pairing(), identity_cochain())),
        identity_cochain(),
        "inner-inner",
    )
    named = ("thibon", "newell-littlewood", "murnaghan-littlewood")
    return [pytest.param(named_product(n), id=n) for n in named] + [
        pytest.param(build_hash(custom), id=custom.name)
    ]


PRODUCTS = products()


@pytest.mark.parametrize("product", PRODUCTS)
class TestHashLaws:
    @given(triples())
    @settings(max_examples=10, deadline=None)
    def test_associative(self, product, xyz):
        x, y, z = xyz
        assert product(product(x, y), z) == product(x, product(y, z))

    @given(triples())
    @settings(max_examples=10, deadline=None)
    def test_commutative(self, product, xyz):
        x, y, _ = xyz
        assert product(x, y) == product(y, x)

    @given(combinations(MAX_WEIGHT))
    @settings(max_examples=10, deadline=None)
    def test_unit(self, product, x):
        assert product(unit(), x) == x == product(x, unit())
