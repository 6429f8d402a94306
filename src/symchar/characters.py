"""Character decompositions: branchings, Newell-Littlewood, rational GL
characters, Thibon characters, and reduced symmetric-group characters."""

from __future__ import annotations

from .kronecker import inner_mul, kronecker_basis
from .partitions import Partition, partitions_of, partitions_up_to, standardize, weight
from .schur import (
    SymFunc,
    TensorSymFunc,
    coproduct_basis,
    outer_mul,
    skew,
    skew_basis,
    tensor,
)
from .series import mul_by_series, skew_by_series
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


def newell_littlewood_formula(f: SymFunc, g: SymFunc) -> SymFunc:
    """The direct sum-over-common-skews form, as an independent path."""
    out = SymFunc.zero()
    cap = min(f.max_degree(), g.max_degree())
    for zeta in partitions_up_to(cap):
        out = out + outer_mul(skew(f, SymFunc.basis(zeta)), skew(g, SymFunc.basis(zeta)))
    return out


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
    """{kappa;lam-bar} {mu;nu-bar} = sum_{sigma,tau}
    {(kappa/sigma)(mu/tau); ((lam/tau)(nu/sigma))-bar}."""
    if not (x.irreducible and y.irreducible):
        raise ValueError("rational_mul expects irreducible-interpretation characters")
    out = TensorSymFunc()
    for (kappa, lam), cx in x.element.terms.items():
        for (mu, nu), cy in y.element.terms.items():
            for sigma in partitions_up_to(min(weight(kappa), weight(nu))):
                ks = skew_basis(kappa, sigma)
                ns = skew_basis(nu, sigma)
                if not ks or not ns:
                    continue
                for tau in partitions_up_to(min(weight(lam), weight(mu))):
                    ms = skew_basis(mu, tau)
                    ls = skew_basis(lam, tau)
                    if not ms or not ls:
                        continue
                    left = outer_mul(SymFunc(dict(ks)), SymFunc(dict(ms)))
                    right = outer_mul(SymFunc(dict(ls)), SymFunc(dict(ns)))
                    out = out + tensor(left, right).scale(cx * cy)
    return RationalChar(out, irreducible=True)


def rational_mul_hash(x: RationalChar, y: RationalChar) -> RationalChar:
    """Same product as a hash on Sym (x) Sym with the contraction pairing
    a((a,b),(c,d)) = <a|d><b|c>: x # y = a(x1,y1) x2 y2 through the
    componentwise coproduct of Sym (x) Sym."""
    if not (x.irreducible and y.irreducible):
        raise ValueError("rational_mul_hash expects irreducible-interpretation characters")
    out = TensorSymFunc()
    for (kappa, lam), cx in x.element.terms.items():
        ksplit = coproduct_basis(kappa)
        lsplit = coproduct_basis(lam)
        for (mu, nu), cy in y.element.terms.items():
            msplit = coproduct_basis(mu)
            nsplit = coproduct_basis(nu)
            for (k1, k2), ck in ksplit.items():
                for (l1, l2), cl in lsplit.items():
                    for (m1, m2), cm in msplit.items():
                        for (n1, n2), cn in nsplit.items():
                            if k1 != n1 or l1 != m1:
                                continue  # <k1|n1><l1|m1> with orthonormal Schurs
                            coeff = cx * cy * ck * cl * cm * cn
                            pair = tensor(
                                outer_mul(SymFunc.basis(k2), SymFunc.basis(m2)),
                                outer_mul(SymFunc.basis(l2), SymFunc.basis(n2)),
                            )
                            out = out + pair.scale(coeff)
    return RationalChar(out, irreducible=True)


def rational_convert(x: RationalChar, direction: str) -> RationalChar:
    """reducible -> irreducible: {lam}(x){mu-bar} = sum_zeta {lam/zeta;(mu/zeta)-bar};
    irreducible -> reducible: {lam;mu-bar} = sum_zeta (-1)^{|zeta|}
    {lam/zeta}(x){(mu/zeta')-bar}."""
    from .partitions import conjugate

    if direction == "to_irreducible":
        if x.irreducible:
            raise ValueError("input is already in the irreducible interpretation")
        out = TensorSymFunc()
        for (lam, mu), c in x.element.terms.items():
            for zeta in partitions_up_to(min(weight(lam), weight(mu))):
                ls = skew_basis(lam, zeta)
                ms = skew_basis(mu, zeta)
                if ls and ms:
                    out = out + tensor(SymFunc(dict(ls)), SymFunc(dict(ms))).scale(c)
        return RationalChar(out, irreducible=True)
    if direction == "to_reducible":
        if not x.irreducible:
            raise ValueError("input is already in the reducible interpretation")
        out = TensorSymFunc()
        for (lam, mu), c in x.element.terms.items():
            for zeta in partitions_up_to(min(weight(lam), weight(mu))):
                ls = skew_basis(lam, zeta)
                ms = skew_basis(mu, conjugate(zeta))
                if ls and ms:
                    sign = (-1) ** weight(zeta)
                    out = out + tensor(SymFunc(dict(ls)), SymFunc(dict(ms))).scale(c * sign)
        return RationalChar(out, irreducible=False)
    raise ValueError(f"unknown direction {direction!r}")


# -- Thibon characters -------------------------------------------------------

def thibon_convert(f: SymFunc, direction: str, cap: int) -> SymFunc:
    """to_thibon: {lam} -> <<lam>> = {lam M}; to_schur: <<lam>> -> {lam L},
    both truncated at cap."""
    if direction == "to_thibon":
        return mul_by_series(f, "M", cap)
    if direction == "to_schur":
        return mul_by_series(f, "L", cap)
    raise ValueError(f"unknown direction {direction!r}")


def thibon_inner(x: SymFunc, y: SymFunc) -> SymFunc:
    """Inner product of Thibon characters on labels: <<mu>>*<<nu>> = <<mu #_{1,1} nu>>."""
    return named_product("thibon")(x, y)


def thibon_inner_formula(x: SymFunc, y: SymFunc) -> SymFunc:
    """Independent path: sum over equal-weight sigma, tau of
    (sigma * tau) (mu/sigma) (nu/tau)."""
    out = SymFunc.zero()
    for mu, cx in x.terms.items():
        for nu, cy in y.terms.items():
            for w in range(min(weight(mu), weight(nu)) + 1):
                for sigma in partitions_of(w):
                    ms = skew_basis(mu, sigma)
                    if not ms:
                        continue
                    for tau in partitions_of(w):
                        ns = skew_basis(nu, tau)
                        if not ns:
                            continue
                        core = SymFunc(dict(kronecker_basis(sigma, tau)))
                        term = outer_mul(core, outer_mul(SymFunc(dict(ms)), SymFunc(dict(ns))))
                        out = out + term.scale(cx * cy)
    return out


# -- reduced symmetric-group characters --------------------------------------

def murnaghan_littlewood(x: SymFunc, y: SymFunc) -> SymFunc:
    """Inner product of reduced characters on labels:
    <mu>*<nu> = <mu #_{m,1,1} nu>."""
    return named_product("murnaghan-littlewood")(x, y)


def murnaghan_littlewood_formula(x: SymFunc, y: SymFunc) -> SymFunc:
    """Independent path: sum over alpha, beta of equal weight and zeta of
    (mu/(alpha zeta)) (nu/(beta zeta)) (alpha * beta)."""
    out = SymFunc.zero()
    for mu, cx in x.terms.items():
        for nu, cy in y.terms.items():
            cap = min(weight(mu), weight(nu))
            for w in range(cap + 1):
                for zeta in partitions_up_to(cap - w):
                    mz = skew(SymFunc.basis(mu), SymFunc.basis(zeta))
                    nz = skew(SymFunc.basis(nu), SymFunc.basis(zeta))
                    if not mz or not nz:
                        continue
                    for alpha in partitions_of(w):
                        ma = skew(mz, SymFunc.basis(alpha))
                        if not ma:
                            continue
                        for beta in partitions_of(w):
                            nb = skew(nz, SymFunc.basis(beta))
                            if not nb:
                                continue
                            core = SymFunc(dict(kronecker_basis(alpha, beta)))
                            out = out + outer_mul(core, outer_mul(ma, nb)).scale(cx * cy)
    return out


def reduce_label(lam: Partition) -> Partition:
    """Drop the first row of a genuine symmetric-group label."""
    return tuple(lam[1:])


def unreduce_label(mu: Partition, n: int) -> tuple[int, Partition]:
    """Reconstruct the S_n label {n-|mu|, mu} with raising-operator
    standardization; returns (sign, partition), sign 0 when annihilated."""
    return standardize((n - weight(mu),) + tuple(mu))


def reduced_oracle(x: SymFunc, y: SymFunc, n: int) -> SymFunc:
    """S_n oracle: unreduce both labels, take the genuine Kronecker product,
    and re-reduce.  n must be large enough for stable first rows."""
    out = SymFunc.zero()
    for mu, cx in x.terms.items():
        smu, lam_mu = unreduce_label(mu, n)
        if smu == 0:
            raise ValueError(f"n={n} too small to reconstruct label {mu}")
        for nu, cy in y.terms.items():
            snu, lam_nu = unreduce_label(nu, n)
            if snu == 0:
                raise ValueError(f"n={n} too small to reconstruct label {nu}")
            prod = inner_mul(SymFunc.basis(lam_mu), SymFunc.basis(lam_nu))
            for lam, c in prod.terms.items():
                key = reduce_label(lam)
                out = out + SymFunc.basis(key).scale(cx * cy * c * smu * snu)
    return out


def default_oracle_n(x: SymFunc, y: SymFunc) -> int:
    return 2 * (x.max_degree() + y.max_degree()) + 2


# -- Cummins expansion -------------------------------------------------------

def cummins_expand(a: SymFunc, b: SymFunc, c: SymFunc, d: SymFunc) -> SymFunc:
    """(A B)*(C D) = (A1*C1)(A2*D1)(B1*C2)(B2*D2)."""
    out = SymFunc.zero()
    for la, ca in a.terms.items():
        for lb, cb in b.terms.items():
            for lc, cc in c.terms.items():
                for ld, cd in d.terms.items():
                    coeff = ca * cb * cc * cd
                    for (a1, a2), wa in coproduct_basis(la).items():
                        for (c1, c2), wc in coproduct_basis(lc).items():
                            t1 = SymFunc(dict(kronecker_basis(a1, c1)))
                            if not t1:
                                continue
                            for (b1, b2), wb in coproduct_basis(lb).items():
                                t3 = SymFunc(dict(kronecker_basis(b1, c2)))
                                if not t3:
                                    continue
                                for (d1, d2), wd in coproduct_basis(ld).items():
                                    t2 = SymFunc(dict(kronecker_basis(a2, d1)))
                                    if not t2:
                                        continue
                                    t4 = SymFunc(dict(kronecker_basis(b2, d2)))
                                    if not t4:
                                        continue
                                    term = outer_mul(outer_mul(t1, t2), outer_mul(t3, t4))
                                    out = out + term.scale(coeff * wa * wb * wc * wd)
    return out
