"""Independent oracles for the character products: closed sum-over-skews
formulas for Newell-Littlewood, Thibon and Murnaghan-Littlewood, the hash
form of the rational GL product, the embedded-S_n path for reduced
characters, the Cummins four-factor expansion of a Kronecker product, the
product and evaluation of monomial-expanded polynomials, and the hook length
formula.  The library computes each product one way; these check it.  Also
the bounded equality checks of cochains and pairings, and the mutual-inverse
check of the series pairs, which only the tests use."""

from functools import cache
from math import factorial, prod
from operator import mul

from symchar.characters import RationalChar
from symchar.convolution import Cochain1, Pairing, _basis_pairs
from symchar.kronecker import inner_mul, kronecker_basis
from symchar.partitions import (
    hooks_and_contents,
    partitions_of,
    partitions_up_to,
    standardize,
    weight,
)
from symchar.schur import (
    Monomial,
    SymFunc,
    TensorSymFunc,
    coproduct_basis,
    eval_monomials,
    outer_mul,
    skew,
    skew_basis,
    tensor,
)
from symchar.series import series_degree_term


def newell_littlewood_formula(f: SymFunc, g: SymFunc) -> SymFunc:
    """The direct sum-over-common-skews form, as an independent path."""
    out = SymFunc.zero()
    cap = min(f.max_degree(), g.max_degree())
    for zeta in partitions_up_to(cap):
        out.add(outer_mul(skew(f, SymFunc.basis(zeta)), skew(g, SymFunc.basis(zeta))))
    return out


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
                            out.add(pair, coeff)
    return RationalChar(out, irreducible=True)


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
                        out.add(term, cx * cy)
    return out


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
                            out.add(outer_mul(core, outer_mul(ma, nb)), cx * cy)
    return out


def reduced_oracle(x: SymFunc, y: SymFunc, n: int) -> SymFunc:
    """S_n oracle: unreduce both labels to {n-|mu|, mu} (standardized with
    raising operators), take the genuine Kronecker product, and drop the first
    row again.  n must be large enough for stable first rows."""
    out = SymFunc.zero()
    for mu, cx in x.terms.items():
        smu, lam_mu = standardize((n - weight(mu),) + mu)
        if smu == 0:
            raise ValueError(f"n={n} too small to reconstruct label {mu}")
        for nu, cy in y.terms.items():
            snu, lam_nu = standardize((n - weight(nu),) + nu)
            if snu == 0:
                raise ValueError(f"n={n} too small to reconstruct label {nu}")
            prod = inner_mul(SymFunc.basis(lam_mu), SymFunc.basis(lam_nu))
            for lam, c in prod.terms.items():
                out.add(SymFunc.basis(lam[1:]), cx * cy * c * smu * snu)
    return out


def default_oracle_n(x: SymFunc, y: SymFunc) -> int:
    return 2 * (x.max_degree() + y.max_degree()) + 2


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
                            t1 = SymFunc(kronecker_basis(a1, c1))
                            if not t1:
                                continue
                            for (b1, b2), wb in coproduct_basis(lb).items():
                                t3 = SymFunc(kronecker_basis(b1, c2))
                                if not t3:
                                    continue
                                for (d1, d2), wd in coproduct_basis(ld).items():
                                    t2 = SymFunc(kronecker_basis(a2, d1))
                                    if not t2:
                                        continue
                                    t4 = SymFunc(kronecker_basis(b2, d2))
                                    if not t4:
                                        continue
                                    term = outer_mul(outer_mul(t1, t2), outer_mul(t3, t4))
                                    out.add(term, coeff * wa * wb * wc * wd)
    return out


def poly_mul(p: dict[Monomial, int], q: dict[Monomial, int]) -> dict[Monomial, int]:
    """Product of two polynomials.  Exponent vectors are packed into integers in
    a base above the product's total degree, so that a monomial product is one
    integer addition."""
    if not p or not q:
        return {}
    base = max(map(sum, p)) + max(map(sum, q)) + 1
    digits = [base**i for i in range(len(next(iter(p))))]
    packed = [[(sum(map(mul, e, digits)), c) for e, c in f.items()] for f in (p, q)]
    out: dict[int, int] = {}
    for ea, ca in packed[0]:
        for eb, cb in packed[1]:
            key = ea + eb
            out[key] = out.get(key, 0) + ca * cb
    return {tuple([k // d % base for d in digits]): c for k, c in out.items() if c}


def eval_polynomial(f: SymFunc, n_vars: int) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for lam, c in f.terms.items():
        for expo, m in eval_monomials(lam, n_vars).items():
            out[expo] = out.get(expo, 0) + c * m
    return {k: v for k, v in out.items() if v}


@cache
def hook_dimension(lam) -> int:
    """f^lam = |lam|! / (product of hook lengths), from neither a character
    table nor an LR generator."""
    return factorial(weight(lam)) // prod(h for _, _, h in hooks_and_contents(lam))


def cochains_equal(f: Cochain1, g: Cochain1, max_degree: int) -> bool:
    return all(
        f.on_basis(lam) == g.on_basis(lam) for lam in partitions_up_to(max_degree)
    )


def pairings_equal(a: Pairing, b: Pairing, max_degree: int) -> bool:
    return all(a.on_basis(x, y) == b.on_basis(x, y) for x, y in _basis_pairs(max_degree))


# The inverse partner of each series tag.
INVERSE_PAIR = {"M": "L", "L": "M", "A": "B", "B": "A", "C": "D", "D": "C"}


def check_inverse_pair(tag_a: str, tag_b: str, cap: int) -> bool:
    """Degreewise product of the two series equals 1 (delta_{d,0} s_()) up to cap."""
    for d in range(cap + 1):
        acc = SymFunc.zero()
        for i in range(d + 1):
            acc.add(outer_mul(series_degree_term(tag_a, i), series_degree_term(tag_b, d - i)))
        expected = SymFunc.one() if d == 0 else SymFunc.zero()
        if acc != expected:
            return False
    return True
