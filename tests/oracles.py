"""Independent oracles for the character products: closed sum-over-skews
formulas for Newell-Littlewood, Thibon and Murnaghan-Littlewood, the hash
form of the rational GL product, the direct join of the rational GL
conversions, Weyl's dimension of a rational character, the embedded-S_n path
for reduced characters and Murnaghan's dimension identity for their product, the
S_n dimension identity for Thibon's product, the GL(n) dimension identity for an outer
product, the character identity for a Kronecker product, the Cummins four-factor
expansion of a Kronecker product, the product and evaluation of monomial-expanded polynomials,
the hook length formula, straightening by adjacent raising operators, and the named hash
products in the power-sum basis from border-strip characters alone.  The
library computes each product one way; these check it.  Also the bounded
equality checks of cochains and pairings, the mutual-inverse check of the
series pairs, and skewing by a series as a differential operator on power sums and
multiplying by it as the exponential of its power-sum logarithm, which only the tests use."""

from fractions import Fraction
from functools import cache, reduce
from itertools import product
from math import comb, factorial, prod
from operator import mul

from symchar.characters import RationalChar
from symchar.convolution import Cochain1, Pairing, _basis_pairs
from symchar.kronecker import inner_mul, kronecker_basis
from symchar.partitions import (
    conjugate,
    hooks_and_contents,
    partitions_of,
    partitions_up_to,
    standardize,
    weight,
    z_and_n,
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


def rational_convert_join(x: RationalChar) -> RationalChar:
    """x in the other interpretation by the direct join over the second legs zeta
    of Delta s_lam and Delta s_mu: reducible -> irreducible is T, {lam}(x){mu-bar} =
    sum_zeta {lam/zeta;(mu/zeta)-bar}; irreducible -> reducible is T-bar, {lam;mu-bar}
    = sum_zeta (-1)^{|zeta|} {lam/zeta}(x){(mu/zeta')-bar}."""
    to_irreducible = not x.irreducible
    out: dict = {}
    for (lam, mu), c in x.element.terms.items():
        legs: dict = {}  # zeta -> the terms (m1, c) of s_{mu/zeta}
        for (m1, zeta), cm in coproduct_basis(mu).items():
            legs.setdefault(zeta, []).append((m1, cm))
        for (l1, zeta), cl in coproduct_basis(lam).items():
            sign, zeta = (1, zeta) if to_irreducible else ((-1) ** weight(zeta), conjugate(zeta))
            for m1, cm in legs.get(zeta, ()):
                out[l1, m1] = out.get((l1, m1), 0) + c * sign * cl * cm
    return RationalChar(TensorSymFunc(out), irreducible=to_irreducible)


def rational_dimension(x: RationalChar, n: int) -> int:
    """dim of an irreducible-interpretation x at GL(n), n at least each term's total
    length: {alpha;beta-bar} has highest weight l = (alpha, 0, ..., 0, -beta reversed),
    whose dimension is Weyl's product prod_{i<j} (l_i - l_j + j - i) / (j - i), from no
    library dimension code."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total, scale = 0, prod(j - i for i, j in pairs)
    for (alpha, beta), c in x.element.terms.items():
        l = [*alpha, *[0] * (n - len(alpha) - len(beta)), *(-b for b in reversed(beta))]
        total += c * prod(l[i] - l[j] + j - i for i, j in pairs) // scale
    return total


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


def reduced_dimension_failures(x: SymFunc, y: SymFunc, product: SymFunc) -> list[int]:
    """The n at which the reduced product of x and y fails Murnaghan's dimension identity
    f^{(n-|mu|, mu)} f^{(n-|nu|, nu)} = sum_lam c_lam f^{(n-|lam|, lam)}, extended linearly.
    Each side is a polynomial in n of degree at most deg x + deg y, so deg x + deg y + 3
    values of n are checked, from the least one at which every (n - |lam|, lam) of x, y
    and the product is a partition.  f is the hook length formula's, so the check reads
    no character table, Kronecker product or LR coefficient."""
    start = max((weight(lam) + lam[0] for f in (x, y, product) for lam in f.terms if lam), default=0)

    def dimension(f: SymFunc, n: int) -> int:
        return sum(c * hook_dimension((n - weight(lam), *lam)) for lam, c in f.terms.items())

    values = range(start, start + x.max_degree() + y.max_degree() + 3)
    return [n for n in values if dimension(x, n) * dimension(y, n) != dimension(product, n)]


def thibon_dimension_failures(x: SymFunc, y: SymFunc, product: SymFunc) -> list[int]:
    """The n at which Thibon's product of x and y fails deg_n(x) deg_n(y) = deg_n(product),
    deg_n(f) = sum_lam c_lam C(n, |lam|) f^lam, extended linearly: s_mu # s_nu is the S_n
    character product in the basis h_{n-|lam|} s_lam (Scharf-Thibon), and h_{n-k} s_lam has
    degree C(n, k) f^lam, zero for n < k.  Each side is a polynomial in n of degree at most
    deg x + deg y, so n = 0 .. deg x + deg y + 1 is checked.  f is the hook length
    formula's, so the check reads no character table, Kronecker product or LR coefficient."""

    def dimension(f: SymFunc, n: int) -> int:
        return sum(c * comb(n, weight(lam)) * hook_dimension(lam) for lam, c in f.terms.items())

    values = range(x.max_degree() + y.max_degree() + 2)
    return [n for n in values if dimension(x, n) * dimension(y, n) != dimension(product, n)]


def gl_dimension(lam, n: int) -> int:
    """s_lam(1^n), the dimension of GL(n)'s irreducible lam, by the hook-content formula
    prod (n + c) / h over the cells: 0 when l(lam) > n, where the cell (n + 1, 1) has
    content -n.  It reads no library dimension code, unlike `rational_dimension`'s padding,
    which needs n at least the label's length."""
    cells = hooks_and_contents(lam)
    return prod(n + c for _, c, _ in cells) // prod(h for _, _, h in cells)


def outer_dimension_failures(x: SymFunc, y: SymFunc, product: SymFunc) -> list[int]:
    """The n at which the outer product of x and y fails s(1^n) = x(1^n) y(1^n), each
    side summed by `gl_dimension`.  Each side is a polynomial in n of degree at most
    deg x + deg y, so n = 0 .. deg x + deg y + 1 is checked; no LR coefficient is read."""

    def dimension(f: SymFunc, n: int) -> int:
        return sum(c * gl_dimension(lam, n) for lam, c in f.terms.items())

    values = range(x.max_degree() + y.max_degree() + 2)
    return [n for n in values if dimension(x, n) * dimension(y, n) != dimension(product, n)]


def kronecker_character_failures(x: SymFunc, y: SymFunc, product: SymFunc, classes) -> list:
    """The classes rho at which the Kronecker product of x and y fails
    sum g_lam chi^lam(rho) = chi^x(rho) chi^y(rho), every character read by the border-strip
    `reference_character`, so no character table or Kronecker kernel is read."""

    def value(f: SymFunc, rho) -> int:
        return sum(c * reference_character(lam, rho) for lam, c in f.terms.items())

    return [rho for rho in classes if value(x, rho) * value(y, rho) != value(product, rho)]


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


def raising_standardize(comp) -> tuple[int, tuple[int, ...]]:
    """(sign, partition) of a composition by adjacent raising operators
    R_{i,i+1}[..., t_i, t_{i+1}, ...] = -[..., t_{i+1}-1, t_i+1, ...] at each
    ascent until none is left, without sorting; (0, ()) at the fixed point
    t_{i+1} = t_i + 1 or when a negative part survives.  Each swap removes an
    inversion of t_i - i, so the passes end."""
    parts, sign, swapped = [int(p) for p in comp], 1, True
    while swapped:
        swapped = False
        for i in range(len(parts) - 1):
            if parts[i] < parts[i + 1]:
                if parts[i + 1] == parts[i] + 1:
                    return 0, ()
                parts[i], parts[i + 1] = parts[i + 1] - 1, parts[i] + 1
                sign, swapped = -sign, True
    while parts and parts[-1] == 0:
        parts.pop()
    if any(p < 0 for p in parts):
        return 0, ()
    return sign, tuple(parts)


@cache
def hook_dimension(lam) -> int:
    """f^lam = |lam|! / (product of hook lengths), from neither a character
    table nor an LR generator."""
    return factorial(weight(lam)) // prod(h for _, _, h in hooks_and_contents(lam))


@cache
def _reference_beta(betas: frozenset, rho: tuple) -> int:
    """Murnaghan-Nakayama on a beta-number set: removing a border strip of size
    r moves one beta number down by r, with sign from the betas jumped over."""
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    total = 0
    for b in betas:
        if b - r < 0 or (b - r) in betas:
            continue
        height = sum(1 for x in betas if b - r < x < b)
        total += (-1) ** height * _reference_beta((betas - {b}) | {b - r}, rest)
    return total


def reference_character(lam, rho) -> int:
    """chi^lam(rho) by border strips, from no character table or LR code."""
    size = max(len(lam), 1)
    padded = list(lam) + [0] * (size - len(lam))
    return _reference_beta(frozenset(padded[i] + size - 1 - i for i in range(size)), tuple(rho))


# The named hash products in the power-sum basis, over Q.  There p_n is
# primitive and every named stage is diagonal or multiplicative: inner(p_a, p_b)
# = [a = b] z_a p_a, schur-hall = [a = b] z_a, e2 = [a = b = ()], and
# m(p_a, p_b) = p_{a u b}.  A pairing here maps a pair of partitions to a
# {partition: coefficient} dict of power sums.

def _p_mul(alpha, beta):
    return tuple(sorted(alpha + beta, reverse=True))


@cache
def _power_coproduct(rho) -> tuple:
    """Delta p_rho = sum over sub-multisets alpha of rho of
    prod_i C(m_i(rho), m_i(alpha)) p_alpha (x) p_{rho - alpha}."""
    sizes = sorted(set(rho), reverse=True)
    counts = [rho.count(i) for i in sizes]
    out = []
    for ks in product(*(range(m + 1) for m in counts)):
        alpha = tuple(i for i, k in zip(sizes, ks) for _ in range(k))
        rest = tuple(i for i, k, m in zip(sizes, ks, counts) for _ in range(m - k))
        out.append((alpha, rest, prod(comb(m, k) for k, m in zip(ks, counts))))
    return tuple(out)


def _power_convolve(a, b):
    """(a * b)(p_alpha, p_beta) = sum a(alpha1, beta1) b(alpha2, beta2), the
    values multiplied as power sums."""

    @cache
    def conv(alpha, beta):
        out: dict = {}
        for a1, a2, ca in _power_coproduct(alpha):
            for b1, b2, cb in _power_coproduct(beta):
                for r1, c1 in a(a1, b1).items():
                    for r2, c2 in b(a2, b2).items():
                        key = _p_mul(r1, r2)
                        out[key] = out.get(key, 0) + ca * cb * c1 * c2
        return out

    return conv


def _z(rho) -> int:
    return z_and_n(rho)[0]


POWER_SUM_PAIRINGS = {
    "inner": lambda alpha, beta: {alpha: _z(alpha)} if alpha == beta else {},
    "schur-hall": lambda alpha, beta: {(): _z(alpha)} if alpha == beta else {},
    "e2": lambda alpha, beta: {(): 1} if alpha == beta == () else {},
    "outer": lambda alpha, beta: {_p_mul(alpha, beta): 1},
}
POWER_SUM_STAGES = {  # each named spec's stage pairings; the final cochain is id
    "trivial": ("e2",),
    "thibon": ("inner",),
    "newell-littlewood": ("schur-hall",),
    "murnaghan-littlewood": ("schur-hall", "inner"),
}


@cache
def _power_sum_product(name: str):
    """(A * m) with A the fold of the spec's stage pairings."""
    composite = reduce(_power_convolve, [POWER_SUM_PAIRINGS[a] for a in POWER_SUM_STAGES[name]])
    return _power_convolve(composite, POWER_SUM_PAIRINGS["outer"])


def to_power_sums(f: SymFunc) -> dict:
    """s_lam = sum_rho chi^lam(rho) / z_rho p_rho."""
    out: dict = {}
    for lam, c in f.terms.items():
        for rho in partitions_of(weight(lam)):
            out[rho] = out.get(rho, 0) + Fraction(c * reference_character(lam, rho), _z(rho))
    return out


def from_power_sums(f: dict) -> SymFunc:
    """p_rho = sum_lam chi^lam(rho) s_lam, every Schur coefficient asserted integral."""
    out: dict = {}
    for rho, c in f.items():
        for lam in partitions_of(weight(rho)):
            out[lam] = out.get(lam, 0) + c * reference_character(lam, rho)
    assert all(Fraction(v).denominator == 1 for v in out.values()), out
    return SymFunc({lam: int(v) for lam, v in out.items()})


def power_sum_hash(name: str, x: SymFunc, y: SymFunc) -> SymFunc:
    """x # y for the named spec, computed in the power-sum basis."""
    hash_, out = _power_sum_product(name), {}
    for alpha, ca in to_power_sums(x).items():
        for beta, cb in to_power_sums(y).items():
            for rho, c in hash_(alpha, beta).items():
                out[rho] = out.get(rho, 0) + ca * cb * c
    return from_power_sums(out)


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


# Skewing by a series as a differential operator on power sums (Macdonald I.5, examples):
# the adjoint of multiplication by p_k is k d/dp_k, so for M = exp(sum p_k / k) and
# D = exp(sum (p_k^2 + p_{2k}) / 2k), M-perp = exp(sum d_k), the shift p_k -> p_k + 1, and
# D-perp = exp(sum (k/2) d_k^2 + d_{2k}); B is D with -p_{2k}; L, C and A are the inverses
# of M, D and B, each exponent negated.  Per tag: (sign of the shift or of the d_k^2 terms,
# sign of the d_{2k} terms).
SERIES_OPERATORS = {"M": (1, 0), "L": (-1, 0), "D": (1, 1), "B": (1, -1), "C": (-1, -1), "A": (-1, 1)}


def _derive(f: dict, parts) -> dict:
    """The product of d/dp_k over k in parts applied to f = sum c p_rho."""
    out: dict = {}
    for rho, c in f.items():
        rest = list(rho)
        for k in parts:
            if k not in rest:
                break
            c *= rest.count(k)
            rest.remove(k)
        else:
            out[tuple(rest)] = out.get(tuple(rest), 0) + c
    return out


def skew_by_series_operator(f: SymFunc, tag: str) -> SymFunc:
    """f / series as exp(X) on f's power sums, X = SERIES_OPERATORS[tag]'s derivation,
    summed as X^n f / n! for n <= deg f (X lowers the degree, so X^n f vanishes past
    it); no LR, skew or coproduct code is read."""
    sign, twist = SERIES_OPERATORS[tag]
    ks = range(1, f.max_degree() + 1)
    if twist:
        ops = [(Fraction(sign * k, 2), (k, k)) for k in ks] + [(twist, (2 * k,)) for k in ks]
    else:
        ops = [(sign, (k,)) for k in ks]
    term = to_power_sums(f)
    out = dict(term)
    for n in range(1, f.max_degree() + 1):
        step: dict = {}
        for c, parts in ops:
            for rho, v in _derive(term, parts).items():
                step[rho] = step.get(rho, 0) + c * v
        term = {rho: v / n for rho, v in step.items() if v}
        for rho, v in term.items():
            out[rho] = out.get(rho, 0) + v
    return from_power_sums(out)


def _power_mul(f: dict, g: dict, cap: int) -> dict:
    """f g in the power-sum basis, p_alpha p_beta = p_{alpha u beta}, truncated at degree cap."""
    out: dict = {}
    for alpha, ca in f.items():
        for beta, cb in g.items():
            if weight(alpha) + weight(beta) <= cap:
                key = _p_mul(alpha, beta)
                out[key] = out.get(key, 0) + ca * cb
    return out


@cache
def _series_exp(tag: str, cap: int) -> dict:
    """The series up to degree cap as exp(X) on power sums, X = sum sign p_k / k for M and L
    and sum (sign p_k^2 + twist p_{2k}) / 2k for the classes, the signs SERIES_OPERATORS's;
    each X^n / n! is one `_power_mul` by X, since X has no term of degree 0."""
    sign, twist = SERIES_OPERATORS[tag]
    ks = range(1, cap + 1)
    if twist:
        x = {**{(k, k): Fraction(sign, 2 * k) for k in ks}, **{(2 * k,): Fraction(twist, 2 * k) for k in ks}}
    else:
        x = {(k,): Fraction(sign, k) for k in ks}
    out, term = {(): 1}, {(): 1}
    for n in range(1, cap + 1):
        term = {rho: c / n for rho, c in _power_mul(term, x, cap).items()}
        for rho, c in term.items():
            out[rho] = out.get(rho, 0) + c
    return out


def mul_by_series_operator(f: SymFunc, tag: str, cap: int) -> SymFunc:
    """f * series truncated at degree cap, as f's power sums times exp(X) (see `_series_exp`);
    no LR, product or series code is read."""
    return from_power_sums(_power_mul(to_power_sums(f), _series_exp(tag, cap), cap))
