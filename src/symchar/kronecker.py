"""Inner (Kronecker) product on symmetric functions.

The character table of S_n is built column by column from the power sums
p_rho = sum_lam chi^lam(rho) s_lam.  A column is the column of rho with its
largest part r removed, multiplied by p_r: on partitions written as bead
bitmasks (n beads, bead i at lam_i + n - 1 - i), p_r moves one bead up by r
onto an empty position, with sign (-1)^(beads jumped).  The column of a
suffix of rho of weight m is dense over partitions_of(m), and the moves of
size r from each partition of m are found once per (m, r), so multiplying by
p_r is a fixed gather of signed entries.  Per-degree Kronecker
coefficients are the character triple sum
g^lam_{mu,nu} = sum_rho chi^lam(rho) chi^mu(rho) chi^nu(rho) / z_rho,
taken over the classes where chi^mu chi^nu is nonzero, as a packed-column
matrix-vector product: every column of the table is also one big integer
holding chi^lam(rho) in the w-byte slot of lam, so the sum costs one
big-integer multiply-add per class, and every den * g^lam is read back from
one byte string.  No slot can overflow: g is symmetric in lam, mu, nu and
sum_lam g^lam_{mu,nu} f^lam = f^mu f^nu, so 0 <= g^lam_{mu,nu} <= f^lam <= max f,
the largest entry of the column of rho = (1^n).
"""

from __future__ import annotations

import math
from functools import cache, partial, reduce
from itertools import zip_longest
from operator import add, itemgetter, mul, neg

from .partitions import Partition, make_partition, partitions_of, weight, z_and_n
from .schur import SymFunc, TensorSymFunc, _bilinear, linear


def _mask(lam: Partition, n: int) -> int:
    """Bead bitmask of lam on n beads: bead i sits at lam_i + n - 1 - i."""
    return sum(1 << (p + n - 1 - i) for i, p in enumerate(lam)) + (1 << (n - len(lam))) - 1


def _columns(n: int, classes) -> list[tuple[int, ...]]:
    """p_rho = (chi^lam(rho) for lam in partitions_of(n)) for each rho in classes.

    The column of a suffix sigma |- m of rho is dense over partitions_of(m),
    plus a trailing 0.  p_r maps it to level m + r by the moves of size r,
    found once per (m, r): moves[m, r][t] gathers, from the column followed by
    its negation, the t-th signed source of each position at level m + r (the
    trailing 0 if none), then the trailing 0 itself, which the new column
    keeps.  Columns of shared suffixes, moves and masks are local, so they
    are freed on return."""
    levels = {weight(rho[j:]) for rho in classes for j in range(len(rho) + 1)}
    masks = {m: {_mask(lam, n): i for i, lam in enumerate(partitions_of(m))} for m in levels}
    moves: dict[tuple[int, int], list[itemgetter]] = {}
    memo: dict[Partition, tuple[int, ...]] = {(): (1, 0)}
    for rho in classes:
        k = len(rho)
        while k and rho[k - 1:] in memo:
            k -= 1
        for j in range(k - 1, -1, -1):
            m, r = weight(rho[j + 1:]), rho[j]
            if (m, r) not in moves:
                up, zero = masks[m + r], len(masks[m])
                sources: list[list[int]] = [[] for _ in up]
                for mask, i in masks[m].items():
                    movable = mask & ~(mask >> r)
                    while movable:
                        low = movable & -movable
                        movable ^= low
                        high = low << r
                        odd = (mask & (high - (low << 1))).bit_count() & 1
                        sources[up[mask ^ low ^ high]].append(i + odd * (zero + 1))
                moves[m, r] = [itemgetter(*t, zero) for t in zip_longest(*sources, fillvalue=zero)]
            col = memo[rho[j + 1:]]
            signed = col + tuple(map(neg, col))
            memo[rho[j:]] = tuple(reduce(partial(map, add), [t(signed) for t in moves[m, r]]))
    return [memo[rho][:-1] for rho in classes]


@cache
def _table(n: int) -> tuple[
    tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...], int, int, int, dict
]:
    """(rows, packed, scales, den, w, bias, index) for S_n.

    The columns are _columns' dense level-n columns, one per rho_j in
    partitions_of(n), so rows[index[lam]][j] = chi^lam(rho_j),
    scales[j] = den // z_rho_j, den = lcm z_rho.  packed[j] = sum_i rows[i][j]
    2^(8wi) is column j in slots of w bytes, w the fewest with den * max f <
    2^(8w - 2), so each slot of a triple sum holds 0 <= den * g^lam <= den * f^lam
    with room to spare.  bias has 2^(8w - 1) in every slot; added to the sum,
    it keeps each slot's value in [0, 2^(8w)), so no slot borrows from another.
    Each distinct value is turned into its slot bytes once."""
    labels = partitions_of(n)
    columns = _columns(n, labels)
    zs = [z_and_n(rho)[0] for rho in labels]
    den = math.lcm(*zs)
    w = ((den * max(columns[-1])).bit_length() + 9) // 8  # columns[-1]: rho = (1^n)
    half = 1 << (8 * w - 1)
    bias = int.from_bytes(half.to_bytes(w, "little") * len(labels), "little")
    slot = {v: (half + v).to_bytes(w, "little") for v in set().union(*columns)}.__getitem__
    packed = tuple(
        int.from_bytes(b"".join(map(slot, col)), "little") - bias for col in columns
    )
    index = {lam: i for i, lam in enumerate(labels)}
    return tuple(zip(*columns)), packed, tuple(den // z for z in zs), den, w, bias, index


def character(lam: Partition, rho: Partition) -> int:
    """Irreducible symmetric-group character chi^lam(rho), |lam| = |rho|, read
    from the single column p_rho (no table is built or kept)."""
    lam, rho = make_partition(lam), make_partition(sorted(rho, reverse=True))
    n = weight(lam)
    if n != weight(rho):
        raise ValueError(
            f"weight mismatch: |{lam}| = {n} but |{rho}| = {weight(rho)}"
        )
    return _columns(n, [rho])[0][partitions_of(n).index(lam)]


def character_table(n: int) -> dict[tuple[Partition, Partition], int]:
    """Full character table of the symmetric group on n letters."""
    labels = partitions_of(n)
    rows = _table(n)[0]
    return {
        (lam, rho): v for lam, row in zip(labels, rows) for rho, v in zip(labels, row)
    }


@cache
def kronecker_basis(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """Expansion of s_mu * s_nu; zero unless |mu| = |nu|.  One multiply-add of a
    packed column per class with chi^mu chi^nu != 0 leaves den * g^lam_{mu,nu}
    + 2^(8w - 1) in the w-byte slot of each lam (see _table)."""
    n = weight(mu)
    if n != weight(nu):
        return {}
    rows, packed, scales, den, w, total, index = _table(n)
    for ab, s, column in zip(map(mul, rows[index[mu]], rows[index[nu]]), scales, packed):
        if ab:
            total += ab * s * column
    data = total.to_bytes(w * len(rows), "little")
    half = 1 << (8 * w - 1)
    out: dict[Partition, int] = {}
    for lam, i in zip(partitions_of(n), range(0, len(data), w)):
        q, r = divmod(int.from_bytes(data[i:i + w], "little") - half, den)
        if r:
            raise ArithmeticError("non-integer Kronecker coefficient")
        if q:
            out[lam] = q
    return out


def inner_mul(f: SymFunc, g: SymFunc) -> SymFunc:
    return _bilinear(f, g, kronecker_basis)


@cache
def inner_coproduct_basis(lam: Partition) -> dict[tuple[Partition, Partition], int]:
    """delta(s_lam) = sum g^lam_{mu,nu} s_mu (x) s_nu (adjoint of inner_mul)."""
    n = weight(lam)
    out: dict[tuple[Partition, Partition], int] = {}
    for mu in partitions_of(n):
        for nu, c in kronecker_basis(lam, mu).items():
            # g^lam_{mu,nu} is fully symmetric in its three indices.
            out[(mu, nu)] = c
    return out


def inner_coproduct(f: SymFunc) -> TensorSymFunc:
    return linear(f, inner_coproduct_basis, TensorSymFunc)


def counit_eps1(f: SymFunc) -> int:
    """Coefficient sum over one-row partitions (including the empty one)."""
    return sum(c for lam, c in f.terms.items() if len(lam) <= 1)
