"""Inner (Kronecker) product on symmetric functions.

The character table of S_n is built column by column from the power sums
p_rho = sum_lam chi^lam(rho) s_lam.  A column is the column of rho with its
largest part r removed, multiplied by p_r: on partitions written as bead
bitmasks (m beads for a partition of m, bead i at lam_i + m - 1 - i), p_r
moves one bead up by r onto an empty position, with sign (-1)^(beads jumped).
The column of sigma |- m is dense over partitions_of(m) and does not depend
on the n it is a suffix at, so it is built once per process; the moves of
size r from each partition of m are found once per (m, r), so multiplying by
p_r is a fixed gather of signed entries.  Per-degree Kronecker
coefficients are the character triple sum
g^lam_{mu,nu} = sum_rho chi^lam(rho) chi^mu(rho) chi^nu(rho) / z_rho,
taken over the classes where chi^mu chi^nu is nonzero, as a packed-column
matrix-vector product: every column of the table is also one big integer
holding chi^lam(rho) in the w-byte slot of lam, so the sum costs one
big-integer multiply-add per class, and every den * g^lam is read back from
one byte string, each distinct slot decoded once per n.  No slot can
overflow: g is symmetric in lam, mu, nu and sum_lam g^lam_{mu,nu} f^lam =
f^mu f^nu, so 0 <= g^lam_{mu,nu} <= f^lam <= max f, the largest entry of the
column of rho = (1^n).
"""

from __future__ import annotations

import math
from functools import cache, partial, reduce
from itertools import compress, zip_longest
from operator import add, itemgetter, mul, neg

from .partitions import Partition, make_partition, partitions_of, weight, z_and_n
from .schur import SymFunc, TensorSymFunc, _bilinear, linear


@cache
def _masks(m: int) -> dict[int, int]:
    """Bead bitmask on m beads (bead i at lam_i + m - 1 - i) -> index in partitions_of(m)."""
    return {sum(1 << (p + m - 1 - i) for i, p in enumerate(lam)) + (1 << (m - len(lam))) - 1: i
            for i, lam in enumerate(partitions_of(m))}


@cache
def _moves(m: int, r: int) -> list[itemgetter]:
    """p_r from level m to level m + r as gathers: the t-th gets, from a level-m
    column followed by its negation, the t-th signed source of each position
    at level m + r (the trailing 0 if none), then the trailing 0 itself."""
    up, down = _masks(m + r), _masks(m)
    zero = len(down)
    sources: list[list[int]] = [[] for _ in up]
    for mask, i in down.items():
        mask = (mask << r) | ((1 << r) - 1)  # the same partition on m + r beads
        movable = mask & ~(mask >> r)
        while movable:
            low = movable & -movable
            movable ^= low
            high = low << r
            odd = (mask & (high - (low << 1))).bit_count() & 1
            sources[up[mask ^ low ^ high]].append(i + odd * (zero + 1))
    return [itemgetter(*t, zero) for t in zip_longest(*sources, fillvalue=zero)]


@cache
def _column(rho: Partition) -> tuple[int, ...]:
    """p_rho = (chi^lam(rho) for lam in partitions_of(|rho|)), then a trailing 0:
    the column of rho without its largest part r, times p_r."""
    if not rho:
        return (1, 0)
    col = _column(rho[1:])
    signed = col + tuple(map(neg, col))
    return tuple(reduce(partial(map, add), [t(signed) for t in _moves(weight(rho[1:]), rho[0])]))


class _Slots(dict):
    """w-byte slot of a level-n triple sum -> g^lam_{mu,nu}, each distinct slot
    decoded and checked for exact division by den once."""

    def __init__(self, half: int, den: int):
        self.half, self.den = half, den

    def __missing__(self, slot: bytes) -> int:
        q, r = divmod(int.from_bytes(slot, "little") - self.half, self.den)
        if r:
            raise ArithmeticError("non-integer Kronecker coefficient")
        self[slot] = q
        return q


@cache
def _table(n: int) -> tuple[
    tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...], int, int, dict, _Slots
]:
    """(columns, packed, scales, w, bias, index, slots) for S_n.

    columns[j] is the cached _column of rho_j, the j-th of partitions_of(n),
    so columns[j][index[lam]] = chi^lam(rho_j); scales[j] = den // z_rho_j,
    den = lcm z_rho.  packed[j] = sum_i columns[j][i] 2^(8wi) is column j in
    slots of w bytes, w the fewest with den * max f < 2^(8w - 2), so each slot
    of a triple sum holds 0 <= den * g^lam <= den * f^lam with room to spare.
    bias has 2^(8w - 1) in each of the p(n) + 1 slots (the trailing 0 has one
    too); added to the sum, it keeps each slot's value in [0, 2^(8w)), so no
    slot borrows from another.  Each distinct value is turned into its slot
    bytes once, and slots reads each distinct slot of a sum back once."""
    labels = partitions_of(n)
    columns = tuple(map(_column, labels))
    zs = [z_and_n(rho)[0] for rho in labels]
    den = math.lcm(*zs)
    w = ((den * max(columns[-1])).bit_length() + 9) // 8  # columns[-1]: rho = (1^n)
    half = 1 << (8 * w - 1)
    bias = int.from_bytes(half.to_bytes(w, "little") * (len(labels) + 1), "little")
    slot = {v: (half + v).to_bytes(w, "little") for v in set().union(*columns)}.__getitem__
    packed = tuple(
        int.from_bytes(b"".join(map(slot, col)), "little") - bias for col in columns
    )
    index = {lam: i for i, lam in enumerate(labels)}
    return columns, packed, tuple(den // z for z in zs), w, bias, index, _Slots(half, den)


def character(lam: Partition, rho: Partition) -> int:
    """Irreducible symmetric-group character chi^lam(rho), |lam| = |rho|, read
    from the cached column p_rho (no table is built)."""
    lam, rho = make_partition(lam), make_partition(sorted(rho, reverse=True))
    n = weight(lam)
    if n != weight(rho):
        raise ValueError(
            f"weight mismatch: |{lam}| = {n} but |{rho}| = {weight(rho)}"
        )
    return _column(rho)[partitions_of(n).index(lam)]


def character_table(n: int) -> dict[tuple[Partition, Partition], int]:
    """Full character table of the symmetric group on n letters."""
    labels = partitions_of(n)
    rows = zip(labels, zip(*_table(n)[0]))
    return {(lam, rho): v for lam, row in rows for rho, v in zip(labels, row)}


@cache
def kronecker_basis(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """Expansion of s_mu * s_nu; zero unless |mu| = |nu|.  One multiply-add of a
    packed column per class with chi^mu chi^nu != 0 leaves den * g^lam_{mu,nu}
    + 2^(8w - 1) in the w-byte slot of each lam (see _table)."""
    n = weight(mu)
    if n != weight(nu):
        return {}
    columns, packed, scales, w, total, index, slots = _table(n)
    chi = map(mul, map(itemgetter(index[mu]), columns), map(itemgetter(index[nu]), columns))
    for ab, s, column in zip(chi, scales, packed):
        if ab:
            total += ab * s * column
    data = total.to_bytes(w * (len(columns) + 1), "little")
    g = list(map(slots.__getitem__, [data[i:i + w] for i in range(0, len(data), w)]))
    return dict(compress(zip(partitions_of(n), g), g))


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
