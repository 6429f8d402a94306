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
matrix-vector product: a column is also one big integer holding chi^lam(rho)
in the w-byte slot of each lam >= lam' (chi^lam' = sgn chi^lam, omega being
the antipode up to sign), so sums E over the even classes and O over the odd
ones cost one multiply-add per class on half-length columns, and every
den * g^lam is read back from the bytes of E + O and E - O, each distinct slot
decoded once per n.  No slot can overflow: g is symmetric in lam, mu, nu and
sum_lam g^lam_{mu,nu} f^lam = f^mu f^nu, so 0 <= g^lam_{mu,nu} <= f^lam <= max f.
"""

from __future__ import annotations

import math
from functools import cache, partial, reduce
from itertools import compress, zip_longest
from operator import add, itemgetter, mul, neg

from .partitions import Partition, conjugate, make_partition, partitions_of, weight, z_and_n
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
def _table(n: int) -> tuple:
    """(columns, packed, scales, odd, size, bias, cuts, index, slots) for S_n.

    columns[j] is the cached _column of rho_j, the j-th of partitions_of(n), so
    columns[j][index[lam]] = chi^lam(rho_j); scales[j] = den // z_rho_j, den = lcm z_rho;
    odd[j] = (n - len(rho_j)) % 2.  As chi^lam'(rho) = (-1)^odd chi^lam(rho), packed[j] =
    sum_k columns[j][rep_k] 2^(8wk) over the h representatives rep_k >= rep_k' of the
    conjugate pairs, w the fewest bytes with den * max f < 2^(8w - 2).  Summed over the
    even classes into E and the odd ones into O, E + O holds den * g^lam and E - O
    den * g^lam' in the slot of rep lam (O is 0 there if lam = lam'), each in
    [0, den * max f] as in the full sum; bias, 2^(8w - 1) in each of the h slots, keeps
    every slot of either in [0, 2^(8w)), so none borrows.  cuts[i] is the slot of
    partitions_of(n)[i] in the size bytes of E + O + bias followed by those of E - O +
    bias.  Each distinct value becomes slot bytes once; slots reads each slot back once."""
    labels = partitions_of(n)
    index = {lam: i for i, lam in enumerate(labels)}
    columns = tuple(map(_column, labels))
    zs = [z_and_n(rho)[0] for rho in labels]
    den = math.lcm(*zs)
    w = ((den * max(columns[-1])).bit_length() + 9) // 8  # columns[-1]: rho = (1^n)
    half = 1 << (8 * w - 1)
    reps = [i for i, lam in enumerate(labels) if lam >= conjugate(lam)]
    place = {conjugate(labels[i]): len(reps) + k for k, i in enumerate(reps)}
    place.update({labels[i]: k for k, i in enumerate(reps)})  # E + O for a self-conjugate lam
    bias = int.from_bytes(half.to_bytes(w, "little") * len(reps), "little")
    slot = {v: (half + v).to_bytes(w, "little") for v in set().union(*columns)}.__getitem__
    packed = tuple(
        int.from_bytes(b"".join(map(slot, map(c.__getitem__, reps))), "little") - bias for c in columns
    )
    cuts = tuple(slice(w * place[lam], w * place[lam] + w) for lam in labels)
    scales, odd = tuple(den // z for z in zs), tuple((n - len(rho)) & 1 for rho in labels)
    return columns, packed, scales, odd, w * len(reps), bias, cuts, index, _Slots(half, den)


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
    """Expansion of s_mu * s_nu; zero unless |mu| = |nu|.  One multiply-add of a packed
    column per class with chi^mu chi^nu != 0, into E or O by its parity, leaves
    den * g^lam_{mu,nu} in the slot of each rep lam of E + O and den * g^lam' in that
    of E - O; the slots are read back in partitions_of(n) order (see _table)."""
    n = weight(mu)
    if n != weight(nu):
        return {}
    columns, packed, scales, odd, size, bias, cuts, index, slots = _table(n)
    chi = map(mul, map(itemgetter(index[mu]), columns), map(itemgetter(index[nu]), columns))
    e = o = 0
    for ab, s, column, sign in zip(chi, scales, packed, odd):
        if ab:
            if sign:
                o += ab * s * column
            else:
                e += ab * s * column
    data = (e + o + bias).to_bytes(size, "little") + (e - o + bias).to_bytes(size, "little")
    g = list(map(slots.__getitem__, map(data.__getitem__, cuts)))
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
