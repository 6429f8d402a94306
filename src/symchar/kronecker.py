"""Inner (Kronecker) product on symmetric functions.

The character table of S_n is built column by column from the power sums
p_rho = sum_lam chi^lam(rho) s_lam, each column holding chi^lam(rho) only for
the representatives lam >= lam' of the conjugate pairs, as chi^lam'(rho) =
sgn(rho) chi^lam(rho) (omega being the antipode up to sign).  A column is the
column of sigma, rho with its largest part r removed, times p_r: on bead
bitmasks (m beads for a partition of m, bead i at lam_i + m - 1 - i), p_r moves
one bead up by r onto an empty position, with sign (-1)^(beads jumped), so each
representative of m + r gathers its sources from the column of sigma, a source
that is no representative reading its representative's entry times sgn(sigma).
The column of sigma |- m does not depend on the n it is a suffix at, so it is
built once per process, and the moves of size r onto each representative of
m + r once per (m, r), for sigma of either sign.  Per-degree Kronecker
coefficients are the character triple sum
g^lam_{mu,nu} = sum_rho chi^lam(rho) chi^mu(rho) chi^nu(rho) / z_rho,
taken over the classes where chi^mu chi^nu is nonzero, as a packed-column
matrix-vector product: a column is also one big integer, already times den / z_rho,
holding chi^lam(rho) in a w-byte slot per representative, so sums E over the even
classes and O over the odd ones cost one multiply-add by chi^mu chi^nu per class,
and every den * g^lam is read back from the bytes of E + O and E - O, each
distinct slot decoded once per n.  No slot can overflow: g is symmetric in lam,
mu, nu and sum_lam g^lam_{mu,nu} f^lam = f^mu f^nu, so 0 <= g^lam_{mu,nu} <= f^lam <= max f.
"""

from __future__ import annotations

import math
from functools import cache, partial, reduce
from itertools import compress, zip_longest
from operator import add, itemgetter, neg

from .partitions import Partition, conjugate, make_partition, partitions_of, weight, z_and_n
from .schur import SymFunc, TensorSymFunc, _bilinear, linear


@cache
def _reps(m: int) -> tuple[int, dict[Partition, tuple[int, int]], dict[int, tuple[int, int]]]:
    """(h, where, beads) at level m.  where[lam] = (k, flip) for lam |- m, in the
    decreasing partitions_of(m) order, where each representative lam >= lam' comes
    before its conjugate: k indexes max(lam, lam') among the h representatives and
    flip = 1 if lam is not one.  beads keys the same values by the bitmask of lam
    on m beads (bead i at lam_i + m - 1 - i)."""
    reps: dict[Partition, int] = {}
    where = {lam: (reps.setdefault(max(lam, conjugate(lam)), len(reps)), int(lam < conjugate(lam)))
             for lam in partitions_of(m)}
    beads = {sum(1 << (p + m - 1 - i) for i, p in enumerate(lam)) + (1 << (m - len(lam))) - 1: v
             for lam, v in where.items()}
    return len(reps), where, beads


@cache
def _moves(m: int, r: int) -> list[itemgetter]:
    """p_r from level m to level m + r as gathers: the t-th gets, from the four blocks
    (c, -c, sgn(sigma) c, -sgn(sigma) c) of the column c of a sigma |- m, the t-th
    signed source of each representative kappa |- m + r (the trailing 0 if none),
    then the trailing 0 itself.  A source is a bead b >= r of kappa's mask M on
    m + r beads with b - r empty: its mask on m beads is (M ^ b ^ (b - r)) >> r and
    its sign the parity of the beads strictly between; a source that is not a
    representative reads its representative's entry in the sgn(sigma) blocks."""
    h, _, down = _reps(m)
    sources: list[list[int]] = []
    for mask, (_, flip) in _reps(m + r)[2].items():
        if flip:
            continue
        sources.append([])
        movable = mask >> r & ~mask  # b - r for each bead b >= r with b - r empty
        while movable:
            low = movable & -movable
            movable ^= low
            high = low << r
            k, conjugated = down[(mask ^ low ^ high) >> r]
            parity = (mask & (high - (low << 1))).bit_count() & 1
            sources[-1].append(k + (parity + 2 * conjugated) * (h + 1))
    return [itemgetter(*t, h) for t in zip_longest(*sources, fillvalue=h)]


@cache
def _column(rho: Partition) -> tuple[int, ...]:
    """p_rho = (chi^lam(rho) for the representatives lam of |rho|), then a trailing 0:
    the column c of sigma = rho without its largest part r, as the four blocks
    (c, -c, sgn(sigma) c, -sgn(sigma) c), gathered by the moves of p_r."""
    if not rho:
        return (1, 0)
    sigma = rho[1:]
    col, m = _column(sigma), weight(sigma)
    signed = col + tuple(map(neg, col))
    signed += signed[len(col):] + col if (m - len(sigma)) & 1 else signed
    return tuple(reduce(partial(map, add), [t(signed) for t in _moves(m, rho[0])]))


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
    """(sides, size, bias, cuts, where, slots) for S_n.

    sides = (even, odd), each (columns, scaled) over the classes rho of that sign in
    partitions_of(n) order: columns[j] is the cached _column of rho_j, and scaled[j] =
    den // z_rho_j * sum_k columns[j][k] 2^(8wk) over its h + 1 entries, den = lcm z_rho
    and w the fewest bytes with den * max f < 2^(8w - 2), as f^lam' = f^lam.  Summed
    times chi^mu chi^nu over the even classes into E and the odd ones into O, E + O
    holds den * g^lam and E - O den * g^lam' in the slot of rep lam (O is 0 there if
    lam = lam'), each in [0, den * max f] as in the full sum; bias, 2^(8w - 1) in each
    of the h + 1 slots, keeps every slot of either in [0, 2^(8w)), so none borrows.
    cuts[i] is the slot of partitions_of(n)[i] in the size bytes of E + O + bias
    followed by those of E - O + bias.  Each distinct value becomes slot bytes once;
    slots reads each slot back once."""
    labels = partitions_of(n)
    h, where, _ = _reps(n)
    columns = tuple(map(_column, labels))
    zs = [z_and_n(rho)[0] for rho in labels]
    den = math.lcm(*zs)
    w = ((den * max(columns[-1])).bit_length() + 9) // 8  # columns[-1]: rho = (1^n)
    half, size = 1 << (8 * w - 1), w * (h + 1)
    bias = int.from_bytes(half.to_bytes(w, "little") * (h + 1), "little")
    slot = cache(lambda v: (half + v).to_bytes(w, "little"))
    sides: tuple = (([], []), ([], []))
    for rho, z, column in zip(labels, zs, columns):
        kept, scaled = sides[(n - len(rho)) & 1]
        kept.append(column)
        scaled.append(den // z * (int.from_bytes(b"".join(map(slot, column)), "little") - bias))
    starts = [w * k + size * flip for k, flip in map(where.get, labels)]
    return sides, size, bias, tuple(slice(s, s + w) for s in starts), where, _Slots(half, den)


def character(lam: Partition, rho: Partition) -> int:
    """Irreducible symmetric-group character chi^lam(rho), |lam| = |rho|, read from
    the cached column p_rho at lam's representative, times sgn(rho) if lam is not
    one (no table is built)."""
    lam, rho = make_partition(lam), make_partition(sorted(rho, reverse=True))
    n = weight(lam)
    if n != weight(rho):
        raise ValueError(
            f"weight mismatch: |{lam}| = {n} but |{rho}| = {weight(rho)}"
        )
    k, flip = _reps(n)[1][lam]
    return -_column(rho)[k] if flip and (n - len(rho)) & 1 else _column(rho)[k]


def character_table(n: int) -> dict[tuple[Partition, Partition], int]:
    """Full character table of the symmetric group on n letters ({} for n < 0), by `character`."""
    labels = partitions_of(n)
    return {(lam, rho): character(lam, rho) for lam in labels for rho in labels}


def kronecker_basis(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """Expansion of s_mu * s_nu; zero unless |mu| = |nu|.  Not memoized: each call
    returns a fresh dict, and the `inner` stage keeps the products it re-reads.
    chi^mu chi^nu is read from the representatives' entries of each class column,
    and each class where it is nonzero adds it times its pre-scaled packed column
    into E or O by its parity; if exactly one of mu, nu is not a representative,
    sgn(rho) flips that product, so O is negated.  E + O then holds
    den * g^lam_{mu,nu} in the slot of each rep lam and E - O den * g^lam'; the
    slots are read back in partitions_of(n) order (see _table)."""
    n = weight(mu)
    if n != weight(nu):
        return {}
    sides, size, bias, cuts, where, slots = _table(n)
    (a, flip), (b, other) = where[mu], where[nu]
    sums = []
    for columns, scaled in sides:
        acc = 0
        for column, packed in zip(columns, scaled):
            ab = column[a] * column[b]
            if ab:
                acc += ab * packed
        sums.append(acc)
    e, o = sums[0], sums[1] if flip == other else -sums[1]
    data = (e + o + bias).to_bytes(size, "little") + (e - o + bias).to_bytes(size, "little")
    g = list(map(slots.__getitem__, map(data.__getitem__, cuts)))
    return dict(compress(zip(partitions_of(n), g), g))


def inner_mul(f: SymFunc, g: SymFunc) -> SymFunc:
    return _bilinear(f, g, kronecker_basis)


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
