"""Integer partition arithmetic.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the zero partition.  Caches store each through `canonical`.
"""

from __future__ import annotations

import math
import sys
from functools import cache

Partition = tuple[int, ...]

CANONICAL: dict[Partition, Partition] = {(): ()}


class ResourceError(Exception):
    """A request above a configured resource bound."""


def canonical(lam: Partition) -> Partition:
    """The one tuple equal to lam that caches store; only results go in."""
    return CANONICAL.setdefault(lam, lam)


def make_partition(parts) -> Partition:
    """The tuple of ints that parts equals once trailing zeros are stripped: the stored
    one when `canonical` holds it, else one sorted copy of int parts; ValueError unless
    that copy equals the label and its parts are positive."""
    lam = tuple(parts)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    known = CANONICAL.get(lam)
    if known is not None:
        return known
    out = tuple(sorted(map(int, lam), reverse=True))
    if out != lam or out[-1] < 1:
        raise ValueError(f"not a partition: {lam!r}")
    return out


def weight(lam: Partition) -> int:
    return sum(lam)


@cache
def conjugate(lam: Partition) -> Partition:
    """Columns lam_{i+1} + 1 .. lam_i have height i (rows from 1, lam_{l+1} = 0)."""
    out: list[int] = []
    below = 0
    for height in range(len(lam), 0, -1):
        out += [height] * (lam[height - 1] - below)
        below = lam[height - 1]
    return canonical(tuple(out))


def z_and_n(lam: Partition) -> tuple[int, int]:
    """Return (z_lambda, n(lambda)).

    z_lambda = prod_i i^{m_i} m_i! over part multiplicities m_i;
    n(lambda) = sum_i (i-1) lambda_i.
    """
    z = 1
    mult: dict[int, int] = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        z *= p**m * math.factorial(m)
    n = sum(i * p for i, p in enumerate(lam))
    return z, n


def frobenius(lam: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Frobenius form (arms, legs): a_k = lam_k - k, b_k = lam'_k - k (0-based cells on the diagonal)."""
    conj = conjugate(lam)
    r = sum(1 for k in range(len(lam)) if lam[k] >= k + 1)
    arms = tuple(lam[k] - (k + 1) for k in range(r))
    legs = tuple(conj[k] - (k + 1) for k in range(r))
    return arms, legs


def from_frobenius(arms: tuple[int, ...], legs: tuple[int, ...]) -> Partition:
    arms, legs = tuple(arms), tuple(legs)
    if len(arms) != len(legs):
        raise ValueError("arms and legs must have equal length")
    for seq in (arms, legs):
        if any(s < 0 for s in seq) or any(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError("arms and legs must be strictly decreasing and non-negative")
    r = len(arms)
    # Below the diagonal the rows are the conjugate of the columns legs_k + k + 1.
    cols = tuple(legs[k] + k + 1 for k in range(r))
    return make_partition([arms[k] + k + 1 for k in range(r)] + list(conjugate(cols)[r:]))


def in_class(lam: Partition, cls: str) -> bool:
    """Membership in the partition classes P, A, B, C, D, E.

    D: all parts even; B: conjugate in D; A/C/E: all Frobenius arm-leg
    differences equal -1 / +1 / 0 (E = self-conjugate).
    """
    if cls == "P":
        return True
    if cls == "D":
        return all(p % 2 == 0 for p in lam)
    if cls == "B":
        return in_class(conjugate(lam), "D")
    if cls in ("A", "C", "E"):
        target = {"A": -1, "C": 1, "E": 0}[cls]
        arms, legs = frobenius(lam)
        return all(a - b == target for a, b in zip(arms, legs))
    raise ValueError(f"unknown partition class {cls!r}")


def standardize(comp) -> tuple[int, Partition]:
    """Standardize a composition with raising operators.

    R_{i,i+1}[..., t_i, t_{i+1}, ...] = -[..., t_{i+1}-1, t_i+1, ...] swaps
    beta_i = t_i - i with beta_{i+1}, so straightening sorts beta decreasing
    with sign (-1)^(inversions of beta): the Jacobi-Trudi row swap (Macdonald
    I.3).  Returns (sign, partition); sign 0 when two beta agree (the fixed
    point t_{i+1} = t_i + 1, where R(T) = -T) or a negative part survives.
    """
    beta = [int(t) - i for i, t in enumerate(comp)]
    if len(set(beta)) < len(beta):
        return 0, ()
    # Sorted beta strictly decreases, so the parts weakly decrease: zeros, then negatives, last.
    parts = [b + i for i, b in enumerate(sorted(beta, reverse=True))]
    if parts and parts[-1] < 0:
        return 0, ()
    inversions = sum(b < c for i, b in enumerate(beta) for c in beta[i + 1:])
    return (-1) ** inversions, tuple(p for p in parts if p)


def hooks_and_contents(lam: Partition) -> list[tuple[tuple[int, int], int, int]]:
    """Per-cell ((row, col) 1-based, content j-i, hook lam_i + lam'_j - i - j + 1)."""
    conj = conjugate(lam)
    out = []
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            out.append(((i, j), j - i, row + conj[j - 1] - i - j + 1))
    return out


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lex order: each first part, from n down to 1,
    followed by every partition of the rest whose first part is no larger."""
    if n <= 0:
        return ((),) if n == 0 else ()
    return tuple(
        canonical((first,) + rest)
        for first in range(n, 0, -1)
        for rest in partitions_of(n - first)
        if rest[:1] <= (first,)
    )


def partitions_up_to(n: int) -> list[Partition]:
    out: list[Partition] = []
    for d in range(n + 1):
        out.extend(partitions_of(d))
    return out


def contains(lam: Partition, mu: Partition) -> bool:
    """Diagram containment mu subset-of lam."""
    if len(mu) > len(lam):
        return False
    return all(lam[i] >= mu[i] for i in range(len(mu)))


def parse_partition(text: str, max_weight: int | None = None) -> Partition:
    """Parse "4,2,2,1", "0"/"" (empty), or exponent form "[1,2^2,4]".  An exponent-form
    weight above max_weight raises ResourceError before any part is expanded, and
    zero parts never expand."""
    text = text.strip()
    if text in ("", "0", "()", "[]"):
        return ()
    if not (text.startswith("[") and text.endswith("]")):
        return make_partition(int(tok) for tok in text.split(","))
    runs: list[tuple[int, int]] = []  # (part, count), parts nonzero
    for tok in filter(None, map(str.strip, text[1:-1].split(","))):
        base, caret, exp = tok.partition("^")
        part, count = int(base), int(exp) if caret else 1
        if not 0 <= count <= sys.maxsize:  # else [part] * count drops parts or overflows
            raise ValueError(f"exponent out of range in {tok!r}")
        if part < 0 < count:
            raise ValueError(f"not a partition: {text!r}")
        if part:
            runs.append((part, count))
    total = sum(part * count for part, count in runs)
    if max_weight is not None and total > max_weight:
        raise ResourceError(f"input weight {total} exceeds the configured maximum {max_weight}")
    return make_partition(sorted((p for part, count in runs for p in [part] * count), reverse=True))


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "0"


def term_order(lam: Partition):
    """Sort key: by weight, then reverse-lex within a weight."""
    return (weight(lam), tuple(-p for p in lam))
