"""Text and JSON formats for symmetric functions and character labels."""

from __future__ import annotations

import re
from functools import cache

from .partitions import Partition, bounded, format_partition, parse_partition, term_order
from .schur import SymFunc, TensorSymFunc, signed_sum

_TERM_RE = re.compile(r"\s*([+-])?\s*(?:([0-9]+)\s*\*?\s*)?s\[([^\]]*)\]")

BRACKETS = {
    "gl": ("{", "}"),
    "o": ("[", "]"),
    "sp": ("<", ">"),
    "thibon": ("<<", ">>"),
    "reduced": ("<", ">"),
}


def parse_symfunc(text: str, max_weight: int | None = None) -> SymFunc:
    """Parse e.g. "s[2] + s[1,1] - 3*s[3]"; a bare partition is one basis term.  Every
    term after the first needs its sign: "s[2] s[1]" is an error, not a sum.  Labels
    are read by `parse_partition` under max_weight."""
    text = text.strip()
    if not text:
        raise ValueError("empty symmetric-function expression")
    if "s[" not in text:
        return SymFunc.basis(parse_partition(text, max_weight))
    out = SymFunc.zero()
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or (pos and not m.group(1)):
            raise ValueError(f"cannot parse symmetric function at: {text[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) else 1
        lam = parse_partition(m.group(3), max_weight)
        out.add(SymFunc.basis(lam), sign * coeff)
        pos = m.end()
    return out


def pair_sorted(keys) -> list[tuple[Partition, Partition]]:
    """Sym (x) Sym keys sorted by term_order of the first leg, then of the second;
    each distinct leg's term_order is built once per sort, since legs recur."""
    order = cache(term_order)
    return sorted(keys, key=lambda key: (order(key[0]), order(key[1])))


def format_symfunc(f: SymFunc, kind: str = "gl") -> str:
    lo, hi = BRACKETS.get(kind, ("s[", "]"))
    return signed_sum(
        (f.terms[lam], f"{lo}{format_partition(lam)}{hi}")
        for lam in sorted(f.terms, key=term_order)
    )


def symfunc_json(f: SymFunc, kind: str) -> dict:
    terms = [
        {"label": {"kind": kind, "partition": list(lam)}, "coeff": f.terms[lam]}
        for lam in sorted(f.terms, key=term_order)
    ]
    return {"terms": terms, "meta": {"cap": None}}


def parse_rational_label(text: str, max_weight: int | None = None) -> tuple[Partition, Partition]:
    """Parse "kappa;lam" rational-character labels, e.g. "1;1" or "2,1;0", each leg
    by `parse_partition` under max_weight, then the pair's |kappa| + |lam| under it."""
    if ";" not in text:
        raise ValueError(f"rational label needs a ';': {text!r}")
    co, _, contra = text.partition(";")
    kappa, lam = parse_partition(co, max_weight), parse_partition(contra, max_weight)
    bounded(sum(kappa) + sum(lam), max_weight)
    return kappa, lam


def format_rational(x: TensorSymFunc) -> str:
    return signed_sum(
        (x.terms[key], f"{{{format_partition(key[0])};{format_partition(key[1])}~}}")
        for key in pair_sorted(x.terms)
    )


def rational_json(x: TensorSymFunc) -> dict:
    terms = [
        {
            "label": {"kind": "rational", "partition": list(lam), "contra": list(mu)},
            "coeff": x.terms[(lam, mu)],
        }
        for (lam, mu) in pair_sorted(x.terms)
    ]
    return {"terms": terms, "meta": {"cap": None}}
