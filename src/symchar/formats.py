"""Text and JSON formats for symmetric functions and character labels."""

from __future__ import annotations

import re

from .partitions import Partition, format_partition, parse_partition, term_order
from .schur import SymFunc, TensorSymFunc, signed_sum

_TERM_RE = re.compile(r"\s*([+-])?\s*(?:(\d+)\s*\*?\s*)?s\[([^\]]*)\]")

BRACKETS = {
    "gl": ("{", "}"),
    "o": ("[", "]"),
    "sp": ("<", ">"),
    "thibon": ("<<", ">>"),
    "reduced": ("<", ">"),
}


def parse_symfunc(text: str) -> SymFunc:
    """Parse e.g. "s[2] + s[1,1] - 3*s[3]"; a bare partition is one basis term."""
    text = text.strip()
    if not text:
        raise ValueError("empty symmetric-function expression")
    if "s[" not in text:
        return SymFunc.basis(parse_partition(text))
    out = SymFunc.zero()
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse symmetric function at: {text[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) else 1
        lam = parse_partition(m.group(3))
        out.add(SymFunc.basis(lam), sign * coeff)
        pos = m.end()
    return out


def pair_order(key: tuple[Partition, Partition]):
    """Sort key on Sym (x) Sym: term_order of the first leg, then of the second."""
    return term_order(key[0]), term_order(key[1])


def format_symfunc(f: SymFunc, kind: str = "gl") -> str:
    lo, hi = BRACKETS.get(kind, ("s[", "]"))
    return signed_sum(
        (f.terms[lam], f"{lo}{format_partition(lam)}{hi}")
        for lam in sorted(f.terms, key=term_order)
    )


def symfunc_json(f: SymFunc, kind: str, cap: int | None = None) -> dict:
    terms = [
        {"label": {"kind": kind, "partition": list(lam)}, "coeff": f.terms[lam]}
        for lam in sorted(f.terms, key=term_order)
    ]
    return {"terms": terms, "meta": {"cap": cap}}


def parse_rational_label(text: str) -> tuple[Partition, Partition]:
    """Parse "kappa;lam" rational-character labels, e.g. "1;1" or "2,1;0"."""
    if ";" not in text:
        raise ValueError(f"rational label needs a ';': {text!r}")
    co, _, contra = text.partition(";")
    return parse_partition(co), parse_partition(contra)


def format_rational(x: TensorSymFunc) -> str:
    return signed_sum(
        (x.terms[key], f"{{{format_partition(key[0])};{format_partition(key[1])}~}}")
        for key in sorted(x.terms, key=pair_order)
    )


def rational_json(x: TensorSymFunc) -> dict:
    terms = [
        {
            "label": {"kind": "rational", "partition": list(lam), "contra": list(mu)},
            "coeff": x.terms[(lam, mu)],
        }
        for (lam, mu) in sorted(x.terms, key=pair_order)
    ]
    return {"terms": terms, "meta": {"cap": None}}
