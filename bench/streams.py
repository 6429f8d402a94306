"""Seeded query streams, one per workload.

A stream is a list of queries ``{"op": name, "args": [...]}`` with
partitions as lists.  It is built in rounds: each round holds the same mix
of operations and label weights, shuffled, so that runs with different
seeds do the same kind of work and differ only in which labels they ask
about.  A run asks for a fixed number of queries (run.py), so the stream is
as long as that and no longer.

Why each workload exists (with py3.11 on one core, a query takes about
1-50 ms, a CLI call about 0.15 s):

- kronecker: ``inner_mul`` on random same-weight pairs, n in 10..16 in random
  order.  The S_n character tables and the Kronecker triple sum carry it; no
  LR work.  Control for LR and hash changes.
- outer: outer products, coproducts, branchings, rational GL products and GL
  dimensions.  The LR coefficient kernel carries it; no character tables.
  Control for Kronecker changes.
- hash: Newell-Littlewood, Thibon and Murnaghan-Littlewood products on labels
  of weight 3..7.  The hash evaluator, pairings and cochains carry it, with
  the LR and Kronecker layers mostly warm.
- cli: cold ``python -m symchar.cli`` processes covering every subcommand at
  weight <= 6, text and JSON.  The only workload with the import, argparse and
  formatting costs of a cold process.
"""

from __future__ import annotations

import random

from combin import partitions

WORKLOADS = ("kronecker", "outer", "hash", "cli")

BRANCH_RULES = ("gl_to_o", "gl_to_sp", "gl_to_glm1")
HASH_OPS = ("newell_littlewood", "thibon_inner", "murnaghan_littlewood")
ALL_BRANCH_RULES = ("gl_to_o", "o_to_gl", "gl_to_sp", "sp_to_gl", "gl_to_glm1", "glm1_to_gl")
DECOMPOSE_PRODUCTS = (
    "outer", "kronecker", "newell-littlewood-o", "newell-littlewood-sp",
    "thibon", "reduced", "rational",
)
CHECKS = (
    ("laplace", "inner", 4), ("frobenius", "inner", 3), ("cocycle2", "inner", 3),
    ("alghom", "id", 4), ("alghom", "antipode", 4), ("alghom", "e", 4), ("alghom", "m", 4),
    ("laplace", "derived:m:inner", 3),
)


def _label(rng: random.Random, lo: int, hi: int) -> list[int]:
    return list(rng.choice(partitions(rng.randint(lo, hi))))


def _text(lam) -> str:
    return ",".join(map(str, lam)) if lam else "0"


def _rational_label(rng: random.Random, max_biweight: int) -> list[list[int]]:
    total = rng.randint(1, max_biweight)
    co = rng.randint(0, total)
    return [list(rng.choice(partitions(co))), list(rng.choice(partitions(total - co)))]


class _Deck:
    """Cards in seeded random order: each is dealt once before any is dealt
    again, so that every run of a stream gets about the same mix of them."""

    def __init__(self, rng: random.Random, cards) -> None:
        self.rng, self.all, self.cards = rng, list(cards), []

    def deal(self):
        if not self.cards:
            self.cards = list(self.all)
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def _deal(decks: dict, rng: random.Random, key, cards):
    """Deal from the deck ``key`` of ``decks``, made from ``cards`` on first use."""
    if key not in decks:
        decks[key] = _Deck(rng, cards)
    return decks[key].deal()


def _kronecker_round(rng, _decks):
    ns = list(range(10, 17))
    rng.shuffle(ns)
    return [{"op": "inner_mul", "args": [_label(rng, n, n), _label(rng, n, n)]} for n in ns]


def _outer_round(rng, _decks):
    """Every weight pair of the outer products once, two coproducts, one
    query per branching rule, four rational products and four dimensions.

    Outer products get most of the time because coproducts and branchings
    fill the LR cache about three times as fast per second; this mix keeps a
    run's LR cache near 500k entries, between two sizes at which the cache's
    dict doubles, so peak RSS does not jump between runs."""
    qs = [
        {"op": "outer_mul", "args": [_label(rng, a, a), _label(rng, b, b)]}
        for a in range(8, 14)
        for b in range(8, 14)
    ]
    qs += [{"op": "coproduct_basis", "args": [_label(rng, 10, 14)]} for _ in range(2)]
    qs += [{"op": "branch", "args": [rule, _label(rng, 12, 16)]} for rule in BRANCH_RULES]
    for _ in range(4):
        qs.append({"op": "rational_mul", "args": _rational_label(rng, 5) + _rational_label(rng, 5)})
        lam = _label(rng, 1, 7)
        qs.append({"op": "dimension_gl", "args": [lam, rng.randint(len(lam), 7)]})
    rng.shuffle(qs)
    return qs


def _hash_round(rng, decks):
    """Every pair of label weights once per product; 8 of each product's 25
    left factors are two-term sums.

    Labels, the weight pairs that get a second left term and that term's
    weight are dealt from decks (one per product and role), so every stream
    asks about each of them about as often as any other: the cost of a query
    varies several-fold with its labels, and drawing them independently made
    the work of a run depend on the seed."""
    def deal(*key, cards):
        return _deal(decks, rng, key, cards)

    qs = []
    for op in HASH_OPS:
        pairs = [(a, b) for a in range(3, 8) for b in range(3, 8)]
        two_term: set[int] = set()
        while len(two_term) < 8:
            two_term.add(deal(op, "two_term", cards=range(len(pairs))))
        for i, (a, b) in enumerate(pairs):
            left = [list(deal(op, 0, a, cards=partitions(a)))]
            if i in two_term:
                w = deal(op, "other", cards=range(3, 8))
                other = list(deal(op, 2, w, cards=partitions(w)))
                if other != left[0]:
                    left.append(other)
            qs.append({"op": op, "args": [left, [list(deal(op, 1, b, cards=partitions(b)))]]})
    rng.shuffle(qs)
    return qs


def _cli_round(rng, decks):
    """Every subcommand once (decompose once per product).  Labels are drawn
    at random; every other choice (rule, letter, check, spec, law, cap,
    degree, ``--json`` or not) is dealt from a deck of its own, as call times
    differ by up to two-fold with them."""
    def deal(key, cards):
        return _deal(decks, rng, key, cards)

    def json_flag():
        return ["--json"] if deal("json", (True, False)) else []

    argvs = []
    for product in DECOMPOSE_PRODUCTS:
        if product == "rational":
            lhs, rhs = (";".join(map(_text, _rational_label(rng, 4))) for _ in range(2))
        elif product == "kronecker":
            n = deal("kronecker_n", range(1, 7))
            lhs, rhs = _text(_label(rng, n, n)), _text(_label(rng, n, n))
        else:
            lhs, rhs = _text(_label(rng, 1, 3)), _text(_label(rng, 1, 3))
        argvs.append(["decompose", "--product", product, lhs, rhs] + json_flag())
    argvs.append(["branch", deal("rule", ALL_BRANCH_RULES), _text(_label(rng, 1, 6))] + json_flag())
    argvs.append(["series", deal("letter", "MLABCD"), "--cap", str(deal("series_cap", range(0, 7)))] + json_flag())
    prop, name, top = deal("check", CHECKS)
    argvs.append(["check", prop, name, "--max-degree", str(deal(("degree", prop, name), range(2, top + 1)))])
    spec = deal("spec", ("trivial", "thibon", "newell-littlewood", "murnaghan-littlewood"))
    argvs.append(["hash", "--spec", spec, _text(_label(rng, 1, 3)), _text(_label(rng, 1, 3))] + json_flag())
    argvs.append(["vertex", "schur", _text(_label(rng, 1, 6))])
    argvs.append(["vertex", "check-commutation", "--cap", str(deal("vertex_cap", range(2, 5)))])
    argvs.append(["fgl", "loop", deal("loop_law", ("ga", "gm", "gm:2")), str(deal("loop_n", range(1, 6))),
                  "--cap", str(deal("loop_cap", range(3, 7)))])
    argvs.append(["fgl", "log", deal("log_law", ("ga", "gm", "gm:2")), "--cap", str(deal("log_cap", range(3, 7)))])
    argvs.append(["fgl", "coproduct", deal("fgl_kind", ("additive", "multiplicative")), _text(_label(rng, 1, 4))])
    argvs.append(["table", str(deal("table_n", range(1, 7)))] + json_flag())
    rng.shuffle(argvs)
    return [{"op": "cli", "args": argv} for argv in argvs]


_ROUND = {"kronecker": _kronecker_round, "outer": _outer_round, "hash": _hash_round, "cli": _cli_round}


def make_stream(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` queries of a workload's stream; the same seed gives
    the same stream, and a shorter stream is a prefix of a longer one."""
    rng = random.Random(f"{workload}:{seed}")
    make_round = _ROUND[workload]
    decks: dict = {}
    out: list[dict] = []
    while len(out) < count:
        out.extend(make_round(rng, decks))
    return out[:count]
