"""Output checks: identities that hold for any query, whatever the seed.

Outputs arrive in canonical form: a Schur combination is a dict
``{partition: coeff}``; a tensor (coproduct, rational character) is a dict
``{(left, right): coeff}``.  Dimension counts (SYT, GL(d)) come from
combin.py.  The closed formulas of the named hash products and the
contraction form of the rational GL product are carried here; they compose
symchar's LR and Kronecker primitives but none of its product code.  Checks
that recompute through symchar run after the timed stream, so they do not
warm the caches the stream is measured with.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

from combin import (
    cycle_character,
    fgl_log,
    fgl_loop,
    gl_dimension,
    partitions,
    series_term,
    syt_count,
    z_lambda,
)

INVERSE_RULE = {
    "gl_to_o": "o_to_gl", "o_to_gl": "gl_to_o", "gl_to_sp": "sp_to_gl",
    "sp_to_gl": "gl_to_sp", "gl_to_glm1": "glm1_to_gl", "glm1_to_gl": "gl_to_glm1",
}


def _add(out: dict, terms: dict) -> None:
    for k, v in terms.items():
        out[k] = out.get(k, 0) + v


def _clean(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v}


# -- identities on single products --------------------------------------------

def check_outer(mu, nu, out: dict) -> bool:
    """c^lam_{mu nu} >= 0 of weight |mu|+|nu|; SYT and GL(d) dimensions multiply."""
    m, n = sum(mu), sum(nu)
    if any(sum(lam) != m + n or c <= 0 for lam, c in out.items()):
        return False
    if sum(c * syt_count(lam) for lam, c in out.items()) != comb(m + n, m) * syt_count(mu) * syt_count(nu):
        return False
    return all(
        sum(c * gl_dimension(lam, d) for lam, c in out.items()) == gl_dimension(mu, d) * gl_dimension(nu, d)
        for d in (2, 3, 5)
    )


def check_kronecker(mu, nu, out: dict) -> bool:
    """g >= 0 of weight n; sum g f^lam = f^mu f^nu; the n-cycle character multiplies."""
    n = sum(mu)
    if any(sum(lam) != n or c <= 0 for lam, c in out.items()):
        return False
    if sum(c * syt_count(lam) for lam, c in out.items()) != syt_count(mu) * syt_count(nu):
        return False
    return sum(c * cycle_character(lam) for lam, c in out.items()) == cycle_character(mu) * cycle_character(nu)


def check_coproduct(lam, out: dict) -> bool:
    """Delta s_lam: per left degree k, sum c f^a f^b = f^lam; and
    sum c dim_p(a) dim_q(b) = dim_{p+q}(lam)."""
    n = sum(lam)
    by_degree: dict[int, int] = {}
    for (a, b), c in out.items():
        if c <= 0 or sum(a) + sum(b) != n:
            return False
        by_degree[sum(a)] = by_degree.get(sum(a), 0) + c * syt_count(a) * syt_count(b)
    if by_degree != {k: syt_count(lam) for k in range(n + 1)}:
        return False
    return all(
        sum(c * gl_dimension(a, p) * gl_dimension(b, q) for (a, b), c in out.items()) == gl_dimension(lam, p + q)
        for p, q in ((1, 2), (2, 3))
    )


def check_multiplicative_coproduct(lam, out: dict) -> bool:
    """Alphabet X + Y + XY: sum c dim_p(a) dim_q(b) = dim_{p+q+pq}(lam)."""
    return all(
        sum(c * gl_dimension(a, p) * gl_dimension(b, q) for (a, b), c in out.items())
        == gl_dimension(lam, p + q + p * q)
        for p, q in ((1, 1), (1, 2), (2, 2))
    )


def check_glm1_branch(lam, out: dict) -> bool:
    """GL(d) -> GL(d-1): dim_d(lam) = sum c dim_{d-1}(mu)."""
    return all(
        sum(c * gl_dimension(mu, d - 1) for mu, c in out.items()) == gl_dimension(lam, d)
        for d in (len(lam) + 1, len(lam) + 3)
    )


def branch_round_trip(rule: str, lam, out: dict) -> bool:
    """The series of a rule and of its inverse are mutually inverse skews."""
    from symchar.characters import branch
    from symchar.schur import SymFunc

    return branch(SymFunc(dict(out)), INVERSE_RULE[rule]).terms == {tuple(lam): 1}


# -- closed formulas ------------------------------------------------------------

def _weight(x: dict) -> int:
    return max((sum(lam) for lam in x), default=0)


def newell_littlewood_formula(x: dict, y: dict) -> dict:
    """[mu][nu] = sum_zeta (mu/zeta)(nu/zeta)."""
    from symchar.schur import SymFunc, outer_mul, skew

    X, Y = SymFunc(dict(x)), SymFunc(dict(y))
    out: dict = {}
    for w in range(min(_weight(x), _weight(y)) + 1):
        for zeta in partitions(w):
            z = SymFunc.basis(zeta)
            a, b = skew(X, z), skew(Y, z)
            if a and b:
                _add(out, outer_mul(a, b).terms)
    return _clean(out)


def thibon_formula(x: dict, y: dict) -> dict:
    """<<mu>>*<<nu>> = sum over |sigma| = |tau| of (sigma * tau)(mu/sigma)(nu/tau)."""
    from symchar.kronecker import kronecker_basis
    from symchar.schur import SymFunc, outer_mul, skew

    X, Y = SymFunc(dict(x)), SymFunc(dict(y))
    out: dict = {}
    for w in range(min(_weight(x), _weight(y)) + 1):
        for sigma in partitions(w):
            a = skew(X, SymFunc.basis(sigma))
            if not a:
                continue
            for tau in partitions(w):
                b = skew(Y, SymFunc.basis(tau))
                if b:
                    core = SymFunc(dict(kronecker_basis(sigma, tau)))
                    _add(out, outer_mul(core, outer_mul(a, b)).terms)
    return _clean(out)


def murnaghan_littlewood_formula(x: dict, y: dict) -> dict:
    """<mu>*<nu> = sum over zeta and |alpha| = |beta| of
    (alpha * beta)(mu/(alpha zeta))(nu/(beta zeta))."""
    from symchar.kronecker import kronecker_basis
    from symchar.schur import SymFunc, outer_mul, skew

    X, Y = SymFunc(dict(x)), SymFunc(dict(y))
    cap = min(_weight(x), _weight(y))
    out: dict = {}
    for w in range(cap + 1):
        for zw in range(cap - w + 1):
            for zeta in partitions(zw):
                z = SymFunc.basis(zeta)
                xz, yz = skew(X, z), skew(Y, z)
                if not (xz and yz):
                    continue
                for alpha in partitions(w):
                    a = skew(xz, SymFunc.basis(alpha))
                    if not a:
                        continue
                    for beta in partitions(w):
                        b = skew(yz, SymFunc.basis(beta))
                        if b:
                            core = SymFunc(dict(kronecker_basis(alpha, beta)))
                            _add(out, outer_mul(core, outer_mul(a, b)).terms)
    return _clean(out)


def rational_contraction(x: dict, y: dict) -> dict:
    """{kappa;lam}{mu;nu} as a hash on Sym (x) Sym with the contraction
    pairing <k1|n1><l1|m1>: sum (k2 m2) (x) (l2 n2)."""
    from symchar.schur import coproduct_basis, product_basis

    out: dict = {}
    for (kappa, lam), cx in x.items():
        for (mu, nu), cy in y.items():
            nsplit = coproduct_basis(nu)
            msplit = coproduct_basis(mu)
            for (k1, k2), ck in coproduct_basis(kappa).items():
                for (l1, l2), cl in coproduct_basis(lam).items():
                    for (m1, m2), cm in msplit.items():
                        if m1 != l1:
                            continue
                        for (n1, n2), cn in nsplit.items():
                            if n1 != k1:
                                continue
                            coeff = cx * cy * ck * cl * cm * cn
                            for a, ca in product_basis(k2, m2).items():
                                for b, cb in product_basis(l2, n2).items():
                                    out[(a, b)] = out.get((a, b), 0) + coeff * ca * cb
    return _clean(out)


FORMULAS = {
    "newell_littlewood": newell_littlewood_formula,
    "thibon_inner": thibon_formula,
    "murnaghan_littlewood": murnaghan_littlewood_formula,
}


def label_terms(labels) -> dict:
    """The combination with coefficient 1 on each label of a query."""
    out: dict = {}
    for lam in labels:
        key = tuple(lam)
        out[key] = out.get(key, 0) + 1
    return out


# -- library queries ------------------------------------------------------------

def check_query(op: str, args: list, out) -> bool:
    """True when the output of one library query passes its checks.

    Kronecker symmetry and the O/Sp round trips recompute through symchar,
    so they run only after the timed stream.
    """
    if op == "inner_mul":
        mu, nu = map(tuple, args)
        if not check_kronecker(mu, nu, out):
            return False
        from symchar.kronecker import inner_mul
        from symchar.schur import SymFunc

        return inner_mul(SymFunc.basis(nu), SymFunc.basis(mu)).terms == out
    if op == "outer_mul":
        return check_outer(tuple(args[0]), tuple(args[1]), out)
    if op == "coproduct_basis":
        return check_coproduct(tuple(args[0]), out)
    if op == "branch":
        rule, lam = args[0], tuple(args[1])
        if out.get(lam) != 1 or any(sum(mu) > sum(lam) for mu in out):
            return False
        if rule == "gl_to_glm1":
            return check_glm1_branch(lam, out)
        return branch_round_trip(rule, lam, out)
    if op == "rational_mul":
        k, l, m, n = map(tuple, args)
        return rational_contraction({(k, l): 1}, {(m, n): 1}) == out
    if op == "dimension_gl":
        return out == gl_dimension(tuple(args[0]), args[1])
    if op in FORMULAS:
        return FORMULAS[op](label_terms(args[0]), label_terms(args[1])) == out
    raise ValueError(f"no check for {op!r}")


# -- CLI outputs ----------------------------------------------------------------

_TERM = re.compile(
    r"\s*([+-])?\s*(?:(\d+)\*)?"
    r"(?:s\[([0-9,]*)\]\(x\)s\[([0-9,]*)\]"
    r"|(?:<<|\{|\[|<)([0-9,]*)(?:;([0-9,]*)~)?(?:>>|\}|\]|>))"
)
_POLY_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\*?)?(X(?:\^(\d+))?)?")


def _partition(text: str) -> tuple[int, ...]:
    return () if text in ("", "0") else tuple(int(p) for p in text.split(","))


def parse_terms(text: str) -> dict:
    """Parse a printed combination: ``{2,1} + 2*[3]``, ``{1;0~}``,
    ``s[1](x)s[2]``.  Tensor and rational terms are keyed by pairs."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse output at {text[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = sign * int(m.group(2) or 1)
        if m.group(3) is not None:
            key = (_partition(m.group(3)), _partition(m.group(4)))
        elif m.group(6) is not None:
            key = (_partition(m.group(5)), _partition(m.group(6)))
        else:
            key = _partition(m.group(5))
        out[key] = out.get(key, 0) + coeff
        pos = m.end()
    return out


def _json_terms(terms: list) -> dict:
    out: dict = {}
    for t in terms:
        label = t["label"]
        key = tuple(label["partition"])
        if "contra" in label:
            key = (key, tuple(label["contra"]))
        out[key] = out.get(key, 0) + t["coeff"]
    return out


def parse_poly(text: str) -> dict[int, Fraction]:
    """Parse ``3*X + 3*X^2 - 1/2*X^3`` into {degree: coefficient}."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = _POLY_TERM.match(text, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"cannot parse polynomial at {text[pos:]!r}")
        coeff = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        deg = 0 if not m.group(3) else int(m.group(4) or 1)
        out[deg] = out.get(deg, 0) + coeff
        pos = m.end()
    return out


def _parse_table(n: int, text: str, as_json: bool) -> dict:
    classes = partitions(n)
    if as_json:
        data = json.loads(text)
        if [tuple(c) for c in data["classes"]] != list(classes):
            raise ValueError("unexpected class order")
        return {tuple(r["lam"]): r["values"] for r in data["rows"]}
    rows = {}
    for line in text.splitlines()[1:]:
        label, values = line[:12].strip(), line[12:]
        width = len(values) // len(classes)
        rows[_partition(label)] = [int(values[i * width:(i + 1) * width]) for i in range(len(classes))]
    return rows


def _check_table(n: int, rows: dict) -> bool:
    classes = partitions(n)
    if set(rows) != set(classes):
        return False
    one, cycle = classes.index((1,) * n), classes.index((n,))
    for lam, values in rows.items():
        if values[one] != syt_count(lam) or values[cycle] != cycle_character(lam):
            return False
        if sum(Fraction(v * v, z_lambda(rho)) for v, rho in zip(values, classes)) != 1:
            return False
    return True


def cli_content(argv: list[str], stdout: str):
    """The mathematical content of one CLI answer, independent of layout."""
    as_json = "--json" in argv
    cmd = argv[0]
    if cmd in ("decompose", "branch", "hash"):
        return _json_terms(json.loads(stdout)["terms"]) if as_json else parse_terms(stdout)
    if cmd == "series":
        if as_json:
            return [_json_terms(terms) for terms in json.loads(stdout)["degrees"]]
        return [parse_terms(line.split(":", 1)[1]) for line in stdout.strip().splitlines()]
    if cmd == "table":
        return _parse_table(int(argv[1]), stdout, as_json)
    if cmd == "fgl" and argv[1] in ("loop", "log"):
        return parse_poly(stdout)
    if cmd == "fgl":
        return parse_terms(stdout)
    return stdout.split()[0] if stdout.split() else ""


def _opt(argv: list[str], name: str, default: int) -> int:
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _positional(argv: list[str]) -> list[str]:
    out, skip = [], False
    for tok in argv:
        if skip:
            skip = False
        elif tok in ("--product", "--spec", "--cap", "--max-degree"):
            skip = True
        elif not tok.startswith("--"):
            out.append(tok)
    return out


_PRODUCT_CHECK = {
    "newell-littlewood-o": "newell_littlewood", "newell-littlewood-sp": "newell_littlewood",
    "newell-littlewood": "newell_littlewood", "thibon": "thibon_inner",
    "reduced": "murnaghan_littlewood", "murnaghan-littlewood": "murnaghan_littlewood",
}


def check_cli(argv: list[str], content) -> bool:
    """True when the parsed answer of one CLI query passes its checks."""
    cmd, pos = argv[0], _positional(argv)
    if cmd in ("decompose", "hash"):
        product = argv[argv.index("--product" if cmd == "decompose" else "--spec") + 1]
        if product == "rational":
            (k, l), (m, n) = ([_partition(p) for p in lab.split(";")] for lab in pos[1:3])
            return rational_contraction({(k, l): 1}, {(m, n): 1}) == content
        mu, nu = _partition(pos[1]), _partition(pos[2])
        if product in ("outer", "trivial"):
            return check_outer(mu, nu, content)
        if product == "kronecker":
            return check_query("inner_mul", [mu, nu], content)
        return FORMULAS[_PRODUCT_CHECK[product]]({mu: 1}, {nu: 1}) == content
    if cmd == "branch":
        rule, lam = pos[1], _partition(pos[2])
        if rule == "gl_to_glm1" and not check_glm1_branch(lam, content):
            return False
        return branch_round_trip(rule, lam, content)
    if cmd == "series":
        return content == [series_term(pos[1], d) for d in range(_opt(argv, "--cap", 0) + 1)]
    if cmd == "table":
        return _check_table(int(pos[1]), content)
    if cmd == "fgl":
        action = pos[1]
        if action in ("loop", "log"):
            law, cap = pos[2], _opt(argv, "--cap", 6)
            b = 0 if law == "ga" else int(law.split(":")[1]) if ":" in law else 1
            want = fgl_loop(b, int(pos[3]), cap) if action == "loop" else fgl_log(b, cap)
            return content == want
        lam = _partition(pos[3])
        if pos[2] == "additive":
            return check_coproduct(lam, content)
        return check_multiplicative_coproduct(lam, content)
    # check and vertex report a verdict word
    want = "OK:" if argv[:2] == ["vertex", "schur"] else "PASS" if cmd == "vertex" else "PASS:"
    return content == want
