"""Command-line front end: decomposition queries, branchings, series,
property checks, hash products, vertex operators, formal group laws, and
character tables, with text and JSON output.

Each subcommand imports only the modules it runs, and building the parser
imports none: a cold process may compile every module it imports.

Exit codes: 0 success, 1 failed check, 2 parse error, 3 resource bound, 141 broken pipe.
"""

from __future__ import annotations

import argparse
import os
import sys
from operator import mul

# The package itself loads these; other modules are imported by their handlers.
from .kronecker import character_table, inner_mul
from .partitions import format_partition, parse_partition, partitions_of, z_and_n
from .schur import SymFunc, outer_mul, signed_sum

DEFAULT_MAX_WEIGHT = 20


class ResourceError(Exception):
    pass


def _max_weight(args) -> int:
    if args.max_weight is not None:
        return _nonnegative(args.max_weight, "--max-weight")
    env = os.environ.get("SYMCHAR_MAX_WEIGHT")
    return _nonnegative(int(env), "SYMCHAR_MAX_WEIGHT") if env else DEFAULT_MAX_WEIGHT


def _nonnegative(value: int, what: str) -> int:
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")
    return value


def _bounded(value: int, what: str, args) -> int:
    """value, if it is nonnegative and within the resource guard."""
    bound = _max_weight(args)
    if _nonnegative(value, what) > bound:
        raise ResourceError(f"{what} {value} exceeds the configured maximum {bound}")
    return value


def _guard(f: SymFunc, args) -> SymFunc:
    _bounded(f.max_degree(), "input weight", args)
    return f


def _emit(args, text, payload) -> None:
    """Print payload() as JSON under --json, else text(); only the printed one is built."""
    if args.json:
        import json

        print(json.dumps(payload(), indent=2))
    else:
        print(text())


# -- subcommand handlers -----------------------------------------------------

# Accepted names, kept as literals so that building the parser loads no library
# module; tests check them against characters.BRANCH_SERIES and the
# convolution.PAIRINGS and convolution.COCHAINS constructor tables.
_BRANCH_RULES = ("gl_to_glm1", "gl_to_o", "gl_to_sp", "glm1_to_gl", "o_to_gl", "sp_to_gl")
_PAIRING_NAMES = ("e2", "inner", "outer", "schur-hall")
_COCHAIN_NAMES = ("antipode", "e", "id", "m")

_PRODUCTS = {  # --product -> (characters function or None, label kind); rational apart
    "outer": (None, "gl"),
    "kronecker": (None, "gl"),
    "newell-littlewood-o": ("newell_littlewood", "o"),
    "newell-littlewood-sp": ("newell_littlewood", "sp"),
    "thibon": ("thibon_inner", "thibon"),
    "reduced": ("murnaghan_littlewood", "reduced"),
}


def _cmd_decompose(args) -> int:
    from .formats import format_symfunc, parse_symfunc, symfunc_json

    if args.product == "rational":
        from .characters import RationalChar, rational_mul
        from .formats import format_rational, parse_rational_label, rational_json

        labels = [parse_rational_label(args.lhs), parse_rational_label(args.rhs)]
        _bounded(max(sum(lam) + sum(mu) for lam, mu in labels), "input weight", args)
        result = rational_mul(*(RationalChar.basis(*label) for label in labels))
        _emit(args, lambda: format_rational(result.element), lambda: rational_json(result.element))
        return 0
    lhs = _guard(parse_symfunc(args.lhs), args)
    rhs = _guard(parse_symfunc(args.rhs), args)
    name, kind = _PRODUCTS[args.product]
    if name is None:
        result = (outer_mul if args.product == "outer" else inner_mul)(lhs, rhs)
    else:
        from . import characters

        result = getattr(characters, name)(lhs, rhs)
    _emit(args, lambda: format_symfunc(result, kind), lambda: symfunc_json(result, kind))
    return 0


def _cmd_branch(args) -> int:
    from .characters import branch
    from .formats import format_symfunc, parse_symfunc, symfunc_json

    result = branch(_guard(parse_symfunc(args.element), args), args.rule)
    kind = {"gl_to_o": "o", "gl_to_sp": "sp"}.get(args.rule, "gl")
    _emit(args, lambda: format_symfunc(result, kind), lambda: symfunc_json(result, kind))
    return 0


def _cmd_series(args) -> int:
    from .formats import format_symfunc, symfunc_json
    from .series import series_degree_term

    _bounded(args.cap, "cap", args)
    terms = [series_degree_term(args.tag, d) for d in range(args.cap + 1)]
    _emit(
        args,
        lambda: "\n".join(f"degree {d}: {format_symfunc(term)}" for d, term in enumerate(terms)),
        lambda: {"degrees": [symfunc_json(term, "gl", cap=args.cap)["terms"] for term in terms],
                 "meta": {"cap": args.cap}},
    )
    return 0


_CHECK_NAMES = (
    f"pairings {', '.join(_PAIRING_NAMES)}; cochains {', '.join(_COCHAIN_NAMES)};"
    " or derived:<cochain>:<pairing>"
)


def _check_target(args):
    """The cochain (alghom) or pairing that check names; ValueError listing the
    accepted names otherwise."""
    from .convolution import COCHAINS, PAIRINGS, derived_pairing

    parts = args.name.split(":")
    try:
        if args.property == "alghom":
            return COCHAINS[args.name]()
        if len(parts) == 3 and parts[0] == "derived":
            base, phi = PAIRINGS[parts[2]], COCHAINS[parts[1]]
            return derived_pairing(base(), phi())
        return PAIRINGS[args.name]()
    except KeyError:
        raise ValueError(f"unknown name {args.name!r}; accepted: {_CHECK_NAMES}") from None


def _cmd_check(args) -> int:
    from .convolution import is_algebra_hom, is_cocycle2, is_frobenius, is_laplace

    d = _bounded(args.max_degree, "max degree", args)
    witness: list = []
    target = _check_target(args)
    if args.property == "frobenius":
        ok = is_frobenius(target, d, witness=witness)
    else:
        check = {"alghom": is_algebra_hom, "laplace": is_laplace, "cocycle2": is_cocycle2}
        ok = check[args.property](target, d, witness)
    if ok:
        print(f"PASS: {args.name} satisfies {args.property} up to degree {d}")
        return 0
    print(f"FAIL: {args.name} violates {args.property}; witness: {witness[0]!r}")
    return 1


_SPEC_SHAPE = (
    'inline spec must look like {"stages": [{"pairing": P, "cocycle": C}, ...], "final": C}'
    f" with P in {list(_PAIRING_NAMES)} and C in {list(_COCHAIN_NAMES)}"
)


def _parse_spec(data):
    """An inline hash spec decoded from JSON; ValueError naming the expected shape otherwise."""
    from .convolution import COCHAINS, PAIRINGS
    from .hash_products import HashSpec

    try:
        stages = tuple(
            (PAIRINGS[st["pairing"]](), COCHAINS[st["cocycle"]]())
            for st in data.get("stages", [])
        )
        final = COCHAINS[data.get("final", "id")]()
    except (AttributeError, KeyError, TypeError):
        raise ValueError(_SPEC_SHAPE) from None
    return HashSpec(stages, final, "custom")


def _cmd_hash(args) -> int:
    """Any spec that parses as JSON is inline; anything else is a spec name."""
    import json

    from .formats import format_symfunc, parse_symfunc, symfunc_json
    from .hash_products import build_hash, named_product

    try:
        data = json.loads(args.spec)
    except ValueError:
        if args.spec.strip().startswith("{"):
            raise
        product = named_product(args.spec)
    else:
        spec = _parse_spec(data)
        try:
            product = build_hash(spec)
        except ValueError as exc:
            print(f"invalid hash spec: {exc}", file=sys.stderr)
            return 2
    x = _guard(parse_symfunc(args.lhs), args)
    y = _guard(parse_symfunc(args.rhs), args)
    result = product(x, y)
    _emit(args, lambda: format_symfunc(result), lambda: symfunc_json(result, "gl"))
    return 0


def _cmd_vertex(args) -> int:
    from . import vertex

    if args.action == "schur":
        lam = parse_partition(args.partition)
        _bounded(sum(lam), "partition weight", args)
        diff = vertex.schur_via_bernstein(lam) - SymFunc.basis(lam)
        if diff.is_zero():
            print(f"OK: vertex-operator chain reproduces s[{format_partition(lam)}]")
            return 0
        from .formats import format_symfunc

        print(f"MISMATCH: difference {format_symfunc(diff)}")
        return 1
    cap = _bounded(args.cap, "cap", args)
    if cap < 1:  # the window of compared exponents, max < cap, would be empty
        raise ValueError(f"cap must be >= 1, got {cap}")
    ok = vertex.check_commutation(cap)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _poly_text(p) -> str:
    return signed_sum(
        (c, "" if d == 0 else "X" if d == 1 else f"X^{d}") for (d,), c in sorted(p.items())
    )


def _parse_fgl(token: str):
    from .fgl import additive, multiplicative

    if token == "ga":
        return additive(cap=8)
    if token == "gm":
        return multiplicative(1, cap=8)
    if token.startswith("gm:"):
        return multiplicative(int(token.split(":", 1)[1]), cap=8)
    raise ValueError(f"unknown formal group law {token!r}")


def _cmd_fgl(args) -> int:
    from . import fgl

    if args.action in ("loop", "log"):
        F = _parse_fgl(args.law)
        F = type(F)(F.coeffs, _bounded(args.cap, "cap", args))
        if args.action == "loop":
            _bounded(abs(args.n), "|n|", args)
        print(_poly_text(fgl.loop_n(F, args.n) if args.action == "loop" else fgl.fgl_log(F)))
        return 0
    from .formats import pair_order

    lam = parse_partition(args.partition)
    _bounded(sum(lam), "partition weight", args)
    result = fgl.coproduct_from_fgl(args.law, SymFunc.basis(lam)).terms
    print(signed_sum(
        (result[a, b], f"s[{format_partition(a)}](x)s[{format_partition(b)}]")
        for a, b in sorted(result, key=pair_order)
    ))
    return 0


def _cached_table(path: str, n: int):
    """The character table of S_n stored at path, or None unless the file holds
    exactly that: version 1, every pair of partitions of n once, integer values,
    and columns orthogonal with sum_lam chi^lam(rho)^2 = z_rho."""
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
        if data["version"] != 1 or data["n"] != n:
            return None
        entries = [((tuple(e["lam"]), tuple(e["rho"])), e["value"]) for e in data["entries"]]
        table = dict(entries)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    labels = partitions_of(n)
    if (
        len(entries) != len(labels) ** 2
        or set(table) != {(lam, rho) for lam in labels for rho in labels}
        or any(type(v) is not int for v in table.values())
    ):
        return None
    columns = [[table[(lam, rho)] for lam in labels] for rho in labels]
    orthogonal = all(
        sum(map(mul, a, b)) == (z_and_n(rho)[0] if i == j else 0)
        for i, (rho, a) in enumerate(zip(labels, columns))
        for j, b in enumerate(columns[i:], i)
    )
    return table if orthogonal else None


def _write_atomically(path: str, payload) -> None:
    """Write JSON to a temporary file beside path, then rename it over path, so
    a reader sees the old file or the complete new one."""
    import json
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_table(args) -> int:
    n = _nonnegative(args.n, "n")
    if n > 12:
        raise ResourceError("character tables limited to n <= 12")
    table = None
    cache_file = None
    if args.cache_dir:
        try:
            os.makedirs(args.cache_dir, exist_ok=True)
        except OSError:
            raise ValueError(f"--cache-dir is not a directory: {args.cache_dir}") from None
        cache_file = os.path.join(args.cache_dir, f"sn-character-table-{n}.json")
        table = _cached_table(cache_file, n)
    if table is None:
        table = character_table(n)
        if cache_file:
            entries = [{"lam": list(lam), "rho": list(rho), "value": v} for (lam, rho), v in table.items()]
            try:
                _write_atomically(cache_file, {"version": 1, "n": n, "entries": entries})
            except OSError as exc:
                raise ValueError(f"cannot write cache file {cache_file}: {exc.strerror}") from None
    labels = list(partitions_of(n))
    if args.json:
        import json

        rows = [{"lam": list(lam), "values": [table[(lam, rho)] for rho in labels]} for lam in labels]
        print(json.dumps({"n": n, "classes": [list(rho) for rho in labels], "rows": rows}))
        return 0
    width = max(len(str(v)) for v in table.values()) + 1
    head = " " * 12 + "".join(f"{format_partition(rho):>{width + 4}}" for rho in labels)
    lines = [head]
    for lam in labels:
        row = "".join(f"{table[(lam, rho)]:>{width + 4}}" for rho in labels)
        lines.append(f"{format_partition(lam):<12}{row}")
    print("\n".join(lines))
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="symchar",
        description="Symmetric-function character decompositions and Hopf deformations",
    )
    top.add_argument("--max-weight", type=int, default=None, help="resource guard override")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a product of characters")
    p.add_argument(
        "--product",
        required=True,
        choices=[*_PRODUCTS, "rational"],
    )
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("branch", help="apply a branching rule")
    p.add_argument("rule", choices=_BRANCH_RULES)
    p.add_argument("element")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_branch)

    p = sub.add_parser("series", help="print series terms per degree")
    p.add_argument("tag", choices=list("MLABCD"))
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("check", help="run a bounded property check")
    p.add_argument("property", choices=["laplace", "cocycle2", "frobenius", "alghom"])
    p.add_argument("name")
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("hash", help="evaluate a hash product on two basis elements")
    p.add_argument("--spec", required=True, help="named spec or inline JSON")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_hash)

    p = sub.add_parser("vertex", help="vertex-operator utilities")
    vsub = p.add_subparsers(dest="action", required=True)
    v1 = vsub.add_parser("schur")
    v1.add_argument("partition")
    v1.set_defaults(fn=_cmd_vertex)
    v2 = vsub.add_parser("check-commutation")
    v2.add_argument("--cap", type=int, default=4)
    v2.set_defaults(fn=_cmd_vertex)

    p = sub.add_parser("fgl", help="formal group law utilities")
    fsub = p.add_subparsers(dest="action", required=True)
    f1 = fsub.add_parser("loop")
    f1.add_argument("law")
    f1.add_argument("n", type=int)
    f1.add_argument("--cap", type=int, default=6)
    f1.set_defaults(fn=_cmd_fgl)
    f2 = fsub.add_parser("log")
    f2.add_argument("law")
    f2.add_argument("--cap", type=int, default=6)
    f2.set_defaults(fn=_cmd_fgl)
    f3 = fsub.add_parser("coproduct")
    f3.add_argument("law", choices=["additive", "multiplicative"])
    f3.add_argument("partition")
    f3.set_defaults(fn=_cmd_fgl)

    p = sub.add_parser("table", help="print a symmetric-group character table")
    p.add_argument("n", type=int)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_table)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _max_weight(args)  # a negative bound is a usage error for every subcommand
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here rather than at shutdown
        return code
    except BrokenPipeError:  # reader gone: 128 + SIGPIPE, silent, final flush quieted too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ResourceError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
