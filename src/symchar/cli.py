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
from importlib import import_module

# The package itself loads these; other modules are imported by their handlers.
from .kronecker import character_table
from .partitions import ResourceError, format_partition, parse_partition, partitions_of
from .schur import SymFunc, signed_sum

DEFAULT_MAX_WEIGHT = 20


def _nonnegative(value: int, what: str) -> int:
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")
    return value


def _bounded(value: int, what: str, args) -> int:
    """value, if it is nonnegative and within the resource guard args.max_weight."""
    if _nonnegative(value, what) > args.max_weight:
        raise ResourceError(f"{what} {value} exceeds the configured maximum {args.max_weight}")
    return value


def _parsed(text: str, args) -> SymFunc:
    """The symmetric function text names, its labels read under the resource guard."""
    from .formats import parse_symfunc

    f = parse_symfunc(text, args.max_weight)
    _bounded(f.max_degree(), "input weight", args)
    return f


def _emit(args, text, payload) -> None:
    """Print payload() as JSON under --json, else text(); only the printed one is built.
    The JSON is written in joined batches of the encoder's chunks, never as one string."""
    if args.json:
        import json
        from itertools import islice

        chunks = json.JSONEncoder(indent=2).iterencode(payload())
        while batch := "".join(islice(chunks, 4096)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    else:
        print(text())


# -- subcommand handlers -----------------------------------------------------

# Accepted rules, kept as literals so that building the parser loads no library
# module; a test checks them against characters.BRANCH_SERIES.
_BRANCH_RULES = ("gl_to_glm1", "gl_to_o", "gl_to_sp", "glm1_to_gl", "o_to_gl", "sp_to_gl")

_PRODUCTS = {  # --product -> (module, function, label kind); rational apart
    "outer": ("schur", "outer_mul", "gl"),
    "kronecker": ("kronecker", "inner_mul", "gl"),
    "newell-littlewood-o": ("characters", "newell_littlewood", "o"),
    "newell-littlewood-sp": ("characters", "newell_littlewood", "sp"),
    "thibon": ("characters", "thibon_inner", "thibon"),
    "reduced": ("characters", "murnaghan_littlewood", "reduced"),
}


def _cmd_decompose(args) -> int:
    from .formats import format_symfunc, symfunc_json

    if args.product == "rational":
        from .characters import RationalChar, rational_mul
        from .formats import format_rational, parse_rational_label, rational_json

        labels = [parse_rational_label(text, args.max_weight) for text in (args.lhs, args.rhs)]
        _bounded(max(sum(lam) + sum(mu) for lam, mu in labels), "input weight", args)
        result = rational_mul(*(RationalChar.basis(*label) for label in labels))
        _emit(args, lambda: format_rational(result.element), lambda: rational_json(result.element))
        return 0
    lhs, rhs = _parsed(args.lhs, args), _parsed(args.rhs, args)
    module, name, kind = _PRODUCTS[args.product]
    result = getattr(import_module(f".{module}", __package__), name)(lhs, rhs)
    _emit(args, lambda: format_symfunc(result, kind), lambda: symfunc_json(result, kind))
    return 0


def _cmd_branch(args) -> int:
    from .characters import branch
    from .formats import format_symfunc, symfunc_json

    result = branch(_parsed(args.element, args), args.rule)
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
        lambda: {"degrees": [symfunc_json(term, "gl")["terms"] for term in terms],
                 "meta": {"cap": args.cap}},
    )
    return 0


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
        raise ValueError(
            f"unknown name {args.name!r}; accepted: pairings {', '.join(sorted(PAIRINGS))};"
            f" cochains {', '.join(sorted(COCHAINS))}; or derived:<cochain>:<pairing>"
        ) from None


def _cmd_check(args) -> int:
    from .convolution import is_algebra_hom, is_cocycle2, is_frobenius, is_laplace

    check = {"laplace": is_laplace, "cocycle2": is_cocycle2, "frobenius": is_frobenius,
             "alghom": is_algebra_hom}[args.property]
    d = _bounded(args.max_degree, "max degree", args)
    witness: list = []
    if check(_check_target(args), d, witness):
        print(f"PASS: {args.name} satisfies {args.property} up to degree {d}")
        return 0
    print(f"FAIL: {args.name} violates {args.property}; witness: {witness[0]!r}")
    return 1


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
        raise ValueError(
            'inline spec must look like {"stages": [{"pairing": P, "cocycle": C}, ...], "final": C}'
            f" with P in {sorted(PAIRINGS)} and C in {sorted(COCHAINS)}"
        ) from None
    return HashSpec(stages, final, "custom")


def _cmd_hash(args) -> int:
    """Any spec that parses as JSON is inline; anything else is a spec name."""
    import json

    from .formats import format_symfunc, symfunc_json
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
    x, y = _parsed(args.lhs, args), _parsed(args.rhs, args)
    result = product(x, y)
    _emit(args, lambda: format_symfunc(result), lambda: symfunc_json(result, "gl"))
    return 0


def _cmd_vertex_schur(args) -> int:
    from .vertex import schur_via_bernstein

    lam = parse_partition(args.partition, args.max_weight)
    _bounded(sum(lam), "partition weight", args)
    diff = schur_via_bernstein(lam) - SymFunc.basis(lam)
    if diff.is_zero():
        print(f"OK: vertex-operator chain reproduces s[{format_partition(lam)}]")
        return 0
    from .formats import format_symfunc

    print(f"MISMATCH: difference {format_symfunc(diff)}")
    return 1


def _cmd_vertex_commutation(args) -> int:
    from .vertex import check_commutation

    cap = _bounded(args.cap, "cap", args)
    if cap < 1:  # the window of compared exponents, max < cap, would be empty
        raise ValueError(f"cap must be >= 1, got {cap}")
    ok = check_commutation(cap)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _poly_text(p) -> str:
    return signed_sum(
        (c, "" if d == 0 else "X" if d == 1 else f"X^{d}") for (d,), c in sorted(p.items())
    )


def _parse_fgl(token: str, args):
    """G_m^b named by token (ga: b = 0, gm: b = 1, gm:b) at the bounded --cap; a bad token first."""
    from .fgl import multiplicative

    name, colon, b = token.partition(":")
    if token != "ga" and name != "gm":
        raise ValueError(f"unknown formal group law {token!r}")
    return multiplicative(int(b) if colon else int(name == "gm"), _bounded(args.cap, "cap", args))


def _cmd_fgl_loop(args) -> int:
    from .fgl import loop_n

    F = _parse_fgl(args.law, args)
    _bounded(abs(args.n), "|n|", args)
    print(_poly_text(loop_n(F, args.n)))
    return 0


def _cmd_fgl_log(args) -> int:
    from .fgl import fgl_log

    print(_poly_text(fgl_log(_parse_fgl(args.law, args))))
    return 0


def _cmd_fgl_coproduct(args) -> int:
    from .fgl import coproduct_from_fgl
    from .formats import pair_sorted

    lam = parse_partition(args.partition, args.max_weight)
    _bounded(sum(lam), "partition weight", args)
    result = coproduct_from_fgl(args.law, SymFunc.basis(lam)).terms
    print(signed_sum(
        (result[a, b], f"s[{format_partition(a)}](x)s[{format_partition(b)}]")
        for a, b in pair_sorted(result)
    ))
    return 0


def _cmd_table(args) -> int:
    n = _nonnegative(args.n, "n")
    if n > 12:
        raise ResourceError("character tables limited to n <= 12")
    table = character_table(n)
    labels = list(partitions_of(n))
    if args.json:
        import json

        rows = [{"lam": list(lam), "values": [table[(lam, rho)] for rho in labels]} for lam in labels]
        print(json.dumps({"n": n, "classes": [list(rho) for rho in labels], "rows": rows}))
        return 0
    names = [format_partition(lam) for lam in labels]
    first = max(12, max(map(len, names)) + 1)  # 12 up to n = 6, as text readers expect
    width = max(max(len(str(v)) for v in table.values()) + 5, max(map(len, names)) + 2)
    lines = [" " * first + "".join(f"{name:>{width}}" for name in names)]
    for lam, name in zip(labels, names):
        lines.append(f"{name:<{first}}" + "".join(f"{table[(lam, rho)]:>{width}}" for rho in labels))
    print("\n".join(lines))
    return 0


# -- parser ------------------------------------------------------------------

_JSON = {"--json": {"action": "store_true"}}

# (command path, help, handler, arguments in order), in the order help lists
# them. A row without a handler is a group: its actions are the rows below it.
_COMMANDS = (
    ("decompose", "decompose a product of characters", _cmd_decompose,
     {"--product": {"required": True, "choices": [*_PRODUCTS, "rational"]},
      "lhs": {}, "rhs": {}, **_JSON}),
    ("branch", "apply a branching rule", _cmd_branch,
     {"rule": {"choices": _BRANCH_RULES}, "element": {}, **_JSON}),
    ("series", "print series terms per degree", _cmd_series,
     {"tag": {"choices": list("MLABCD")}, "--cap": {"type": int, "required": True}, **_JSON}),
    ("check", "run a bounded property check", _cmd_check,
     {"property": {"choices": ["laplace", "cocycle2", "frobenius", "alghom"]}, "name": {},
      "--max-degree": {"type": int, "default": 4}}),
    ("hash", "evaluate a hash product on two basis elements", _cmd_hash,
     {"--spec": {"required": True, "help": "named spec or inline JSON"},
      "lhs": {}, "rhs": {}, **_JSON}),
    ("vertex", "vertex-operator utilities", None, {}),
    ("vertex schur", None, _cmd_vertex_schur, {"partition": {}}),
    ("vertex check-commutation", None, _cmd_vertex_commutation,
     {"--cap": {"type": int, "default": 4}}),
    ("fgl", "formal group law utilities", None, {}),
    ("fgl loop", None, _cmd_fgl_loop,
     {"law": {}, "n": {"type": int}, "--cap": {"type": int, "default": 6}}),
    ("fgl log", None, _cmd_fgl_log, {"law": {}, "--cap": {"type": int, "default": 6}}),
    ("fgl coproduct", None, _cmd_fgl_coproduct,
     {"law": {"choices": ["additive", "multiplicative"]}, "partition": {}}),
    ("table", "print a symmetric-group character table", _cmd_table, {"n": {"type": int}, **_JSON}),
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="symchar",
        description="Symmetric-function character decompositions and Hopf deformations",
    )
    top.add_argument("--max-weight", type=int, default=None, help="resource guard override")
    parsers, subparsers = {"": top}, {}
    for path, help_, fn, arguments in _COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in subparsers:
            subparsers[group] = parsers[group].add_subparsers(
                dest="action" if group else "command", required=True
            )
        # a help entry, even None, would list the name in its group's help
        p = parsers[path] = subparsers[group].add_parser(name, **({"help": help_} if help_ else {}))
        for flag, kwargs in arguments.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:  # the bound: --max-weight, else SYMCHAR_MAX_WEIGHT, else the default
        if args.max_weight is None:
            env = os.environ.get("SYMCHAR_MAX_WEIGHT") or str(DEFAULT_MAX_WEIGHT)
            args.max_weight = _nonnegative(int(env), "SYMCHAR_MAX_WEIGHT")
        _nonnegative(args.max_weight, "--max-weight")  # a usage error for every subcommand
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here rather than at shutdown
        return code
    except BrokenPipeError:  # reader gone: 128 + SIGPIPE, silent, final flush quieted too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ResourceError, RecursionError) as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
