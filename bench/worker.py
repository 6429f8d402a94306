"""Run one query stream in a fresh process, closed loop, one query in flight.

Reads ``{"queries", "trace", "formula_ratio"}`` as JSON on stdin, runs every
query and prints one JSON result line.  Every memo table starts
empty, as in a user's first session.  After the timed stream it reads the
peak RSS and the trace, then checks every output, so the checks neither warm
the caches the stream ran with nor count in its memory.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from fractions import Fraction

import calibrate

DIGEST_QUERIES = 16  # outputs covered by the recorded digest
FORMULA_SAMPLE = 12  # queries per named hash product timed for formula_ratio


def peak_rss_kb() -> int:
    """This process's own peak RSS, in kB.

    Not ru_maxrss: a process started by exec keeps the high-water mark of the
    address space it replaced, which after fork or vfork is its parent's, so
    ru_maxrss never reads below the peak RSS of the benchmark's driver."""
    with open("/proc/self/status") as f:
        return int(next(line.split()[1] for line in f if line.startswith("VmHWM:")))


def encode(value):
    """A canonical, JSON-ready form of an output (dict order does not matter)."""
    if isinstance(value, dict):
        return sorted(([encode(k), encode(v)] for k, v in value.items()), key=json.dumps)
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps([encode(o) for o in outputs]).encode()).hexdigest()


def make_ops():
    """Query name -> callable on JSON arguments.  Functions are looked up on
    their modules at call time, so traced wrappers are used when installed."""
    from symchar import characters, kronecker, schur

    def basis(lam):
        return schur.SymFunc.basis(tuple(lam))

    def combination(labels):
        return schur.SymFunc({tuple(lam): 1 for lam in labels})

    return {
        "inner_mul": lambda mu, nu: kronecker.inner_mul(basis(mu), basis(nu)),
        "outer_mul": lambda mu, nu: schur.outer_mul(basis(mu), basis(nu)),
        "coproduct_basis": lambda lam: schur.coproduct_basis(tuple(lam)),
        "branch": lambda rule, lam: characters.branch(basis(lam), rule),
        "rational_mul": lambda k, l, m, n: characters.rational_mul(
            characters.RationalChar.basis(tuple(k), tuple(l)),
            characters.RationalChar.basis(tuple(m), tuple(n)),
        ),
        "dimension_gl": lambda lam, d: schur.dimension_gl(tuple(lam), d),
        "newell_littlewood": lambda x, y: characters.newell_littlewood(combination(x), combination(y)),
        "thibon_inner": lambda x, y: characters.thibon_inner(combination(x), combination(y)),
        "murnaghan_littlewood": lambda x, y: characters.murnaghan_littlewood(combination(x), combination(y)),
    }


def canonical(out):
    """Plain dicts keyed by partitions (or pairs of them), or an int."""
    if isinstance(out, int):
        return out
    if isinstance(out, dict):
        return dict(out)
    element = getattr(out, "element", out)  # RationalChar wraps a tensor
    return dict(element.terms)


def run_stream(queries: list[dict]) -> dict:
    """Closed loop over the whole stream, one query at a time, with the
    machine's speed measured between queries every calibrate.EVERY_S
    seconds of work (see calibrate.py)."""
    ops = make_ops()
    clock = time.perf_counter
    latencies, outputs, errors = [], [], []
    speeds, marks = [calibrate.speed()], [0]
    since = 0.0
    for i, q in enumerate(queries):
        fn = ops[q["op"]]
        t0 = clock()
        try:
            out, err = fn(*q["args"]), None
        except Exception as exc:  # a failed query is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        latencies.append(t1 - t0)
        outputs.append(out)
        errors.append(err)
        since += t1 - t0
        if since >= calibrate.EVERY_S or i == len(queries) - 1:
            speeds.append(calibrate.speed())
            marks.append(i + 1)
            since = 0.0
    return {
        "latencies": latencies,
        "scaled": calibrate.scale(latencies, marks, speeds),
        "outputs": outputs,
        "errors": errors,
    }


def check_outputs(queries: list[dict], run: dict) -> list[bool]:
    """Per executed query: no error and the output passes its checks."""
    from checks import check_query

    ok = []
    for q, out, err in zip(queries, run["outputs"], run["errors"]):
        if err is not None:
            ok.append(False)
            continue
        try:
            ok.append(bool(check_query(q["op"], q["args"], out)))
        except Exception:  # a check that cannot run fails the query
            ok.append(False)
    return ok


def formula_ratios(queries: list[dict], run: dict) -> dict:
    """Hash-path over closed-formula time per named product, LR tables warm.

    Both paths run once untimed on each sampled query, then once timed.
    """
    from checks import FORMULAS, label_terms

    ops = make_ops()
    out = {}
    for op, formula in FORMULAS.items():
        sample = [q for q, err in zip(queries, run["errors"]) if q["op"] == op and err is None]
        sample = sample[:FORMULA_SAMPLE]
        if not sample:
            continue
        hash_s = formula_s = 0.0
        for q in sample:
            x, y = q["args"]
            ops[op](x, y)
            formula(label_terms(x), label_terms(y))
            t0 = time.perf_counter()
            ops[op](x, y)
            t1 = time.perf_counter()
            formula(label_terms(x), label_terms(y))
            t2 = time.perf_counter()
            hash_s += t1 - t0
            formula_s += t2 - t1
        out[op] = [hash_s, formula_s]
    return out


def main() -> int:
    job = json.load(sys.stdin)
    queries = job["queries"]
    import symchar.characters  # noqa: F401  (imported before the clock starts)

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run = run_stream(queries)
    peak_kb = peak_rss_kb()
    snapshot = tracer.snapshot() if tracer else None
    run["outputs"] = [None if o is None else canonical(o) for o in run["outputs"]]
    result = {
        "latencies": run["latencies"],
        "scaled": run["scaled"],
        "errors": [e for e in run["errors"] if e][:5],
        "ok": check_outputs(queries, run),
        "digest": digest(run["outputs"][:DIGEST_QUERIES]) if len(queries) >= DIGEST_QUERIES else None,
        "peak_rss_kb": peak_kb,
        "trace": snapshot,
        "formula_ratio": formula_ratios(queries, run) if job["formula_ratio"] else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
