"""The symchar benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; symchar is imported from ``src``.  Each
workload is a seeded stream of queries (streams.py) run as a closed loop
with one query in flight, in fresh processes so every memo table starts
empty.  The work is fixed: ``--seconds`` buys ``round(seconds / UNIT_S)``
units, each about UNIT_S seconds at the speed of symchar when the benchmark
was defined.  A library unit is one worker process running a session of
UNIT_QUERIES queries; a cli unit is UNIT_QUERIES cold CLI processes, one per
query.  A faster symchar finishes the same queries sooner.  With
``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it runs
half the units untraced and then the same queries traced, and reports the
per-layer metrics and the tracing overhead; call counts then depend only
on the seed and ``--seconds``.  Every output is checked after the stream
(checks.py).  Without ``--workload`` it runs every workload in turn.

Timings are scaled to a reference machine speed (calibrate.py): the
machine's speed is measured between queries (in the worker, or in each CLI
or import process), and each time is multiplied by that speed over
calibrate.REFERENCE_SPEED.  On a shared machine whose speed drifts by a
fifth or more from minute to minute this brings the spread (IQR over
median) of ten seeded runs from 7-48% down to 4-8% on a 2-vCPU host.  ``throughput_qps`` is queries over the
sum of their scaled times; ``latency_p50_ms``, ``latency_p90_ms`` and
``setup_s`` (the median of SETUP_PROBES fresh-interpreter imports) are
quantiles of scaled times.  The report prints the unscaled figures too.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report and a
``record:`` line (git SHA, dirty flag, Python, nproc, seed, output digest).
Exits 1 when any output check fails, 2 when symchar's sources are missing.

Which end-to-end metric each per-layer metric should move:

- LR kernel (schur.lr_coefficient/product_basis/skew_basis/coproduct_basis,
  partitions.contains, series.*): throughput_qps and latency_p90_ms on
  outer, less on hash, nothing on kronecker.
- Kronecker kernel (kronecker.*): throughput_qps, latency_p90_ms and
  peak_rss_mb on kronecker, a little on hash, nothing on outer.
- Hash evaluator and accumulation (hash_products.product.*, convolution.*,
  schur.SymFunc.*, schur.outer_mul.*, schur.iterated_coproduct_basis.*,
  characters.*): throughput_qps and latency_p50_ms on hash.
- Spec validation (hash_products.validate_spec.self_s): latency_p90_ms on
  hash, where only the first query of each product pays it, and
  latency_p50_ms on cli, where every hash query pays it.
- GL dimensions (schur.eval_monomials.*): latency_p90_ms on outer.
- CLI front end (cli.*, formats.*): setup_s and latency_p50_ms on cli,
  nothing elsewhere.
- Memory (memo.entries): peak_rss_mb on every workload.

Per-layer metrics of a layer the workload does not reach read 0 in the last
line, whose keys the benchmark's output contract fixes and which must name
every per-layer metric; they are marked ``absent`` in the report and listed
under ``absent`` in the ``record:`` line.  Counts and times are summed over
the traced processes (sessions, or CLI calls); memo.entries is the largest
process's and the cli.* phases are per-process medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
from streams import WORKLOADS, make_stream  # noqa: E402
from worker import DIGEST_QUERIES, digest  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 18
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 150
CLI_TIMEOUT_S = 60
SETUP_MODULE = {"cli": "symchar.cli"}  # other workloads import symchar.characters
# Queries per unit (whole rounds of the stream); each unit took about 5 s
# (cli: 7 s) at the reference speed with symchar at the commit that defined
# the benchmark.  cli gets three rounds, so that a run's median has 150
# calls behind it, as its calls vary most.
UNIT_S = 6.0
UNIT_QUERIES = {"kronecker": 490, "outer": 784, "hash": 450, "cli": 51}

END_TO_END = (
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

_UNITS = {"calls": "count", "self_s": "s", "hit_frac": "ratio", "useful_frac": "ratio",
          "formula_ratio": "ratio", "entries": "count", "repeat_frac": "ratio", "qps_ratio": "ratio"}


def _names(prefix: str, functions: str, suffixes: str) -> list[str]:
    return [f"{prefix}.{f}.{s}" for f in functions.split() for s in suffixes.split()]


PER_LAYER = (
    _names("partitions", "partitions_of contains", "calls")
    + _names("schur", "lr_coefficient product_basis skew_basis coproduct_basis", "calls self_s hit_frac")
    + ["schur.lr_coefficient.useful_frac"]
    + _names("schur", "iterated_coproduct_basis outer_mul skew eval_monomials", "calls self_s")
    + ["schur.SymFunc.new.calls", "schur.SymFunc.add.calls", "schur.SymFunc.add.self_s"]
    + _names("kronecker", "character_table", "calls self_s")
    + ["kronecker.character.calls"]
    + _names("kronecker", "kronecker_basis", "calls self_s hit_frac useful_frac")
    + ["kronecker.inner_mul.self_s"]
    + _names("series", "skew_by_series mul_by_series", "self_s")
    + ["series.series_degree_term.calls"]
    + _names("convolution", "Pairing.on_basis", "calls self_s hit_frac")
    + _names("convolution", "Cochain1.call", "calls self_s")
    + _names("convolution", "is_laplace is_algebra_hom", "self_s")
    + _names("hash_products", "validate_spec", "calls self_s")
    + _names("hash_products", "product", "calls self_s formula_ratio")
    + _names("characters", "newell_littlewood thibon_inner murnaghan_littlewood", "self_s formula_ratio")
    + _names("characters", "rational_mul branch", "self_s")
    + _names("formats", "parse_symfunc format_symfunc symfunc_json", "self_s")
    + ["cli.import_s", "cli.parse_args_s", "cli.compute_s", "cli.format_s"]
    + ["vertex.bernstein.self_s", "fgl.coproduct_from_fgl.self_s"]
    + ["memo.entries", "memo.hit_frac", "stream.repeat_frac", "trace.qps_ratio"]
)
FORMAT_SPANS = {"formats.format_symfunc", "formats.symfunc_json", "formats.format_rational",
                "formats.rational_json", "cli.emit", "cli.poly_text"}


def per_layer_unit(name: str) -> str:
    return "s" if name.startswith("cli.") else _UNITS[name.rsplit(".", 1)[1]]


# -- running streams ------------------------------------------------------------

def _env() -> dict:
    # A fixed string-hash seed keeps dict layouts, and so timings, alike across runs.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median time to import symchar in a fresh interpreter, over several,
    scaled by the speeds measured in that interpreter around the import,
    and raw."""
    module = SETUP_MODULE.get(workload, "symchar.characters")
    code = (f"import sys, time; sys.path.insert(0, {str(BENCH)!r}); import calibrate; sys.path.pop(0); "
            f"s = calibrate.speed(); t = time.perf_counter(); import {module}; "
            f"d = time.perf_counter() - t; print(d, s, calibrate.speed())")
    raw, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                             text=True, timeout=CLI_TIMEOUT_S, check=True)
        if i:  # the first probe may compile the bytecode cache
            d, *speeds = map(float, out.stdout.split())
            raw.append(d)
            scaled += calibrate.scale([d], [0, 1], speeds)
    return statistics.median(scaled), statistics.median(raw)


def run_worker(queries: list, trace: bool, formula_ratio: bool) -> dict:
    job = {"queries": queries, "trace": trace, "formula_ratio": formula_ratio}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
                          env=_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_library(workload: str, queries: list, trace: bool, formula_ratio: bool) -> dict:
    """One fresh worker per unit of UNIT_QUERIES queries, back to back.

    A session does the same work whatever the speed of the machine, so the
    memo tables, and with them peak RSS, reach the same size in every run."""
    size = UNIT_QUERIES[workload]
    sessions = [
        run_worker(queries[start:start + size], trace, formula_ratio and start == 0)
        for start in range(0, len(queries), size)
    ]
    return {
        "latencies": [t for r in sessions for t in r["latencies"]],
        "scaled": [t for r in sessions for t in r["scaled"]],
        "errors": [e for r in sessions for e in r["errors"]][:5],
        "ok": [k for r in sessions for k in r["ok"]],
        "digest": sessions[0]["digest"],
        "peak_rss_kb": max(r["peak_rss_kb"] for r in sessions),
        "trace": merge_snapshots([r["trace"] for r in sessions]) if trace else None,
        "formula_ratio": sessions[0]["formula_ratio"],
    }


def run_cli(queries: list, trace: bool) -> dict:
    """Cold CLI processes (cli_child.py) one at a time; checks run after the
    stream.  A call's time is its process's wall time less the calibration
    the process ran, scaled by the speeds that calibration measured."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # the checks call symchar once the stream is over
    from checks import check_cli, cli_content

    head = [sys.executable, str(BENCH / "cli_child.py"), str(int(trace))]
    env = _env()
    walls, procs = [], []
    for q in queries:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(head + q["args"], env=env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            proc = subprocess.CompletedProcess(exc.cmd, None, "", f"timed out after {exc.timeout} s")
        walls.append(time.perf_counter() - t0)
        procs.append(proc)
    ok, contents, errors, snapshots, rss, latencies, scaled = [], [], [], [], [0], [], []
    for q, proc, wall in zip(queries, procs, walls):
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        lines = [ln for ln in stderr.splitlines() if ln.startswith("BENCH-CHILD ")]
        child = json.loads(lines[-1][len("BENCH-CHILD "):]) if lines else {}
        speeds = child.get("speeds", [calibrate.REFERENCE_SPEED] * 2)
        latencies.append(wall - child.get("cal_s", 0.0))
        scaled += calibrate.scale(latencies[-1:], [0, 1], speeds)
        rss.append(child.get("peak_rss_kb", 0))
        if trace and "trace" in child:
            snapshots.append(child["trace"])
        content = None
        try:
            if code != 0:
                raise ValueError(f"exit {code}: {stderr.strip()[-300:]}")
            content = cli_content(q["args"], stdout)
            ok.append(bool(check_cli(q["args"], content)))
        except Exception as exc:  # unparsable or failing output fails the query
            ok.append(False)
            errors.append(f"{' '.join(q['args'])}: {type(exc).__name__}: {exc}")
        contents.append([code, content])
    return {
        "latencies": latencies,
        "scaled": scaled,
        "errors": errors[:5],
        "ok": ok,
        "digest": digest(contents[:DIGEST_QUERIES]) if len(contents) >= DIGEST_QUERIES else None,
        "peak_rss_kb": max(rss),
        "trace": merge_snapshots(snapshots) if trace else None,
        "formula_ratio": None,
    }


def run_stream(workload: str, queries: list, trace: bool, formula_ratio: bool = False) -> dict:
    if workload == "cli":
        return run_cli(queries, trace)
    return run_library(workload, queries, trace, formula_ratio)


# -- per-layer metrics ------------------------------------------------------------

def _phases(snapshot: dict) -> dict:
    """import / parse / compute / format seconds of one CLI process."""
    total: dict[str, float] = {}
    for name, caller, _calls, tot, _self in snapshot["spans"]:
        if name in ("cli.main", "cli.build_parser", "cli.parse_args") or (
            name in FORMAT_SPANS and caller == "cli"
        ):
            key = "format" if name in FORMAT_SPANS else name
            total[key] = total.get(key, 0.0) + tot
    parse = total.get("cli.build_parser", 0.0) + total.get("cli.parse_args", 0.0)
    fmt = total.get("format", 0.0)
    return {
        "cli.import_s": snapshot["import_s"],
        "cli.parse_args_s": parse,
        "cli.compute_s": total.get("cli.main", 0.0) - parse - fmt,
        "cli.format_s": fmt,
    }


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Sum the traces of several processes.  Memo entries are the largest
    process's, as peak RSS is; CLI phases are per-process medians."""
    spans: dict = {}
    counts: dict = {}
    cache_hits: dict = {}
    memo = {"hits": 0, "misses": 0, "entries": 0}
    for snap in snapshots:
        for name, caller, calls, tot, self_s in snap["spans"]:
            rec = spans.setdefault((name, caller), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += tot
            rec[2] += self_s
        for name, (a, b) in snap["counts"].items():
            c = counts.setdefault(name, [0, 0])
            c[0] += a
            c[1] += b
        for name, (h, m) in snap["cache_hits"].items():
            c = cache_hits.setdefault(name, [0, 0])
            c[0] += h
            c[1] += m
        memo["hits"] += snap["memo"]["hits"]
        memo["misses"] += snap["memo"]["misses"]
        memo["entries"] = max(memo["entries"], snap["memo"]["entries"])
    phases = [_phases(s) for s in snapshots if "import_s" in s]
    return {
        "spans": [[n, c, *rec] for (n, c), rec in spans.items()],
        "counts": counts,
        "cache_hits": cache_hits,
        "memo": memo,
        "phases": {k: statistics.median(p[k] for p in phases) for k in phases[0]} if phases else {},
    }


def layer_metrics(snapshot: dict, extra: dict) -> tuple[dict, set]:
    """Per-layer metric values and the names of the layers not reached."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for name, _caller, n, _tot, own in snapshot["spans"]:
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + own
    known = {**snapshot.get("phases", {}), **extra}
    values, absent = {}, set()
    for metric in PER_LAYER:
        span, kind = metric.rsplit(".", 1)
        value = None
        if metric in known:
            value = known[metric]
        elif metric == "memo.entries":
            value = snapshot["memo"]["entries"]
        elif metric == "memo.hit_frac":
            m = snapshot["memo"]
            value = m["hits"] / (m["hits"] + m["misses"]) if m["hits"] + m["misses"] else None
        elif calls.get(span, 0) == 0:
            value = None
        elif kind == "calls":
            value = calls[span]
        elif kind == "self_s":
            value = self_s[span]
        elif kind == "hit_frac":
            if span in snapshot["cache_hits"]:
                h, m = snapshot["cache_hits"][span]
            else:
                m = snapshot["counts"][span][0]
                h = calls[span] - m
            value = h / (h + m) if h + m else None
        elif kind == "useful_frac":
            computed, useful = snapshot["counts"][span]
            value = useful / computed if computed else None
        if value is None:
            absent.add(metric)
            value = 0
        values[metric] = value
    return values, absent


def profile_split(snapshot: dict) -> list[tuple[str, float]]:
    """Share of all traced self time per layer, largest first."""
    by_layer: dict[str, float] = {}
    for name, _caller, _n, _tot, own in snapshot["spans"]:
        key = name.rsplit(".", 1)[0] if name.startswith(("schur.SymFunc", "convolution.")) else name
        by_layer[key] = by_layer.get(key, 0.0) + own
    total = sum(by_layer.values()) or 1.0
    return sorted(((k, v / total) for k, v in by_layer.items()), key=lambda kv: -kv[1])


# -- one workload -----------------------------------------------------------------

def _qps(run: dict, key: str = "scaled") -> float:
    return len(run[key]) / sum(run[key])


def _p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[8] if len(times) >= 2 else times[0]


def tally(runs: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over runs: a query fails when it raised, exited
    nonzero or failed its output check."""
    attempted = sum(len(r["ok"]) for r in runs)
    return attempted, attempted - sum(sum(r["ok"]) for r in runs)


def repeat_frac(queries: list) -> float:
    seen, repeats = set(), 0
    for q in queries:
        key = json.dumps(q, sort_keys=True)
        repeats += key in seen
        seen.add(key)
    return repeats / len(queries) if queries else 0.0


def _recorded_digest(workload: str):
    path = BENCH / "digests.json"
    return json.loads(path.read_text()).get(workload) if path.exists() else None


def units(seconds: float) -> int:
    return max(1, round(seconds / UNIT_S))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    n_units = max(1, units(seconds) // 2) if trace else units(seconds)
    queries = make_stream(workload, seed, n_units * UNIT_QUERIES[workload])
    if trace:
        plain = run_stream(workload, queries, False, formula_ratio=workload == "hash")
        traced = run_stream(workload, queries, True)
        runs = [plain, traced]
        extra = {"stream.repeat_frac": repeat_frac(queries), "trace.qps_ratio": _qps(traced) / _qps(plain)}
        ratios = plain["formula_ratio"] or {}
        for op, (hash_s, formula_s) in ratios.items():
            extra[f"characters.{op}.formula_ratio"] = hash_s / formula_s
        if ratios:
            extra["hash_products.product.formula_ratio"] = (
                sum(h for h, _ in ratios.values()) / sum(f for _, f in ratios.values()))
        values, absent = layer_metrics(traced["trace"], extra)
        metrics = {name: {"value": values[name], "unit": per_layer_unit(name)} for name in PER_LAYER}
        report = {"absent": sorted(absent), "split": profile_split(traced["trace"])[:10]}
    else:
        setup, raw_setup = setup_seconds(workload)
        plain = run_stream(workload, queries, False)
        runs = [plain]
        lat, raw = plain["scaled"], plain["latencies"]
        values = {
            "throughput_qps": _qps(plain),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_p90_ms": 1000 * _p90(lat),
            "peak_rss_mb": plain["peak_rss_kb"] / 1024,
            "setup_s": setup,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        report = {
            "samples": len(lat),
            "repeat_frac": repeat_frac(queries),
            "raw": {"throughput_qps": _qps(plain, "latencies"), "latency_p50_ms": 1000 * statistics.median(raw),
                    "latency_p90_ms": 1000 * _p90(raw), "setup_s": raw_setup},
        }
    attempted, failed = tally(runs)
    recorded = _recorded_digest(workload) if seed == DEFAULT_SEED else None
    digest_ok = all(r["digest"] is None or recorded is None or r["digest"] == recorded for r in runs)
    report.update({
        "failed_frac": failed / attempted if attempted else 1.0,
        "digest": plain["digest"],
        "digest_ok": digest_ok if recorded else None,
        "errors": [e for r in runs for e in r["errors"]][:5],
    })
    return {
        "correct": failed == 0 and attempted > 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }


# -- reporting ----------------------------------------------------------------------

def run_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or "unknown"
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "dirty": dirty, "python": platform.python_version(),
            "nproc": os.cpu_count(), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": int(trace)}


def print_report(workload: str, result: dict) -> None:
    rep = result["report"]
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']} "
          f"(failed_frac {rep['failed_frac']:.4f})")
    for name, m in result["metrics"].items():
        mark = "  absent" if name in rep.get("absent", ()) else ""
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{mark}")
    if "samples" in rep:
        print(f"  latency samples {rep['samples']}, repeated queries {rep['repeat_frac']:.3f}")
        raw = ", ".join(f"{k} {v:.6g}" for k, v in rep["raw"].items())
        print(f"  unscaled (see calibrate.py): {raw}")
    for name, share in rep.get("split", ()):
        print(f"  self-time share {name:<40} {share:6.1%}")
    for err in rep["errors"]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symchar" / "__init__.py").is_file():
        print(f"symchar sources not found under {SRC}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for w in workloads:
        results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace))
        print_report(w, results[w])
        record = run_record(w, args.seed, args.seconds, bool(args.trace))
        rep = results[w]["report"]
        record.update(digest=rep["digest"], digest_ok=rep["digest_ok"], failed_frac=rep["failed_frac"])
        if args.trace:
            record["absent"] = rep["absent"]
        print("record: " + json.dumps(record))
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
