"""Self-tests of the benchmark: ``python3 bench/test_bench.py`` from the root
of a checkout (stdlib unittest; pytest collects it too)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from streams import WORKLOADS, make_stream  # noqa: E402


def _corrupt(output):
    if isinstance(output, int):
        return output + 1
    key = next(iter(output))
    return {**output, key: output[key] + 1}


class StreamTests(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for w in WORKLOADS:
            self.assertEqual(make_stream(w, 7, 100), make_stream(w, 7, 100))
            self.assertEqual(make_stream(w, 7, 40), make_stream(w, 7, 100)[:40])

    def test_other_seed_other_stream(self):
        for w in WORKLOADS:
            self.assertNotEqual(make_stream(w, 7, 100), make_stream(w, 8, 100))


class DigestTests(unittest.TestCase):
    def test_same_seed_same_output_digest(self):
        for w in ("outer", "hash", "cli"):
            queries = make_stream(w, 7, worker.DIGEST_QUERIES)
            first = run.run_stream(w, queries, False)
            second = run.run_stream(w, queries, False)
            self.assertIsNotNone(first["digest"], w)
            self.assertEqual(first["digest"], second["digest"], w)
            self.assertEqual(run.tally([first, second]), (2 * len(queries), 0), w)


class CorruptionTests(unittest.TestCase):
    def test_corrupted_library_output_counts_as_failed(self):
        queries = make_stream("outer", 7, 49)  # one round: every query kind
        result = worker.run_stream(queries)
        result["outputs"] = [worker.canonical(o) for o in result["outputs"]]
        self.assertEqual(run.tally([{"ok": worker.check_outputs(queries, result)}]), (len(queries), 0))
        for i in range(len(queries)):
            bad = dict(result, outputs=list(result["outputs"]))
            bad["outputs"][i] = _corrupt(bad["outputs"][i])
            attempted, failed = run.tally([{"ok": worker.check_outputs(queries, bad)}])
            self.assertEqual(failed, 1, queries[i])

    def test_corrupted_cli_output_fails(self):
        argv = ["decompose", "--product", "newell-littlewood-o", "2,1", "1"]
        good = "[1,1] + [2] + [2,2] + [2,1,1] + [3,1]"
        proc = subprocess.run([sys.executable, "-m", "symchar.cli", *argv], env=run._env(),
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(checks.parse_terms(proc.stdout), checks.parse_terms(good))
        self.assertTrue(checks.check_cli(argv, checks.cli_content(argv, good)))
        self.assertFalse(checks.check_cli(argv, checks.cli_content(argv, good.replace("[2,2]", "2*[2,2]"))))


class TraceTests(unittest.TestCase):
    def test_same_seed_same_call_counts(self):
        for w, count in (("hash", 40), ("cli", 3)):
            queries = make_stream(w, 7, count)
            calls = []
            for _ in range(2):
                values, _absent = run.layer_metrics(run.run_stream(w, queries, True)["trace"], {})
                calls.append({k: v for k, v in values.items() if k.endswith(".calls")})
            self.assertEqual(calls[0], calls[1], w)
            self.assertGreater(calls[0]["schur.SymFunc.new.calls"], 0, w)


class RssTests(unittest.TestCase):
    def test_peak_rss_is_the_childs_own(self):
        """A child's peak RSS must not read the (here inflated) peak of the
        process that started it."""
        ballast = b"x" * (150 << 20)  # noqa: F841  (kept resident while the children run)
        for w in ("outer", "cli"):
            result = run.run_stream(w, make_stream(w, 7, 2), False)
            self.assertGreater(result["peak_rss_kb"], 5 << 10, w)
            self.assertLess(result["peak_rss_kb"], 100 << 10, w)


class CalibrationTests(unittest.TestCase):
    def test_scale_uses_the_speeds_around_each_time(self):
        ref = calibrate.REFERENCE_SPEED
        times = [1.0, 2.0, 3.0]
        self.assertEqual(calibrate.scale(times, [0, 3], [ref, ref]), times)
        self.assertEqual(calibrate.scale(times, [0, 1, 3], [ref, 3 * ref, ref]), [2.0, 4.0, 6.0])

    def test_streams_report_scaled_and_raw_times(self):
        for w in ("outer", "cli"):
            result = run.run_stream(w, make_stream(w, 7, 3), False)
            self.assertEqual(len(result["scaled"]), len(result["latencies"]), w)
            self.assertTrue(all(t > 0 for t in result["scaled"]), w)


class ContractTests(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, run.per_layer_unit(n)) for n in run.PER_LAYER])

    def test_fails_without_symchar_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hash", "--seconds", "1"],
                                  cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
