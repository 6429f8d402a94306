"""Mutation catalogue: small changes to `src/` that the test suite must catch.

Each row is (file under src/symchar, exact old text, new text, why, the test
files that kill it).  For each row the script copies the repository to a
temporary directory and replaces the old text (which must occur exactly once)
in the copy.  It runs `pytest -x -q` there, so the suite and every subprocess
it starts import the mutated copy: first on the row's own test files, then on
the whole suite only if they pass.  The whole suite includes the row's files,
so the files a row names change its cost, not its verdict.  A row is

  killed    when the run fails, as it should;
  survived  when the run passes: no test sees the change;
  stale     when the old text is not found exactly once in the file.

The script exits 1 if any row survives or is stale.  It first checks itself on
three rows of its own, run against tests/test_partitions.py only: a
whitespace-only change (an equivalent mutant, which must be reported as
surviving), a real change (killed) and an absent old text (stale).

A row is added wherever a test is claimed to catch a mutation, naming the
files of those tests.  A row killed by its files costs those files up to the
first failure; a surviving one costs them and a full run.

Run from anywhere:

    python tests/mutants.py

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str
    first: tuple[str, ...] = ()  # test files run before the whole suite


CATALOGUE = [
    Mutant(
        "convolution.py",
        '("left", at, (z, x, y))',
        '("left", at, (x, y, z))',
        "is_laplace reads a's left law as a^T's right law at (z, x, y), not at (x, y, z)",
        ("tests/test_convolution.py",),
    ),
    Mutant(
        "convolution.py",
        "lambda mu, nu: a.on_basis(nu, mu)",
        "lambda mu, nu: a.on_basis(mu, nu)",
        "_transposed swaps its arguments",
        ("tests/test_convolution.py",),
    ),
    Mutant(
        "schur.py",
        "return SymFunc({make_partition(lam): 1})",
        "return SymFunc({tuple(lam): 1})",
        "SymFunc.basis checks its label: trailing zeros dropped, non-partitions refused",
        ("tests/test_schur.py",),
    ),
    Mutant(
        "partitions.py",
        "        return known\n",
        "        return lam\n",
        "make_partition answers a label held in CANONICAL with the stored int tuple, not the label",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "schur.py",
        "counts[v - 1] < counts[v - 2]:",
        "counts[v - 1] < counts[v - 2] + (v == 6):",
        "_row_step's lattice-word test, off by one at v = 6",
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "schur.py",
        "out.terms = dict(image) if c == 1",
        "out.terms = image if c == 1",
        "_bilinear answers a single basis pair with a copy of the cached image, never the image itself",
        ("tests/test_aliasing.py",),
    ),
    Mutant(
        "convolution.py",
        'f"inv({a.name})", a.grade_preserving',
        'f"inv({a.name})"',
        "milnor_moore_inverse2 declares abar's grading",
        ("tests/test_convolution.py",),
    ),
    Mutant(
        "kronecker.py",
        '(e + o + bias).to_bytes(size, "little") + (e - o + bias)',
        '(e - o + bias).to_bytes(size, "little") + (e + o + bias)',
        "E + O holds den * g^lam and E - O den * g^lam', not the other way round",
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "schur.py",
        "return _bilinear(f, g, _product)",
        "return _bilinear(f, g, product_basis)",
        "a caller's one-off outer_mul computes through the uncached kernel and stores nothing",
        ("tests/test_schur.py",),
    ),
    Mutant(
        "schur.py",
        "            if half:\n                out[(eta, nu)] = c\n",
        "",
        "coproduct_basis writes each term (eta, nu) with 2|eta| > |lam| from its swap (nu, eta)",
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "schur.py",
        "            if v:\n                terms[k] = v\n            else:\n                terms.pop(k, None)\n",
        "            terms[k] = v\n",
        "_Combination.add drops the terms that cancel instead of keeping a zero coefficient",
        ("tests/test_schur.py",),
    ),
    Mutant(
        "kronecker.py",
        "return dict(compress(zip(partitions_of(n), g), g))",
        "return dict(sorted(compress(zip(partitions_of(n), g), g), key=lambda t: where[t[0]][1]))",
        "kronecker_basis returns its terms in partitions_of(n) order, not the representatives first",
        ("tests/test_kronecker.py",),
    ),
    Mutant(
        "schur.py",
        "[identity_cochain()] * r)",
        "[identity_cochain()] * (r + 1))",
        "loop(r, f) is the r-th convolution power of id, not the (r + 1)-th",
        ("tests/test_schur.py",),
    ),
    Mutant(
        "kronecker.py",
        "(lam, rho): character(lam, rho)",
        "(lam, rho): character(rho, lam)",
        "character_table holds chi^lam(rho) at (lam, rho), not chi^rho(lam)",
        ("tests/test_kronecker.py",),
    ),
    Mutant(
        "fgl.py",
        "lam = padd(lam, pscale(step, -1))",
        "lam = padd(lam, step)",
        "antipode_series steps lambda <- lambda - F(X, lambda), not lambda + F(X, lambda)",
        ("tests/test_fgl.py",),
    ),
    Mutant(
        "fgl.py",
        "{(i,): c for i, j, c in F.coeffs if j == 1}",
        "{(j,): c for i, j, c in F.coeffs if j == 1}",
        "fgl_log's dF/dY(X, 0) - 1 puts c_{i,1} at X^i, not at the Y exponent X^1",
        ("tests/test_fgl.py",),
    ),
    Mutant(
        "partitions.py",
        "sum(b < c for",
        "sum(b > c for",
        "standardize's sign counts the inversions of beta, not its ordered pairs",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "partitions.py",
        "parts[-1] < 0:",
        "parts[-1] < -1:",
        "standardize annihilates every composition that leaves a negative part",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "partitions.py",
        "conjugate(cols)[r:]",
        "conjugate(cols)[r + 1:]",
        "from_frobenius reads the rows below the diagonal from row r of the columns' conjugate",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "fgl.py",
        "out = F.apply(out, x)",
        "out = F.apply(out, var(1, 0))",
        "loop_n steps with lambda(X), not X, for n < 0",
        ("tests/test_fgl.py",),
    ),
    Mutant(
        "fgl.py",
        "if i + j <= cap and",
        "if i + j <= cap + 1 and",
        "FGL1.make keeps only the coefficients with i + j <= cap",
        ("tests/test_fgl.py",),
    ),
    Mutant(
        "fgl.py",
        "if i + j <= cap:",
        "if i + j <= cap + 1:",
        "FGL1.apply reads only the coefficients with i + j <= cap, however the law was built",
        ("tests/test_fgl.py",),
    ),
    Mutant(
        "series.py",
        "range(d + 1)",
        "range(d)",
        "a series truncated at degree d keeps its degree-d term",
        ("tests/test_series.py",),
    ),
    Mutant(
        "series.py",
        "weight(a) + weight(b) <= cap",
        "weight(a) + weight(b) < cap",
        "is_group_like cuts series (x) series at total degree cap, not below it",
        ("tests/test_series.py",),
    ),
    Mutant(
        "convolution.py",
        "for q, c in row.items() if p else ()",
        "for q, c in row.items() if p and p != (2, 1) else ()",
        "_convolve's last loop multiplies out every row p, (2,1) included",
        ("tests/test_characters.py",),
    ),
    Mutant(
        "partitions.py",
        "rest[:1] <= (first,)",
        "rest[:1] < (first,)",
        "partitions_of follows a first part by the partitions of the rest whose first part is at most as large",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "schur.py",
        "[p + 1 for p in lam]",
        "[p for p in lam]",
        "eval_monomials branches over every mu interlacing lam, mu_i = lam_i included",
        ("tests/test_schur.py",),
    ),
    Mutant(
        "fgl.py",
        "skews.setdefault(mu, {})[nu] = c",
        "skews.setdefault(mu, {})[nu] = 1",
        "Delta_m's skew f/s_mu carries the coefficients of Delta f, not 1",
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "characters.py",
        "{False: convolve2(schur_hall_pairing(), _TENSOR),  # by x.irreducible\n          True:",
        "{True: convolve2(schur_hall_pairing(), _TENSOR),  # by x.irreducible\n          False:",
        "a reducible character converts by T, head schur-hall, and an irreducible one by T-bar, its inverse",
        ("tests/test_characters.py",),
    ),
    Mutant(
        "characters.py",
        "_CROSS[x.irreducible].on_basis",
        "_CROSS[x.irreducible]._fn",
        "a conversion reads each T(a, b) and T-bar(a, b) through the stage's memo, computing it once per process",
        ("tests/test_characters.py",),
    ),
    Mutant(
        "characters.py",
        "lambda x2, y2: {(x2, y2): 1}",
        "lambda x2, y2: {(y2, x2): 1}",
        "the conversions' tail keeps the covariant leg first",
        ("tests/test_characters.py",),
    ),
    Mutant(
        "schur.py",
        "_bilinear(xs, ys, product_basis)",
        "_bilinear(xs, xs, product_basis)",
        "the tensor product's left sum multiplies the first legs of both factors",
        ("tests/test_characters.py",),
    ),
    Mutant(
        "cli.py",
        'int(name == "gm")',
        "1",
        "fgl's law token ga is G_m^0 = G_a, not G_m",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "hash_products.py",
        "if is_frobenius(composite, max_degree):",
        "if not is_frobenius(composite, max_degree):",
        "is_bialgebra raises only when a Frobenius composite fails the law; NL's is not Frobenius",
        ("tests/test_hash.py",),
    ),
    Mutant(
        "series.py",
        'if tag in ("A", "C") else 1',
        'if tag in ("B", "D") else 1',
        "the (-1)^{d/2} sign is on A and C, not B and D (the sign moved to the other member of each "
        "pair keeps every inverse pair and round trip)",
        ("tests/test_series.py",),
    ),
    Mutant(
        "partitions.py",
        '            if part < 0 < count:\n                raise ValueError(f"not a partition: {text!r}")\n',
        "",
        "parse_partition refuses a negative exponent-form part by its text, before the weight bound",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "convolution.py",
        "for n in range(max_degree + 1):",
        "for n in range(max_degree):",
        "is_frobenius builds delta_a on every grade up to max_degree, max_degree included",
        ("tests/test_convolution.py",),
    ),
    Mutant(
        "convolution.py",
        "if weight(lam) == n:",
        "if True:",
        "is_frobenius files a term s_lam of a(mu, nu), mu and nu in grade n, under delta_a(s_lam) only when |lam| = n",
        ("tests/test_convolution.py",),
    ),
    Mutant(
        "convolution.py",
        "CHECK_DEGREE = 4",
        "CHECK_DEGREE = 3",
        "derived_pairing and validate_spec check their cochains to degree 4, not 3",
        ("tests/test_hash.py",),
    ),
    Mutant(
        "partitions.py",
        "value > max_weight",
        "value >= max_weight",
        "a label whose weight equals the bound is read; only one above it is refused",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "partitions.py",
        'text[:1] == "-"',
        'text[:1] in "-+"',
        "an integer is an optional - and ASCII digits: gm:+3 and the label +3 are refused, not read as 3",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "partitions.py",
        "digits.isascii() and digits.isdigit()",
        "digits.isdigit()",
        "an integer's digits are ASCII: a full-width or Arabic-Indic digit is refused, not read by int()",
        ("tests/test_partitions.py",),
    ),
    Mutant(
        "formats.py",
        "(?:([0-9]+)",
        r"(?:(\d+)",
        "a coefficient is ASCII digits: one written in full-width or Arabic-Indic digits is refused",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli.py",
        'data.keys() - {"stages", "final"} or any(st.keys() - {"pairing", "cocycle"} for st in specs)',
        "False",
        "an inline hash spec with a key it does not read (a misspelt stages, a final inside a stage) is refused",
        ("tests/test_cli.py",),
    ),
]

SELF_TEST = [
    (Mutant("partitions.py", "    return sum(lam)\n", "    return  sum(lam)\n", "whitespace only"), "survived"),
    (Mutant("partitions.py", "    return sum(lam)\n", "    return sum(lam) + 1\n", "weight off by one"), "killed"),
    (Mutant("partitions.py", "    return sum(lam) - 1\n", "    return sum(lam)\n", "old text absent"), "stale"),
]


def run_row(row: Mutant, tests: tuple[str, ...] = ("tests",)) -> tuple[str, str]:
    """(verdict, first failing test or "") for row, on a fresh copy of the repository:
    the row's own test files first, then `tests` only if they pass."""
    with tempfile.TemporaryDirectory(prefix="symchar-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*cache", ".hypothesis"))
        target = copy / "src" / "symchar" / row.file
        text = target.read_text()
        if text.count(row.old) != 1:
            return "stale", ""
        target.write_text(text.replace(row.old, row.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        for files in filter(None, (row.first, tests)):
            command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
            proc = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
            if proc.returncode:
                break
    if proc.returncode == 0:
        return "survived", ""
    if proc.returncode not in (1, 2):  # 1: a test failed; 2: collection stopped
        raise RuntimeError(f"pytest exited {proc.returncode} on {row.why!r}:\n{proc.stdout}{proc.stderr}")
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed", failed[0] if failed else proc.stdout.strip().splitlines()[-1]


def self_test() -> None:
    for row, expected in SELF_TEST:
        verdict, _ = run_row(row, ("tests/test_partitions.py",))
        if verdict != expected:
            raise SystemExit(f"self-test: the {row.why!r} row is {verdict}, expected {expected}")
        print(f"self-test: {row.why}: {verdict}", flush=True)


def main() -> int:
    begin = time.perf_counter()
    self_test()
    bad = 0
    for row in CATALOGUE:
        start = time.perf_counter()
        verdict, detail = run_row(row)
        print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  {row.file}: {row.why}  {detail}", flush=True)
        bad += verdict != "killed"
    print(f"{len(CATALOGUE) - bad} of {len(CATALOGUE)} rows killed in {time.perf_counter() - begin:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
