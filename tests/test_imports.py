"""Which modules a cold process loads, and that every module-level import in
the package is used.  Each load check runs in a fresh interpreter, since this
test process has already imported everything; only module names are checked,
not timing."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symchar

SRC = str(Path(__file__).resolve().parent.parent / "src")
MODULES = sorted((Path(SRC) / "symchar").glob("*.py"))
LIBRARY = [
    "symchar.characters",
    "symchar.convolution",
    "symchar.hash_products",
    "symchar.fgl",
    "symchar.vertex",
]


def loaded_after(code: str) -> set[str]:
    """The names in sys.modules after running code in a new interpreter."""
    script = "\n".join([
        "import sys, io, contextlib",
        code,
        "loaded = sorted(sys.modules)",
        "import json",
        "print('MODULES', json.dumps(loaded))",
    ])
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SYMCHAR_MAX_WEIGHT", None)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.splitlines()[-1]
    assert line.startswith("MODULES ")
    return set(json.loads(line[len("MODULES "):]))


def run_main(argv: list[str]) -> str:
    return (
        "from symchar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )


def test_importing_the_cli_loads_no_handler_module():
    loaded = loaded_after("import symchar.cli")
    assert "symchar.cli" in loaded
    assert loaded.isdisjoint(LIBRARY + ["dataclasses", "fractions"])


@pytest.mark.parametrize(
    "argv",
    [["table", "3"], ["decompose", "--product", "outer", "2,1", "1"]],
)
def test_subcommand_loads_no_hash_evaluator(argv):
    loaded = loaded_after(run_main(argv))
    assert "symchar.cli" in loaded
    assert "symchar.hash_products" not in loaded


def test_hash_subcommand_loads_what_it_runs():
    """The control: the check above would also pass if nothing were imported."""
    loaded = loaded_after(run_main(["hash", "--spec", "thibon", "1", "1"]))
    assert {"symchar.hash_products", "symchar.convolution", "json"} <= loaded


def test_characters_loads_no_dataclasses():
    loaded = loaded_after("import symchar.characters")
    assert "symchar.hash_products" in loaded
    assert "dataclasses" not in loaded


def unused_imports(path: Path) -> list[str]:
    """The names bound by module-level imports of path that its code never reads."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


ROOT = Path(SRC).parent
SEARCHED = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
TRACER = ROOT / "bench" / "tracing.py"


def defined_names(stmt: ast.stmt) -> set[str]:
    """The module-level function, class or constant names that stmt defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def referenced_names(node: ast.AST, path: Path) -> set[str]:
    """Names that node, in the file at path, reads or imports.  A bare name
    counts only inside the package: in tests/ and bench/ a package name is
    reached by an import or an attribute, and a bare one is the file's own
    local (bench/run.py's loop variable `unit` is no read of `schur.unit`).
    Strings of bare identifiers count only in the tracer, which looks
    functions up by them; elsewhere such a string is a tag, a key or a label."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and path.parent.name == "symchar":
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif path == TRACER and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            words = sub.value.split()
            if words and all(w.isidentifier() for w in words):
                out.update(words)
    return out


# Module-level names that no src/ or bench/ code reads, kept on purpose: the
# paper's constructions (pairing inverses, coboundaries, group-like series)
# and the Hopf classification of hash products, which the acceptance criteria
# and the convolution tests exercise.  The public names of
# `symchar.__all__` need no entry.
KEPT = {
    "convolution.py:coboundary1",
    "convolution.py:frobenius_inverse",
    "hash_products.py:is_bialgebra",
    "series.py:is_group_like",
}


def test_every_module_level_name_is_referenced():
    """Each function, class and constant of the package is used somewhere other
    than its own definition: in src/, tests/ or bench/.  A name that only tests/
    reads is public or kept on purpose, so a test helper belongs in tests/; the
    package's re-exports do not count as a read."""
    defined: set[tuple[str, str]] = set()
    referenced: set[str] = set()
    library: set[str] = set()  # read by src/ (not the re-exports) or bench/
    for path in SEARCHED:
        for stmt in ast.parse(path.read_text()).body:
            own = defined_names(stmt)
            if path.parent.name == "symchar":
                defined.update((path.name, name) for name in own if not name.startswith("__"))
            names = referenced_names(stmt, path) - own
            referenced |= names
            if "tests" not in path.relative_to(ROOT).parts and path.name != "__init__.py":
                library |= names
    assert sorted(f"{module}:{name}" for module, name in defined if name not in referenced) == []
    test_only = {
        f"{module}:{name}"
        for module, name in defined
        if name not in library and name not in symchar.__all__
    }
    assert test_only == KEPT
