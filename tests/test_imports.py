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
