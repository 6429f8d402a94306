"""The CI workflow parses as YAML, and every step runs a command or an action."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_every_step_parses():
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    assert steps
    for step in steps:
        assert isinstance(step.get("run", step.get("uses")), str), step
