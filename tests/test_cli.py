"""End-to-end command-line interface tests (in-process)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symchar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


class TestDecompose:
    def test_newell_littlewood_golden(self, capsys):
        code, out, _ = run(capsys, "decompose", "--product", "newell-littlewood-o", "1", "1")
        assert code == 0
        assert out == "[0] + [2] + [1,1]"

    def test_outer(self, capsys):
        code, out, _ = run(capsys, "decompose", "--product", "outer", "1", "1")
        assert code == 0
        assert out == "{2} + {1,1}"

    def test_kronecker(self, capsys):
        code, out, _ = run(capsys, "decompose", "--product", "kronecker", "2,1", "2,1")
        assert code == 0
        assert out == "{3} + {2,1} + {1,1,1}"

    def test_reduced(self, capsys):
        code, out, _ = run(capsys, "decompose", "--product", "reduced", "1", "1")
        assert code == 0
        assert out == "<0> + <1> + <2> + <1,1>"

    def test_rational(self, capsys):
        code, out, _ = run(capsys, "decompose", "--product", "rational", "1;1", "1;0")
        assert code == 0
        assert out == "{1;0~} + {2;1~} + {1,1;1~}"

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--product", "outer", "1", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"][0]["label"]["kind"] == "gl"
        assert {tuple(t["label"]["partition"]) for t in payload["terms"]} == {(2,), (1, 1)}

    def test_symfunc_expression_input(self, capsys):
        code, out, _ = run(capsys, "decompose", "--product", "outer", "s[1]+s[2]", "0")
        assert code == 0
        assert out == "{1} + {2}"


class TestBranchAndSeries:
    def test_branch(self, capsys):
        code, out, _ = run(capsys, "branch", "gl_to_o", "2")
        assert code == 0
        assert out == "[0] + [2]"

    def test_series(self, capsys):
        code, out, _ = run(capsys, "series", "C", "--cap", "2")
        assert code == 0
        assert out.splitlines() == ["degree 0: {0}", "degree 1: 0", "degree 2: -{2}"]


class TestCheck:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "check", "laplace", "inner", "--max-degree", "4")
        assert code == 0
        assert out.startswith("PASS")

    def test_fail_prints_witness(self, capsys):
        code, out, _ = run(capsys, "check", "laplace", "outer", "--max-degree", "3")
        assert code == 1
        assert "witness" in out

    def test_derived_pairing_name(self, capsys):
        code, out, _ = run(
            capsys, "check", "laplace", "derived:m:inner", "--max-degree", "3"
        )
        assert code == 0

    def test_alghom(self, capsys):
        code, out, _ = run(capsys, "check", "alghom", "antipode", "--max-degree", "3")
        assert code == 0


class TestHash:
    def test_named(self, capsys):
        code, out, _ = run(capsys, "hash", "--spec", "thibon", "1", "1")
        assert code == 0
        assert out == "{1} + {2} + {1,1}"

    def test_inline_json_spec(self, capsys):
        spec = json.dumps({"stages": [{"pairing": "inner", "cocycle": "m"}], "final": "id"})
        code, out, _ = run(capsys, "hash", "--spec", spec, "1", "1")
        assert code == 0
        assert out == "{0} + {2} + {1,1}"

    def test_schur_expression_operands(self, capsys):
        code, out, _ = run(capsys, "hash", "--spec", "thibon", "s[1]+s[2]", "1")
        assert code == 0
        assert out == "{1} + 2*{2} + 2*{1,1} + {3} + {2,1}"

    @pytest.mark.parametrize(
        "spec", ['{"stages": 5}', '{"stages": [{"pairing": "inner"}]}']
    )
    def test_malformed_inline_spec(self, capsys, spec):
        code, out, err = run(capsys, "hash", "--spec", spec, "1", "1")
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1
        assert "inline spec must look like" in err

    def test_json_spec_that_is_not_an_object(self, capsys):
        code, out, err = run(capsys, "hash", "--spec", '["thibon"]', "1", "1")
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1
        assert "inline spec must look like" in err

    def test_spec_failing_laplace_check(self, capsys):
        spec = json.dumps({"stages": [{"pairing": "outer", "cocycle": "id"}]})
        code, out, err = run(capsys, "hash", "--spec", spec, "1", "1")
        assert code == 2
        assert out == ""
        assert err == "invalid hash spec: stage 0 pairing 'outer' fails the Laplace check"


class TestVertexAndFgl:
    def test_vertex_schur(self, capsys):
        code, out, _ = run(capsys, "vertex", "schur", "2,1")
        assert code == 0
        assert out.startswith("OK")

    def test_vertex_commutation(self, capsys):
        code, out, _ = run(capsys, "vertex", "check-commutation", "--cap", "3")
        assert code == 0
        assert out == "PASS"

    def test_fgl_loop(self, capsys):
        code, out, _ = run(capsys, "fgl", "loop", "gm", "3")
        assert code == 0
        assert out == "3*X + 3*X^2 + X^3"

    def test_fgl_loop_additive(self, capsys):
        code, out, _ = run(capsys, "fgl", "loop", "ga", "5")
        assert code == 0
        assert out == "5*X"

    def test_fgl_log(self, capsys):
        code, out, _ = run(capsys, "fgl", "log", "gm", "--cap", "3")
        assert code == 0
        assert out == "X - 1/2*X^2 + 1/3*X^3"

    def test_fgl_coproduct(self, capsys):
        code, out, _ = run(capsys, "fgl", "coproduct", "multiplicative", "1")
        assert code == 0
        assert out == "s[0](x)s[1] + s[1](x)s[0] + s[1](x)s[1]"


class TestTable:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "table", "3")
        assert code == 0
        assert "2,1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        assert [3] in payload["classes"]
        row = {tuple(r["lam"]): r["values"] for r in payload["rows"]}
        assert row[(1, 1, 1)] == [1, -1, 1]


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "decompose", "--product", "outer", "1,x", "1")
        assert code == 2

    def test_unknown_flag(self, capsys, tmp_path):
        code, _, _ = run(capsys, "decompose", "--banana", "1", "1")
        assert code == 2
        # table has no on-disk cache: --cache-dir is refused and nothing is written
        code, out, _ = run(capsys, "table", "3", "--cache-dir", str(tmp_path / "c"))
        assert (code, out) == (2, "")
        assert not (tmp_path / "c").exists()

    def test_resource_bound_flag(self, capsys):
        code, _, err = run(
            capsys, "--max-weight", "2", "decompose", "--product", "outer", "3", "1"
        )
        assert code == 3
        assert "resource" in err

    def test_resource_bound_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMCHAR_MAX_WEIGHT", "2")
        code, _, _ = run(capsys, "decompose", "--product", "outer", "3", "1")
        assert code == 3

    def test_table_resource_bound(self, capsys):
        for n, expected in ((12, 0), (13, 3), (40, 3)):
            code, _, err = run(capsys, "table", str(n))
            assert code == expected, n
            assert err.startswith("resource bound exceeded:") == (code == 3), n

    def test_rational_resource_bound(self, capsys):
        code, out, err = run(
            capsys, "--max-weight", "2", "decompose", "--product", "rational", "8;5", "5;8"
        )
        assert code == 3
        assert out == "" and "resource" in err

    def test_reader_closing_the_pipe_exits_141_quietly(self):
        # About 100 kB of output, more than a pipe buffer holds, so the
        # writer is still printing when the reader goes away.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["decompose", "--product", "outer", "8,6,4,2", "8,6,4,2"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "symchar.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.stdout.read(10) == b"{16,12,8,4"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""


class TestCapsAboveMaxWeight:
    @pytest.mark.parametrize(
        "argv",
        [
            ("vertex", "check-commutation", "--cap", "21"),
            ("fgl", "loop", "gm", "3", "--cap", "21"),
            ("fgl", "log", "gm", "--cap", "21"),
            ("fgl", "loop", "gm", "21"),
            ("fgl", "loop", "gm", "-21"),
        ],
    )
    def test_refused_with_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("resource bound exceeded:") and "maximum 20" in err

    @pytest.mark.parametrize("law", ["bogus", "gm:x"])
    def test_bad_law_is_reported_before_the_cap(self, capsys, law):
        code, out, err = run(capsys, "fgl", "loop", law, "3", "--cap", "21")
        assert (code, out) == (2, "")
        assert err.startswith("parse error:")

    def test_max_weight_flag_lowers_the_cap_bound(self, capsys):
        assert run(capsys, "--max-weight", "2", "vertex", "check-commutation", "--cap", "3")[0] == 3
        assert run(capsys, "--max-weight", "3", "vertex", "check-commutation", "--cap", "3")[0] == 0


class TestNegativeBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "laplace", "inner", "--max-degree", "-3"),
            ("series", "M", "--cap", "-1"),
            ("table", "-1"),
            ("vertex", "check-commutation", "--cap", "-1"),
            ("fgl", "log", "gm", "--cap", "-1"),
        ],
    )
    def test_rejected_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "must be >= 0" in err

    def test_commutation_cap_zero_compares_nothing_and_is_refused(self, capsys):
        code, out, err = run(capsys, "vertex", "check-commutation", "--cap", "0")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "cap must be >= 1" in err


class TestFormatterGoldens:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("fgl", "loop", "gm", "-1", "--cap", "4"), "-X + X^2 - X^3 + X^4"),
            (("fgl", "loop", "gm:2", "-2", "--cap", "3"), "-2*X + 6*X^2 - 16*X^3"),
            (("fgl", "loop", "gm", "0"), "0"),
            (("fgl", "coproduct", "multiplicative", "0"), "s[0](x)s[0]"),
            (("decompose", "--product", "kronecker", "s[2]-3s[1,1]", "2"), "{2} - 3*{1,1}"),
        ],
    )
    def test_output(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")


class TestNegativeMaxWeight:
    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "--product", "outer", "0", "0"),
            ("table", "3"),
        ],
    )
    def test_flag(self, capsys, argv):
        code, out, err = run(capsys, "--max-weight", "-1", *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "--max-weight must be >= 0" in err

    def test_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMCHAR_MAX_WEIGHT", "-1")
        code, out, err = run(capsys, "decompose", "--product", "outer", "0", "0")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "SYMCHAR_MAX_WEIGHT must be >= 0" in err


class TestCheckNames:
    @pytest.mark.parametrize(
        "prop, name",
        [
            ("laplace", "derived:m"),
            ("laplace", "nope"),
            ("alghom", "nope"),
            ("alghom", "inner"),
            ("frobenius", "derived:m:nope"),
            ("cocycle2", "derived:nope:inner"),
        ],
    )
    def test_unknown_name_lists_the_accepted_ones(self, capsys, prop, name):
        code, out, err = run(capsys, "check", prop, name)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and repr(name) in err
        for accepted in ("e2", "inner", "outer", "schur-hall", "antipode", "id", "m"):
            assert accepted in err
        assert "derived:<cochain>:<pairing>" in err
