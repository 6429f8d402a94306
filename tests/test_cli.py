"""End-to-end command-line interface tests (in-process)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symchar.cli import _PRODUCTS, build_parser, main
from symchar.partitions import partitions_of
from symchar.schur import s


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

    def test_series_json_carries_its_cap(self, capsys):
        code, out, _ = run(capsys, "series", "D", "--cap", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"] == {"cap": 2}
        assert [[t["label"]["partition"] for t in terms] for terms in payload["degrees"]] == [[[]], [], [[2]]]


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
        "spec",
        [
            '{"stages": 5}',
            '{"stages": [{"pairing": "inner"}]}',
            '{"stage": [{"pairing": "inner", "cocycle": "id"}]}',
            '{"stages": [{"pairing": "inner", "cocycle": "m", "final": "antipode"}]}',
        ],
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

    def test_malformed_inline_spec_message_is_pinned(self, capsys):
        code, out, err = run(capsys, "hash", "--spec", '{"stages": 5}', "1", "1")
        assert (code, out) == (2, "")
        assert err == (
            'parse error: inline spec must look like {"stages": [{"pairing": P, "cocycle": C}, ...],'
            """ "final": C} with P in ['e2', 'inner', 'outer', 'schur-hall'] and C in ['antipode', 'e', 'id', 'm']"""
        )

    def test_unparsable_inline_spec(self, capsys):
        """A spec that starts like a JSON object but does not parse is reported by
        the JSON decoder, not looked up as a spec name."""
        code, out, err = run(capsys, "hash", "--spec", "{", "1", "1")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("parse error: ")
        assert "line 1 column 2" in err and "unknown hash spec" not in err

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

    def test_vertex_schur_mismatch(self, capsys, monkeypatch):
        import symchar.vertex

        monkeypatch.setattr(symchar.vertex, "schur_via_bernstein", lambda lam: s(*lam) + s(1))
        code, out, _ = run(capsys, "vertex", "schur", "2,1")
        assert code == 1
        assert out == "MISMATCH: difference {1}"

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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_text_columns_hold_their_labels(self, capsys, n):
        """Every class label is one header field and every row is its label and
        p(n) integers, however wide the labels.  Up to n = 6 the label column
        is 12 wide and the class columns are equally wide."""
        code, out, _ = run(capsys, "table", str(n))
        head, *rows = out.splitlines()
        names = [",".join(map(str, rho)) for rho in partitions_of(n)]
        assert code == 0 and head.split() == names
        for row, name in zip(rows, names, strict=True):
            label, *values = row.split()
            assert label == name and len(values) == len(names)
            if n <= 6:  # the layout the benchmark's table parser reads
                cells = row[12:]
                width = len(cells) // len(names)
                assert row[:12].strip() == name and len(cells) == width * len(names)
                assert [int(cells[i:i + width]) for i in range(0, len(cells), width)] == list(map(int, values))

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


class TestExponentFormBound:
    """The weight of an exponent-form label is checked before its parts are expanded."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("decompose", "--product", "outer", "[1^99999999999]", "1"),
            ("decompose", "--product", "outer", "[1^5000000]", "1"),
            ("branch", "gl_to_o", "[1^99999999999]"),
            ("hash", "--spec", "thibon", "1", "[3^99999999999]"),
            ("decompose", "--product", "rational", "[1^99999999999];1", "1;1"),
            ("vertex", "schur", "[2^99999999999]"),
            ("fgl", "coproduct", "additive", "[1,1^99999999999]"),
        ],
        ids=["decompose", "five million", "branch", "hash", "rational", "vertex", "fgl"],
    )
    def test_over_weight_labels_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("resource bound exceeded:")

    def test_zero_parts_never_expand(self, capsys):
        assert run(capsys, "decompose", "--product", "outer", "[0^99999999999]", "2,1") == run(
            capsys, "decompose", "--product", "outer", "0", "2,1"
        )

    def test_exponent_out_of_range_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "decompose", "--product", "outer", "[1^100000000000000000000]", "1")
        assert (code, out) == (2, "")
        assert err == "parse error: exponent out of range in '1^100000000000000000000'"

    def test_negative_part_is_a_parse_error(self, capsys):
        assert run(capsys, "decompose", "--product", "outer", "[-1^3,5]", "1") == (
            2, "", "parse error: not a partition: '[-1^3,5]'"
        )


def label_argvs():
    """(argv with "{}" where one label goes, the label over the default bound of 20, the
    label at it) for every place a command reads a label; a rational pair weighs 21 or 20."""
    for product in _PRODUCTS:
        yield pytest.param(("decompose", "--product", product, "{}", "1"), "21", "20", id=f"{product} lhs")
        yield pytest.param(("decompose", "--product", product, "1", "{}"), "21", "20", id=f"{product} rhs")
    yield pytest.param(("branch", "gl_to_o", "{}"), "21", "20", id="branch")
    yield pytest.param(("hash", "--spec", "thibon", "{}", "1"), "21", "20", id="hash")
    yield pytest.param(("vertex", "schur", "{}"), "21", "20", id="vertex schur")
    yield pytest.param(("fgl", "coproduct", "additive", "{}"), "21", "20", id="fgl coproduct")
    yield pytest.param(("decompose", "--product", "rational", "{}", "1;1"), "15;6", "15;5", id="rational")


class TestLabelBound:
    """Every label, plain or exponent form, is bounded by the parser that reads it."""

    @pytest.mark.parametrize("argv, over, at", label_argvs())
    def test_over_weight_label_exits_3_and_one_at_the_bound_answers(self, capsys, argv, over, at):
        code, out, err = run(capsys, *(a.format(over) for a in argv))
        assert (code, out) == (3, "")
        assert err == "resource bound exceeded: input weight 21 exceeds the configured maximum 20"
        code, out, err = run(capsys, *(a.format(at) for a in argv))
        assert code == 0 and out and not err

    @pytest.mark.parametrize("expression", ["s[25]-s[25]", "s[25]+s["])
    def test_an_over_weight_term_is_refused_before_the_rest_is_read(self, capsys, expression):
        """Terms that cancel, or a malformed term after it, do not hide an over-weight one."""
        code, out, err = run(capsys, "decompose", "--product", "outer", expression, "1")
        assert (code, out) == (3, "")
        assert err == "resource bound exceeded: input weight 25 exceeds the configured maximum 20"

    @pytest.mark.parametrize("pair, weight", [("25;30", 25), ("3;30", 30)])
    def test_rational_label_reports_its_first_over_weight_leg(self, capsys, pair, weight):
        code, out, err = run(capsys, "decompose", "--product", "rational", pair, "1;1")
        assert (code, out) == (3, "")
        assert err == f"resource bound exceeded: input weight {weight} exceeds the configured maximum 20"


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

    @pytest.mark.parametrize("law", ["bogus", "gm:x", "gm: 3", "gm:+3", "gm:3 ", "gm:\uff13", "gm:1_0"])
    def test_bad_law_is_reported_before_the_cap(self, capsys, law):
        code, out, err = run(capsys, "fgl", "loop", law, "3", "--cap", "21")
        assert (code, out) == (2, "")
        assert err.startswith("parse error:")

    def test_max_weight_flag_lowers_the_cap_bound(self, capsys):
        assert run(capsys, "--max-weight", "2", "vertex", "check-commutation", "--cap", "3")[0] == 3
        assert run(capsys, "--max-weight", "3", "vertex", "check-commutation", "--cap", "3")[0] == 0


# Every place a command reads an integer: "{}" is where the token goes.
LABEL_SITES = {
    "label part": ("decompose", "--product", "outer", "2,{}", "1"),
    "exponent base": ("decompose", "--product", "outer", "[{}^2]", "1"),
    "exponent count": ("decompose", "--product", "outer", "[2^{}]", "1"),
    "coefficient": ("decompose", "--product", "outer", "s[2]+{}*s[1]", "1"),
    "rational leg": ("decompose", "--product", "rational", "{};1", "1;1"),
    "gm:b": ("fgl", "loop", "gm:{}", "3"),
}
OPTION_SITES = {
    "--max-weight": ("--max-weight", "{}", "table", "3"),
    "series --cap": ("series", "M", "--cap", "{}"),
    "check --max-degree": ("check", "laplace", "inner", "--max-degree", "{}"),
    "vertex check-commutation --cap": ("vertex", "check-commutation", "--cap", "{}"),
    "fgl loop n": ("fgl", "loop", "gm", "{}"),
    "fgl loop --cap": ("fgl", "loop", "gm", "3", "--cap", "{}"),
    "fgl log --cap": ("fgl", "log", "gm", "--cap", "{}"),
    "table n": ("table", "{}"),
}
NOT_INTEGERS = ("1_0", "+3", "\uff13", "\u0663")


class TestIntegerGrammar:
    """Every integer is an optional - and ASCII digits, wherever a command reads it."""

    @pytest.mark.parametrize("token", NOT_INTEGERS)
    @pytest.mark.parametrize("site", [*LABEL_SITES, *OPTION_SITES, "SYMCHAR_MAX_WEIGHT"])
    def test_refused_with_exit_2(self, capsys, monkeypatch, site, token):
        if site == "SYMCHAR_MAX_WEIGHT":
            monkeypatch.setenv(site, token)
            argv = ("table", "3")
        else:
            argv = tuple(a.format(token) for a in {**LABEL_SITES, **OPTION_SITES}[site])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        if site in OPTION_SITES:
            assert err.startswith("usage: ") and err.splitlines()[-1].endswith(f"invalid integer value: {token!r}")
        else:
            assert err == f"parse error: invalid integer {token!r}" or (
                site == "coefficient" and err.startswith("parse error: cannot parse symmetric function at: ")
            )

    @pytest.mark.parametrize("site", [*LABEL_SITES, *OPTION_SITES])
    def test_the_same_sites_answer_ascii_digits(self, capsys, site):
        code, out, err = run(capsys, *(a.format("1") for a in {**LABEL_SITES, **OPTION_SITES}[site]))
        assert code in (0, 1) and out and not err


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

    def test_message_is_pinned(self, capsys):
        code, out, err = run(capsys, "check", "laplace", "nope")
        assert (code, out) == (2, "")
        assert err == (
            "parse error: unknown name 'nope'; accepted: pairings e2, inner, outer, schur-hall;"
            " cochains antipode, e, id, m; or derived:<cochain>:<pairing>"
        )


DEEP = "[" * 20000 + "]" * 20000
# No argument of any subcommand accepts these: each is refused with exit 2 or 3.
REFUSED = (
    "1,0,1", "[1^-1]", "[1^100000000000000000000]", "no-such-name", DEEP, '{"stages": ' + DEEP + "}"
)
HOSTILE = ("", "-1", *REFUSED)


def leaf_parsers(parser, path=()):
    """(command path, parser) for every subcommand that runs a handler."""
    if parser._subparsers is None:
        yield path, parser
        return
    for action in parser._subparsers._group_actions:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, path + (name,))


def hostile_argvs(path, parser):
    """(argv, value): each argument that takes a value set in turn to each
    hostile value, every other one to its first choice or to "1"."""
    actions = [a for a in parser._actions if a.nargs != 0]  # not --help, not --json
    plain = [next(iter(a.choices)) if a.choices else "1" for a in actions]
    for i in range(len(actions)):
        for value in HOSTILE:
            argv = list(path)
            for action, v in zip(actions, plain[:i] + [value] + plain[i + 1:]):
                argv += [action.option_strings[0], v] if action.option_strings else [v]
            yield argv, value


class TestContract:
    @pytest.mark.parametrize(
        "path, parser",
        [pytest.param(path, parser, id=" ".join(path)) for path, parser in leaf_parsers(build_parser())],
    )
    def test_every_leaf_answers_hostile_arguments(self, capsys, path, parser):
        """Exit 0, exit 1 from a check, or exit 2 or 3 with one stderr line
        (argparse's own usage errors end in one `error:` line)."""
        for argv, value in hostile_argvs(path, parser):
            code, out, err = run(capsys, *argv)
            assert code in (0, 1, 2, 3), argv
            assert code != 1 or path[0] in ("check", "vertex"), argv
            assert code in (2, 3) or value not in REFUSED, argv
            if code in (2, 3):
                lines = err.splitlines()
                usage = err.startswith("usage: ") and lines[-1].startswith(parser.prog + ": error: ")
                assert out == "" and (usage or len(lines) == 1), argv

    @pytest.mark.parametrize(
        "argv, code, prefix",
        [
            (("decompose", "--product", "rational", "[1^-1];1", "1;1"), 2, "parse error: exponent"),
            (("fgl", "loop", "gm", "3", "--cap", "0"), 2, "parse error: cap must be >= 1"),
            (("fgl", "loop", "gm", "-3", "--cap", "0"), 2, "parse error: cap must be >= 1"),
            (("fgl", "log", "gm", "--cap", "0"), 2, "parse error: cap must be >= 1"),
            (("hash", "--spec", DEEP, "1", "1"), 3, "resource bound exceeded: maximum recursion"),
            (("decompose", "--product", "outer", "s[2] s[1]", "0"), 2, "parse error: cannot parse symmetric"),
            (("decompose", "--product", "outer", "s[2]s[1]", "0"), 2, "parse error: cannot parse symmetric"),
        ],
        ids=["rational negative exponent", "loop 3 cap 0", "loop -3 cap 0", "log cap 0", "deep spec",
             "terms with a space and no sign", "terms with no sign"],
    )
    def test_misread_inputs_are_refused(self, capsys, argv, code, prefix):
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert len(err.splitlines()) == 1 and err.startswith(prefix)
